//! # kernelgen — declarative kernel-family generation
//!
//! The paper evaluates Liquid SIMD on 15 hand-written kernels. This
//! crate grows the suite into *hundreds* of parameterized variants:
//! a small declarative DSL (the `kernel-v1` text format) describes a
//! kernel *family* — element type, op chain, reduction, permute or
//! stencil pattern, or a deliberately untranslatable memory idiom —
//! and a seeded expander instantiates it over a `trips × unrolls`
//! grid. Translatable families lower through [`KernelBuilder`] to the
//! same triple `crates/workloads` provides (vector IR → scalarized
//! loop → gold-native reference); untranslatable families lower to
//! scalar assembly pinned to the exact [`AbortReason`] tag the
//! translator must report. [`emit_region`] is the one emitter of such
//! regions: `conform` draws its illegal cases from the same idioms.
//!
//! Everything is deterministic: same spec text ⇒ byte-identical
//! family set, at any `--jobs`, on any host.
//!
//! The seeded corpus under `bench/families/` is compiled in via
//! [`CORPUS`], so `workloads::generated()`, `liquid-simd gen`, and
//! tier-1 tests replay it without touching the filesystem.
//!
//! [`KernelBuilder`]: liquid_simd_compiler::KernelBuilder
//! [`AbortReason`]: crate::spec::Idiom::expected_abort

pub mod emit;
pub mod expand;
pub mod format;
mod rng;
pub mod spec;

pub use emit::{emit_region, Payload};
pub use expand::{expand, expand_all, variant_name, Variant};
pub use format::{parse, print, MAGIC};
pub use spec::{FamilySpec, Idiom};

/// The seeded spec corpus checked in under `bench/families/`,
/// compiled into the binary as `(file_name, text)` pairs.
pub const CORPUS: &[(&str, &str)] = &[
    (
        "stencil3_f32.kernel",
        include_str!("../../../bench/families/stencil3_f32.kernel"),
    ),
    (
        "stencil5_i16.kernel",
        include_str!("../../../bench/families/stencil5_i16.kernel"),
    ),
    (
        "codec_sat_i8.kernel",
        include_str!("../../../bench/families/codec_sat_i8.kernel"),
    ),
    (
        "dot_i32.kernel",
        include_str!("../../../bench/families/dot_i32.kernel"),
    ),
    (
        "dot_f32.kernel",
        include_str!("../../../bench/families/dot_f32.kernel"),
    ),
    (
        "mix_shift_i32.kernel",
        include_str!("../../../bench/families/mix_shift_i32.kernel"),
    ),
    (
        "bfly_f32.kernel",
        include_str!("../../../bench/families/bfly_f32.kernel"),
    ),
    (
        "histogram_i32.kernel",
        include_str!("../../../bench/families/histogram_i32.kernel"),
    ),
    (
        "scatter_splat.kernel",
        include_str!("../../../bench/families/scatter_splat.kernel"),
    ),
    (
        "strided2.kernel",
        include_str!("../../../bench/families/strided2.kernel"),
    ),
    (
        "gather_cam.kernel",
        include_str!("../../../bench/families/gather_cam.kernel"),
    ),
    (
        "cond_alu.kernel",
        include_str!("../../../bench/families/cond_alu.kernel"),
    ),
    (
        "nested_call.kernel",
        include_str!("../../../bench/families/nested_call.kernel"),
    ),
    (
        "no_loop.kernel",
        include_str!("../../../bench/families/no_loop.kernel"),
    ),
    (
        "oversized.kernel",
        include_str!("../../../bench/families/oversized.kernel"),
    ),
    (
        "trip_skew.kernel",
        include_str!("../../../bench/families/trip_skew.kernel"),
    ),
    (
        "bound_drift.kernel",
        include_str!("../../../bench/families/bound_drift.kernel"),
    ),
    (
        "wide_offset.kernel",
        include_str!("../../../bench/families/wide_offset.kernel"),
    ),
    (
        "many_live.kernel",
        include_str!("../../../bench/families/many_live.kernel"),
    ),
];

/// Parse every corpus spec (corpus file order).
pub fn corpus_specs() -> Result<Vec<FamilySpec>, String> {
    CORPUS
        .iter()
        .map(|&(name, text)| format::parse(name, text))
        .collect()
}

/// Expand the whole embedded corpus into its variant set.
pub fn expand_corpus() -> Result<Vec<Variant>, String> {
    expand_all(&corpus_specs()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_simd_isa::{PermKind, SUPPORTED_WIDTHS};

    #[test]
    fn corpus_parses_and_round_trips() {
        for &(name, text) in CORPUS {
            let spec = format::parse(name, text).unwrap();
            let printed = format::print(&spec);
            let back = format::parse(name, &printed).unwrap();
            assert_eq!(back, spec, "{name}: parse→print→parse identity");
        }
    }

    #[test]
    fn corpus_expands_to_at_least_100_variants() {
        let variants = expand_corpus().unwrap();
        assert!(
            variants.len() >= 100,
            "corpus yields {} variants, want >= 100",
            variants.len()
        );
        // Names are unique across the whole set.
        let names: std::collections::BTreeSet<&str> =
            variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names.len(), variants.len());
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = expand_corpus().unwrap();
        let b = expand_corpus().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.data_seed, y.data_seed);
            match (&x.payload, &y.payload) {
                (Payload::Asm { src: s1, .. }, Payload::Asm { src: s2, .. }) => {
                    assert_eq!(s1, s2);
                }
                (Payload::Kernel(w1), Payload::Kernel(w2)) => {
                    assert_eq!(w1.name, w2.name);
                    assert_eq!(w1.reps, w2.reps);
                }
                _ => panic!("payload kind mismatch for {}", x.name),
            }
        }
    }

    #[test]
    fn kernel_variants_validate_and_asm_variants_carry_tags() {
        let variants = expand_corpus().unwrap();
        let mut kernels = 0usize;
        let mut asms = 0usize;
        for v in &variants {
            match &v.payload {
                Payload::Kernel(w) => {
                    w.validate().unwrap();
                    kernels += 1;
                }
                Payload::Asm { expected_tag, src } => {
                    assert!(!expected_tag.is_empty());
                    assert!(src.contains("bl.v"), "{}: outlined via bl.v", v.name);
                    asms += 1;
                }
            }
        }
        assert!(kernels >= 90, "legal variants: {kernels}");
        assert!(asms >= 8, "untranslatable variants: {asms}");
    }

    #[test]
    fn gather_tile_misses_the_cam_at_every_width() {
        // The gather idiom relies on this tile matching no PermKind at
        // any supported width (the translator tracks the first `lanes`
        // offsets).
        for &w in &SUPPORTED_WIDTHS {
            assert!(
                PermKind::match_offsets(&spec::GATHER_TILE[..w], w).is_none(),
                "tile unexpectedly matches a permute at width {w}"
            );
        }
    }
}
