//! Conformance for kernelgen-generated families.
//!
//! Every variant the generator emits runs through the same differential
//! oracle as the hand-written and fuzzed cases: translatable variants
//! get the full gold/plain/liquid/native cross-check at every width,
//! untranslatable idioms (histogram, scatter, gather, non-unit stride)
//! get the abort-never-mistranslate check against their expected tag.
//! `liquid-simd gen --check` is a thin CLI wrapper over this module.

use liquid_simd::isa::ElemType;
use liquid_simd::run_tasks;
use liquid_simd_kernelgen::{expand_corpus, Payload, Variant};

use crate::oracle::{self, CaseOutcome};

/// Runs one generated variant through the conformance oracle.
#[must_use]
pub fn check_variant(v: &Variant) -> CaseOutcome {
    let mut outcome = match &v.payload {
        Payload::Kernel(w) => {
            // The emitter's reduction accumulator is always named
            // `racc`; an f32 one reassociates under SIMD, so it gets
            // the same relative tolerance legal fuzz cases do.
            let f32_racc_rtol = matches!(w.data.get("racc"), Some(&(ElemType::F32, _)));
            oracle::check_workload(&v.name, w, f32_racc_rtol, false)
        }
        Payload::Asm { src, expected_tag } => {
            oracle::check_untranslatable(&v.name, src, expected_tag)
        }
    };
    outcome.family = v.family.clone();
    outcome
}

/// Checks a whole variant list in parallel (deterministic: results come
/// back in input order regardless of `jobs`).
#[must_use]
pub fn check_variants(variants: &[Variant], jobs: usize) -> Vec<CaseOutcome> {
    run_tasks(jobs, variants.len(), |i| {
        Ok::<_, std::convert::Infallible>(check_variant(&variants[i]))
    })
    .unwrap_or_else(|e| match e {})
}

/// Expands the embedded `bench/families/` corpus and checks every
/// variant. The tuple is `(outcomes, abort coverage over those
/// outcomes)`; sweeps do not run here, so the `external` tag is exempt
/// rather than observed.
///
/// # Panics
/// The embedded corpus is validated by kernelgen's tests; failure to
/// expand means the checked-in corpus is broken.
#[must_use]
pub fn check_corpus(jobs: usize) -> (Vec<CaseOutcome>, crate::AbortCoverage) {
    let variants = expand_corpus().expect("embedded kernelgen corpus must expand");
    let outcomes = check_variants(&variants, jobs);
    let coverage = crate::abort_coverage(&outcomes, false);
    (outcomes, coverage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_variant_per_idiom_class_passes_the_oracle() {
        let variants = expand_corpus().unwrap();
        // First variant of each distinct family = one witness per idiom
        // configuration; the full sweep runs in `gen --check` and
        // tests/kernelgen_families.rs.
        let mut seen = std::collections::BTreeSet::new();
        let picks: Vec<&Variant> = variants
            .iter()
            .filter(|v| seen.insert(v.family.clone()))
            .collect();
        assert!(picks.len() >= 8, "corpus families: {}", picks.len());
        for v in picks {
            let o = check_variant(v);
            assert!(o.passed, "{}: {}", o.name, o.detail);
            assert_eq!(o.family, v.family);
        }
    }
}
