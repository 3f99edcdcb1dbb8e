//! Property-based differential testing: randomly generated kernels must
//! produce identical results through every pipeline (plain scalar, Liquid
//! untranslated, Liquid dynamically translated, built-in ISA support,
//! native SIMD) at every supported accelerator width.
//!
//! The kernels are the legal cases of `conform::gen`, the generator the
//! `conform` subcommand sweeps, drawn from a seed of their own; case
//! `index` is reproducible as `generate_case(SEED, index)`. The default run
//! keeps the case count small enough for tier-1; build with
//! `--features fuzz` for a deeper sweep.

use liquid_simd_repro::conform::gen::{generate_case, CaseSpec};
use liquid_simd_repro::facade::verify_workload;

/// Neither `conform`'s default seed (0xC0FFEE) nor `backend_equiv`'s.
const SEED: u64 = 0x9A0B_17E5;

const CASES: usize = if cfg!(feature = "fuzz") { 256 } else { 48 };

/// The heavyweight end-to-end property: all pipelines agree with gold.
#[test]
fn random_kernels_verify_everywhere() {
    let legal = (0..).filter_map(|index| match generate_case(SEED, index) {
        CaseSpec::Legal(spec) => Some(spec),
        CaseSpec::Illegal(_) => None,
    });
    for spec in legal.take(CASES) {
        let w = spec
            .to_workload()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        verify_workload(&w).unwrap_or_else(|e| panic!("{} (seed {SEED:#x}): {e}", spec.name));
    }
}
