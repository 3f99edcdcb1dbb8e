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
//!
//! Each case, and each kernelgen abort witness, also checks the built-in
//! ISA warm pass: `Machine::harvest_microcode` must return exactly the
//! microcode a full liquid run leaves resident at halt.

use liquid_simd_repro::conform::gen::{generate_case, CaseSpec};
use liquid_simd_repro::facade::{
    build_liquid, simulate, verify_workload, BackendKind, Machine, MachineConfig,
};
use liquid_simd_repro::isa::{asm, Program, SUPPORTED_WIDTHS};
use liquid_simd_repro::kernelgen::{expand_corpus, Payload};

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
        let build = build_liquid(&w).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        harvest_matches_full_run(&spec.name, &build.program);
    }
}

/// The untranslatable kernels: each aborts translation, so its warm pass
/// settles through the failed set (or runs to halt).
#[test]
fn abort_witnesses_harvest_like_full_runs() {
    for v in expand_corpus().expect("corpus expands") {
        if let Payload::Asm { src, .. } = &v.payload {
            let program = asm::assemble(src).unwrap_or_else(|e| panic!("{}: {e}", v.name));
            harvest_matches_full_run(&v.name, &program);
        }
    }
}

/// `harvest_microcode` equals the full run's snapshot at every supported
/// width on both backends.
fn harvest_matches_full_run(name: &str, program: &Program) {
    for lanes in SUPPORTED_WIDTHS {
        for backend in [BackendKind::Interp, BackendKind::Superblock] {
            let config = MachineConfig::liquid(lanes).with_backend(backend);
            let (_, full) = simulate(program, config.clone(), &[])
                .unwrap_or_else(|e| panic!("{name}@{lanes}: {e}"));
            let harvested = Machine::new(program, config)
                .harvest_microcode()
                .unwrap_or_else(|e| panic!("{name}@{lanes}: {e}"));
            assert_eq!(
                harvested,
                full.microcode_snapshot(),
                "{name}@{lanes} {} (seed {SEED:#x})",
                backend.name()
            );
        }
    }
}
