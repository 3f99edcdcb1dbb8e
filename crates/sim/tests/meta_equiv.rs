//! Metadata-table equivalence: the predecoded [`InstMeta`] side tables the
//! machine executes from must always agree with fresh per-instruction
//! derivation (`collect_uses` / `def_of` / `latency_of`) — for every
//! encodable instruction, at every lane count, and for every microcode
//! sequence the machine inserts (and evicts) at runtime.
//!
//! Random instructions come from the shared generator in `common` (the
//! simulator fuzz test draws from it too); every case is reproducible
//! from its printed seed.

mod common;

use common::{random_inst, random_latency_model};
use liquid_simd_compiler::build_liquid;
use liquid_simd_sim::meta::{collect_uses, def_of, latency_of, meta_of_code, InstMeta};
use liquid_simd_sim::{Machine, MachineConfig};
use liquid_simd_workloads::util::XorShift64;

const CASES: u64 = 4096;

/// The precomputed table entry must equal fresh derivation for every
/// encodable instruction at every lane count, and its `srcs` must be
/// packed (scoreboard iteration stops at the first `None`).
#[test]
fn meta_matches_fresh_derivation_for_random_instructions() {
    let seed = 0xC0FF_EE00_D15C_0B01u64;
    let mut rng = XorShift64::new(seed);
    for case in 0..CASES {
        let inst = random_inst(&mut rng);
        let lat = random_latency_model(&mut rng);
        let lanes = rng.pick(&[0usize, 2, 4, 8, 16]);
        let m = InstMeta::compute(&inst, &lat, lanes);
        let ctx = format!("seed {seed:#x} case {case}: {inst:?} at {lanes} lanes");
        let (def, flags) = def_of(&inst);
        assert_eq!(m.srcs, collect_uses(&inst), "srcs mismatch: {ctx}");
        assert_eq!(m.def, def, "def mismatch: {ctx}");
        assert_eq!(m.writes_flags, flags, "flags mismatch: {ctx}");
        assert_eq!(
            m.latency,
            latency_of(&inst, &lat, lanes),
            "latency mismatch: {ctx}"
        );
        assert_eq!(m.vector, inst.is_vector(), "vector mismatch: {ctx}");
        assert!(m.latency > 0, "zero latency: {ctx}");
        let first_none = m.srcs.iter().position(Option::is_none).unwrap_or(6);
        assert!(
            m.srcs[first_none..].iter().all(Option::is_none),
            "srcs not packed: {ctx}"
        );
        // Table construction must agree with element-wise construction.
        let table = meta_of_code(&[inst], &lat, lanes);
        assert_eq!(table, vec![m], "meta_of_code mismatch: {ctx}");
    }
}

/// After real runs — translation inserting microcode, LRU evicting it, and
/// preloaded (built-in ISA) microcode — every table the machine executes
/// from must still match fresh recomputation.
#[test]
fn machine_tables_stay_consistent_through_mcache_lifecycle() {
    for w in liquid_simd_workloads::smoke() {
        let b = build_liquid(&w).unwrap_or_else(|e| panic!("{}: {e}", w.name));

        // Tight microcode cache: forces evictions (swap_remove reordering)
        // while the run is still inserting fresh translations.
        let mut cfg = MachineConfig::liquid(8);
        cfg.mcache_entries = 2;
        let mut m = Machine::new(&b.program, cfg);
        let report = m.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(report.halted);
        assert!(
            m.metadata_consistent(),
            "{}: table diverged after translated run",
            w.name
        );

        // Preloaded microcode (the paper's built-in-ISA comparator).
        let snapshot = m.microcode_snapshot();
        let mut pre = Machine::new(&b.program, MachineConfig::liquid(8));
        pre.preload_microcode(&snapshot);
        assert!(
            pre.metadata_consistent(),
            "{}: table diverged after preload",
            w.name
        );
        pre.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            pre.metadata_consistent(),
            "{}: table diverged after preloaded run",
            w.name
        );
    }
}
