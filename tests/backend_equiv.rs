//! Execution-backend equivalence: the superblock backend is a simulator
//! implementation detail, so every observable of a run — cycle counts,
//! retire counts, cache statistics, phase accounting, final registers and
//! the full memory image — must be bit-identical to the interpreter, on
//! real benchmark workloads and on generated random programs alike. (The
//! conform oracle carries the same check as a per-case column; this suite
//! pins it on the named workloads the paper's tables are built from.)

use liquid_simd_repro::conform::gen::generate_case;
use liquid_simd_repro::conform::oracle::check_case;
use liquid_simd_repro::facade::{build_liquid, build_plain, simulate, BackendKind, MachineConfig};

/// Runs a program under both backends and asserts every deterministic
/// observable matches. Returns the superblock run's block statistics so
/// callers can assert lowering actually happened.
fn assert_equivalent(
    what: &str,
    program: &liquid_simd_repro::isa::Program,
    config: &MachineConfig,
) -> liquid_simd_repro::sim::BlockStats {
    let (ri, mi) = simulate(
        program,
        config.clone().with_backend(BackendKind::Interp),
        &[],
    )
    .expect("interp run");
    let (rs, ms) = simulate(
        program,
        config.clone().with_backend(BackendKind::Superblock),
        &[],
    )
    .expect("superblock run");
    assert_eq!(ri.cycles, rs.cycles, "{what}: cycles");
    assert_eq!(ri.retired, rs.retired, "{what}: retired");
    assert_eq!(
        ri.scalar_retired, rs.scalar_retired,
        "{what}: scalar retired"
    );
    assert_eq!(
        ri.vector_retired, rs.vector_retired,
        "{what}: vector retired"
    );
    assert_eq!(ri.lane_ops, rs.lane_ops, "{what}: lane ops");
    assert_eq!(ri.icache, rs.icache, "{what}: icache stats");
    assert_eq!(ri.dcache, rs.dcache, "{what}: dcache stats");
    assert_eq!(ri.mcache, rs.mcache, "{what}: mcache stats");
    assert_eq!(ri.phases, rs.phases, "{what}: phase accounting");
    assert_eq!(
        ri.translator.successes, rs.translator.successes,
        "{what}: translation successes"
    );
    assert_eq!(
        ri.translator.aborts, rs.translator.aborts,
        "{what}: abort tags"
    );
    assert_eq!(mi.regs().r, ms.regs().r, "{what}: register file");
    let (mem_i, mem_s) = (mi.memory(), ms.memory());
    let (base, len) = (mem_i.base(), mem_i.size());
    assert_eq!(
        mem_i.slice(base, len).ok(),
        mem_s.slice(base, len).ok(),
        "{what}: memory image"
    );
    // The interpreter never lowers; the superblock run reports what it did.
    assert_eq!(ri.blocks, liquid_simd_repro::sim::BlockStats::default());
    rs.blocks
}

#[test]
fn smoke_workloads_are_bit_identical_at_every_width() {
    for w in liquid_simd_repro::workloads::smoke() {
        let plain = build_plain(&w).expect("plain build");
        let blocks = assert_equivalent(
            &format!("{}/plain", w.name),
            &plain.program,
            &MachineConfig::scalar_only(),
        );
        assert!(blocks.lowered > 0, "{}: scalar run lowered nothing", w.name);

        let liquid = build_liquid(&w).expect("liquid build");
        for width in [2usize, 8] {
            let blocks = assert_equivalent(
                &format!("{}/liquid@{width}", w.name),
                &liquid.program,
                &MachineConfig::liquid(width),
            );
            assert!(blocks.lowered > 0, "{}@{width}: lowered nothing", w.name);
            assert!(
                blocks.hits > blocks.misses,
                "{}@{width}: hot loops must re-dispatch lowered blocks: {blocks:?}",
                w.name
            );
        }
    }
}

#[test]
fn random_cases_pass_the_oracle_backend_column() {
    // The conform oracle now re-runs every pipeline stage on the
    // superblock backend (including abort injection mid-block); a dozen
    // generated cases exercise that column from a different seed than CI.
    for i in 0..12 {
        let spec = generate_case(0x0B5E_55ED, i);
        let outcome = check_case(&spec);
        assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
    }
}
