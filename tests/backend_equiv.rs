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
use liquid_simd_repro::isa::asm::assemble;

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

/// Which NaN an `f32` op on two NaN operands returns is left open by Rust,
/// and code generation may commute the operands, so the interpreter's
/// per-lane calls and the superblock's specialised lanes could each pick a
/// different one. The lane's NaN rule makes them agree.
#[test]
fn nan_operands_give_the_same_bits_on_both_backends() {
    // 0xffffffff and 0x7fa00001 (signalling) are NaNs with distinct
    // payloads; 0x3f800000 is 1.0.
    let mut src = String::from(
        ".data\n\
         .i32 A: -1, 2141192193, -1, 1065353216, 2141192193, -1, 0, -128\n\
         .i32 B: 2141192193, -1, 1065353216, -1, -128, -1, -1, 2141192193\n",
    );
    let ops = ["vadd", "vsub", "vmul", "vdiv", "vmin", "vmax"];
    for op in ops {
        src.push_str(&format!(".i32 {op}: 0, 0, 0, 0, 0, 0, 0, 0\n"));
    }
    src.push_str(
        ".text\nmain:\n    mov r0, #0\n    vld.i32 v0, [A + r0]\n    vld.i32 v1, [B + r0]\n",
    );
    for op in ops {
        src.push_str(&format!(
            "    {op}.f32 v2, v0, v1\n    vst.i32 [{op} + r0], v2\n"
        ));
    }
    // Float reductions fold with the scalar ops' NaN rule: each one, from
    // a signalling-NaN accumulator over lanes holding both NaN payloads,
    // stores the bits of its scalar `fadd`/`fmin`/`fmax` loop.
    src = src.replacen(
        ".text\n",
        ".i32 N: -1, 2141192193, 2141192193, -1, -1, 2141192193, -1, 2141192193\n\
         .i32 I: 2141192193\n\
         .i32 vredsum: 0\n.i32 fadd: 0\n.i32 vredmin: 0\n.i32 fmin: 0\n\
         .i32 vredmax: 0\n.i32 fmax: 0\n.text\n",
        1,
    );
    src.push_str("    vld.i32 v3, [N + r0]\n");
    let reductions = [
        ("vredsum", "fadd"),
        ("vredmin", "fmin"),
        ("vredmax", "fmax"),
    ];
    for (red, fop) in reductions {
        src.push_str(&format!(
            "    ldf f1, [I + r0]\n    {red}.f32 f1, v3\n    stf [{red} + r0], f1\n\
             \x20   ldf f2, [I + r0]\n    mov r1, #0\n{red}_loop:\n\
             \x20   ldf f3, [N + r1]\n    {fop} f2, f2, f3\n    add r1, r1, #1\n\
             \x20   cmp r1, #8\n    blt {red}_loop\n    stf [{fop} + r0], f2\n"
        ));
    }
    src.push_str("    halt\n");
    let program = assemble(&src).expect("probe assembles");
    let blocks = assert_equivalent("nan lanes", &program, &MachineConfig::native(8));
    assert!(blocks.lowered > 0, "the vector ops were not lowered");
    let (_, machine) = simulate(&program, MachineConfig::native(8), &[]).expect("probe runs");
    let word = |name: &str| {
        let (_, sym) = program.symbol_by_name(name).expect("result symbol");
        machine.memory().read(sym.addr, 4).expect("result word")
    };
    for (red, fop) in reductions {
        let (vector, scalar) = (word(red), word(fop));
        assert!(f32::from_bits(vector).is_nan(), "{red}: {vector:#010x}");
        assert_eq!(
            vector, scalar,
            "{red} {vector:#010x} vs {fop} loop {scalar:#010x}"
        );
    }
}
