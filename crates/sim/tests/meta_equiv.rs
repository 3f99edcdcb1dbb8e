//! Metadata-table equivalence: the predecoded [`InstMeta`] side tables the
//! machine executes from must always agree with fresh per-instruction
//! derivation (`collect_uses` / `def_of` / `latency_of`) — for every
//! encodable instruction, at every lane count, and for every microcode
//! sequence the machine inserts (and evicts) at runtime.
//!
//! Random instructions come from the workspace's xorshift generator,
//! `workloads::util::XorShift64`; every case is reproducible from its
//! printed seed.

use liquid_simd_compiler::build_liquid;
use liquid_simd_isa::{
    AluOp, Base, Cond, ElemType, FReg, FpOp, Inst, MemWidth, Operand2, PermKind, RedOp, Reg,
    ScalarInst, ScalarSrc, SymId, VAluOp, VReg, VectorInst,
};
use liquid_simd_sim::meta::{collect_uses, def_of, latency_of, meta_of_code, InstMeta};
use liquid_simd_sim::{LatencyModel, Machine, MachineConfig};
use liquid_simd_workloads::util::XorShift64;

const CASES: u64 = 4096;

fn reg(rng: &mut XorShift64) -> Reg {
    Reg::of(rng.range_usize(0, 16) as u8)
}

fn freg(rng: &mut XorShift64) -> FReg {
    FReg::of(rng.range_usize(0, 16) as u8)
}

fn vreg(rng: &mut XorShift64) -> VReg {
    VReg::of(rng.range_usize(0, 16) as u8)
}

fn base(rng: &mut XorShift64) -> Base {
    if rng.coin() {
        Base::Reg(reg(rng))
    } else {
        Base::Sym(SymId::new(rng.range_usize(0, 8) as u16))
    }
}

fn operand2(rng: &mut XorShift64) -> Operand2 {
    if rng.coin() {
        Operand2::Reg(reg(rng))
    } else {
        Operand2::Imm(rng.range_usize(0, 256) as i32 - 128)
    }
}

fn valu_with_elem(rng: &mut XorShift64) -> (VAluOp, ElemType) {
    loop {
        let op = rng.pick(&VAluOp::ALL);
        let e = rng.pick(&ElemType::ALL);
        if op.valid_for(e) {
            return (op, e);
        }
    }
}

/// One random instruction covering every `Inst` variant, including the
/// control-flow forms the encode property test routes through programs.
fn random_inst(rng: &mut XorShift64) -> Inst {
    if rng.coin() {
        Inst::S(match rng.range_usize(0, 16) {
            0 => ScalarInst::MovImm {
                cond: rng.pick(&Cond::ALL),
                rd: reg(rng),
                imm: rng.range_usize(0, 1024) as i32 - 512,
            },
            1 => ScalarInst::Mov {
                cond: rng.pick(&Cond::ALL),
                rd: reg(rng),
                rm: reg(rng),
            },
            2 => ScalarInst::Alu {
                cond: rng.pick(&Cond::ALL),
                op: rng.pick(&AluOp::ALL),
                rd: reg(rng),
                rn: reg(rng),
                op2: operand2(rng),
            },
            3 => ScalarInst::Cmp {
                rn: reg(rng),
                op2: operand2(rng),
            },
            4 => ScalarInst::FAlu {
                op: rng.pick(&FpOp::ALL),
                fd: freg(rng),
                fn_: freg(rng),
                fm: freg(rng),
            },
            5 => ScalarInst::FMov {
                cond: rng.pick(&Cond::ALL),
                fd: freg(rng),
                fm: freg(rng),
            },
            6 => ScalarInst::LdInt {
                width: rng.pick(&MemWidth::ALL),
                signed: rng.coin(),
                rd: reg(rng),
                base: base(rng),
                index: reg(rng),
            },
            7 => ScalarInst::StInt {
                width: rng.pick(&MemWidth::ALL),
                rs: reg(rng),
                base: base(rng),
                index: reg(rng),
            },
            8 => ScalarInst::LdF {
                fd: freg(rng),
                base: base(rng),
                index: reg(rng),
            },
            9 => ScalarInst::StF {
                fs: freg(rng),
                base: base(rng),
                index: reg(rng),
            },
            10 => ScalarInst::B {
                cond: rng.pick(&Cond::ALL),
                target: rng.range_usize(0, 4096) as u32,
            },
            11 => ScalarInst::Bl {
                target: rng.range_usize(0, 4096) as u32,
                vectorizable: rng.coin(),
            },
            12 => ScalarInst::Ret,
            13 => ScalarInst::Halt,
            _ => ScalarInst::Nop,
        })
    } else {
        Inst::V(match rng.range_usize(0, 9) {
            0 => VectorInst::VLd {
                elem: rng.pick(&ElemType::ALL),
                signed: rng.coin(),
                vd: vreg(rng),
                base: base(rng),
                index: reg(rng),
            },
            1 => VectorInst::VSt {
                elem: rng.pick(&ElemType::ALL),
                vs: vreg(rng),
                base: base(rng),
                index: reg(rng),
            },
            2 => {
                let (op, elem) = valu_with_elem(rng);
                VectorInst::VAlu {
                    op,
                    elem,
                    vd: vreg(rng),
                    vn: vreg(rng),
                    vm: vreg(rng),
                }
            }
            3 => {
                let (op, elem) = valu_with_elem(rng);
                VectorInst::VAluImm {
                    op,
                    elem,
                    vd: vreg(rng),
                    vn: vreg(rng),
                    imm: rng.range_usize(0, 64) as i32 - 32,
                }
            }
            4 => {
                let (op, elem) = valu_with_elem(rng);
                VectorInst::VAluConst {
                    op,
                    elem,
                    vd: vreg(rng),
                    vn: vreg(rng),
                    cnst: SymId::new(rng.range_usize(0, 8) as u16),
                }
            }
            5 => {
                let (op, elem) = valu_with_elem(rng);
                VectorInst::VAluScalar {
                    op,
                    elem,
                    vd: vreg(rng),
                    vn: vreg(rng),
                    src: if rng.coin() {
                        ScalarSrc::R(reg(rng))
                    } else {
                        ScalarSrc::F(freg(rng))
                    },
                }
            }
            6 => VectorInst::VRedI {
                op: rng.pick(&[RedOp::Min, RedOp::Max, RedOp::Sum]),
                elem: rng.pick(&ElemType::ALL),
                rd: reg(rng),
                vn: vreg(rng),
            },
            7 => VectorInst::VRedF {
                op: rng.pick(&[RedOp::Min, RedOp::Max, RedOp::Sum]),
                fd: freg(rng),
                vn: vreg(rng),
            },
            _ => {
                let block = rng.pick(&[2u8, 4, 8, 16]);
                VectorInst::VPerm {
                    kind: match rng.range_usize(0, 3) {
                        0 => PermKind::Bfly { block },
                        1 => PermKind::Rev { block },
                        _ => PermKind::Rot {
                            block,
                            amt: 1 + rng.range_usize(0, usize::from(block) - 1) as u8,
                        },
                    },
                    elem: rng.pick(&ElemType::ALL),
                    vd: vreg(rng),
                    vn: vreg(rng),
                }
            }
        })
    }
}

fn random_latency_model(rng: &mut XorShift64) -> LatencyModel {
    LatencyModel {
        int_alu: 1 + rng.range_usize(0, 4) as u32,
        int_mul: 1 + rng.range_usize(0, 8) as u32,
        fp_alu: 1 + rng.range_usize(0, 8) as u32,
        fp_mul: 1 + rng.range_usize(0, 8) as u32,
        fp_div: 1 + rng.range_usize(0, 30) as u32,
        load: 1 + rng.range_usize(0, 4) as u32,
        branch_taken: 1 + rng.range_usize(0, 4) as u32,
    }
}

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
