//! The random-instruction generator shared by the simulator's property
//! tests (`meta_equiv`, `sim_fuzz`), built on the workspace's xorshift
//! generator, `workloads::util::XorShift64`.

use liquid_simd_isa::{
    AluOp, Base, Cond, ElemType, FReg, FpOp, Inst, MemWidth, Operand2, PermKind, RedOp, Reg,
    ScalarInst, ScalarSrc, SymId, VAluOp, VReg, VectorInst,
};
use liquid_simd_sim::LatencyModel;
use liquid_simd_workloads::util::XorShift64;

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
pub fn random_inst(rng: &mut XorShift64) -> Inst {
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
        Inst::V(match rng.range_usize(0, 10) {
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
            8 => VectorInst::VSplat {
                elem: rng.pick(&ElemType::ALL),
                vd: vreg(rng),
                imm: rng.range_usize(0, 256) as i32 - 128,
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

pub fn random_latency_model(rng: &mut XorShift64) -> LatencyModel {
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
