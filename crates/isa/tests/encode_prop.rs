//! Property-based round-trip testing of the binary encoding and the
//! assembler over the full instruction space.
//!
//! Random instructions come from the workspace's xorshift generator,
//! `workloads::util::XorShift64` (a dev-dependency; the ISA crate itself
//! stays dependency-free). Each case is reproducible from its printed
//! seed; build with `--features fuzz` for a deeper sweep.

use liquid_simd_isa::{
    asm,
    encode::{
        decode, encode, ALU_IMM_MAX, ALU_IMM_MIN, MOV_IMM_MAX, MOV_IMM_MIN, VALU_IMM_MAX,
        VALU_IMM_MIN,
    },
    AluOp, Base, Cond, ElemType, FReg, FpOp, Inst, MemWidth, Operand2, PermKind, ProgramBuilder,
    RedOp, Reg, ScalarInst, ScalarSrc, SymId, VAluOp, VReg, VectorInst,
};
use liquid_simd_workloads::util::XorShift64;

const CASES: u64 = if cfg!(feature = "fuzz") { 16_384 } else { 2048 };

fn reg(rng: &mut XorShift64) -> Reg {
    Reg::of(rng.range_i64(0, 16) as u8)
}

fn freg(rng: &mut XorShift64) -> FReg {
    FReg::of(rng.range_i64(0, 16) as u8)
}

fn vreg(rng: &mut XorShift64) -> VReg {
    VReg::of(rng.range_i64(0, 16) as u8)
}

fn cond(rng: &mut XorShift64) -> Cond {
    rng.pick(&Cond::ALL)
}

fn elem(rng: &mut XorShift64) -> ElemType {
    rng.pick(&ElemType::ALL)
}

fn base(rng: &mut XorShift64) -> Base {
    if rng.coin() {
        Base::Reg(reg(rng))
    } else {
        Base::Sym(SymId::new(
            rng.range_i64(0, i64::from(SymId::MAX) + 1) as u16
        ))
    }
}

fn operand2(rng: &mut XorShift64) -> Operand2 {
    if rng.coin() {
        Operand2::Reg(reg(rng))
    } else {
        Operand2::Imm(rng.range_i64(i64::from(ALU_IMM_MIN), i64::from(ALU_IMM_MAX) + 1) as i32)
    }
}

fn perm_kind(rng: &mut XorShift64) -> PermKind {
    let block = rng.pick(&[2u8, 4, 8, 16]);
    match rng.range_usize(0, 3) {
        0 => PermKind::Bfly { block },
        1 => PermKind::Rev { block },
        _ => PermKind::Rot {
            block,
            amt: rng.range_i64(1, i64::from(block)) as u8,
        },
    }
}

fn scalar_inst(rng: &mut XorShift64) -> ScalarInst {
    match rng.range_usize(0, 13) {
        0 => ScalarInst::MovImm {
            cond: cond(rng),
            rd: reg(rng),
            imm: rng.range_i64(i64::from(MOV_IMM_MIN), i64::from(MOV_IMM_MAX) + 1) as i32,
        },
        1 => ScalarInst::Mov {
            cond: cond(rng),
            rd: reg(rng),
            rm: reg(rng),
        },
        2 => ScalarInst::Alu {
            cond: cond(rng),
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
            cond: cond(rng),
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
        10 => ScalarInst::Ret,
        11 => ScalarInst::Halt,
        _ => ScalarInst::Nop,
    }
}

fn valu_with_elem(rng: &mut XorShift64) -> (VAluOp, ElemType) {
    loop {
        let op = rng.pick(&VAluOp::ALL);
        let e = elem(rng);
        if op.valid_for(e) {
            return (op, e);
        }
    }
}

fn vector_inst(rng: &mut XorShift64) -> VectorInst {
    match rng.range_usize(0, 10) {
        0 => VectorInst::VLd {
            elem: elem(rng),
            signed: rng.coin(),
            vd: vreg(rng),
            base: base(rng),
            index: reg(rng),
        },
        1 => VectorInst::VSt {
            elem: elem(rng),
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
                imm: rng.range_i64(i64::from(VALU_IMM_MIN), i64::from(VALU_IMM_MAX) + 1) as i32,
            }
        }
        4 => {
            let (op, elem) = valu_with_elem(rng);
            VectorInst::VAluConst {
                op,
                elem,
                vd: vreg(rng),
                vn: vreg(rng),
                cnst: SymId::new(rng.range_i64(0, 512) as u16),
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
            op: rng.pick(&RedOp::ALL),
            elem: rng.pick(&[ElemType::I8, ElemType::I16, ElemType::I32]),
            rd: reg(rng),
            vn: vreg(rng),
        },
        7 => VectorInst::VRedF {
            op: rng.pick(&RedOp::ALL),
            fd: freg(rng),
            vn: vreg(rng),
        },
        8 => VectorInst::VPerm {
            kind: perm_kind(rng),
            elem: elem(rng),
            vd: vreg(rng),
            vn: vreg(rng),
        },
        _ => VectorInst::VSplat {
            elem: elem(rng),
            vd: vreg(rng),
            imm: rng.range_i64(-(1 << 16), 1 << 16) as i32,
        },
    }
}

#[test]
fn scalar_encoding_roundtrips() {
    let mut rng = XorShift64::new(0x5CA1);
    for case in 0..CASES {
        let i = Inst::S(scalar_inst(&mut rng));
        let pc = rng.range_i64(0, 100_000) as u32;
        let word = encode(&i, pc).expect("encodes");
        let back = decode(word, pc).expect("decodes");
        assert_eq!(back, i, "case {case} at pc {pc}");
    }
}

#[test]
fn vector_encoding_roundtrips() {
    let mut rng = XorShift64::new(0x7EC7);
    for case in 0..CASES {
        let i = Inst::V(vector_inst(&mut rng));
        let pc = rng.range_i64(0, 100_000) as u32;
        let word = encode(&i, pc).expect("encodes");
        let back = decode(word, pc).expect("decodes");
        assert_eq!(back, i, "case {case} at pc {pc}");
    }
}

#[test]
fn branches_roundtrip_with_relative_offsets() {
    let mut rng = XorShift64::new(0xB4A9);
    let mut cases = 0;
    while cases < CASES {
        let pc = rng.range_i64(0, 1_000_000) as u32;
        let delta = rng.range_i64(-100_000, 100_000);
        let target = i64::from(pc) + delta;
        if target < 0 {
            continue;
        }
        cases += 1;
        let i = Inst::S(ScalarInst::B {
            cond: Cond::Lt,
            target: target as u32,
        });
        let word = encode(&i, pc).expect("encodes");
        assert_eq!(decode(word, pc).expect("decodes"), i);
        let c = Inst::S(ScalarInst::Bl {
            target: target as u32,
            vectorizable: delta % 2 == 0,
        });
        let word = encode(&c, pc).expect("encodes");
        assert_eq!(decode(word, pc).expect("decodes"), c);
    }
}

#[test]
fn decode_never_panics_on_garbage() {
    let mut rng = XorShift64::new(0xDEAD);
    for _ in 0..CASES * 4 {
        let word = rng.next_u64() as u32;
        let pc = rng.range_i64(0, 1_000_000) as u32;
        let _ = decode(word, pc); // must return Ok or Err, never panic
    }
}

/// Text round-trip: random (straight-line) programs survive
/// disassemble → assemble intact.
#[test]
fn assembler_roundtrips_programs() {
    let mut rng = XorShift64::new(0xA53B);
    for case in 0..CASES / 8 {
        let len = rng.range_i64(1, 40) as usize;
        let insts: Vec<Inst> = (0..len)
            .map(|_| {
                if rng.coin() {
                    Inst::S(scalar_inst(&mut rng))
                } else {
                    Inst::V(vector_inst(&mut rng))
                }
            })
            .collect();

        let mut b = ProgramBuilder::new();
        // Enough symbols for every possible SymId reference below 512 would
        // be wasteful; instead, remap symbol references into a small table.
        for i in 0..8 {
            b.add_i32s(&format!("s{i}"), &[0, 1, 2, 3]);
        }
        let fixup_sym = |s: SymId| SymId::new((s.index() % 8) as u16);
        let fix_base = |base: Base| match base {
            Base::Sym(s) => Base::Sym(fixup_sym(s)),
            r => r,
        };
        for inst in &insts {
            let inst = match *inst {
                Inst::S(ScalarInst::LdInt {
                    width,
                    signed,
                    rd,
                    base,
                    index,
                }) => Inst::S(ScalarInst::LdInt {
                    width,
                    signed,
                    rd,
                    base: fix_base(base),
                    index,
                }),
                Inst::S(ScalarInst::StInt {
                    width,
                    rs,
                    base,
                    index,
                }) => Inst::S(ScalarInst::StInt {
                    width,
                    rs,
                    base: fix_base(base),
                    index,
                }),
                Inst::S(ScalarInst::LdF { fd, base, index }) => Inst::S(ScalarInst::LdF {
                    fd,
                    base: fix_base(base),
                    index,
                }),
                Inst::S(ScalarInst::StF { fs, base, index }) => Inst::S(ScalarInst::StF {
                    fs,
                    base: fix_base(base),
                    index,
                }),
                Inst::V(VectorInst::VLd {
                    elem,
                    signed,
                    vd,
                    base,
                    index,
                }) => Inst::V(VectorInst::VLd {
                    elem,
                    signed,
                    vd,
                    base: fix_base(base),
                    index,
                }),
                Inst::V(VectorInst::VSt {
                    elem,
                    vs,
                    base,
                    index,
                }) => Inst::V(VectorInst::VSt {
                    elem,
                    vs,
                    base: fix_base(base),
                    index,
                }),
                Inst::V(VectorInst::VAluConst {
                    op,
                    elem,
                    vd,
                    vn,
                    cnst,
                }) => Inst::V(VectorInst::VAluConst {
                    op,
                    elem,
                    vd,
                    vn,
                    cnst: fixup_sym(cnst),
                }),
                // `ret`/`halt` would be fine, but keep the program shape
                // trivially valid by dropping nothing.
                other => other,
            };
            b.push(inst);
        }
        b.halt();
        let p = b.finish().expect("valid program");
        let text = p.disassemble();
        let p2 = asm::assemble(&text)
            .unwrap_or_else(|e| panic!("case {case}: reassembly failed: {e}\n{text}"));
        assert_eq!(&p.code, &p2.code, "case {case} text:\n{text}");
    }
}
