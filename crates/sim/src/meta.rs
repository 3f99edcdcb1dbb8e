//! Predecoded static instruction metadata — the simulator's fast path.
//!
//! `Machine::step()` needs three static facts about every instruction it
//! retires: which registers it reads (operand-readiness stalls), what it
//! defines (scoreboard writeback), and its result latency. Deriving them by
//! matching the `Inst` enum on every retire — as the machine originally did
//! — is pure overhead: the facts never change for a given instruction and
//! machine configuration, and the ISA's `int_uses`/`vec_uses` helpers heap-
//! allocate a `Vec` per call. This module computes an [`InstMeta`] side
//! table exactly once — for the whole program in `Machine::new`, and for
//! each microcode sequence when it is inserted into the microcode cache —
//! so the hot loop does indexed loads instead.
//!
//! The derivation functions ([`collect_uses`], [`def_of`], [`latency_of`])
//! remain the single source of truth: [`InstMeta::compute`] calls them, and
//! the metadata-equivalence property test (`sim/tests/meta_equiv.rs`)
//! checks every live table against fresh recomputation.

use liquid_simd_isa::{Cond, ElemType, FpOp, Inst, ScalarInst, VAluOp, VectorInst};

use crate::config::LatencyModel;

/// A register reference for the timing scoreboard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegRef {
    /// An integer register.
    Int(u8),
    /// A floating-point register.
    Fp(u8),
    /// A vector register.
    Vec(u8),
    /// The condition flags.
    Flags,
}

/// Precomputed static facts about one instruction, for one machine
/// configuration (latency depends on the latency model and lane count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstMeta {
    /// Source registers read at issue, packed front-to-back (no `Some`
    /// follows a `None`).
    pub srcs: [Option<RegRef>; 6],
    /// Scoreboard destination, if any.
    pub def: Option<RegRef>,
    /// Whether the instruction writes the condition flags.
    pub writes_flags: bool,
    /// Result latency in cycles on the configured machine.
    pub latency: u32,
    /// Whether this is a vector instruction.
    pub vector: bool,
    /// Lanes this instruction actually operates on when it retires: the
    /// machine's lane count for most vector instructions, the permute's
    /// block size (capped at the lane count) for `vperm`, and `0` for
    /// scalar instructions. Feeds the lane-utilization counters.
    pub active_lanes: u16,
}

impl InstMeta {
    /// Derives the metadata for one instruction. Called at program load and
    /// microcode insert, never per retire.
    #[must_use]
    pub fn compute(inst: &Inst, lat: &LatencyModel, lanes: usize) -> InstMeta {
        let (def, writes_flags) = def_of(inst);
        InstMeta {
            srcs: collect_uses(inst),
            def,
            writes_flags,
            latency: latency_of(inst, lat, lanes),
            vector: inst.is_vector(),
            active_lanes: active_lanes_of(inst, lanes),
        }
    }
}

/// Derives the metadata table for an instruction sequence.
#[must_use]
pub fn meta_of_code(code: &[Inst], lat: &LatencyModel, lanes: usize) -> Vec<InstMeta> {
    code.iter()
        .map(|i| InstMeta::compute(i, lat, lanes))
        .collect()
}

fn push(buf: &mut [Option<RegRef>; 6], n: &mut usize, rr: RegRef) {
    if *n < buf.len() {
        buf[*n] = Some(rr);
        *n += 1;
    }
}

/// The registers an instruction reads at issue, packed front-to-back.
#[must_use]
pub fn collect_uses(inst: &Inst) -> [Option<RegRef>; 6] {
    let mut buf = [None; 6];
    let mut n = 0;
    match inst {
        Inst::S(s) => {
            for r in s.int_uses() {
                push(&mut buf, &mut n, RegRef::Int(r.index()));
            }
            match s {
                ScalarInst::FAlu { fn_, fm, .. } => {
                    push(&mut buf, &mut n, RegRef::Fp(fn_.index()));
                    push(&mut buf, &mut n, RegRef::Fp(fm.index()));
                }
                ScalarInst::FMov { fm, .. } => push(&mut buf, &mut n, RegRef::Fp(fm.index())),
                ScalarInst::StF { fs, .. } => push(&mut buf, &mut n, RegRef::Fp(fs.index())),
                _ => {}
            }
            let cond = match s {
                ScalarInst::MovImm { cond, .. }
                | ScalarInst::Mov { cond, .. }
                | ScalarInst::Alu { cond, .. }
                | ScalarInst::FMov { cond, .. }
                | ScalarInst::B { cond, .. } => *cond,
                _ => Cond::Al,
            };
            if cond != Cond::Al {
                push(&mut buf, &mut n, RegRef::Flags);
            }
        }
        Inst::V(v) => {
            for vr in v.vec_uses() {
                push(&mut buf, &mut n, RegRef::Vec(vr.index()));
            }
            match v {
                VectorInst::VLd { base, index, .. } | VectorInst::VSt { base, index, .. } => {
                    push(&mut buf, &mut n, RegRef::Int(index.index()));
                    if let liquid_simd_isa::Base::Reg(r) = base {
                        push(&mut buf, &mut n, RegRef::Int(r.index()));
                    }
                }
                VectorInst::VRedI { rd, .. } => push(&mut buf, &mut n, RegRef::Int(rd.index())),
                VectorInst::VRedF { fd, .. } => push(&mut buf, &mut n, RegRef::Fp(fd.index())),
                VectorInst::VAluScalar { src, .. } => match src {
                    liquid_simd_isa::ScalarSrc::R(r) => {
                        push(&mut buf, &mut n, RegRef::Int(r.index()));
                    }
                    liquid_simd_isa::ScalarSrc::F(fr) => {
                        push(&mut buf, &mut n, RegRef::Fp(fr.index()));
                    }
                },
                _ => {}
            }
        }
    }
    buf
}

/// The scoreboard destination of an instruction and whether it writes the
/// condition flags.
#[must_use]
pub fn def_of(inst: &Inst) -> (Option<RegRef>, bool) {
    match inst {
        Inst::S(s) => {
            let def = s
                .int_def()
                .map(|r| RegRef::Int(r.index()))
                .or_else(|| s.fp_def().map(|f| RegRef::Fp(f.index())));
            (def, matches!(s, ScalarInst::Cmp { .. }))
        }
        Inst::V(v) => {
            let def = v
                .vec_def()
                .map(|r| RegRef::Vec(r.index()))
                .or_else(|| match v {
                    VectorInst::VRedI { rd, .. } => Some(RegRef::Int(rd.index())),
                    VectorInst::VRedF { fd, .. } => Some(RegRef::Fp(fd.index())),
                    _ => None,
                });
            (def, false)
        }
    }
}

/// Lanes an instruction occupies when it retires: `0` for scalar
/// instructions, the permute's block size (capped at the machine's lane
/// count — a butterfly over 4-element blocks only touches 4 lanes per
/// block-pair step) for `vperm`, and the full lane count otherwise.
#[must_use]
pub fn active_lanes_of(inst: &Inst, lanes: usize) -> u16 {
    match inst {
        Inst::S(_) => 0,
        Inst::V(VectorInst::VPerm { kind, .. }) => (usize::from(kind.block()).min(lanes)) as u16,
        Inst::V(_) => lanes as u16,
    }
}

/// Result latency of an instruction under a latency model at a lane count.
#[must_use]
pub fn latency_of(inst: &Inst, lat: &LatencyModel, lanes: usize) -> u32 {
    let lanes = lanes.max(2);
    let tree = usize::BITS - (lanes - 1).leading_zeros(); // ceil(log2)
    match inst {
        Inst::S(s) => match s {
            ScalarInst::Alu {
                op: liquid_simd_isa::AluOp::Mul,
                ..
            } => lat.int_mul,
            ScalarInst::FAlu { op, .. } => match op {
                FpOp::Mul => lat.fp_mul,
                FpOp::Div => lat.fp_div,
                _ => lat.fp_alu,
            },
            ScalarInst::LdInt { .. } | ScalarInst::LdF { .. } => lat.load,
            _ => lat.int_alu,
        },
        Inst::V(v) => match v {
            VectorInst::VLd { .. } => lat.load,
            VectorInst::VSt { .. } => lat.int_alu,
            VectorInst::VAlu { op, elem, .. }
            | VectorInst::VAluImm { op, elem, .. }
            | VectorInst::VAluConst { op, elem, .. }
            | VectorInst::VAluScalar { op, elem, .. } => match op {
                VAluOp::Div => lat.fp_div,
                VAluOp::Mul if *elem == ElemType::F32 => lat.fp_mul,
                VAluOp::Mul => lat.int_mul,
                _ if *elem == ElemType::F32 => lat.fp_alu,
                _ => lat.int_alu,
            },
            VectorInst::VRedI { .. } => lat.int_alu + tree,
            VectorInst::VRedF { .. } => lat.fp_alu * tree.max(1),
            VectorInst::VPerm { .. } | VectorInst::VSplat { .. } => lat.int_alu,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_simd_isa::{AluOp, Operand2, RedOp, Reg, VReg};

    #[test]
    fn srcs_are_packed_and_def_recorded() {
        let add = Inst::S(ScalarInst::Alu {
            cond: Cond::Gt,
            op: AluOp::Add,
            rd: Reg::R1,
            rn: Reg::R2,
            op2: Operand2::Reg(Reg::R3),
        });
        let m = InstMeta::compute(&add, &LatencyModel::default(), 8);
        // rn, op2 register, then the predicate's flags read.
        assert_eq!(m.srcs[0], Some(RegRef::Int(2)));
        assert_eq!(m.srcs[1], Some(RegRef::Int(3)));
        assert_eq!(m.srcs[2], Some(RegRef::Flags));
        assert_eq!(m.srcs[3], None);
        assert_eq!(m.def, Some(RegRef::Int(1)));
        assert!(!m.writes_flags);
        assert!(!m.vector);
        assert_eq!(m.latency, LatencyModel::default().int_alu);
    }

    #[test]
    fn reduction_latency_scales_with_lanes() {
        let red = Inst::V(VectorInst::VRedI {
            op: RedOp::Sum,
            elem: ElemType::I32,
            rd: Reg::R1,
            vn: VReg::V0,
        });
        let lat = LatencyModel::default();
        assert_eq!(latency_of(&red, &lat, 2), lat.int_alu + 1);
        assert_eq!(latency_of(&red, &lat, 16), lat.int_alu + 4);
        let m = InstMeta::compute(&red, &lat, 8);
        assert!(m.vector);
        assert_eq!(m.def, Some(RegRef::Int(1)));
        // The accumulator register is also a source.
        assert_eq!(m.srcs[0], Some(RegRef::Vec(0)));
        assert_eq!(m.srcs[1], Some(RegRef::Int(1)));
    }

    #[test]
    fn cmp_writes_flags() {
        let cmp = Inst::S(ScalarInst::Cmp {
            rn: Reg::R0,
            op2: Operand2::Imm(3),
        });
        let (def, flags) = def_of(&cmp);
        assert_eq!(def, None);
        assert!(flags);
    }
}
