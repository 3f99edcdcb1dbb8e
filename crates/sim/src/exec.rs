//! The one instruction executor.
//!
//! Every instruction is lowered exactly once per code image — the program
//! in `Machine::new`, each microcode entry when it enters the microcode
//! cache — into a [`Lowered`] op: operands decoded, symbols and
//! constant-vector periods resolved, permutations flattened to a lane
//! map, predicates split into dedicated conditional variants, and every
//! fault that depends only on the instruction and the machine's width
//! (a vector op without an accelerator, a permute block that does not
//! fit, a symbol the program lacks) turned into [`Lowered::Fault`] with
//! its exact message. [`exec_lowered`] is then the only code that gives
//! an instruction its effect: the interpreter (`Machine::step`) and the
//! superblock executor (`block::exec_block`) both call it, and differ
//! only in timing shortcuts.
//!
//! The translator tap's record of a retire ([`tap_record`]) is built from
//! the retired instruction and the registers it left behind, so observing
//! a retire never needs a second executor.

use std::error::Error;
use std::fmt;

use liquid_simd_isa::{
    AluOp, Base, Cond, ElemType, Flags, FpOp, Inst, LaneLoop, Operand2, Program, RedOp, ScalarInst,
    ScalarSrc, VAluOp, VectorInst,
};
use liquid_simd_mem::{MemError, Memory};
use liquid_simd_translator::Retired;

use crate::regfile::RegFile;

/// A simulation fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A memory access fell outside mapped memory.
    Mem(MemError),
    /// An architectural fault (bad symbol, vector op without accelerator,
    /// wild control transfer, cycle-limit exceeded).
    Fault {
        /// Code index of the faulting instruction.
        pc: u32,
        /// Explanation.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(e) => write!(f, "memory fault: {e}"),
            SimError::Fault { pc, what } => write!(f, "fault at @{pc}: {what}"),
        }
    }
}

impl Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> SimError {
        SimError::Mem(e)
    }
}

/// Where control goes after an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Control {
    /// Fall through (including a branch not taken).
    Next,
    /// Taken branch to a code index.
    Jump(u32),
    /// Procedure call (`lr` already written).
    Call {
        /// Callee entry.
        target: u32,
        /// Whether the call carries the `bl.v` translatable marker.
        vectorizable: bool,
    },
    /// Return through the link register (or microcode end).
    Return,
    /// Stop simulation.
    Halt,
}

/// What the timing model needs to know about one executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// Control disposition.
    pub control: Control,
    /// Whether the predicate passed.
    pub executed: bool,
    /// Memory touched: `(addr, len, is_write)`.
    pub mem: Option<(u32, u32, bool)>,
}

impl Outcome {
    /// Whether control left the fall-through path (a taken branch, a call
    /// or a return): the retire pays the taken-branch refill.
    pub fn taken(&self) -> bool {
        matches!(
            self.control,
            Control::Jump(_) | Control::Call { .. } | Control::Return
        )
    }
}

/// A resolved memory-base operand: register or absolute (symbol) address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LBase {
    /// Base register index.
    Reg(u8),
    /// Symbol resolved at lowering time (the symbol table is immutable).
    Abs(u32),
}

impl LBase {
    #[inline(always)]
    fn value(self, regs: &RegFile) -> u32 {
        match self {
            LBase::Reg(r) => regs.r[r as usize],
            LBase::Abs(a) => a,
        }
    }
}

/// One pre-lowered instruction: operands decoded, symbols resolved,
/// predicates split into dedicated conditional variants so the common
/// unconditional forms carry no predicate test at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Lowered {
    Nop,
    MovImm {
        rd: u8,
        imm: u32,
    },
    CondMovImm {
        cond: Cond,
        rd: u8,
        imm: u32,
    },
    Mov {
        rd: u8,
        rm: u8,
    },
    CondMov {
        cond: Cond,
        rd: u8,
        rm: u8,
    },
    AluRR {
        op: AluOp,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    AluRI {
        op: AluOp,
        rd: u8,
        rn: u8,
        imm: i32,
    },
    CondAluRR {
        cond: Cond,
        op: AluOp,
        rd: u8,
        rn: u8,
        rm: u8,
    },
    CondAluRI {
        cond: Cond,
        op: AluOp,
        rd: u8,
        rn: u8,
        imm: i32,
    },
    CmpRR {
        rn: u8,
        rm: u8,
    },
    CmpRI {
        rn: u8,
        imm: i32,
    },
    FAlu {
        op: FpOp,
        fd: u8,
        fn_: u8,
        fm: u8,
    },
    FMov {
        fd: u8,
        fm: u8,
    },
    CondFMov {
        cond: Cond,
        fd: u8,
        fm: u8,
    },
    Ld {
        width: u32,
        signed: bool,
        rd: u8,
        base: LBase,
        index: u8,
    },
    St {
        width: u32,
        rs: u8,
        base: LBase,
        index: u8,
    },
    LdF {
        fd: u8,
        base: LBase,
        index: u8,
    },
    StF {
        fs: u8,
        base: LBase,
        index: u8,
    },
    B {
        cond: Cond,
        target: u32,
    },
    Bl {
        target: u32,
        vectorizable: bool,
    },
    Ret,
    Halt,
    VLd {
        esz: u32,
        signed: bool,
        vd: u8,
        base: LBase,
        index: u8,
    },
    VSt {
        esz: u32,
        vs: u8,
        base: LBase,
        index: u8,
    },
    VAlu {
        op: VAluOp,
        elem: ElemType,
        vd: u8,
        vn: u8,
        vm: u8,
    },
    VAluImm {
        op: VAluOp,
        elem: ElemType,
        vd: u8,
        vn: u8,
        imm: u32,
    },
    /// A constant-vector op: lane `i` reads element `i % period` of the
    /// constant at `addr` from memory on every execution.
    VAluConst {
        op: VAluOp,
        elem: ElemType,
        vd: u8,
        vn: u8,
        addr: u32,
        period: u32,
    },
    VAluScalar {
        op: VAluOp,
        elem: ElemType,
        vd: u8,
        vn: u8,
        src: ScalarSrc,
    },
    VRedI {
        op: RedOp,
        rd: u8,
        vn: u8,
    },
    VRedF {
        op: RedOp,
        fd: u8,
        vn: u8,
    },
    /// A permutation: lane `i` of `vd` takes lane `map[i]` of `vn`.
    VPerm {
        vd: u8,
        vn: u8,
        map: Box<[u32]>,
    },
    VSplat {
        vd: u8,
        imm: u32,
    },
    /// An instruction that faults whenever it executes, with this message.
    Fault(Box<str>),
}

fn lbase(base: Base, prog: &Program) -> Result<LBase, Lowered> {
    match base {
        Base::Reg(r) => Ok(LBase::Reg(r.index())),
        Base::Sym(s) => prog
            .symbol(s)
            .map(|sym| LBase::Abs(sym.addr))
            .map_err(|e| Lowered::Fault(e.to_string().into())),
    }
}

/// Lowers a code image (the program, or one microcode entry) for a
/// machine of `lanes` lanes: one [`Lowered`] op per instruction.
pub(crate) fn lower_code(code: &[Inst], prog: &Program, lanes: usize) -> Vec<Lowered> {
    code.iter().map(|inst| lower(inst, prog, lanes)).collect()
}

/// Lowers one instruction.
fn lower(inst: &Inst, prog: &Program, lanes: usize) -> Lowered {
    let lowered = match *inst {
        Inst::S(s) => lower_scalar(s, prog),
        Inst::V(v) if lanes < 2 => Err(Lowered::Fault(
            format!("vector instruction `{v}` without SIMD accelerator").into(),
        )),
        Inst::V(v) => lower_vector(v, prog, lanes),
    };
    lowered.unwrap_or_else(|fault| fault)
}

fn lower_scalar(s: ScalarInst, prog: &Program) -> Result<Lowered, Lowered> {
    Ok(match s {
        ScalarInst::Nop => Lowered::Nop,
        ScalarInst::MovImm { cond, rd, imm } => {
            let (rd, imm) = (rd.index(), imm as u32);
            if cond == Cond::Al {
                Lowered::MovImm { rd, imm }
            } else {
                Lowered::CondMovImm { cond, rd, imm }
            }
        }
        ScalarInst::Mov { cond, rd, rm } => {
            let (rd, rm) = (rd.index(), rm.index());
            if cond == Cond::Al {
                Lowered::Mov { rd, rm }
            } else {
                Lowered::CondMov { cond, rd, rm }
            }
        }
        ScalarInst::Alu {
            cond,
            op,
            rd,
            rn,
            op2,
        } => {
            let (rd, rn) = (rd.index(), rn.index());
            match (cond == Cond::Al, op2) {
                (true, Operand2::Reg(rm)) => Lowered::AluRR {
                    op,
                    rd,
                    rn,
                    rm: rm.index(),
                },
                (true, Operand2::Imm(imm)) => Lowered::AluRI { op, rd, rn, imm },
                (false, Operand2::Reg(rm)) => Lowered::CondAluRR {
                    cond,
                    op,
                    rd,
                    rn,
                    rm: rm.index(),
                },
                (false, Operand2::Imm(imm)) => Lowered::CondAluRI {
                    cond,
                    op,
                    rd,
                    rn,
                    imm,
                },
            }
        }
        ScalarInst::Cmp { rn, op2 } => match op2 {
            Operand2::Reg(rm) => Lowered::CmpRR {
                rn: rn.index(),
                rm: rm.index(),
            },
            Operand2::Imm(imm) => Lowered::CmpRI {
                rn: rn.index(),
                imm,
            },
        },
        ScalarInst::FAlu { op, fd, fn_, fm } => Lowered::FAlu {
            op,
            fd: fd.index(),
            fn_: fn_.index(),
            fm: fm.index(),
        },
        ScalarInst::FMov { cond, fd, fm } => {
            let (fd, fm) = (fd.index(), fm.index());
            if cond == Cond::Al {
                Lowered::FMov { fd, fm }
            } else {
                Lowered::CondFMov { cond, fd, fm }
            }
        }
        ScalarInst::LdInt {
            width,
            signed,
            rd,
            base,
            index,
        } => Lowered::Ld {
            width: width.bytes(),
            signed,
            rd: rd.index(),
            base: lbase(base, prog)?,
            index: index.index(),
        },
        ScalarInst::StInt {
            width,
            rs,
            base,
            index,
        } => Lowered::St {
            width: width.bytes(),
            rs: rs.index(),
            base: lbase(base, prog)?,
            index: index.index(),
        },
        ScalarInst::LdF { fd, base, index } => Lowered::LdF {
            fd: fd.index(),
            base: lbase(base, prog)?,
            index: index.index(),
        },
        ScalarInst::StF { fs, base, index } => Lowered::StF {
            fs: fs.index(),
            base: lbase(base, prog)?,
            index: index.index(),
        },
        ScalarInst::B { cond, target } => Lowered::B { cond, target },
        ScalarInst::Bl {
            target,
            vectorizable,
        } => Lowered::Bl {
            target,
            vectorizable,
        },
        ScalarInst::Ret => Lowered::Ret,
        ScalarInst::Halt => Lowered::Halt,
    })
}

fn lower_vector(v: VectorInst, prog: &Program, lanes: usize) -> Result<Lowered, Lowered> {
    Ok(match v {
        VectorInst::VLd {
            elem,
            signed,
            vd,
            base,
            index,
        } => Lowered::VLd {
            esz: elem.bytes(),
            signed,
            vd: vd.index(),
            base: lbase(base, prog)?,
            index: index.index(),
        },
        VectorInst::VSt {
            elem,
            vs,
            base,
            index,
        } => Lowered::VSt {
            esz: elem.bytes(),
            vs: vs.index(),
            base: lbase(base, prog)?,
            index: index.index(),
        },
        VectorInst::VAlu {
            op,
            elem,
            vd,
            vn,
            vm,
        } => Lowered::VAlu {
            op,
            elem,
            vd: vd.index(),
            vn: vn.index(),
            vm: vm.index(),
        },
        VectorInst::VAluImm {
            op,
            elem,
            vd,
            vn,
            imm,
        } => Lowered::VAluImm {
            op,
            elem,
            vd: vd.index(),
            vn: vn.index(),
            imm: imm as u32,
        },
        VectorInst::VAluConst {
            op,
            elem,
            vd,
            vn,
            cnst,
        } => {
            let sym = prog
                .symbol(cnst)
                .map_err(|e| Lowered::Fault(e.to_string().into()))?;
            Lowered::VAluConst {
                op,
                elem,
                vd: vd.index(),
                vn: vn.index(),
                addr: sym.addr,
                period: (sym.size / elem.bytes()).max(1),
            }
        }
        VectorInst::VAluScalar {
            op,
            elem,
            vd,
            vn,
            src,
        } => Lowered::VAluScalar {
            op,
            elem,
            vd: vd.index(),
            vn: vn.index(),
            src,
        },
        VectorInst::VRedI { op, rd, vn, .. } => Lowered::VRedI {
            op,
            rd: rd.index(),
            vn: vn.index(),
        },
        VectorInst::VRedF { op, fd, vn } => Lowered::VRedF {
            op,
            fd: fd.index(),
            vn: vn.index(),
        },
        VectorInst::VPerm { kind, vd, vn, .. } => {
            let block = usize::from(kind.block());
            if block > lanes || !lanes.is_multiple_of(block) {
                return Err(Lowered::Fault(
                    format!("permutation block {block} not executable at {lanes} lanes").into(),
                ));
            }
            Lowered::VPerm {
                vd: vd.index(),
                vn: vn.index(),
                map: (0..lanes)
                    .map(|i| (i - i % block + kind.source_index(i)) as u32)
                    .collect(),
            }
        }
        VectorInst::VSplat { vd, imm, .. } => Lowered::VSplat {
            vd: vd.index(),
            imm: imm as u32,
        },
    })
}

pub(crate) fn load_extend(
    mem: &Memory,
    addr: u32,
    width: u32,
    signed: bool,
) -> Result<(u32, i64), SimError> {
    if signed || width == 4 {
        let v = mem.read_signed(addr, width)?;
        Ok((v as u32, i64::from(v)))
    } else {
        let v = mem.read(addr, width)?;
        Ok((v, i64::from(v)))
    }
}

// ALU / lane semantics are defined once, in the ISA crate
// (`AluOp::eval`, `FpOp::eval`, `VAluOp::specialize`, `RedOp::eval_*`), so
// the simulator and the compiler's gold evaluator cannot drift apart.

/// Element-wise loop over two vector sources into `vd`, handling every
/// aliasing pattern with bounds-check-free zips. Lane `i` reads only lane
/// `i` of each source, so in-place update is safe. Run through
/// [`VAluOp::specialize`], so each valid `(op, elem)` pair gets its own
/// copy with the lane function inlined.
struct VLoop2<'r> {
    regs: &'r mut RegFile,
    vd: usize,
    vn: usize,
    vm: usize,
}

impl LaneLoop for VLoop2<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self, f: impl Fn(u32, u32) -> u32) {
        let VLoop2 { regs, vd, vn, vm } = self;
        let mut d = std::mem::take(&mut regs.v[vd]);
        if vn == vd && vm == vd {
            for x in &mut d {
                *x = f(*x, *x);
            }
        } else if vn == vd {
            for (x, &b) in d.iter_mut().zip(&regs.v[vm]) {
                *x = f(*x, b);
            }
        } else if vm == vd {
            for (x, &a) in d.iter_mut().zip(&regs.v[vn]) {
                *x = f(a, *x);
            }
        } else if vn == vm {
            for (x, &a) in d.iter_mut().zip(&regs.v[vn]) {
                *x = f(a, a);
            }
        } else {
            for ((x, &a), &b) in d.iter_mut().zip(&regs.v[vn]).zip(&regs.v[vm]) {
                *x = f(a, b);
            }
        }
        regs.v[vd] = d;
    }
}

/// Element-wise loop against a second operand that is either one
/// broadcast value or, for constant-vector ops, the lanes already
/// gathered into the register file's scratch buffer. Specialized like
/// [`VLoop2`].
struct VLoopB<'r> {
    regs: &'r mut RegFile,
    vd: usize,
    vn: usize,
    b: Option<u32>,
}

impl LaneLoop for VLoopB<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self, f: impl Fn(u32, u32) -> u32) {
        let VLoopB { regs, vd, vn, b } = self;
        let mut d = std::mem::take(&mut regs.v[vd]);
        match b {
            Some(b) if vn == vd => {
                for x in &mut d {
                    *x = f(*x, b);
                }
            }
            Some(b) => {
                for (x, &a) in d.iter_mut().zip(&regs.v[vn]) {
                    *x = f(a, b);
                }
            }
            None if vn == vd => {
                for (x, &b) in d.iter_mut().zip(&regs.scratch) {
                    *x = f(*x, b);
                }
            }
            None => {
                for ((x, &a), &b) in d.iter_mut().zip(&regs.v[vn]).zip(&regs.scratch) {
                    *x = f(a, b);
                }
            }
        }
        regs.v[vd] = d;
    }
}

/// Executes one lowered instruction functionally on a `lanes`-wide
/// machine. `pc` only names the instruction in a fault.
///
/// # Errors
///
/// Returns [`SimError`] on a memory fault or a [`Lowered::Fault`].
#[allow(clippy::too_many_lines)]
#[inline(always)]
pub(crate) fn exec_lowered(
    kind: &Lowered,
    pc: u32,
    regs: &mut RegFile,
    mem: &mut Memory,
    lanes: usize,
) -> Result<Outcome, SimError> {
    let mut out = Outcome {
        control: Control::Next,
        executed: true,
        mem: None,
    };
    match *kind {
        Lowered::Nop => {}
        Lowered::MovImm { rd, imm } => {
            regs.r[rd as usize] = imm;
        }
        Lowered::CondMovImm { cond, rd, imm } => {
            out.executed = cond.eval(regs.flags);
            if out.executed {
                regs.r[rd as usize] = imm;
            }
        }
        Lowered::Mov { rd, rm } => {
            regs.r[rd as usize] = regs.r[rm as usize];
        }
        Lowered::CondMov { cond, rd, rm } => {
            out.executed = cond.eval(regs.flags);
            if out.executed {
                regs.r[rd as usize] = regs.r[rm as usize];
            }
        }
        Lowered::AluRR { op, rd, rn, rm } => {
            let v = op.eval(regs.r[rn as usize] as i32, regs.r[rm as usize] as i32);
            regs.r[rd as usize] = v as u32;
        }
        Lowered::AluRI { op, rd, rn, imm } => {
            let v = op.eval(regs.r[rn as usize] as i32, imm);
            regs.r[rd as usize] = v as u32;
        }
        Lowered::CondAluRR {
            cond,
            op,
            rd,
            rn,
            rm,
        } => {
            out.executed = cond.eval(regs.flags);
            if out.executed {
                let v = op.eval(regs.r[rn as usize] as i32, regs.r[rm as usize] as i32);
                regs.r[rd as usize] = v as u32;
            }
        }
        Lowered::CondAluRI {
            cond,
            op,
            rd,
            rn,
            imm,
        } => {
            out.executed = cond.eval(regs.flags);
            if out.executed {
                let v = op.eval(regs.r[rn as usize] as i32, imm);
                regs.r[rd as usize] = v as u32;
            }
        }
        Lowered::CmpRR { rn, rm } => {
            regs.flags = Flags::from_cmp(regs.r[rn as usize] as i32, regs.r[rm as usize] as i32);
        }
        Lowered::CmpRI { rn, imm } => {
            regs.flags = Flags::from_cmp(regs.r[rn as usize] as i32, imm);
        }
        Lowered::FAlu { op, fd, fn_, fm } => {
            let v = op.eval(regs.f32(fn_), regs.f32(fm));
            regs.set_f32(fd, v);
        }
        Lowered::FMov { fd, fm } => {
            regs.f[fd as usize] = regs.f[fm as usize];
        }
        Lowered::CondFMov { cond, fd, fm } => {
            out.executed = cond.eval(regs.flags);
            if out.executed {
                regs.f[fd as usize] = regs.f[fm as usize];
            }
        }
        Lowered::Ld {
            width,
            signed,
            rd,
            base,
            index,
        } => {
            let b = base.value(regs);
            let addr = b.wrapping_add(regs.r[index as usize].wrapping_mul(width));
            let (raw, _) = load_extend(mem, addr, width, signed)?;
            regs.r[rd as usize] = raw;
            out.mem = Some((addr, width, false));
        }
        Lowered::St {
            width,
            rs,
            base,
            index,
        } => {
            let b = base.value(regs);
            let addr = b.wrapping_add(regs.r[index as usize].wrapping_mul(width));
            mem.write(addr, width, regs.r[rs as usize])?;
            out.mem = Some((addr, width, true));
        }
        Lowered::LdF { fd, base, index } => {
            let b = base.value(regs);
            let addr = b.wrapping_add(regs.r[index as usize].wrapping_mul(4));
            regs.f[fd as usize] = mem.read(addr, 4)?;
            out.mem = Some((addr, 4, false));
        }
        Lowered::StF { fs, base, index } => {
            let b = base.value(regs);
            let addr = b.wrapping_add(regs.r[index as usize].wrapping_mul(4));
            mem.write(addr, 4, regs.f[fs as usize])?;
            out.mem = Some((addr, 4, true));
        }
        Lowered::B { cond, target } => {
            if cond.eval(regs.flags) {
                out.control = Control::Jump(target);
            }
        }
        Lowered::Bl {
            target,
            vectorizable,
        } => {
            regs.r[14] = pc + 1;
            out.control = Control::Call {
                target,
                vectorizable,
            };
        }
        Lowered::Ret => out.control = Control::Return,
        Lowered::Halt => out.control = Control::Halt,
        Lowered::VLd {
            esz,
            signed,
            vd,
            base,
            index,
        } => {
            let b = base.value(regs);
            let start = b.wrapping_add(regs.r[index as usize].wrapping_mul(esz));
            let total = esz * lanes as u32;
            let vd = vd as usize;
            let mut bulk = false;
            if start.checked_add(total).is_some() {
                if let Ok(bytes) = mem.slice(start, total as usize) {
                    match esz {
                        1 => {
                            for (d, &raw) in regs.v[vd].iter_mut().zip(bytes) {
                                *d = if signed {
                                    i32::from(raw as i8) as u32
                                } else {
                                    u32::from(raw)
                                };
                            }
                        }
                        2 => {
                            for (i, d) in regs.v[vd].iter_mut().enumerate() {
                                let w = u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
                                *d = if signed {
                                    i32::from(w as i16) as u32
                                } else {
                                    u32::from(w)
                                };
                            }
                        }
                        _ => {
                            for (i, d) in regs.v[vd].iter_mut().enumerate() {
                                *d = u32::from_le_bytes([
                                    bytes[4 * i],
                                    bytes[4 * i + 1],
                                    bytes[4 * i + 2],
                                    bytes[4 * i + 3],
                                ]);
                            }
                        }
                    }
                    bulk = true;
                }
            }
            if !bulk {
                // Per-lane accesses: the exact fault and partial-write
                // behaviour of a load that leaves mapped memory.
                for i in 0..lanes {
                    let addr = start + i as u32 * esz;
                    let (raw, _) = load_extend(mem, addr, esz, signed)?;
                    regs.v[vd][i] = raw;
                }
            }
            out.mem = Some((start, total, false));
        }
        Lowered::VSt {
            esz,
            vs,
            base,
            index,
        } => {
            let b = base.value(regs);
            let start = b.wrapping_add(regs.r[index as usize].wrapping_mul(esz));
            let total = esz * lanes as u32;
            let vs = vs as usize;
            let mut bulk = false;
            if start.checked_add(total).is_some() {
                if let Ok(bytes) = mem.slice_mut(start, total as usize) {
                    match esz {
                        1 => {
                            for (b, &lane) in bytes.iter_mut().zip(&regs.v[vs]) {
                                *b = lane as u8;
                            }
                        }
                        2 => {
                            for (i, &lane) in regs.v[vs].iter().enumerate() {
                                bytes[2 * i..2 * i + 2]
                                    .copy_from_slice(&(lane as u16).to_le_bytes());
                            }
                        }
                        _ => {
                            for (i, &lane) in regs.v[vs].iter().enumerate() {
                                bytes[4 * i..4 * i + 4].copy_from_slice(&lane.to_le_bytes());
                            }
                        }
                    }
                    bulk = true;
                }
            }
            if !bulk {
                for i in 0..lanes {
                    let addr = start + i as u32 * esz;
                    mem.write(addr, esz, regs.v[vs][i])?;
                }
            }
            out.mem = Some((start, total, true));
        }
        Lowered::VAlu {
            op,
            elem,
            vd,
            vn,
            vm,
        } => {
            op.specialize(
                elem,
                VLoop2 {
                    regs,
                    vd: vd as usize,
                    vn: vn as usize,
                    vm: vm as usize,
                },
            );
        }
        Lowered::VAluImm {
            op,
            elem,
            vd,
            vn,
            imm,
        } => {
            op.specialize(
                elem,
                VLoopB {
                    regs,
                    vd: vd as usize,
                    vn: vn as usize,
                    b: Some(imm),
                },
            );
        }
        Lowered::VAluConst {
            op,
            elem,
            vd,
            vn,
            addr,
            period,
        } => {
            let esz = elem.bytes();
            for i in 0..lanes {
                let at = addr + (i as u32 % period) * esz;
                let (raw, _) = load_extend(mem, at, esz, elem != ElemType::F32)?;
                regs.scratch[i] = raw;
            }
            op.specialize(
                elem,
                VLoopB {
                    regs,
                    vd: vd as usize,
                    vn: vn as usize,
                    b: None,
                },
            );
            out.mem = Some((addr, esz * period.min(lanes as u32), false));
        }
        Lowered::VAluScalar {
            op,
            elem,
            vd,
            vn,
            src,
        } => {
            let broadcast = match src {
                ScalarSrc::R(r) => regs.r[r.index() as usize],
                ScalarSrc::F(fr) => regs.f[fr.index() as usize],
            };
            op.specialize(
                elem,
                VLoopB {
                    regs,
                    vd: vd as usize,
                    vn: vn as usize,
                    b: Some(broadcast),
                },
            );
        }
        Lowered::VRedI { op, rd, vn } => {
            let mut acc = regs.r[rd as usize] as i32;
            for &lane in &regs.v[vn as usize] {
                acc = op.eval_i(acc, lane as i32);
            }
            regs.r[rd as usize] = acc as u32;
        }
        Lowered::VRedF { op, fd, vn } => {
            let mut acc = regs.f32(fd);
            for &lane in &regs.v[vn as usize] {
                acc = op.eval_f(acc, f32::from_bits(lane));
            }
            regs.set_f32(fd, acc);
        }
        Lowered::VPerm { vd, vn, ref map } => {
            // Snapshot the source (`vd` may alias `vn`) into the scratch
            // lane buffer: no per-step heap allocation.
            regs.scratch.copy_from_slice(&regs.v[vn as usize]);
            let scratch = std::mem::take(&mut regs.scratch);
            for (d, &mi) in regs.v[vd as usize].iter_mut().zip(map.iter()) {
                *d = scratch[mi as usize];
            }
            regs.scratch = scratch;
        }
        Lowered::VSplat { vd, imm } => {
            for lane in &mut regs.v[vd as usize] {
                *lane = imm;
            }
        }
        Lowered::Fault(ref what) => {
            return Err(SimError::Fault {
                pc,
                what: what.to_string(),
            });
        }
    }
    Ok(out)
}

/// The translator tap's record of one retired program-stream instruction,
/// built from the instruction, its outcome and the registers it left
/// (`None` for vector instructions, which the tap never sees). The value
/// is the tap's `Data` input: a `mov #imm` reports `imm` whether or not
/// its predicate passed, a `mov` the destination's final value, an ALU op
/// its result (`None` when its predicate failed), and an integer load the
/// loaded value, which the destination holds sign- or zero-extended.
pub(crate) fn tap_record(pc: u32, inst: &Inst, out: &Outcome, regs: &RegFile) -> Option<Retired> {
    let Inst::S(s) = *inst else {
        return None;
    };
    let rd_value = |rd: liquid_simd_isa::Reg| Some(i64::from(regs.r[rd.index() as usize] as i32));
    let value = match s {
        ScalarInst::MovImm { imm, .. } => Some(i64::from(imm)),
        ScalarInst::Mov { rd, .. } | ScalarInst::LdInt { rd, .. } => rd_value(rd),
        ScalarInst::Alu { rd, .. } if out.executed => rd_value(rd),
        _ => None,
    };
    Some(Retired {
        pc,
        inst: s,
        executed: out.executed,
        value,
        taken: out.taken(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_simd_isa::{FReg, MemWidth, PermKind, Reg, SymId, VReg};

    fn setup(lanes: usize) -> (RegFile, Memory, Program) {
        let regs = RegFile::new(lanes);
        let mem = Memory::new(0x1000, 256);
        let prog = Program {
            code: vec![],
            data: vec![],
            symbols: vec![
                liquid_simd_isa::Symbol {
                    name: "a".into(),
                    addr: 0x1000,
                    size: 64,
                    elem_bytes: 4,
                },
                liquid_simd_isa::Symbol {
                    name: "c".into(),
                    addr: 0x1040,
                    size: 8,
                    elem_bytes: 4,
                },
            ],
            entry: 0,
            data_base: 0x1000,
            labels: vec![],
        };
        (regs, mem, prog)
    }

    /// What one executed instruction reports: its outcome plus the value
    /// the translator tap would read.
    struct Ran {
        control: Control,
        value: Option<i64>,
        executed: bool,
        mem: Option<(u32, u32, bool)>,
    }

    /// Lowers and executes one instruction, as both backends do.
    fn exec(
        inst: &Inst,
        pc: u32,
        regs: &mut RegFile,
        mem: &mut Memory,
        prog: &Program,
        lanes: usize,
    ) -> Result<Ran, SimError> {
        let out = exec_lowered(&lower(inst, prog, lanes), pc, regs, mem, lanes)?;
        let value = tap_record(pc, inst, &out, regs).and_then(|r| r.value);
        Ok(Ran {
            control: out.control,
            value,
            executed: out.executed,
            mem: out.mem,
        })
    }

    #[test]
    fn scalar_alu_and_flags() {
        let (mut regs, mut mem, prog) = setup(0);
        regs.r[2] = 7;
        let add = Inst::S(ScalarInst::Alu {
            cond: Cond::Al,
            op: AluOp::Add,
            rd: Reg::R1,
            rn: Reg::R2,
            op2: Operand2::Imm(5),
        });
        let o = exec(&add, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert_eq!(regs.r[1], 12);
        assert_eq!(o.value, Some(12));

        let cmp = Inst::S(ScalarInst::Cmp {
            rn: Reg::R1,
            op2: Operand2::Imm(20),
        });
        exec(&cmp, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        let movgt = Inst::S(ScalarInst::MovImm {
            cond: Cond::Gt,
            rd: Reg::R1,
            imm: 99,
        });
        let o = exec(&movgt, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert!(!o.executed);
        assert_eq!(regs.r[1], 12); // predicate failed, unchanged
    }

    #[test]
    fn element_indexed_addressing() {
        let (mut regs, mut mem, prog) = setup(0);
        mem.write(0x1000 + 3 * 2, 2, 0x8001).unwrap();
        regs.r[0] = 3;
        let ld = Inst::S(ScalarInst::LdInt {
            width: MemWidth::H,
            signed: true,
            rd: Reg::R5,
            base: Base::Sym(SymId::new(0)),
            index: Reg::R0,
        });
        let o = exec(&ld, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert_eq!(regs.r[5] as i32, -32767); // sign-extended halfword 0x8001
        assert_eq!(o.value, Some(i64::from(0x8001u16 as i16)));
        assert_eq!(o.mem, Some((0x1006, 2, false)));
    }

    #[test]
    fn vector_load_op_store_roundtrip() {
        let (mut regs, mut mem, prog) = setup(4);
        for i in 0..4u32 {
            mem.write(0x1000 + i * 4, 4, i + 1).unwrap();
        }
        regs.r[0] = 0;
        let vld = Inst::V(VectorInst::VLd {
            elem: ElemType::I32,
            signed: false,
            vd: VReg::V1,
            base: Base::Sym(SymId::new(0)),
            index: Reg::R0,
        });
        exec(&vld, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(regs.v[1], vec![1, 2, 3, 4]);

        let vadd = Inst::V(VectorInst::VAluImm {
            op: VAluOp::Add,
            elem: ElemType::I32,
            vd: VReg::V1,
            vn: VReg::V1,
            imm: 10,
        });
        exec(&vadd, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(regs.v[1], vec![11, 12, 13, 14]);

        let vst = Inst::V(VectorInst::VSt {
            elem: ElemType::I32,
            vs: VReg::V1,
            base: Base::Sym(SymId::new(0)),
            index: Reg::R0,
        });
        let o = exec(&vst, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(o.mem, Some((0x1000, 16, true)));
        assert_eq!(mem.read(0x100C, 4).unwrap(), 14);
    }

    #[test]
    fn saturating_semantics_match_the_idiom() {
        let (mut regs, mut mem, prog) = setup(2);
        regs.v[0] = vec![200, 10];
        regs.v[1] = vec![100, 5];
        let vq = Inst::V(VectorInst::VAlu {
            op: VAluOp::SatAdd,
            elem: ElemType::I8,
            vd: VReg::V2,
            vn: VReg::V0,
            vm: VReg::V1,
        });
        exec(&vq, 0, &mut regs, &mut mem, &prog, 2).unwrap();
        assert_eq!(regs.v[2], vec![255, 15]);

        let vqs = Inst::V(VectorInst::VAlu {
            op: VAluOp::SatSub,
            elem: ElemType::I8,
            vd: VReg::V2,
            vn: VReg::V1,
            vm: VReg::V0,
        });
        exec(&vqs, 0, &mut regs, &mut mem, &prog, 2).unwrap();
        assert_eq!(regs.v[2], vec![0, 0]);
    }

    #[test]
    fn reductions_fold_into_scalar_registers() {
        let (mut regs, mut mem, prog) = setup(4);
        regs.r[1] = 100;
        regs.v[3] = vec![5u32, 200, 7, 50];
        let vmin = Inst::V(VectorInst::VRedI {
            op: RedOp::Min,
            elem: ElemType::I32,
            rd: Reg::R1,
            vn: VReg::V3,
        });
        exec(&vmin, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(regs.r[1], 5);

        regs.set_f32(2, 1.0);
        regs.v[4] = vec![
            2.0f32.to_bits(),
            3.0f32.to_bits(),
            4.0f32.to_bits(),
            5.0f32.to_bits(),
        ];
        let vsum = Inst::V(VectorInst::VRedF {
            op: RedOp::Sum,
            fd: FReg::F2,
            vn: VReg::V4,
        });
        exec(&vsum, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(regs.f32(2), 15.0);
    }

    #[test]
    fn permutation_applies_blocked() {
        let (mut regs, mut mem, prog) = setup(8);
        regs.v[0] = (0..8).collect();
        let perm = Inst::V(VectorInst::VPerm {
            kind: PermKind::Bfly { block: 4 },
            elem: ElemType::I32,
            vd: VReg::V1,
            vn: VReg::V0,
        });
        exec(&perm, 0, &mut regs, &mut mem, &prog, 8).unwrap();
        assert_eq!(regs.v[1], vec![2, 3, 0, 1, 6, 7, 4, 5]);
    }

    #[test]
    fn permutation_block_wider_than_lanes_faults() {
        let (mut regs, mut mem, prog) = setup(4);
        let perm = Inst::V(VectorInst::VPerm {
            kind: PermKind::Bfly { block: 8 },
            elem: ElemType::I32,
            vd: VReg::V1,
            vn: VReg::V0,
        });
        assert!(exec(&perm, 0, &mut regs, &mut mem, &prog, 4).is_err());
    }

    #[test]
    fn vector_without_accelerator_faults() {
        let (mut regs, mut mem, prog) = setup(0);
        let vsplat = Inst::V(VectorInst::VSplat {
            elem: ElemType::I32,
            vd: VReg::V0,
            imm: 1,
        });
        assert!(exec(&vsplat, 0, &mut regs, &mut mem, &prog, 0).is_err());
    }

    #[test]
    fn call_and_return_control() {
        let (mut regs, mut mem, prog) = setup(0);
        let bl = Inst::S(ScalarInst::Bl {
            target: 40,
            vectorizable: true,
        });
        let o = exec(&bl, 7, &mut regs, &mut mem, &prog, 0).unwrap();
        assert_eq!(
            o.control,
            Control::Call {
                target: 40,
                vectorizable: true
            }
        );
        assert_eq!(regs.r[14], 8);
        let o = exec(&Inst::S(ScalarInst::Ret), 40, &mut regs, &mut mem, &prog, 0).unwrap();
        assert_eq!(o.control, Control::Return);
    }

    #[test]
    fn static_faults_carry_the_exact_message() {
        let (mut regs, mut mem, prog) = setup(4);
        let fault = |what: &str| {
            Err::<(), _>(SimError::Fault {
                pc: 9,
                what: what.to_string(),
            })
        };
        let mut run = |inst: Inst, lanes: usize| {
            exec(&inst, 9, &mut regs, &mut mem, &prog, lanes).map(|_| ())
        };
        let vsplat = VectorInst::VSplat {
            elem: ElemType::I32,
            vd: VReg::V0,
            imm: 1,
        };
        for lanes in [0, 1] {
            assert_eq!(
                run(Inst::V(vsplat), lanes),
                fault(&format!(
                    "vector instruction `{vsplat}` without SIMD accelerator"
                ))
            );
        }
        let perm = Inst::V(VectorInst::VPerm {
            kind: PermKind::Rev { block: 4 },
            elem: ElemType::I32,
            vd: VReg::V1,
            vn: VReg::V0,
        });
        assert_eq!(
            run(perm, 6),
            fault("permutation block 4 not executable at 6 lanes")
        );
        let missing = SymId::new(7);
        let ld = Inst::S(ScalarInst::LdInt {
            width: MemWidth::W,
            signed: false,
            rd: Reg::R1,
            base: Base::Sym(missing),
            index: Reg::R0,
        });
        let text = prog.symbol(missing).unwrap_err().to_string();
        assert_eq!(run(ld, 4), fault(&text));
        let vconst = Inst::V(VectorInst::VAluConst {
            op: VAluOp::Add,
            elem: ElemType::I32,
            vd: VReg::V1,
            vn: VReg::V0,
            cnst: missing,
        });
        assert_eq!(run(vconst, 4), fault(&text));
    }

    #[test]
    fn failed_predicates_leave_registers_and_report_tap_values() {
        let (mut regs, mut mem, prog) = setup(0);
        regs.r[1] = 5;
        regs.r[2] = 9;
        regs.set_f32(3, 2.5);
        regs.set_f32(4, -1.0);
        // 1 > 2 fails, so every `gt` below is skipped.
        regs.flags = Flags::from_cmp(1, 2);
        let movgt_imm = Inst::S(ScalarInst::MovImm {
            cond: Cond::Gt,
            rd: Reg::R1,
            imm: -7,
        });
        let o = exec(&movgt_imm, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert!(!o.executed);
        assert_eq!(regs.r[1], 5);
        assert_eq!(o.value, Some(-7)); // the immediate, executed or not
        let movgt = Inst::S(ScalarInst::Mov {
            cond: Cond::Gt,
            rd: Reg::R1,
            rm: Reg::R2,
        });
        let o = exec(&movgt, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert!(!o.executed);
        assert_eq!(regs.r[1], 5);
        assert_eq!(o.value, Some(5)); // the destination's final value
        for op2 in [Operand2::Reg(Reg::R2), Operand2::Imm(3)] {
            let addgt = Inst::S(ScalarInst::Alu {
                cond: Cond::Gt,
                op: AluOp::Add,
                rd: Reg::R1,
                rn: Reg::R2,
                op2,
            });
            let o = exec(&addgt, 0, &mut regs, &mut mem, &prog, 0).unwrap();
            assert!(!o.executed);
            assert_eq!(regs.r[1], 5);
            assert_eq!(o.value, None);
        }
        let fmovgt = Inst::S(ScalarInst::FMov {
            cond: Cond::Gt,
            fd: FReg::F3,
            fm: FReg::F4,
        });
        let o = exec(&fmovgt, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert!(!o.executed);
        assert_eq!(regs.f32(3), 2.5);
        assert_eq!(o.value, None);
        // The same predicates pass once the flags say 3 > 2.
        regs.flags = Flags::from_cmp(3, 2);
        let o = exec(&movgt, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert!(o.executed);
        assert_eq!((regs.r[1], o.value), (9, Some(9)));
        let o = exec(&fmovgt, 0, &mut regs, &mut mem, &prog, 0).unwrap();
        assert!(o.executed);
        assert_eq!(regs.f32(3), -1.0);
    }

    #[test]
    fn tap_values_of_the_other_scalar_forms() {
        let (mut regs, mut mem, prog) = setup(0);
        regs.r[1] = 4;
        let mut value = |inst: ScalarInst| {
            exec(&Inst::S(inst), 0, &mut regs, &mut mem, &prog, 0)
                .unwrap()
                .value
        };
        assert_eq!(
            value(ScalarInst::Mov {
                cond: Cond::Al,
                rd: Reg::R2,
                rm: Reg::R1,
            }),
            Some(4)
        );
        assert_eq!(
            value(ScalarInst::Alu {
                cond: Cond::Al,
                op: AluOp::Sub,
                rd: Reg::R3,
                rn: Reg::R0,
                op2: Operand2::Reg(Reg::R1),
            }),
            Some(-4)
        );
        for inst in [
            ScalarInst::Cmp {
                rn: Reg::R1,
                op2: Operand2::Imm(4),
            },
            ScalarInst::FAlu {
                op: FpOp::Add,
                fd: FReg::F0,
                fn_: FReg::F1,
                fm: FReg::F2,
            },
            ScalarInst::StInt {
                width: MemWidth::W,
                rs: Reg::R1,
                base: Base::Sym(SymId::new(0)),
                index: Reg::R0,
            },
            ScalarInst::LdF {
                fd: FReg::F0,
                base: Base::Sym(SymId::new(0)),
                index: Reg::R0,
            },
            ScalarInst::B {
                cond: Cond::Al,
                target: 3,
            },
            ScalarInst::Nop,
        ] {
            assert_eq!(value(inst), None, "{inst:?}");
        }
        // The tap sees no vector instruction.
        let out = Outcome {
            control: Control::Next,
            executed: true,
            mem: None,
        };
        let vsplat = Inst::V(VectorInst::VSplat {
            elem: ElemType::I32,
            vd: VReg::V0,
            imm: 1,
        });
        assert_eq!(tap_record(0, &vsplat, &out, &regs), None);
    }

    /// Signed and unsigned 1- and 2-byte loads extend like the memory
    /// reads they are, and a load's tap value equals `load_extend`'s.
    #[test]
    fn narrow_loads_extend_and_report_the_loaded_value() {
        let (mut regs, mut mem, prog) = setup(4);
        for (i, b) in [0x80u32, 0xff, 0x7f, 0x01, 0x00, 0x80, 0xff, 0xff]
            .into_iter()
            .enumerate()
        {
            mem.write(0x1000 + i as u32, 1, b).unwrap();
        }
        for (width, elem, esz) in [
            (MemWidth::B, ElemType::I8, 1u32),
            (MemWidth::H, ElemType::I16, 2),
            (MemWidth::W, ElemType::I32, 4),
        ] {
            for signed in [false, true] {
                regs.r[0] = 1;
                let ld = Inst::S(ScalarInst::LdInt {
                    width,
                    signed,
                    rd: Reg::R5,
                    base: Base::Sym(SymId::new(0)),
                    index: Reg::R0,
                });
                let o = exec(&ld, 0, &mut regs, &mut mem, &prog, 4).unwrap();
                let (raw, expected) = load_extend(&mem, 0x1000 + esz, esz, signed).unwrap();
                assert_eq!(regs.r[5], raw, "{width:?} signed={signed}");
                assert_eq!(o.value, Some(expected), "{width:?} signed={signed}");

                regs.r[0] = 0;
                let vld = Inst::V(VectorInst::VLd {
                    elem,
                    signed,
                    vd: VReg::V2,
                    base: Base::Sym(SymId::new(0)),
                    index: Reg::R0,
                });
                exec(&vld, 0, &mut regs, &mut mem, &prog, 4).unwrap();
                let lanes: Vec<u32> = (0..4)
                    .map(|i| load_extend(&mem, 0x1000 + i * esz, esz, signed).unwrap().0)
                    .collect();
                assert_eq!(regs.v[2], lanes, "{elem:?} signed={signed}");
            }
        }
        // Spot values: 0x80 / 0xff80 sign-extend, 0x80 zero-extends.
        assert_eq!(load_extend(&mem, 0x1000, 1, true).unwrap().1, -128);
        assert_eq!(load_extend(&mem, 0x1000, 1, false).unwrap().1, 128);
        assert_eq!(load_extend(&mem, 0x1004, 2, true).unwrap().1, -32768);
        assert_eq!(load_extend(&mem, 0x1004, 2, false).unwrap().1, 32768);
    }

    #[test]
    fn constant_vectors_wrap_at_their_period() {
        let (mut regs, mut mem, prog) = setup(4);
        // `c` holds two i32 elements, so four lanes read c0 c1 c0 c1.
        mem.write(0x1040, 4, 10).unwrap();
        mem.write(0x1044, 4, 20).unwrap();
        regs.v[0] = vec![1, 2, 3, 4];
        let vconst = Inst::V(VectorInst::VAluConst {
            op: VAluOp::Add,
            elem: ElemType::I32,
            vd: VReg::V0,
            vn: VReg::V0,
            cnst: SymId::new(1),
        });
        let o = exec(&vconst, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(regs.v[0], vec![11, 22, 13, 24]);
        assert_eq!(o.mem, Some((0x1040, 8, false)));
    }

    #[test]
    fn splat_and_scalar_broadcasts() {
        let (mut regs, mut mem, prog) = setup(4);
        let vsplat = Inst::V(VectorInst::VSplat {
            elem: ElemType::I32,
            vd: VReg::V3,
            imm: -2,
        });
        exec(&vsplat, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(regs.v[3], vec![(-2i32) as u32; 4]);

        regs.set_f32(6, 0.5);
        regs.v[1] = [1.0f32, 2.0, -3.0, 4.5].map(f32::to_bits).to_vec();
        let vmul = Inst::V(VectorInst::VAluScalar {
            op: VAluOp::Mul,
            elem: ElemType::F32,
            vd: VReg::V2,
            vn: VReg::V1,
            src: ScalarSrc::F(FReg::F6),
        });
        exec(&vmul, 0, &mut regs, &mut mem, &prog, 4).unwrap();
        assert_eq!(
            regs.v[2],
            [0.5f32, 1.0, -1.5, 2.25].map(f32::to_bits).to_vec()
        );
    }
}
