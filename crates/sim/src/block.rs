//! Superblock lowering: straight-line instruction runs pre-lowered into a
//! flat threaded-code form and replayed without per-step dispatch.
//!
//! The interpreter ([`crate::machine::Machine::step`]) pays a fixed toll on
//! every retire: stream match, bounds-checked fetch, a 56-byte `InstMeta`
//! copy, the two-level `Inst` enum dispatch, per-lane `Vec` double
//! indexing, and the tracer/interrupt/translator checks. None of that work
//! changes between executions of the same straight-line run, so the
//! superblock backend performs it once per *block*: [`discover`] scans from
//! a start PC to the next control-flow instruction, resolves symbols,
//! flattens each instruction into a [`Lowered`] op, and pre-computes which
//! operand-readiness checks are statically satisfiable inside the block.
//! [`exec_block`] then replays the lowered run with scoreboard timing that
//! is bit-exact with the interpreter — the conformance oracle and the perf
//! sentinel's cross-backend gate both enforce that equivalence.
//!
//! # Cycle-accounting equivalence
//!
//! For every instruction the executor reproduces the interpreter's exact
//! sequence: `issue = max(cycle+1, ready[srcs])`, the I-cache probe (program
//! stream only), functional execution, the D-cache range access,
//! `done = issue + latency + mem_extra`, writeback, and
//! `cycle = issue (+ mem_extra for stores)`. A direct branch ending the
//! run is lowered as the block's [`Terminator`] and replayed with the same
//! sequence (flags-readiness stall, I-cache probe, taken-branch refill
//! `lat.branch_taken`, retire), so hot loop backedges never leave the
//! backend; calls, returns, and halt always do. The only elisions are
//! *proven no-ops*:
//!
//! - **Hoisted readiness checks.** `cycle` advances by at least one per
//!   retire, so `issue_j >= issue_i + (j - i)` for in-block indices
//!   `i < j`. If index `i` defines register `d` unconditionally with no
//!   memory participation, its writeback sets `ready[d] = issue_i + lat`;
//!   a consumer at `j` with `lat <= j - i` therefore never stalls on it and
//!   the check is dropped at lowering time. Conditional or memory-feeding
//!   defs keep their consumers' checks (their `done` is dynamic). Flags
//!   after any in-block `cmp` are always ready (`issue_i + 1 <= issue_j`).
//! - **Batched counters.** Retire counters accumulate in locals and flush
//!   once per block (also on the error path), producing identical
//!   `RunReport` totals. Cycles are charged to the ledger per instruction,
//!   exactly as the interpreter charges them.
//!
//! # Observed retires
//!
//! A retire that something watches — any retire under an attached tracer,
//! or a program-stream retire while a translation window is open — skips
//! the batching and goes through [`Machine::post_retire`], the same hook
//! [`crate::machine::Machine::step`] ends with. A tapped instruction runs
//! through [`exec`] rather than its lowered form, because the translator
//! reads the retired value that only `exec` reports. A window that ends
//! mid-block is seen by the block's next retire, which is then batched.

use liquid_simd_isa::{
    AluOp, Base, Cond, ElemType, Flags, FpOp, Inst, LaneLoop, Operand2, Program, RedOp, ScalarInst,
    ScalarSrc, VAluOp, VectorInst,
};
use liquid_simd_mem::Memory;
use liquid_simd_translator::Retired;

use crate::exec::{exec, load_extend, SimError};
use crate::machine::{tap_record, Machine};
use crate::meta::{InstMeta, RegRef};
use crate::regfile::RegFile;

/// A resolved memory-base operand: register or absolute (symbol) address.
#[derive(Clone, Copy, Debug)]
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
#[derive(Clone, Copy, Debug)]
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
    VPerm {
        vd: u8,
        vn: u8,
        map: [u8; 16],
    },
    VSplat {
        vd: u8,
        imm: u32,
    },
    /// Anything rare or stateful (constant-vector ops re-read memory,
    /// unresolvable symbols and invalid permutes must fault exactly,
    /// vector ops without an accelerator must fault exactly): execute
    /// through the interpreter's `exec`.
    Generic(Inst),
}

/// One instruction inside a lowered block, with the static scoreboard facts
/// it retires under. `srcs` holds only the readiness checks that could not
/// be hoisted (see the module docs), packed front-to-back.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoweredInst {
    pub kind: Lowered,
    pub pc: u32,
    pub srcs: [Option<RegRef>; 6],
    pub def: Option<RegRef>,
    pub writes_flags: bool,
    pub latency: u32,
    pub vector: bool,
    pub active_lanes: u16,
}

/// How a lowered block hands off control when its straight-line body ends.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Terminator {
    /// Calls, returns, halt, end-of-code: one interpreter step (this is
    /// where translation begins and microcode entry/exit happen).
    Interp,
    /// A direct branch, executed in-block with the interpreter's exact
    /// timing. `check_flags` keeps the flags-readiness stall when no
    /// in-block flag write makes it statically satisfied (same hoisting
    /// proof as body sources).
    Branch {
        pc: u32,
        target: u32,
        cond: Cond,
        check_flags: bool,
    },
}

/// A lowered straight-line run: `insts.len()` instructions starting at
/// `start`, ending in `term` — a lowered direct branch, or a hand-off to
/// the interpreter. Immutable once built; cached by the superblock backend.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    pub start: u32,
    pub in_micro: bool,
    pub insts: Vec<LoweredInst>,
    pub term: Terminator,
}

impl Block {
    /// First PC *not* covered by the block's body (the terminator).
    pub fn end(&self) -> u32 {
        self.start + self.insts.len() as u32
    }
}

/// Whether an instruction ends a straight-line run (any control flow).
pub(crate) fn is_terminator(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::S(ScalarInst::B { .. } | ScalarInst::Bl { .. } | ScalarInst::Ret | ScalarInst::Halt)
    )
}

/// Control flow the backend cannot lower and must hand to the interpreter:
/// calls (translation begins, microcode entry), returns (stream switches),
/// and halt. Direct branches are lowered as block terminators instead.
pub(crate) fn needs_interp(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::S(ScalarInst::Bl { .. } | ScalarInst::Ret | ScalarInst::Halt)
    )
}

fn cond_of(inst: &Inst) -> Cond {
    match inst {
        Inst::S(
            ScalarInst::MovImm { cond, .. }
            | ScalarInst::Mov { cond, .. }
            | ScalarInst::Alu { cond, .. }
            | ScalarInst::FMov { cond, .. }
            | ScalarInst::B { cond, .. },
        ) => *cond,
        _ => Cond::Al,
    }
}

fn has_mem(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::S(
            ScalarInst::LdInt { .. }
                | ScalarInst::StInt { .. }
                | ScalarInst::LdF { .. }
                | ScalarInst::StF { .. }
        ) | Inst::V(VectorInst::VLd { .. } | VectorInst::VSt { .. } | VectorInst::VAluConst { .. })
    )
}

/// Per-register knowledge while scanning a block, for readiness hoisting.
#[derive(Clone, Copy)]
enum DefState {
    /// Defined before the block: readiness unknown, keep the check.
    Unknown,
    /// Redefined in-block by a conditional or memory-feeding instruction:
    /// its `done` cycle is dynamic, keep the check.
    Dynamic,
    /// Redefined at block index `idx` by an unconditional, non-memory
    /// instruction with result latency `lat`: ready at `issue_idx + lat`.
    Exact { idx: u32, lat: u32 },
}

struct Hoist {
    r: [DefState; 16],
    f: [DefState; 16],
    v: [DefState; 16],
    flags_set: bool,
}

impl Hoist {
    fn new() -> Hoist {
        Hoist {
            r: [DefState::Unknown; 16],
            f: [DefState::Unknown; 16],
            v: [DefState::Unknown; 16],
            flags_set: false,
        }
    }

    /// Whether a readiness check for `src` at block index `j` is statically
    /// satisfied (see the module docs for the proof).
    fn satisfied(&self, src: RegRef, j: u32) -> bool {
        let state = match src {
            RegRef::Flags => return self.flags_set,
            RegRef::Int(i) => self.r[i as usize],
            RegRef::Fp(i) => self.f[i as usize],
            RegRef::Vec(i) => self.v[i as usize],
        };
        matches!(state, DefState::Exact { idx, lat } if lat <= j - idx)
    }

    fn record(&mut self, meta: &InstMeta, dynamic_done: bool, j: u32) {
        if meta.writes_flags {
            self.flags_set = true;
        }
        if let Some(d) = meta.def {
            let state = if dynamic_done {
                DefState::Dynamic
            } else {
                DefState::Exact {
                    idx: j,
                    lat: meta.latency,
                }
            };
            match d {
                RegRef::Int(i) => self.r[i as usize] = state,
                RegRef::Fp(i) => self.f[i as usize] = state,
                RegRef::Vec(i) => self.v[i as usize] = state,
                RegRef::Flags => {}
            }
        }
    }
}

fn lbase(base: Base, prog: &Program) -> Option<LBase> {
    match base {
        Base::Reg(r) => Some(LBase::Reg(r.index())),
        Base::Sym(s) => prog.symbol(s).ok().map(|sym| LBase::Abs(sym.addr)),
    }
}

/// Lowers one (non-terminator) instruction. Anything that cannot be proven
/// equivalent in flattened form falls back to [`Lowered::Generic`].
#[allow(clippy::too_many_lines)]
fn lower_inst(inst: &Inst, prog: &Program, lanes: usize) -> Lowered {
    match *inst {
        Inst::S(s) => match s {
            ScalarInst::Nop => Lowered::Nop,
            ScalarInst::MovImm { cond, rd, imm } => {
                if cond == Cond::Al {
                    Lowered::MovImm {
                        rd: rd.index(),
                        imm: imm as u32,
                    }
                } else {
                    Lowered::CondMovImm {
                        cond,
                        rd: rd.index(),
                        imm: imm as u32,
                    }
                }
            }
            ScalarInst::Mov { cond, rd, rm } => {
                if cond == Cond::Al {
                    Lowered::Mov {
                        rd: rd.index(),
                        rm: rm.index(),
                    }
                } else {
                    Lowered::CondMov {
                        cond,
                        rd: rd.index(),
                        rm: rm.index(),
                    }
                }
            }
            ScalarInst::Alu {
                cond,
                op,
                rd,
                rn,
                op2,
            } => match (cond == Cond::Al, op2) {
                (true, Operand2::Reg(rm)) => Lowered::AluRR {
                    op,
                    rd: rd.index(),
                    rn: rn.index(),
                    rm: rm.index(),
                },
                (true, Operand2::Imm(imm)) => Lowered::AluRI {
                    op,
                    rd: rd.index(),
                    rn: rn.index(),
                    imm,
                },
                (false, Operand2::Reg(rm)) => Lowered::CondAluRR {
                    cond,
                    op,
                    rd: rd.index(),
                    rn: rn.index(),
                    rm: rm.index(),
                },
                (false, Operand2::Imm(imm)) => Lowered::CondAluRI {
                    cond,
                    op,
                    rd: rd.index(),
                    rn: rn.index(),
                    imm,
                },
            },
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
                if cond == Cond::Al {
                    Lowered::FMov {
                        fd: fd.index(),
                        fm: fm.index(),
                    }
                } else {
                    Lowered::CondFMov {
                        cond,
                        fd: fd.index(),
                        fm: fm.index(),
                    }
                }
            }
            ScalarInst::LdInt {
                width,
                signed,
                rd,
                base,
                index,
            } => match lbase(base, prog) {
                Some(base) => Lowered::Ld {
                    width: width.bytes(),
                    signed,
                    rd: rd.index(),
                    base,
                    index: index.index(),
                },
                None => Lowered::Generic(*inst),
            },
            ScalarInst::StInt {
                width,
                rs,
                base,
                index,
            } => match lbase(base, prog) {
                Some(base) => Lowered::St {
                    width: width.bytes(),
                    rs: rs.index(),
                    base,
                    index: index.index(),
                },
                None => Lowered::Generic(*inst),
            },
            ScalarInst::LdF { fd, base, index } => match lbase(base, prog) {
                Some(base) => Lowered::LdF {
                    fd: fd.index(),
                    base,
                    index: index.index(),
                },
                None => Lowered::Generic(*inst),
            },
            ScalarInst::StF { fs, base, index } => match lbase(base, prog) {
                Some(base) => Lowered::StF {
                    fs: fs.index(),
                    base,
                    index: index.index(),
                },
                None => Lowered::Generic(*inst),
            },
            // Terminators never reach lowering (discover stops first); be
            // safe rather than unreachable.
            ScalarInst::B { .. } | ScalarInst::Bl { .. } | ScalarInst::Ret | ScalarInst::Halt => {
                Lowered::Generic(*inst)
            }
        },
        Inst::V(v) => {
            if lanes < 2 {
                // Must fault exactly like the interpreter.
                return Lowered::Generic(*inst);
            }
            match v {
                VectorInst::VLd {
                    elem,
                    signed,
                    vd,
                    base,
                    index,
                } => match lbase(base, prog) {
                    Some(base) => Lowered::VLd {
                        esz: elem.bytes(),
                        signed,
                        vd: vd.index(),
                        base,
                        index: index.index(),
                    },
                    None => Lowered::Generic(*inst),
                },
                VectorInst::VSt {
                    elem,
                    vs,
                    base,
                    index,
                } => match lbase(base, prog) {
                    Some(base) => Lowered::VSt {
                        esz: elem.bytes(),
                        vs: vs.index(),
                        base,
                        index: index.index(),
                    },
                    None => Lowered::Generic(*inst),
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
                // Re-reads the constant region from memory every execution;
                // keep the interpreter's code path.
                VectorInst::VAluConst { .. } => Lowered::Generic(*inst),
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
                    if block > lanes || !lanes.is_multiple_of(block) || lanes > 16 {
                        // Invalid combinations fault through the interpreter.
                        Lowered::Generic(*inst)
                    } else {
                        let mut map = [0u8; 16];
                        for (i, m) in map.iter_mut().enumerate().take(lanes) {
                            *m = ((i - (i % block)) + kind.source_index(i)) as u8;
                        }
                        Lowered::VPerm {
                            vd: vd.index(),
                            vn: vn.index(),
                            map,
                        }
                    }
                }
                VectorInst::VSplat { vd, imm, .. } => Lowered::VSplat {
                    vd: vd.index(),
                    imm: imm as u32,
                },
            }
        }
    }
}

/// Scans a straight-line run starting at `start` and lowers it into a
/// [`Block`]. Stops at the first control-flow instruction or the end of the
/// code (both are handled by the interpreter afterwards).
pub(crate) fn discover(
    code: &[Inst],
    meta: &[InstMeta],
    start: u32,
    in_micro: bool,
    prog: &Program,
    lanes: usize,
) -> Block {
    let mut insts = Vec::new();
    let mut hoist = Hoist::new();
    let mut pc = start;
    let mut j = 0u32;
    while let Some(inst) = code.get(pc as usize) {
        if is_terminator(inst) {
            break;
        }
        let m = &meta[pc as usize];
        let mut srcs = [None; 6];
        let mut n = 0;
        for src in m.srcs.iter().take_while(|s| s.is_some()).flatten() {
            if !hoist.satisfied(*src, j) {
                srcs[n] = Some(*src);
                n += 1;
            }
        }
        let kind = lower_inst(inst, prog, lanes);
        let dynamic_done =
            matches!(kind, Lowered::Generic(_)) || cond_of(inst) != Cond::Al || has_mem(inst);
        hoist.record(m, dynamic_done, j);
        insts.push(LoweredInst {
            kind,
            pc,
            srcs,
            def: m.def,
            writes_flags: m.writes_flags,
            latency: m.latency,
            vector: m.vector,
            active_lanes: m.active_lanes,
        });
        pc += 1;
        j += 1;
    }
    let term = match code.get(pc as usize) {
        Some(&Inst::S(ScalarInst::B { cond, target })) => Terminator::Branch {
            pc,
            target,
            cond,
            check_flags: cond != Cond::Al && !hoist.satisfied(RegRef::Flags, j),
        },
        _ => Terminator::Interp,
    };
    Block {
        start,
        in_micro,
        insts,
        term,
    }
}

/// Functional result of a lowered instruction — the subset of
/// [`crate::exec::Outcome`] that straight-line code can produce (no control
/// disposition, no taken branches, no translator value).
struct Fx {
    executed: bool,
    mem: Option<(u32, u32, bool)>,
}

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

/// Element-wise loop against a broadcast second operand `b`, specialized
/// like [`VLoop2`].
struct VLoopB<'r> {
    regs: &'r mut RegFile,
    vd: usize,
    vn: usize,
    b: u32,
}

impl LaneLoop for VLoopB<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self, f: impl Fn(u32, u32) -> u32) {
        let VLoopB { regs, vd, vn, b } = self;
        let mut d = std::mem::take(&mut regs.v[vd]);
        if vn == vd {
            for x in &mut d {
                *x = f(*x, b);
            }
        } else {
            for (x, &a) in d.iter_mut().zip(&regs.v[vn]) {
                *x = f(a, b);
            }
        }
        regs.v[vd] = d;
    }
}

/// Executes one lowered instruction functionally. Mirrors
/// [`crate::exec::exec`] exactly for the specialized forms and delegates to
/// it for [`Lowered::Generic`].
#[allow(clippy::too_many_lines)]
fn exec_lowered(
    kind: &Lowered,
    pc: u32,
    regs: &mut RegFile,
    mem: &mut Memory,
    prog: &Program,
    lanes: usize,
) -> Result<Fx, SimError> {
    let mut fx = Fx {
        executed: true,
        mem: None,
    };
    match *kind {
        Lowered::Nop => {}
        Lowered::MovImm { rd, imm } => {
            regs.r[rd as usize] = imm;
        }
        Lowered::CondMovImm { cond, rd, imm } => {
            fx.executed = cond.eval(regs.flags);
            if fx.executed {
                regs.r[rd as usize] = imm;
            }
        }
        Lowered::Mov { rd, rm } => {
            regs.r[rd as usize] = regs.r[rm as usize];
        }
        Lowered::CondMov { cond, rd, rm } => {
            fx.executed = cond.eval(regs.flags);
            if fx.executed {
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
            fx.executed = cond.eval(regs.flags);
            if fx.executed {
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
            fx.executed = cond.eval(regs.flags);
            if fx.executed {
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
            fx.executed = cond.eval(regs.flags);
            if fx.executed {
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
            fx.mem = Some((addr, width, false));
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
            fx.mem = Some((addr, width, true));
        }
        Lowered::LdF { fd, base, index } => {
            let b = base.value(regs);
            let addr = b.wrapping_add(regs.r[index as usize].wrapping_mul(4));
            regs.f[fd as usize] = mem.read(addr, 4)?;
            fx.mem = Some((addr, 4, false));
        }
        Lowered::StF { fs, base, index } => {
            let b = base.value(regs);
            let addr = b.wrapping_add(regs.r[index as usize].wrapping_mul(4));
            mem.write(addr, 4, regs.f[fs as usize])?;
            fx.mem = Some((addr, 4, true));
        }
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
                // Byte-exact fallback: per-lane accesses with the
                // interpreter's exact address expression, fault, and
                // partial-write behaviour.
                for i in 0..lanes {
                    let addr = start + i as u32 * esz;
                    let (raw, _) = load_extend(mem, addr, esz, signed)?;
                    regs.v[vd][i] = raw;
                }
            }
            fx.mem = Some((start, total, false));
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
            fx.mem = Some((start, total, true));
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
                    b: imm,
                },
            );
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
                    b: broadcast,
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
        Lowered::VPerm { vd, vn, map } => {
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
        Lowered::Generic(ref inst) => {
            let o = exec(inst, pc, regs, mem, prog, lanes)?;
            fx.executed = o.executed;
            fx.mem = o.mem;
        }
    }
    Ok(fx)
}

fn cycle_limit(pc: u32, max_cycles: u64) -> SimError {
    SimError::Fault {
        pc,
        what: format!("cycle limit {max_cycles} exceeded"),
    }
}

/// Whether the machine must see each retire of a block through
/// [`Machine::post_retire`]: a tracer stamps every retire, and an open
/// translation window taps every program-stream retire. Within one block
/// this can only go from `true` to `false` (a window ends mid-block; only a
/// call, which ends the block, opens one).
fn observed(m: &Machine<'_>, in_micro: bool) -> bool {
    m.tracer.is_some() || (!in_micro && m.translator.is_active())
}

/// Replays a lowered block against the machine with bit-exact scoreboard
/// timing (see the module docs for the equivalence argument). On a fault the
/// already-retired prefix's counters and cycles are flushed exactly as the
/// interpreter would have left them.
///
/// Observed retires (see [`observed`]) go through the interpreter's own
/// post-retire hook one at a time; a tapped instruction executes through
/// [`exec`], whose outcome carries the value and branch direction the
/// translator reads. Unobserved retires batch their counters.
///
/// Returns `true` when the block's lowered branch terminator executed (the
/// machine already advanced to the branch's destination); `false` when the
/// terminator is the interpreter's job (the caller advances to
/// [`Block::end`] and steps once).
#[allow(clippy::too_many_lines)]
pub(crate) fn exec_block(m: &mut Machine<'_>, block: &Block) -> Result<bool, SimError> {
    let lanes = m.config.lanes;
    let i_penalty = u64::from(m.config.icache.miss_penalty);
    let d_penalty = u64::from(m.config.dcache.miss_penalty);
    let max_cycles = m.config.max_cycles;
    // The interpreter checks the limit before it rotates the exec span.
    if m.cycle > max_cycles {
        return Err(cycle_limit(block.start, max_cycles));
    }
    m.rotate_exec_span(block.in_micro);
    let mut observe = observed(m, block.in_micro);
    let mut retired = 0u64;
    let mut vec_retired = 0u64;
    let mut lane_ops = 0u64;
    let mut result = Ok(());
    for li in &block.insts {
        // The interpreter's run loop checks the limit before every step.
        if m.cycle > max_cycles {
            result = Err(cycle_limit(li.pc, max_cycles));
            break;
        }
        // ---- issue: the readiness checks that survived hoisting ----------
        let mut issue = m.cycle + 1;
        for src in li.srcs.iter().take_while(|s| s.is_some()).flatten() {
            let ready = match src {
                RegRef::Int(i) => m.ready_r[*i as usize],
                RegRef::Fp(i) => m.ready_f[*i as usize],
                RegRef::Vec(i) => m.ready_v[*i as usize],
                RegRef::Flags => m.ready_flags,
            };
            issue = issue.max(ready);
        }
        if !block.in_micro && !m.icache.access(li.pc * 4) {
            issue += i_penalty;
        }
        // ---- execute ------------------------------------------------------
        let mut tap = None;
        let executed = if observe && !block.in_micro && m.translator.is_active() {
            let inst = m.prog.code[li.pc as usize];
            exec(&inst, li.pc, &mut m.regs, &mut m.mem, m.prog, lanes).map(|o| {
                tap = tap_record(li.pc, inst, &o);
                Fx {
                    executed: o.executed,
                    mem: o.mem,
                }
            })
        } else {
            exec_lowered(&li.kind, li.pc, &mut m.regs, &mut m.mem, m.prog, lanes)
        };
        let fx = match executed {
            Ok(fx) => fx,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        // ---- memory timing, writeback, time -------------------------------
        let mut mem_extra = 0u64;
        let mut is_store = false;
        if let Some((addr, len, write)) = fx.mem {
            let misses = m.dcache.access_range(addr, len);
            mem_extra = u64::from(misses) * d_penalty;
            is_store = write;
        }
        let done = issue + u64::from(li.latency) + mem_extra;
        if fx.executed {
            if let Some(d) = li.def {
                match d {
                    RegRef::Int(i) => m.ready_r[i as usize] = done,
                    RegRef::Fp(i) => m.ready_f[i as usize] = done,
                    RegRef::Vec(i) => m.ready_v[i as usize] = done,
                    RegRef::Flags => {}
                }
            }
        }
        if li.writes_flags {
            m.ready_flags = issue + 1;
        }
        let mut busy = issue;
        if is_store {
            busy += mem_extra;
        }
        // Charged per instruction exactly as the interpreter charges, so
        // superblock ledgers are byte-identical to the interpreter's.
        m.ledger
            .retire(block.in_micro, li.pc, li.vector, busy - m.cycle);
        m.cycle = busy;
        if observe {
            // Observation only ever stops inside a block, so no batched
            // retire precedes this one.
            debug_assert_eq!(retired, 0);
            m.post_retire(li.pc, li.vector, li.active_lanes, tap);
            observe = observed(m, block.in_micro);
        } else {
            retired += 1;
            if li.vector {
                vec_retired += 1;
                lane_ops += u64::from(li.active_lanes);
            }
        }
    }
    // ---- lowered branch terminator ----------------------------------------
    let mut jumped = false;
    if result.is_ok() {
        if let Terminator::Branch {
            pc,
            target,
            cond,
            check_flags,
        } = block.term
        {
            if m.cycle > max_cycles {
                result = Err(cycle_limit(pc, max_cycles));
            } else {
                let mut issue = m.cycle + 1;
                if check_flags {
                    issue = issue.max(m.ready_flags);
                }
                if !block.in_micro && !m.icache.access(pc * 4) {
                    issue += i_penalty;
                }
                let taken = cond.eval(m.regs.flags);
                let mut busy = issue;
                if taken {
                    busy += u64::from(m.config.lat.branch_taken);
                }
                m.ledger.retire(block.in_micro, pc, false, busy - m.cycle);
                m.cycle = busy;
                // Branches are scalar: no def, no flag write.
                if observe {
                    debug_assert_eq!(retired, 0);
                    let tap = (!block.in_micro && m.translator.is_active()).then_some(Retired {
                        pc,
                        inst: ScalarInst::B { cond, target },
                        executed: true,
                        value: None,
                        taken,
                    });
                    m.post_retire(pc, false, 0, tap);
                } else {
                    retired += 1;
                }
                m.advance(if taken { target } else { pc + 1 });
                jumped = true;
            }
        }
    }
    // ---- flush batched counters (both exit paths) -------------------------
    m.report.retired += retired;
    m.report.scalar_retired += retired - vec_retired;
    m.report.vector_retired += vec_retired;
    m.report.lane_ops += lane_ops;
    result.map(|()| jumped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use crate::meta::meta_of_code;
    use liquid_simd_isa::asm;

    #[test]
    fn discovery_stops_at_control_flow() {
        let p = asm::assemble(
            r"
.text
main:
    mov r0, #1
    add r1, r0, #2
    cmp r1, #3
    beq done
    mov r2, #9
done:
    halt
",
        )
        .unwrap();
        let meta = meta_of_code(&p.code, &LatencyModel::default(), 0);
        let b = discover(&p.code, &meta, 0, false, &p, 0);
        assert_eq!(b.start, 0);
        assert_eq!(b.insts.len(), 3); // mov, add, cmp — beq terminates
        assert_eq!(b.end(), 3);
        // Restarting on the branch itself yields an empty block.
        let b2 = discover(&p.code, &meta, 3, false, &p, 0);
        assert!(b2.insts.is_empty());
    }

    #[test]
    fn readiness_hoisting_drops_statically_satisfied_checks() {
        // add r1 <- (lat 1); the consumer two slots later needs no check,
        // the consumer in the next slot does (lat 1 <= 1 so it is dropped
        // too); a load's consumer always keeps its check.
        let p = asm::assemble(
            r"
.data
.i32 A: 1, 2, 3, 4

.text
main:
    mov r0, #0
    add r1, r0, #1
    add r2, r1, #1
    ldw r3, [A + r0]
    add r4, r3, #1
    halt
",
        )
        .unwrap();
        let meta = meta_of_code(&p.code, &LatencyModel::default(), 0);
        let b = discover(&p.code, &meta, 0, false, &p, 0);
        assert_eq!(b.insts.len(), 5);
        // mov r0: no in-block defs before it, but r0 was never written in
        // the block, so its (nonexistent) srcs are empty anyway.
        assert!(b.insts[0].srcs[0].is_none());
        // add r1, r0: r0 defined at idx 0 with lat 1 <= 1 — hoisted.
        assert!(b.insts[1].srcs[0].is_none());
        // add r2, r1: r1 defined at idx 1, lat 1 <= 1 — hoisted.
        assert!(b.insts[2].srcs[0].is_none());
        // ldw r3, [A + r0]: r0 exact, hoisted.
        assert!(b.insts[3].srcs[0].is_none());
        // add r4, r3: r3 comes from a load (dynamic mem_extra) — kept.
        assert_eq!(b.insts[4].srcs[0], Some(RegRef::Int(3)));
    }

    #[test]
    fn conditional_defs_stay_dynamic() {
        let p = asm::assemble(
            r"
.text
main:
    cmp r0, #0
    movgt r1, #5
    add r2, r1, #1
    halt
",
        )
        .unwrap();
        let meta = meta_of_code(&p.code, &LatencyModel::default(), 0);
        let b = discover(&p.code, &meta, 0, false, &p, 0);
        // movgt's flags read is hoisted (cmp precedes it in-block)...
        assert!(b.insts[1].srcs.iter().flatten().next().is_none());
        // ...but r1's conditional def keeps the consumer's check.
        assert_eq!(b.insts[2].srcs[0], Some(RegRef::Int(1)));
    }
}
