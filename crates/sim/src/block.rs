//! Superblocks: straight-line runs of lowered ops, replayed without
//! per-step dispatch.
//!
//! The interpreter ([`crate::machine::Machine::step`]) pays a fixed toll on
//! every retire: stream match, bounds-checked fetch, a 56-byte `InstMeta`
//! copy, the control-flow match, and the tracer/interrupt/translator
//! checks. None of that work changes between executions of the same
//! straight-line run, so the superblock backend performs it once per
//! *block*: [`discover`] scans a code image's lowered ops (see
//! [`crate::exec`]) from a start PC to the next control-flow op, copies
//! them into the block, and pre-computes which operand-readiness checks
//! are statically satisfiable inside it. [`exec_block`] then replays the
//! run through the same executor the interpreter uses, with scoreboard
//! timing that is bit-exact with the interpreter — the conformance oracle
//! and the perf sentinel's cross-backend gate both enforce that
//! equivalence.
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
//! [`crate::machine::Machine::step`] ends with, carrying the same tap
//! record ([`Machine::tap`]). A window that ends mid-block is seen by the
//! block's next retire, which is then batched.

use liquid_simd_isa::Cond;

use crate::exec::{exec_lowered, Control, Lowered, Outcome, SimError};
use crate::machine::Machine;
use crate::meta::{InstMeta, RegRef};

/// Whether a lowered op ends a straight-line run (any control flow).
fn is_terminator(op: &Lowered) -> bool {
    matches!(
        op,
        Lowered::B { .. } | Lowered::Bl { .. } | Lowered::Ret | Lowered::Halt
    )
}

/// Control flow the backend cannot lower and must hand to the interpreter:
/// calls (translation begins, microcode entry), returns (stream switches),
/// and halt. Direct branches are lowered as block terminators instead.
pub(crate) fn needs_interp(op: &Lowered) -> bool {
    matches!(op, Lowered::Bl { .. } | Lowered::Ret | Lowered::Halt)
}

/// Whether the cycle an op's result is ready is unknown at lowering time:
/// a predicated def, a def fed by memory (its miss penalty is dynamic), or
/// a fault.
fn dynamic_done(op: &Lowered) -> bool {
    matches!(
        op,
        Lowered::CondMovImm { .. }
            | Lowered::CondMov { .. }
            | Lowered::CondAluRR { .. }
            | Lowered::CondAluRI { .. }
            | Lowered::CondFMov { .. }
            | Lowered::Ld { .. }
            | Lowered::St { .. }
            | Lowered::LdF { .. }
            | Lowered::StF { .. }
            | Lowered::VLd { .. }
            | Lowered::VSt { .. }
            | Lowered::VAluConst { .. }
            | Lowered::Fault(_)
    )
}

/// One instruction inside a lowered block, with the static scoreboard facts
/// it retires under. `srcs` holds only the readiness checks that could not
/// be hoisted (see the module docs), packed front-to-back.
#[derive(Clone, Debug)]
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

/// Scans a straight-line run of a code image's lowered ops starting at
/// `start` and copies it into a [`Block`]. Stops at the first control-flow
/// op or the end of the code (both are handled by the interpreter
/// afterwards).
pub(crate) fn discover(meta: &[InstMeta], ops: &[Lowered], start: u32, in_micro: bool) -> Block {
    let mut insts = Vec::new();
    let mut hoist = Hoist::new();
    let mut pc = start;
    let mut j = 0u32;
    while let Some(op) = ops.get(pc as usize) {
        if is_terminator(op) {
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
        hoist.record(m, dynamic_done(op), j);
        insts.push(LoweredInst {
            kind: op.clone(),
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
    let term = match ops.get(pc as usize) {
        Some(&Lowered::B { cond, target }) => Terminator::Branch {
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
/// post-retire hook one at a time, with the translator tap's record built
/// from the retired instruction and the registers it left. Unobserved
/// retires batch their counters.
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
        let fx = match exec_lowered(&li.kind, li.pc, &mut m.regs, &mut m.mem, lanes) {
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
            let tap = m.tap(block.in_micro, li.pc, &fx);
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
                    let out = Outcome {
                        control: if taken {
                            Control::Jump(target)
                        } else {
                            Control::Next
                        },
                        executed: true,
                        mem: None,
                    };
                    let tap = m.tap(block.in_micro, pc, &out);
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
    use crate::exec::lower_code;
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
        let b = discover(&meta, &lower_code(&p.code, &p, 0), 0, false);
        assert_eq!(b.start, 0);
        assert_eq!(b.insts.len(), 3); // mov, add, cmp — beq terminates
        assert_eq!(b.end(), 3);
        // Restarting on the branch itself yields an empty block.
        let b2 = discover(&meta, &lower_code(&p.code, &p, 0), 3, false);
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
        let b = discover(&meta, &lower_code(&p.code, &p, 0), 0, false);
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
        let b = discover(&meta, &lower_code(&p.code, &p, 0), 0, false);
        // movgt's flags read is hoisted (cmp precedes it in-block)...
        assert!(b.insts[1].srcs.iter().flatten().next().is_none());
        // ...but r1's conditional def keeps the consumer's check.
        assert_eq!(b.insts[2].srcs[0], Some(RegRef::Int(1)));
    }
}
