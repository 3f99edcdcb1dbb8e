//! Pluggable execution backends for [`Machine::run`].
//!
//! A backend is an *implementation strategy* for the fetch/issue/exec/
//! retire loop, never an architectural choice: every backend must produce
//! bit-identical architectural state, cycle counts, and reports. Two
//! backends ship:
//!
//! - [`InterpBackend`] — the reference interpreter, one
//!   [`Machine::step`] per instruction.
//! - [`SuperblockBackend`] — pre-lowers straight-line runs (program stream
//!   and microcode alike) into threaded-code blocks (see [`crate::block`])
//!   and replays them from a block cache keyed by `(stream, start PC,
//!   code generation)`. Program code is immutable, so program blocks live
//!   forever; microcode blocks are keyed by the microcode cache's
//!   per-insert generation and dropped the moment the entry is evicted,
//!   overwritten, or flushed (tracked by the mcache epoch), so
//!   translation/abort/retry semantics are untouched.
//!
//! Tracers and translation windows do not leave the superblock backend:
//! [`crate::block::exec_block`] hands every retire they observe to
//! [`Machine::post_retire`], the interpreter's own post-retire hook, so
//! the tracer stream, the translator tap and everything a window's end
//! changes (JIT stall, replay category, microcode-cache epoch) match the
//! interpreter retire for retire. The backend single-steps (counted per
//! reason in [`BlockStats`]) only when interrupt injection is configured
//! (exact retire indices) or the next instruction is a call, return, halt
//! or the end of the code (always interpreted; this is where calls,
//! translation begins, and microcode entry/exit happen). The
//! `fallback_translator` counter always reads 0; it stays because the
//! perfbench harness reads it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use crate::block::{discover, exec_block, needs_interp, Block};
use crate::exec::SimError;
use crate::machine::{Machine, Stream};
use crate::report::BlockStats;

/// An execution engine driving a [`Machine`] to completion.
pub trait ExecBackend {
    /// Executes at least one instruction; returns `true` on halt.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on simulation faults, exactly as
    /// [`Machine::run`] documents.
    fn dispatch(&mut self, m: &mut Machine<'_>) -> Result<bool, SimError>;

    /// Superblock telemetry (all zeros for backends without a block cache).
    fn block_stats(&self) -> BlockStats {
        BlockStats::default()
    }
}

/// Enforces the cycle limit exactly like the interpreter's run loop
/// (checked before every step), then steps once.
fn checked_step(m: &mut Machine<'_>) -> Result<bool, SimError> {
    if m.cycle > m.config.max_cycles {
        return Err(SimError::Fault {
            pc: m.current_pc(),
            what: format!("cycle limit {} exceeded", m.config.max_cycles),
        });
    }
    m.step()
}

/// The reference interpreter backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpBackend;

impl ExecBackend for InterpBackend {
    fn dispatch(&mut self, m: &mut Machine<'_>) -> Result<bool, SimError> {
        checked_step(m)
    }
}

/// Identity of a lowered block: where its code lives and which immutable
/// image it was lowered from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum BlockKey {
    /// Program stream — the binary never changes, so the PC suffices.
    Prog { pc: u32 },
    /// Microcode — `gen` is the mcache's per-insert generation stamp, so a
    /// retranslated (overwritten) or evicted-and-refilled entry never
    /// aliases stale lowered code.
    Micro { func_pc: u32, gen: u64, pos: u32 },
}

/// The superblock execution backend (see the module docs).
#[derive(Debug, Default)]
pub struct SuperblockBackend {
    cache: HashMap<BlockKey, Rc<Block>>,
    stats: BlockStats,
    /// Mcache epoch the block cache was last reconciled against.
    synced_epoch: u64,
}

impl SuperblockBackend {
    /// Creates an empty backend (blocks are lowered on first dispatch).
    #[must_use]
    pub fn new() -> SuperblockBackend {
        SuperblockBackend::default()
    }

    /// Drops lowered microcode blocks whose source entry is gone. The
    /// mcache bumps its epoch on every insert, overwrite, eviction, and
    /// flush, so this runs only when microcode actually changed.
    fn sync_invalidations(&mut self, m: &Machine<'_>) {
        let epoch = m.mcache.epoch();
        if epoch == self.synced_epoch {
            return;
        }
        let before = self.cache.len();
        self.cache.retain(|k, _| match k {
            BlockKey::Prog { .. } => true,
            BlockKey::Micro { func_pc, gen, .. } => m.mcache.resident_gen(*func_pc) == Some(*gen),
        });
        self.stats.invalidations += (before - self.cache.len()) as u64;
        self.synced_epoch = epoch;
    }
}

impl ExecBackend for SuperblockBackend {
    fn dispatch(&mut self, m: &mut Machine<'_>) -> Result<bool, SimError> {
        // Interrupt injection names exact retire indices: the only reason
        // left to single-step a whole run.
        if m.config.interrupt_every > 0 || !m.config.interrupt_at.is_empty() {
            self.stats.fallback_interrupts += 1;
            return checked_step(m);
        }
        // Chain blocks: a lowered branch terminator keeps control inside
        // the backend (the common case for hot loops), so one dispatch can
        // replay an entire loop nest. Tracers and translation windows ride
        // along: every retire they observe goes through the interpreter's
        // post-retire hook inside the block. A translation that commits
        // mid-chain bumps the mcache epoch, which the check at the top of
        // each iteration (a cheap integer compare) picks up.
        loop {
            self.sync_invalidations(m);

            let (code, meta, start, in_micro, key) = match m.stream {
                Stream::Prog { pc } => (
                    &m.prog.code[..],
                    &m.prog_meta[..],
                    pc,
                    false,
                    BlockKey::Prog { pc },
                ),
                Stream::Micro { idx, pos, .. } => (
                    m.mcache.code(idx),
                    m.mcache.meta(idx),
                    pos,
                    true,
                    BlockKey::Micro {
                        func_pc: m.mcache.func_pc(idx),
                        gen: m.mcache.gen(idx),
                        pos,
                    },
                ),
            };
            // Calls, returns, halt, and running off the end of the code are
            // always the interpreter's job. Direct branches are not: a block
            // starting on one lowers to an empty body plus a branch
            // terminator.
            match code.get(start as usize) {
                Some(inst) if !needs_interp(inst) => {}
                _ => {
                    self.stats.fallback_control += 1;
                    return checked_step(m);
                }
            }
            let block = match self.cache.entry(key) {
                Entry::Occupied(e) => {
                    self.stats.hits += 1;
                    Rc::clone(e.get())
                }
                Entry::Vacant(v) => {
                    self.stats.misses += 1;
                    let b = Rc::new(discover(
                        code,
                        meta,
                        start,
                        in_micro,
                        m.prog,
                        m.config.lanes,
                    ));
                    self.stats.lowered += 1;
                    self.stats.lowered_instrs += b.insts.len() as u64;
                    Rc::clone(v.insert(b))
                }
            };
            let jumped = exec_block(m, &block)?;
            self.stats.block_instrs += block.insts.len() as u64;
            if !jumped {
                // Interpreter terminator: calls, returns, halt, translation
                // begins, and microcode entry/exit all happen here.
                m.advance(block.end());
                return checked_step(m);
            }
        }
    }

    fn block_stats(&self) -> BlockStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, MachineConfig};
    use crate::report::RunReport;
    use liquid_simd_isa::asm;

    const SUM_LOOP: &str = r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8

.text
main:
    mov r1, #0
    mov r0, #0
top:
    ldw r2, [A + r0]
    add r1, r1, r2
    add r0, r0, #1
    cmp r0, #8
    blt top
    halt
";

    /// A vectorizable outlined loop called six times (`bl.v`): the first
    /// call opens a translation window, later calls run the microcode.
    const SCALE_CALLS: &str = r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    mov r5, #0
again:
    bl.v scale
    add r5, r5, #1
    cmp r5, #6
    blt again
    halt
scale:
    mov r0, #0
top:
    ldw r1, [A + r0]
    add r1, r1, r1
    stw [B + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
";

    fn run_both(src: &str, config: &MachineConfig) -> (RunReport, RunReport) {
        let p = asm::assemble(src).expect("assembles");
        let mut mi = Machine::new(&p, config.clone().with_backend(BackendKind::Interp));
        let ri = mi.run().expect("interp runs");
        let mut ms = Machine::new(&p, config.clone().with_backend(BackendKind::Superblock));
        let rs = ms.run().expect("superblock runs");
        // The ledger invariant, both halves: bucket sums equal the run's
        // cycles, and the two backends attribute every cycle to the same
        // (region, pc, category) bucket.
        assert_eq!(ri.ledger.total_cycles(), ri.cycles);
        assert_eq!(ri.ledger, rs.ledger);
        assert_eq!(ri.cycles, rs.cycles);
        assert_eq!(ri.retired, rs.retired);
        assert_eq!(ri.scalar_retired, rs.scalar_retired);
        assert_eq!(ri.vector_retired, rs.vector_retired);
        assert_eq!(ri.lane_ops, rs.lane_ops);
        assert_eq!(ri.icache, rs.icache);
        assert_eq!(ri.dcache, rs.dcache);
        assert_eq!(ri.phases, rs.phases);
        assert_eq!(mi.regs().r, ms.regs().r);
        assert_eq!(mi.regs().f, ms.regs().f);
        assert_eq!(mi.regs().v, ms.regs().v);
        assert_eq!(
            mi.memory().slice(0x1000, 16).ok(),
            ms.memory().slice(0x1000, 16).ok()
        );
        assert_eq!(ri.backend, BackendKind::Interp);
        assert_eq!(rs.backend, BackendKind::Superblock);
        assert_eq!(ri.blocks, crate::report::BlockStats::default());
        assert!(rs.blocks.lowered > 0);
        assert!(rs.blocks.hits > 0); // the loop body re-dispatches
        (ri, rs)
    }

    #[test]
    fn running_past_the_last_instruction_faults_on_both_backends() {
        // No `halt`: after its loop the program runs off its last
        // instruction, and the fault names the code index it reached.
        let src = "main:\n    mov r0, #0\ntop:\n    add r0, r0, #1\n    cmp r0, #4\n    blt top\n";
        let p = asm::assemble(src).expect("assembles");
        for backend in [BackendKind::Interp, BackendKind::Superblock] {
            let config = MachineConfig::scalar_only().with_backend(backend);
            let err = Machine::new(&p, config)
                .run()
                .expect_err("runs off the end");
            assert_eq!(
                err,
                SimError::Fault {
                    pc: 4,
                    what: "fell off the end of the code section".to_string(),
                },
                "{backend:?}"
            );
        }
    }

    #[test]
    fn superblock_matches_interpreter_on_scalar_loop() {
        run_both(SUM_LOOP, &MachineConfig::scalar_only());
    }

    #[test]
    fn superblock_matches_interpreter_with_translation() {
        for jit in [false, true] {
            let mut config = MachineConfig::liquid(8);
            config.translation.jit = jit;
            let (ri, rs) = run_both(SCALE_CALLS, &config);
            assert!(ri.translator.successes > 0, "jit={jit}");
            assert_eq!(ri.translator, rs.translator, "jit={jit}");
            assert_eq!(ri.windows, rs.windows, "jit={jit}");
            assert_eq!(ri.translations, rs.translations, "jit={jit}");
            assert_eq!(ri.calls, rs.calls, "jit={jit}");
            // No retire single-stepped because a window was open.
            assert_eq!(rs.blocks.fallback_translator, 0, "jit={jit}");
        }
    }

    #[test]
    fn cycle_limit_faults_identically() {
        let p = asm::assemble(
            r"
.text
main:
    mov r0, #0
top:
    add r0, r0, #1
    b top
",
        )
        .unwrap();
        let mut cfg = MachineConfig::scalar_only();
        cfg.max_cycles = 10_000;
        let ei = Machine::new(&p, cfg.clone().with_backend(BackendKind::Interp))
            .run()
            .unwrap_err();
        let es = Machine::new(&p, cfg.with_backend(BackendKind::Superblock))
            .run()
            .unwrap_err();
        assert_eq!(ei, es);
    }

    /// Emits a random-but-legal scalar loop: load, a random ALU mix with
    /// optional forward branches (several superblocks per iteration),
    /// store, and a counted backedge — inline in `main`, or `outlined` as a
    /// repeatedly called `bl.v` function. Deterministic in `rand`.
    fn random_program(rand: &mut impl FnMut() -> u64, case: usize, outlined: bool) -> String {
        let n = 8 + (case % 4) * 8;
        let vals: Vec<String> = (0..n)
            .map(|_| ((rand() % 2000) as i64 - 1000).to_string())
            .collect();
        let zeros: Vec<String> = (0..n).map(|_| "0".to_string()).collect();
        let mut body = String::new();
        let ops = ["add", "sub", "mul", "and", "orr", "eor"];
        let mut skips = 0usize;
        for _ in 0..(2 + rand() % 7) {
            let op = ops[(rand() % ops.len() as u64) as usize];
            let rd = 2 + rand() % 5;
            let rn = 1 + rand() % 6;
            if rand().is_multiple_of(2) {
                body.push_str(&format!("    {op} r{rd}, r{rn}, #{}\n", rand() % 64));
            } else {
                body.push_str(&format!("    {op} r{rd}, r{rn}, r{}\n", 1 + rand() % 6));
            }
            if rand().is_multiple_of(4) {
                // A data-dependent forward skip: splits the iteration into
                // several blocks whose chaining both backends must agree on.
                let cond = if rand().is_multiple_of(2) {
                    "beq"
                } else {
                    "bgt"
                };
                body.push_str(&format!(
                    "    cmp r{}, #{}\n    {cond} skip{skips}\n    add r{rd}, r{rd}, #1\nskip{skips}:\n",
                    2 + rand() % 5,
                    rand() % 500,
                ));
                skips += 1;
            }
        }
        let data = format!(
            ".data\n.i32 A: {}\n.i32 B: {}\n\n",
            vals.join(", "),
            zeros.join(", ")
        );
        let lp = format!(
            "top:\n    ldw r2, [A + r0]\n{body}    stw [B + r0], r2\n    add r0, r0, #1\n\
             \x20   cmp r0, #{n}\n    blt top\n"
        );
        if outlined {
            // The loop as a `bl.v` function called four times: the first
            // call opens a translation window (which commits or aborts
            // mid-loop), later calls may run its microcode.
            format!(
                "{data}.text\nmain:\n    mov r1, #0\n    mov r8, #0\nagain:\n    bl.v kern\n\
                 \x20   add r8, r8, #1\n    cmp r8, #4\n    blt again\n    halt\n\
                 kern:\n    mov r0, #0\n{lp}    ret\n"
            )
        } else {
            format!("{data}.text\nmain:\n    mov r0, #0\n    mov r1, #0\n{lp}    halt\n")
        }
    }

    /// The lowering property: on a random legal program, every dispatch
    /// boundary of the superblock backend must land exactly where the
    /// interpreter sat after the same number of retired instructions —
    /// the identical `(pc, cycle)` sequence, observed at block
    /// granularity, with identical final state. The liquid cases call the
    /// loop through `bl.v`, so checkpoints also land inside open
    /// translation windows (some JIT-mode, where committing stalls the
    /// pipeline).
    #[test]
    fn random_programs_retire_identical_pc_cycle_sequences() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut windows, mut translated) = (0, 0);
        for case in 0..48 {
            let liquid = case >= 24;
            let src = random_program(&mut rand, case, liquid);
            let p = asm::assemble(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
            let mut config = if liquid {
                MachineConfig::liquid(8)
            } else {
                MachineConfig::scalar_only()
            };
            config.translation.jit = case % 4 == 3;

            // Full per-retire interpreter trace: retired count -> (pc, cycle).
            let mut mi = Machine::new(&p, config.clone().with_backend(BackendKind::Interp));
            let mut trace = std::collections::HashMap::new();
            trace.insert(mi.report.retired, (mi.current_pc(), mi.cycle));
            while !mi.step().expect("interp step") {
                trace.insert(mi.report.retired, (mi.current_pc(), mi.cycle));
            }

            let mut ms = Machine::new(&p, config.with_backend(BackendKind::Superblock));
            let mut backend = SuperblockBackend::new();
            loop {
                let at = (ms.current_pc(), ms.cycle);
                assert_eq!(
                    trace.get(&ms.report.retired),
                    Some(&at),
                    "case {case}: superblock checkpoint at retire {} diverged",
                    ms.report.retired
                );
                if backend.dispatch(&mut ms).expect("superblock dispatch") {
                    break;
                }
            }
            assert_eq!(mi.report.retired, ms.report.retired, "case {case}");
            assert_eq!(mi.cycle, ms.cycle, "case {case}");
            assert_eq!(mi.regs().r, ms.regs().r, "case {case}");
            assert_eq!(mi.report.windows, ms.report.windows, "case {case}");
            assert_eq!(
                mi.report.translations, ms.report.translations,
                "case {case}"
            );
            assert_eq!(backend.block_stats().fallback_translator, 0, "case {case}");
            let base = mi.memory().base();
            let len = mi.memory().size();
            assert_eq!(
                mi.memory().slice(base, len).ok(),
                ms.memory().slice(base, len).ok(),
                "case {case}"
            );
            windows += mi.report.windows.len();
            translated += mi.report.translations.len();
        }
        // The liquid half really exercised windows, committed and aborted.
        assert!(translated > 0, "no random loop translated");
        assert!(windows > translated, "no random loop aborted");
    }

    #[test]
    fn fallback_reasons_are_counted() {
        let p = asm::assemble(SUM_LOOP).unwrap();
        let mut cfg = MachineConfig::scalar_only().with_backend(BackendKind::Superblock);
        cfg.interrupt_every = 3;
        let mut m = Machine::new(&p, cfg);
        let r = m.run().unwrap();
        // Interrupt injection forces permanent single-stepping.
        assert_eq!(r.blocks.lowered, 0);
        assert_eq!(r.blocks.fallback_interrupts, r.retired);
    }
}
