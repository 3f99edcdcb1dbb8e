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
//! The superblock backend single-steps (counted per reason in
//! [`BlockStats`]) whenever block execution could observably diverge: a
//! tracer is attached (per-step event stamps), interrupt injection is
//! configured (exact retire indices), the translator has an open window
//! (its tap observes every program-stream retire), or the next instruction
//! is control flow (always interpreted; this is also where calls,
//! translation begins, and microcode entry/exit happen).

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
        // Single-step whenever block execution could observably diverge.
        if m.tracer.is_some() {
            self.stats.fallback_tracer += 1;
            return checked_step(m);
        }
        if m.config.interrupt_every > 0 || !m.config.interrupt_at.is_empty() {
            self.stats.fallback_interrupts += 1;
            return checked_step(m);
        }
        // Chain blocks: a lowered branch terminator keeps control inside
        // the backend (the common case for hot loops), so one dispatch can
        // replay an entire loop nest. Nothing inside the chain can flip the
        // guards above or activate the translator (both need a call, which
        // exits through the interpreter), and the mcache epoch check at the
        // top of each iteration is a cheap integer compare.
        loop {
            if m.translator.is_active() {
                self.stats.fallback_translator += 1;
                return checked_step(m);
            }
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

    fn run_both(src: &str, config: &MachineConfig) {
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
        run_both(SUM_LOOP, &MachineConfig::liquid(8));
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
        let ei = Machine::new(&p, cfg.clone()).run().unwrap_err();
        let es = Machine::new(&p, cfg.with_backend(BackendKind::Superblock))
            .run()
            .unwrap_err();
        assert_eq!(ei, es);
    }

    /// Emits a random-but-legal scalar loop: load, a random ALU mix with
    /// optional forward branches (several superblocks per iteration),
    /// store, and a counted backedge. Deterministic in `rand`.
    fn random_program(rand: &mut impl FnMut() -> u64, case: usize) -> String {
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
        format!(
            ".data\n.i32 A: {}\n.i32 B: {}\n\n.text\nmain:\n    mov r0, #0\n    mov r1, #0\n\
             top:\n    ldw r2, [A + r0]\n{body}    stw [B + r0], r2\n    add r0, r0, #1\n\
             \x20   cmp r0, #{n}\n    blt top\n    halt\n",
            vals.join(", "),
            zeros.join(", "),
        )
    }

    /// The lowering property: on a random legal program, every dispatch
    /// boundary of the superblock backend must land exactly where the
    /// interpreter sat after the same number of retired instructions —
    /// the identical `(pc, cycle)` sequence, observed at block
    /// granularity, with identical final state.
    #[test]
    fn random_programs_retire_identical_pc_cycle_sequences() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..24 {
            let src = random_program(&mut rand, case);
            let p = asm::assemble(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));

            // Full per-retire interpreter trace: retired count -> (pc, cycle).
            let mut mi = Machine::new(&p, MachineConfig::scalar_only());
            let mut trace = std::collections::HashMap::new();
            trace.insert(mi.report.retired, (mi.current_pc(), mi.cycle));
            while !mi.step().expect("interp step") {
                trace.insert(mi.report.retired, (mi.current_pc(), mi.cycle));
            }

            let mut ms = Machine::new(
                &p,
                MachineConfig::scalar_only().with_backend(BackendKind::Superblock),
            );
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
            let base = mi.memory().base();
            let len = mi.memory().size();
            assert_eq!(
                mi.memory().slice(base, len).ok(),
                ms.memory().slice(base, len).ok(),
                "case {case}"
            );
        }
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
