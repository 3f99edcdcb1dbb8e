//! The simulated machine: functional execution + scoreboard timing +
//! Liquid SIMD translation plumbing.

use std::collections::HashSet;

use liquid_simd_isa::{Inst, Program};
use liquid_simd_ledger::{Category, Recorder, TOP_REGION};
use liquid_simd_mem::{Cache, Memory};
use liquid_simd_trace::{CacheKind, CallMode as TraceCallMode, SpanId, TraceEvent, Tracer, Track};
use liquid_simd_translator::{Progress, Retired, Translator, TranslatorConfig};

use crate::backend::{ExecBackend, InterpBackend, SuperblockBackend};
use crate::config::{BackendKind, MachineConfig};
use crate::exec::{exec, Control, SimError};
use crate::mcache::{Lookup, Mcache};
use crate::meta::{meta_of_code, InstMeta, RegRef};
use crate::regfile::RegFile;
use crate::report::{CallEvent, CallMode, PhaseBreakdown, RunReport, TranslationWindow};

/// Instruction source: the program binary or a microcode-cache entry.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stream {
    Prog { pc: u32 },
    Micro { idx: usize, pos: u32, ret_pc: u32 },
}

/// The simulated machine.
///
/// Construct with a program and configuration, then call [`Machine::run`].
/// After the run, [`Machine::memory`] exposes final memory for gold-output
/// comparison.
pub struct Machine<'p> {
    pub(crate) prog: &'p Program,
    /// Predecoded static metadata for `prog.code`, indexed by PC — the
    /// step-loop fast path (see `crate::meta`).
    pub(crate) prog_meta: Vec<InstMeta>,
    pub(crate) config: MachineConfig,
    pub(crate) regs: RegFile,
    pub(crate) mem: Memory,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) mcache: Mcache,
    pub(crate) translator: Translator,
    /// Entry PC of the function currently being translated, if any.
    translating: Option<u32>,
    /// Index into `report.windows` of the open translation window, if any.
    window: Option<usize>,
    /// Functions that aborted translation for a permanent (non-external)
    /// reason; retrying them every call would only waste the translator.
    pub(crate) failed: HashSet<u32>,
    pub(crate) cycle: u64,
    pub(crate) ready_r: [u64; 16],
    pub(crate) ready_f: [u64; 16],
    pub(crate) ready_v: [u64; 16],
    pub(crate) ready_flags: u64,
    pub(crate) stream: Stream,
    pub(crate) report: RunReport,
    /// Optional event recorder (cloned from the config; the same handle is
    /// attached to the caches and the translator).
    pub(crate) tracer: Option<Tracer>,
    /// Entry PCs of the scalar calls in flight, innermost last: the
    /// ledger region of program-stream retires and the `CallExit` target.
    scalar_stack: Vec<u32>,
    /// The run's cycle ledger: every cycle the machine spends is charged
    /// here and nowhere else.
    pub(crate) ledger: Recorder,
    /// The open execution-phase span and whether it covers microcode
    /// (tracer only): `exec:scalar` / `exec:microcode` segments tile the
    /// whole run, so their cycle totals sum to the run's cycle count.
    exec_span: Option<(SpanId, bool)>,
}

impl<'p> Machine<'p> {
    /// Creates a machine with the program's data segment loaded.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation — construct programs through
    /// the builder/assembler/compiler, which already validate.
    #[must_use]
    pub fn new(prog: &'p Program, config: MachineConfig) -> Machine<'p> {
        prog.validate().expect("program must be valid");
        let mem = Memory::with_image(prog.data_base, &prog.data, config.mem_headroom);
        let tconfig = TranslatorConfig {
            lanes: config.lanes.max(1),
            max_uops: config.mcache_uops,
            value_bits: config.translation.value_bits,
            hw_value_limit: config.translation.hw_value_limit,
        };
        let tracer = config.tracer.clone();
        let mut icache = Cache::new(config.icache);
        let mut dcache = Cache::new(config.dcache);
        let mut translator = Translator::new(tconfig);
        if let Some(t) = &tracer {
            icache.attach_tracer(t.clone(), CacheKind::Instruction);
            dcache.attach_tracer(t.clone(), CacheKind::Data);
            translator.attach_tracer(t.clone());
        }
        Machine {
            prog,
            prog_meta: meta_of_code(&prog.code, &config.lat, config.lanes),
            regs: RegFile::new(config.lanes.max(1)),
            mem,
            icache,
            dcache,
            mcache: Mcache::new(config.mcache_entries, config.mcache_uops),
            translator,
            translating: None,
            window: None,
            failed: HashSet::new(),
            cycle: 0,
            ready_r: [0; 16],
            ready_f: [0; 16],
            ready_v: [0; 16],
            ready_flags: 0,
            stream: Stream::Prog { pc: prog.entry },
            report: RunReport::default(),
            tracer,
            scalar_stack: Vec::new(),
            ledger: Recorder::new(prog.code.len()),
            exec_span: None,
            config,
        }
    }

    /// The machine's memory (inspect after a run).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Snapshots translated microcode after a run (see
    /// [`Machine::preload_microcode`]).
    #[must_use]
    pub fn microcode_snapshot(&self) -> Vec<(u32, Vec<liquid_simd_isa::Inst>)> {
        self.mcache.snapshot()
    }

    /// Preloads microcode valid from cycle 0 — models a processor with
    /// *built-in* ISA support for these SIMD sequences (the paper's
    /// Figure 6 callout comparator: "the simulator treated outlined
    /// functions like native SIMD code"). Combine with harvested microcode
    /// from a prior run of the same binary.
    pub fn preload_microcode(&mut self, entries: &[(u32, Vec<liquid_simd_isa::Inst>)]) {
        for (pc, code) in entries {
            let meta = meta_of_code(code, &self.config.lat, self.config.lanes);
            let _ = self.mcache.insert(*pc, code.clone(), meta, 0);
        }
    }

    /// Test hook: checks every predecoded metadata table (program and
    /// resident microcode) against fresh recomputation. The metadata-
    /// equivalence property test calls this after runs that insert and
    /// evict microcode.
    #[doc(hidden)]
    #[must_use]
    pub fn metadata_consistent(&self) -> bool {
        if self.prog_meta != meta_of_code(&self.prog.code, &self.config.lat, self.config.lanes) {
            return false;
        }
        (0..self.mcache.len()).all(|idx| {
            self.mcache.meta(idx)
                == meta_of_code(self.mcache.code(idx), &self.config.lat, self.config.lanes)
        })
    }

    /// Invalidates the whole microcode cache and aborts any in-flight
    /// translation — the paper's context-switch behaviour (§4.1: microcode
    /// is not architectural state and is simply dropped).
    pub fn flush_microcode(&mut self) {
        let entries = self.mcache.flush();
        self.close_window(false);
        self.translator.abort_external("context-switch");
        self.translating = None;
        if let Some(t) = &self.tracer {
            t.emit(TraceEvent::McacheInvalidate {
                entries: entries as u64,
            });
        }
    }

    /// The architectural registers (inspect after a run).
    #[must_use]
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Runs until `halt`, producing the measurement report. The execution
    /// engine is selected by [`MachineConfig::backend`]; all backends are
    /// observationally identical.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on memory faults, wild control flow, or when the
    /// configured cycle limit is exceeded.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        match self.config.backend {
            BackendKind::Interp => self.run_with(&mut InterpBackend),
            BackendKind::Superblock => self.run_with(&mut SuperblockBackend::new()),
        }
    }

    /// Runs to `halt` under an explicit execution backend. The report's
    /// `backend` field is stamped from the config, so callers driving a
    /// hand-built backend should keep the config consistent.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] exactly as [`Machine::run`] does.
    pub fn run_with(&mut self, backend: &mut dyn ExecBackend) -> Result<RunReport, SimError> {
        loop {
            if backend.dispatch(self)? {
                break;
            }
        }
        if let Some(t) = &self.tracer {
            t.set_now(self.cycle);
            if let Some((span, _)) = self.exec_span.take() {
                t.span_end(span);
            }
        }
        let mut report = std::mem::take(&mut self.report);
        report.cycles = self.cycle;
        report.icache = self.icache.stats();
        report.dcache = self.dcache.stats();
        report.translator = self.translator.stats().clone();
        report.mcache = self.mcache.stats();
        report.mcache_entries = self.mcache.entry_stats().clone();
        report.halted = true;
        report.backend = self.config.backend;
        report.blocks = backend.block_stats();
        let ledger = std::mem::replace(&mut self.ledger, Recorder::new(self.prog.code.len()));
        report.ledger = ledger.finish();
        report.phases = PhaseBreakdown::of(&report.ledger);
        Ok(report)
    }

    pub(crate) fn current_pc(&self) -> u32 {
        match self.stream {
            Stream::Prog { pc } => pc,
            Stream::Micro { pos, .. } => pos,
        }
    }

    /// Executes one instruction; returns `true` on halt.
    ///
    /// The hot path reads predecoded [`InstMeta`] (uses/def/flags/latency)
    /// from the side tables built at construction and at microcode insert,
    /// instead of re-deriving them from the `Inst` enum on every retire.
    /// The tracer clock is stamped once per step, at retire; emission sites
    /// between retires reuse that stamp, which matches the cycle the old
    /// start-of-step stamp would have produced (machine time only advances
    /// at retire).
    #[allow(clippy::too_many_lines)]
    pub(crate) fn step(&mut self) -> Result<bool, SimError> {
        // ---- fetch -------------------------------------------------------
        let (inst, meta, pc, in_micro) = match self.stream {
            Stream::Prog { pc } => {
                let inst = *self
                    .prog
                    .code
                    .get(pc as usize)
                    .ok_or_else(|| SimError::Fault {
                        pc,
                        what: "fell off the end of the code section".to_string(),
                    })?;
                (inst, self.prog_meta[pc as usize], pc, false)
            }
            Stream::Micro { idx, pos, .. } => {
                let code = self.mcache.code(idx);
                let inst = *code.get(pos as usize).ok_or_else(|| SimError::Fault {
                    pc: pos,
                    what: "fell off the end of microcode".to_string(),
                })?;
                (inst, self.mcache.meta(idx)[pos as usize], pos, true)
            }
        };

        // Execution-phase spans: open/rotate a `exec:scalar`/`exec:microcode`
        // segment whenever the stream mode flips. Boundaries land on the
        // previous retire stamp, so consecutive segments tile the run and
        // their cycle totals sum to the final cycle count.
        if let Some(t) = &self.tracer {
            let rotate = self.exec_span.is_none_or(|(_, micro)| micro != in_micro);
            if rotate {
                if let Some((span, _)) = self.exec_span.take() {
                    t.span_end(span);
                }
                let name = if in_micro {
                    "exec:microcode"
                } else {
                    "exec:scalar"
                };
                self.exec_span = Some((t.span_begin(Track::Pipeline, name), in_micro));
            }
        }
        let cycle_before = self.cycle;

        // ---- issue: operand readiness ------------------------------------
        let mut issue = self.cycle + 1;
        for src in meta.srcs.iter().take_while(|s| s.is_some()).flatten() {
            let ready = match src {
                RegRef::Int(i) => self.ready_r[*i as usize],
                RegRef::Fp(i) => self.ready_f[*i as usize],
                RegRef::Vec(i) => self.ready_v[*i as usize],
                RegRef::Flags => self.ready_flags,
            };
            issue = issue.max(ready);
        }

        // Fetch stall: instruction cache (program stream only; microcode is
        // fetched from the dedicated microcode SRAM).
        if !in_micro && !self.icache.access(pc * 4) {
            issue += u64::from(self.config.icache.miss_penalty);
        }

        // ---- execute ------------------------------------------------------
        let outcome = exec(
            &inst,
            pc,
            &mut self.regs,
            &mut self.mem,
            self.prog,
            self.config.lanes,
        )?;

        // ---- memory timing -------------------------------------------------
        let mut mem_extra = 0u64;
        if let Some((addr, len, _)) = outcome.mem {
            let misses = self.dcache.access_range(addr, len);
            mem_extra = u64::from(misses) * u64::from(self.config.dcache.miss_penalty);
        }

        // ---- latency & writeback -------------------------------------------
        let done = issue + u64::from(meta.latency) + mem_extra;
        if outcome.executed {
            if let Some(d) = meta.def {
                match d {
                    RegRef::Int(i) => self.ready_r[i as usize] = done,
                    RegRef::Fp(i) => self.ready_f[i as usize] = done,
                    RegRef::Vec(i) => self.ready_v[i as usize] = done,
                    RegRef::Flags => {}
                }
            }
        }
        if meta.writes_flags {
            self.ready_flags = issue + 1;
        }

        // ---- advance machine time ------------------------------------------
        let is_store = matches!(outcome.mem, Some((_, _, true)));
        let mut busy = issue;
        if is_store {
            busy += mem_extra; // write-allocate fill occupies the interface
        }
        if outcome.taken {
            busy += u64::from(self.config.lat.branch_taken);
        }
        self.cycle = busy;
        self.ledger
            .retire(in_micro, pc, meta.vector, self.cycle - cycle_before);

        // ---- retire counters ------------------------------------------------
        self.report.retired += 1;
        if meta.vector {
            self.report.vector_retired += 1;
            self.report.lane_ops += u64::from(meta.active_lanes);
        } else {
            self.report.scalar_retired += 1;
        }
        if let Some(t) = &self.tracer {
            t.set_now(self.cycle);
            t.emit(TraceEvent::InstrRetired {
                pc,
                vector: meta.vector,
            });
        }
        if self.config.interrupt_every > 0
            && self
                .report
                .retired
                .is_multiple_of(self.config.interrupt_every)
        {
            if let Some(t) = &self.tracer {
                t.emit(TraceEvent::InterruptInjected {
                    retired: self.report.retired,
                });
            }
            self.close_window(false);
            self.translator.abort_external("interrupt");
            self.translating = None;
        }
        if !self.config.interrupt_at.is_empty()
            && self.config.interrupt_at.contains(&self.report.retired)
        {
            if let Some(t) = &self.tracer {
                t.emit(TraceEvent::InterruptInjected {
                    retired: self.report.retired,
                });
            }
            self.close_window(false);
            self.translator.abort_external("injected-abort");
            self.translating = None;
        }

        // ---- translator tap (post-retirement, program stream only) ---------
        if !in_micro && self.translator.is_active() {
            if let Inst::S(s) = inst {
                let retired = Retired {
                    pc,
                    inst: s,
                    executed: outcome.executed,
                    value: outcome.value,
                    taken: outcome.taken,
                };
                match self.translator.observe(&retired) {
                    Progress::Ongoing => {}
                    Progress::Finished(tr) => {
                        let work = tr.dynamic_instrs;
                        let tc = &self.config.translation;
                        // Hardware translation runs off the critical path:
                        // the microcode becomes valid `work` translation
                        // cycles later and the ledger records a 0-cycle
                        // event. A software JIT shares the CPU and stalls
                        // the pipeline for the translation work.
                        let (stall, latency) = if tc.jit {
                            (work * tc.jit_cycles_per_instr, 0)
                        } else {
                            (0, work * tc.cycles_per_instr)
                        };
                        self.cycle += stall;
                        self.ledger.charge(
                            tr.func_pc,
                            tr.func_pc,
                            Category::TranslateOverhead,
                            stall,
                        );
                        if let Some(t) = &self.tracer {
                            // The clock may have moved after the retire
                            // stamp; restamp so later events carry the stall.
                            t.set_now(self.cycle);
                        }
                        let valid_at = self.cycle + latency;
                        self.report.translations.push((tr.func_pc, tr.code.len()));
                        let uops = tr.code.len() as u64;
                        let meta = meta_of_code(&tr.code, &self.config.lat, self.config.lanes);
                        let evicted = self.mcache.insert(tr.func_pc, tr.code, meta, valid_at);
                        if let Some(t) = &self.tracer {
                            if let Some(victim) = evicted {
                                t.emit(TraceEvent::McacheEvict { func_pc: victim });
                            }
                            t.emit(TraceEvent::McacheInsert {
                                func_pc: tr.func_pc,
                                uops,
                            });
                        }
                        self.close_window(true);
                        self.translating = None;
                    }
                    Progress::Aborted(reason) => {
                        self.close_window(false);
                        if !matches!(reason, liquid_simd_translator::AbortReason::External { .. }) {
                            // Deterministic failure: don't retry every call.
                            // (External aborts — interrupts — retry later.)
                            if let Some(f) = self.translating {
                                self.failed.insert(f);
                                self.ledger.abort_replay(f);
                            }
                        }
                        self.translating = None;
                    }
                }
            }
        }

        // ---- control flow ----------------------------------------------------
        match outcome.control {
            Control::Next => {
                self.advance(pc + 1);
            }
            Control::Jump(t) => {
                if outcome.taken {
                    self.advance(t);
                } else {
                    self.advance(pc + 1);
                }
            }
            Control::Call {
                target,
                vectorizable,
            } => {
                if in_micro {
                    return Err(SimError::Fault {
                        pc,
                        what: "call inside microcode".to_string(),
                    });
                }
                self.handle_call(pc, target, vectorizable)?;
            }
            Control::Return => match self.stream {
                Stream::Micro { idx, ret_pc, .. } => {
                    if let Some(t) = &self.tracer {
                        let target = self.mcache.func_pc(idx);
                        t.emit(TraceEvent::CallExit {
                            target,
                            mode: TraceCallMode::Simd,
                        });
                    }
                    self.stream = Stream::Prog { pc: ret_pc };
                }
                Stream::Prog { .. } => {
                    let ret = self.regs.r[14];
                    if ret as usize >= self.prog.code.len() {
                        return Err(SimError::Fault {
                            pc,
                            what: format!("return to wild address @{ret}"),
                        });
                    }
                    if let Some(target) = self.scalar_stack.pop() {
                        if let Some(t) = &self.tracer {
                            t.emit(TraceEvent::CallExit {
                                target,
                                mode: TraceCallMode::Scalar,
                            });
                        }
                        self.enter_region();
                    }
                    self.stream = Stream::Prog { pc: ret };
                }
            },
            Control::Halt => return Ok(true),
        }
        Ok(false)
    }

    /// Points the ledger at the innermost in-flight scalar call ([`TOP_REGION`]
    /// outside any call), replaying if its translation aborted permanently.
    fn enter_region(&mut self) {
        let region = self.scalar_stack.last().copied().unwrap_or(TOP_REGION);
        self.ledger
            .set_region(region, self.failed.contains(&region));
    }

    /// Closes the open translation window (if any) at the current retired
    /// count. Call on every translator-lifecycle end — commit, translation
    /// abort, or external abort — so the window log stays exact.
    fn close_window(&mut self, completed: bool) {
        if let Some(i) = self.window.take() {
            let w = &mut self.report.windows[i];
            w.end_retired = self.report.retired;
            w.completed = completed;
        }
    }

    pub(crate) fn advance(&mut self, next: u32) {
        match &mut self.stream {
            Stream::Prog { pc } => *pc = next,
            Stream::Micro { pos, .. } => *pos = next,
        }
    }

    fn handle_call(&mut self, pc: u32, target: u32, vectorizable: bool) -> Result<(), SimError> {
        let t = &self.config.translation;
        let candidate = t.enabled
            && self.config.lanes >= 2
            && (vectorizable || t.translate_plain_bl)
            && !self.failed.contains(&target);
        let mut mode = CallMode::Scalar;
        if candidate {
            let lookup = self.mcache.lookup(target, self.cycle);
            // Probe/hit/miss bookkeeping is free in the timing model; the
            // ledger records them as 0-cycle events so `diff` can
            // corroborate cycle movement with dispatch behaviour.
            self.ledger.charge(target, pc, Category::McacheProbe, 0);
            match lookup {
                Lookup::Hit(_) => self.ledger.charge(target, pc, Category::Dispatch, 0),
                Lookup::Miss => self.ledger.charge(target, pc, Category::McacheMiss, 0),
                Lookup::Pending => {}
            }
            if let Some(t) = &self.tracer {
                t.emit(match lookup {
                    Lookup::Hit(_) => TraceEvent::McacheHit { func_pc: target },
                    Lookup::Pending => TraceEvent::McachePending { func_pc: target },
                    Lookup::Miss => TraceEvent::McacheMiss { func_pc: target },
                });
            }
            match lookup {
                Lookup::Hit(idx) => {
                    mode = CallMode::Microcode;
                    self.report.calls.push(CallEvent {
                        target,
                        cycle: self.cycle,
                        mode,
                    });
                    if let Some(t) = &self.tracer {
                        t.emit(TraceEvent::CallEnter {
                            target,
                            mode: TraceCallMode::Simd,
                        });
                    }
                    self.ledger.enter_micro(target, self.mcache.code(idx).len());
                    self.stream = Stream::Micro {
                        idx,
                        pos: 0,
                        ret_pc: pc + 1,
                    };
                    return Ok(());
                }
                Lookup::Pending => {}
                Lookup::Miss => {
                    if !self.translator.is_active() {
                        self.translator.begin(target);
                        self.translating = Some(target);
                        self.window = Some(self.report.windows.len());
                        self.report.windows.push(TranslationWindow {
                            func_pc: target,
                            begin_retired: self.report.retired,
                            end_retired: 0,
                            completed: false,
                        });
                    }
                }
            }
        }
        self.report.calls.push(CallEvent {
            target,
            cycle: self.cycle,
            mode,
        });
        if let Some(t) = &self.tracer {
            t.emit(TraceEvent::CallEnter {
                target,
                mode: TraceCallMode::Scalar,
            });
        }
        self.scalar_stack.push(target);
        self.enter_region();
        self.stream = Stream::Prog { pc: target };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_simd_isa::asm;

    fn assemble(src: &str) -> Program {
        asm::assemble(src).expect("assembles")
    }

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

    #[test]
    fn scalar_sum_loop() {
        let p = assemble(SUM_LOOP);
        let mut m = Machine::new(&p, MachineConfig::scalar_only());
        let report = m.run().unwrap();
        assert!(report.halted);
        assert_eq!(m.regs().r[1], 36);
        assert!(report.cycles > report.retired); // stalls exist
        assert_eq!(report.vector_retired, 0);
    }

    #[test]
    fn timing_monotonic_and_cache_counted() {
        let p = assemble(SUM_LOOP);
        let mut m = Machine::new(&p, MachineConfig::scalar_only());
        let report = m.run().unwrap();
        assert!(report.dcache.accesses >= 8);
        assert!(report.icache.accesses >= report.scalar_retired);
        assert!(report.dcache.misses() >= 1); // cold miss on A
    }

    #[test]
    fn cycle_limit_guards_infinite_loops() {
        let p = assemble(".text\nmain:\n    b main\n");
        let mut cfg = MachineConfig::scalar_only();
        cfg.max_cycles = 10_000;
        let mut m = Machine::new(&p, cfg);
        assert!(m.run().is_err());
    }
}
