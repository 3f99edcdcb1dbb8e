//! The translation automaton: loop discovery, rule application (paper
//! Table 3), iteration verification, and finalisation.
//!
//! Lifecycle, as driven by the pipeline:
//!
//! 1. [`Translator::begin`] when an outlined function is called and no
//!    microcode exists for it yet;
//! 2. [`Translator::observe`] for every subsequently retired instruction;
//! 3. the automaton recognises the loop structure from the *dynamic* stream:
//!    everything up to the first backward-taken branch is prologue + first
//!    iteration; later iterations are verified against the first and feed
//!    value trackers; `ret` finalises;
//! 4. [`Progress::Finished`] carries the microcode; [`Progress::Aborted`]
//!    reports the legality check that failed. Either way the translator
//!    returns to idle.

use liquid_simd_isa::{
    encode::{VALU_IMM_MAX, VALU_IMM_MIN},
    AluOp, Base, Cond, ElemType, FpOp, Inst, MemWidth, Operand2, RedOp, Reg, ScalarInst, ScalarSrc,
    VAluOp, VReg, VectorInst,
};

/// Whether a constant fits the vector-immediate field.
fn fits_valu_imm(value: i64) -> bool {
    i32::try_from(value).is_ok_and(|v| (VALU_IMM_MIN..=VALU_IMM_MAX).contains(&v))
}

use liquid_simd_trace::{SpanId, TraceEvent, Tracer, Track};

use crate::buffer::{Slot, UopBuffer};
use crate::event::Retired;
use crate::idiom::{collapse, BodyOp, BodyOpKind};
use crate::state::{AbortReason, RegClass, Tracker};
use crate::stats::{AbortRecord, TrackerSnapshot, TranslatorStats};

/// Configuration of a dynamic translator instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslatorConfig {
    /// Target accelerator width in lanes (paper sweeps 2/4/8/16).
    pub lanes: usize,
    /// Microcode buffer capacity in instructions (64 in the paper, §4.1).
    pub max_uops: usize,
    /// Bit width of each recorded previous value in the hardware register
    /// state. The paper's 56-bit budget gives 6 bits per value at 8 lanes;
    /// our default is 12 bits so that common mask constants (e.g. `0xFF`)
    /// remain representable and the splat optimisation (Table 3 rule 7) can
    /// fire. Values that do not fit degrade or abort exactly as the paper
    /// describes.
    pub value_bits: u32,
    /// Enforce `value_bits` (hardware translator). A software JIT
    /// translator keeps full-width values and sets this to `false`.
    pub hw_value_limit: bool,
}

impl Default for TranslatorConfig {
    fn default() -> TranslatorConfig {
        TranslatorConfig {
            lanes: 8,
            max_uops: 64,
            value_bits: 12,
            hw_value_limit: true,
        }
    }
}

impl TranslatorConfig {
    /// Half-range of the hardware value field, or `None` when unlimited.
    #[must_use]
    pub fn value_limit(&self) -> Option<i64> {
        self.hw_value_limit.then(|| 1i64 << (self.value_bits - 1))
    }
}

/// A finished translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Code index of the translated function's entry.
    pub func_pc: u32,
    /// The generated microcode. Branch targets are microcode-local indices;
    /// the final instruction is `ret`.
    pub code: Vec<Inst>,
    /// Dynamic scalar instructions observed during translation (drives the
    /// translation-latency model).
    pub dynamic_instrs: u64,
    /// Number of loops vectorised.
    pub loops: usize,
}

/// Outcome of feeding one retired instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Progress {
    /// Still translating.
    Ongoing,
    /// Translation finished successfully.
    Finished(Translation),
    /// Translation aborted; the scalar code remains the fallback.
    Aborted(AbortReason),
}

#[derive(Clone, Copy, Debug)]
struct Event {
    pc: u32,
    inst: ScalarInst,
    value: Option<i64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bank {
    Int,
    Fp,
}

/// Maps scalar registers (by bank) to allocated vector registers.
#[derive(Clone, Debug, Default)]
struct VMap {
    int: [Option<VReg>; 16],
    fp: [Option<VReg>; 16],
    next: u8,
}

impl VMap {
    fn get(&mut self, bank: Bank, idx: u8) -> Result<VReg, AbortReason> {
        let slot = match bank {
            Bank::Int => &mut self.int[idx as usize],
            Bank::Fp => &mut self.fp[idx as usize],
        };
        if let Some(v) = *slot {
            return Ok(v);
        }
        if self.next >= 16 {
            return Err(AbortReason::RegisterPressure);
        }
        let v = VReg::of(self.next);
        self.next += 1;
        *slot = Some(v);
        Ok(v)
    }

    fn fresh(&mut self) -> Result<VReg, AbortReason> {
        if self.next >= 16 {
            return Err(AbortReason::RegisterPressure);
        }
        let v = VReg::of(self.next);
        self.next += 1;
        Ok(v)
    }
}

struct LoopState {
    body_pcs: Vec<u32>,
    pos: usize,
    iters_done: u64,
    bound: Option<i64>,
    /// `body position -> tracker` for value recording.
    tracked: Vec<(usize, usize)>,
}

enum Phase {
    Collect { events: Vec<Event> },
    Loop(LoopState),
}

struct Active {
    func_pc: u32,
    dynamic: u64,
    /// PC of the most recently observed retired instruction (abort
    /// provenance; stays 0 if the region aborts before observing any).
    last_pc: u32,
    /// The most recently observed instruction itself.
    last_inst: Option<ScalarInst>,
    regs: [RegClass; 16],
    fregs: [RegClass; 16],
    vmap: VMap,
    buffer: UopBuffer,
    trackers: Vec<Tracker>,
    loops: usize,
    induction: Option<Reg>,
    phase: Phase,
}

/// Snapshots the automaton state at the moment `reason` fired.
fn abort_record(active: &Active, reason: AbortReason) -> AbortRecord {
    fn classes(bank: &[RegClass; 16]) -> Vec<(u8, RegClass)> {
        bank.iter()
            .enumerate()
            .filter(|&(_, c)| *c != RegClass::Unknown)
            .map(|(i, c)| (i as u8, *c))
            .collect()
    }
    AbortRecord {
        func_pc: active.func_pc,
        pc: active.last_pc,
        opcode: active
            .last_inst
            .map_or_else(|| "-".to_string(), |inst| inst.to_string()),
        instr_index: active.dynamic,
        phase: match active.phase {
            Phase::Collect { .. } => "collect",
            Phase::Loop(_) => "loop",
        },
        regs: classes(&active.regs),
        fregs: classes(&active.fregs),
        trackers: active
            .trackers
            .iter()
            .map(|t| TrackerSnapshot {
                values: t.values.clone(),
                complete: t.complete(),
                consistent: t.consistent,
                wide: t.wide,
                address_use: t.address_use,
            })
            .collect(),
        loops_done: active.loops,
        reason,
    }
}

/// The post-retirement dynamic translator.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Default)]
pub struct Translator {
    config: TranslatorConfig,
    stats: TranslatorStats,
    active: Option<Active>,
    tracer: Option<Tracer>,
    /// Open `translate@pc` span for the in-flight attempt (tracer only).
    span: Option<SpanId>,
}

impl std::fmt::Debug for Translator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Translator")
            .field("config", &self.config)
            .field("active", &self.active.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Translator {
    /// Creates an idle translator.
    #[must_use]
    pub fn new(config: TranslatorConfig) -> Translator {
        Translator {
            config,
            stats: TranslatorStats::default(),
            active: None,
            tracer: None,
            span: None,
        }
    }

    /// Attaches a tracer; every lifecycle transition (begin / progress /
    /// commit / abort) then emits a matching [`TraceEvent`]. Without a
    /// tracer each site pays one branch.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The configured parameters.
    #[must_use]
    pub fn config(&self) -> &TranslatorConfig {
        &self.config
    }

    /// Whether a translation is in flight.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> &TranslatorStats {
        &self.stats
    }

    /// Starts shadowing an outlined function whose entry is `func_pc`.
    /// Call after the `bl` retires; feed every following retired
    /// instruction to [`Translator::observe`].
    ///
    /// # Panics
    ///
    /// Panics if a translation is already active (the hardware has a single
    /// translation unit; the pipeline must check [`Translator::is_active`]).
    pub fn begin(&mut self, func_pc: u32) {
        assert!(
            self.active.is_none(),
            "translator is single-threaded: finish or abort first"
        );
        self.stats.attempts += 1;
        if let Some(tracer) = &self.tracer {
            tracer.emit(TraceEvent::TranslationBegin { func_pc });
            self.span = Some(tracer.span_begin(Track::Translator, &format!("translate@{func_pc}")));
        }
        self.active = Some(Active {
            func_pc,
            dynamic: 0,
            last_pc: 0,
            last_inst: None,
            regs: Default::default(),
            fregs: Default::default(),
            vmap: VMap::default(),
            buffer: UopBuffer::new(),
            trackers: Vec::new(),
            loops: 0,
            induction: None,
            phase: Phase::Collect { events: Vec::new() },
        });
    }

    /// Aborts any in-flight translation from outside (interrupt / context
    /// switch — the pipeline `Abort` input of paper Figure 5).
    pub fn abort_external(&mut self, what: &'static str) {
        if let Some(active) = self.active.take() {
            let reason = AbortReason::External { what };
            let tag = reason.tag();
            self.stats.record_abort_with(abort_record(&active, reason));
            if let Some(tracer) = &self.tracer {
                tracer.emit(TraceEvent::TranslationAbort {
                    func_pc: active.func_pc,
                    reason: tag,
                });
            }
            self.end_span();
        }
    }

    /// Closes the open translation span, if any.
    fn end_span(&mut self) {
        if let (Some(tracer), Some(span)) = (&self.tracer, self.span.take()) {
            tracer.span_end(span);
        }
    }

    /// Feeds one retired instruction; returns the translation progress.
    /// The automaton steps in place; its state is dropped only when the
    /// window commits or aborts.
    pub fn observe(&mut self, r: &Retired) -> Progress {
        let Some(active) = self.active.as_mut() else {
            return Progress::Ongoing;
        };
        active.dynamic += 1;
        active.last_pc = r.pc;
        active.last_inst = Some(r.inst);
        self.stats.instrs_observed += 1;
        match active.phase {
            Phase::Collect { .. } => self.stats.collect_observed += 1,
            Phase::Loop(_) => self.stats.loop_observed += 1,
        }
        let func_pc = active.func_pc;
        let outcome = step(active, r, &self.config);
        self.stats.buffer_high_water = self.stats.buffer_high_water.max(active.buffer.len() as u64);
        match outcome {
            Ok(None) => {
                if let Some(tracer) = &self.tracer {
                    tracer.emit(TraceEvent::TranslationProgress {
                        func_pc,
                        observed: active.dynamic,
                    });
                }
                Progress::Ongoing
            }
            Ok(Some(translation)) => {
                self.active = None;
                self.stats.successes += 1;
                self.stats.uops_emitted += translation.code.len() as u64;
                if let Some(tracer) = &self.tracer {
                    tracer.emit(TraceEvent::TranslationCommit {
                        func_pc,
                        uops: translation.code.len() as u64,
                        dynamic_instrs: translation.dynamic_instrs,
                    });
                }
                self.end_span();
                Progress::Finished(translation)
            }
            Err(reason) => {
                let record = abort_record(active, reason.clone());
                self.active = None;
                self.stats.record_abort_with(record);
                if let Some(tracer) = &self.tracer {
                    tracer.emit(TraceEvent::TranslationAbort {
                        func_pc,
                        reason: reason.tag(),
                    });
                }
                self.end_span();
                Progress::Aborted(reason)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Automaton steps
// ---------------------------------------------------------------------------

fn step(
    active: &mut Active,
    r: &Retired,
    config: &TranslatorConfig,
) -> Result<Option<Translation>, AbortReason> {
    match &mut active.phase {
        Phase::Collect { .. } => step_collect(active, r, config),
        Phase::Loop(_) => step_loop(active, r, config),
    }
}

fn step_collect(
    active: &mut Active,
    r: &Retired,
    config: &TranslatorConfig,
) -> Result<Option<Translation>, AbortReason> {
    match r.inst {
        ScalarInst::Bl { .. } => Err(AbortReason::NestedCall),
        ScalarInst::Halt => Err(AbortReason::UnsupportedOpcode { pc: r.pc }),
        ScalarInst::Ret => {
            // Function end: flush pending straight-line code and finish.
            let events = take_events(active);
            for ev in &events {
                classify_straightline(active, ev)?;
            }
            if active.loops == 0 {
                return Err(AbortReason::NoLoop);
            }
            active.buffer.push(Slot::Fixed(Inst::S(ScalarInst::Ret)));
            let code =
                active
                    .buffer
                    .materialize(&active.trackers, config.lanes, config.max_uops)?;
            Ok(Some(Translation {
                func_pc: active.func_pc,
                code,
                dynamic_instrs: active.dynamic,
                loops: active.loops,
            }))
        }
        ScalarInst::B { cond, target } => {
            if !(r.taken && target <= r.pc) {
                return Err(AbortReason::UnsupportedShape {
                    what: "forward or untaken control flow in outlined region",
                });
            }
            // Backward-taken branch: the loop's first iteration just ended.
            let events = take_events(active);
            let split = events.iter().position(|e| e.pc == target).ok_or(
                AbortReason::UnsupportedShape {
                    what: "loop entered other than at its top",
                },
            )?;
            let (prologue, body) = events.split_at(split);
            for ev in prologue {
                classify_straightline(active, ev)?;
            }
            active.buffer.push(Slot::LoopTop);
            let (bound, tracked) = classify_body(active, body, config)?;
            active.buffer.push(Slot::LoopBranch { cond });
            let mut body_pcs: Vec<u32> = body.iter().map(|e| e.pc).collect();
            body_pcs.push(r.pc);
            active.phase = Phase::Loop(LoopState {
                body_pcs,
                pos: 0,
                iters_done: 1,
                bound,
                tracked,
            });
            Ok(None)
        }
        _ => {
            let Phase::Collect { events } = &mut active.phase else {
                unreachable!()
            };
            events.push(Event {
                pc: r.pc,
                inst: r.inst,
                value: r.value,
            });
            Ok(None)
        }
    }
}

fn step_loop(
    active: &mut Active,
    r: &Retired,
    config: &TranslatorConfig,
) -> Result<Option<Translation>, AbortReason> {
    let Phase::Loop(ls) = &mut active.phase else {
        unreachable!()
    };
    let expected = ls.body_pcs[ls.pos];
    if r.pc != expected {
        return Err(AbortReason::IterationMismatch { pc: r.pc });
    }
    // Record tracked load values.
    if let Some(&(_, tracker)) = ls.tracked.iter().find(|&&(p, _)| p == ls.pos) {
        let value = r.value.unwrap_or(0);
        active.trackers[tracker].record(value, config.value_limit());
    }
    let last = ls.pos + 1 == ls.body_pcs.len();
    if last {
        ls.iters_done += 1;
        if r.taken {
            ls.pos = 0;
            return Ok(None);
        }
        // Loop complete.
        let trip = ls.iters_done;
        if trip % config.lanes as u64 != 0 {
            return Err(AbortReason::TripNotMultiple {
                trip,
                lanes: config.lanes,
            });
        }
        if let Some(bound) = ls.bound {
            if bound != trip as i64 {
                return Err(AbortReason::BoundMismatch);
            }
        } else {
            return Err(AbortReason::UnsupportedShape {
                what: "loop without induction-bound compare",
            });
        }
        active.loops += 1;
        active.phase = Phase::Collect { events: Vec::new() };
        Ok(None)
    } else {
        ls.pos += 1;
        Ok(None)
    }
}

fn take_events(active: &mut Active) -> Vec<Event> {
    match &mut active.phase {
        Phase::Collect { events } => std::mem::take(events),
        Phase::Loop(_) => unreachable!("take_events outside collect phase"),
    }
}

// ---------------------------------------------------------------------------
// Straight-line (prologue / epilogue) classification: everything must be
// scalar; vector values must not escape loops.
// ---------------------------------------------------------------------------

fn classify_straightline(active: &mut Active, ev: &Event) -> Result<(), AbortReason> {
    let scalarish = |c: RegClass| c.is_scalarish();
    match ev.inst {
        ScalarInst::MovImm { cond, rd, imm } => {
            if cond != Cond::Al {
                return Err(AbortReason::UnsupportedOpcode { pc: ev.pc });
            }
            active.regs[rd.index() as usize] = RegClass::Const(i64::from(imm));
        }
        ScalarInst::Mov { cond, rd, rm } => {
            if cond != Cond::Al || !scalarish(active.regs[rm.index() as usize]) {
                return Err(AbortReason::UnsupportedShape {
                    what: "non-scalar move outside loop",
                });
            }
            active.regs[rd.index() as usize] = active.regs[rm.index() as usize];
        }
        ScalarInst::Alu {
            cond, rd, rn, op2, ..
        } => {
            if cond != Cond::Al {
                return Err(AbortReason::UnsupportedOpcode { pc: ev.pc });
            }
            let rn_ok = scalarish(active.regs[rn.index() as usize]);
            let op2_ok = match op2 {
                Operand2::Imm(_) => true,
                Operand2::Reg(r) => scalarish(active.regs[r.index() as usize]),
            };
            if !rn_ok || !op2_ok {
                return Err(AbortReason::UnsupportedShape {
                    what: "vector or induction value used outside loop",
                });
            }
            active.regs[rd.index() as usize] = RegClass::Scalar;
        }
        ScalarInst::Cmp { rn, op2 } => {
            let ok = scalarish(active.regs[rn.index() as usize])
                && match op2 {
                    Operand2::Imm(_) => true,
                    Operand2::Reg(r) => scalarish(active.regs[r.index() as usize]),
                };
            if !ok {
                return Err(AbortReason::UnsupportedShape {
                    what: "vector compare outside loop",
                });
            }
        }
        ScalarInst::FAlu { fd, fn_, fm, .. } => {
            if !scalarish(active.fregs[fn_.index() as usize])
                || !scalarish(active.fregs[fm.index() as usize])
            {
                return Err(AbortReason::UnsupportedShape {
                    what: "vector fp value used outside loop",
                });
            }
            active.fregs[fd.index() as usize] = RegClass::Scalar;
        }
        ScalarInst::FMov { cond, fd, fm } => {
            if cond != Cond::Al || !scalarish(active.fregs[fm.index() as usize]) {
                return Err(AbortReason::UnsupportedShape {
                    what: "non-scalar fp move outside loop",
                });
            }
            active.fregs[fd.index() as usize] = RegClass::Scalar;
        }
        ScalarInst::LdInt { rd, index, .. } => {
            if !scalarish(active.regs[index.index() as usize]) {
                return Err(AbortReason::UnsupportedShape {
                    what: "non-scalar load index outside loop",
                });
            }
            active.regs[rd.index() as usize] = RegClass::Scalar;
        }
        ScalarInst::LdF { fd, index, .. } => {
            if !scalarish(active.regs[index.index() as usize]) {
                return Err(AbortReason::UnsupportedShape {
                    what: "non-scalar load index outside loop",
                });
            }
            active.fregs[fd.index() as usize] = RegClass::Scalar;
        }
        ScalarInst::StInt { rs, index, .. } => {
            if !scalarish(active.regs[rs.index() as usize])
                || !scalarish(active.regs[index.index() as usize])
            {
                return Err(AbortReason::UnsupportedShape {
                    what: "non-scalar store outside loop",
                });
            }
        }
        ScalarInst::StF { fs, index, .. } => {
            if !scalarish(active.fregs[fs.index() as usize])
                || !scalarish(active.regs[index.index() as usize])
            {
                return Err(AbortReason::UnsupportedShape {
                    what: "non-scalar store outside loop",
                });
            }
        }
        ScalarInst::Nop => {}
        ScalarInst::B { .. } | ScalarInst::Bl { .. } | ScalarInst::Ret | ScalarInst::Halt => {
            unreachable!("control flow handled by step_collect")
        }
    }
    active.buffer.push(Slot::Fixed(Inst::S(ev.inst)));
    Ok(())
}

// ---------------------------------------------------------------------------
// Loop-body classification (paper Table 3)
// ---------------------------------------------------------------------------

fn width_elem(width: MemWidth) -> ElemType {
    match width {
        MemWidth::B => ElemType::I8,
        MemWidth::H => ElemType::I16,
        MemWidth::W => ElemType::I32,
    }
}

fn red_op(op: AluOp) -> Option<RedOp> {
    match op {
        AluOp::Add => Some(RedOp::Sum),
        AluOp::Min => Some(RedOp::Min),
        AluOp::Max => Some(RedOp::Max),
        _ => None,
    }
}

fn fred_op(op: FpOp) -> Option<RedOp> {
    match op {
        FpOp::Add => Some(RedOp::Sum),
        FpOp::Min => Some(RedOp::Min),
        FpOp::Max => Some(RedOp::Max),
        _ => None,
    }
}

/// Classifies an index register for a memory access inside the body.
enum IndexKind {
    Induction,
    Offsets(usize),
}

fn classify_index(active: &mut Active, index: Reg) -> Result<IndexKind, AbortReason> {
    match active.regs[index.index() as usize] {
        RegClass::Const(0) => {
            active.regs[index.index() as usize] = RegClass::Induction;
            active.induction = Some(index);
            Ok(IndexKind::Induction)
        }
        RegClass::Const(_) => Err(AbortReason::UnsupportedShape {
            what: "induction variable must start at zero",
        }),
        RegClass::Induction => {
            active.induction = Some(index);
            Ok(IndexKind::Induction)
        }
        RegClass::AddrVector { tracker } => {
            active.trackers[tracker].address_use = true;
            Ok(IndexKind::Offsets(tracker))
        }
        RegClass::Vector { .. } => Err(AbortReason::RuntimeIndexedPermute),
        RegClass::Scalar | RegClass::Unknown => Err(AbortReason::UnsupportedShape {
            what: "scalar-indexed memory access in loop",
        }),
    }
}

fn induction_reg(active: &Active) -> Result<Reg, AbortReason> {
    active.induction.ok_or(AbortReason::UnsupportedShape {
        what: "permuted access before induction variable is known",
    })
}

/// Loop bound (if the body revealed one) plus `(position, register-slot)`
/// pairs of tracked loop-carried values.
type BodyClassification = (Option<i64>, Vec<(usize, usize)>);

#[allow(clippy::too_many_lines)]
fn classify_body(
    active: &mut Active,
    body: &[Event],
    config: &TranslatorConfig,
) -> Result<BodyClassification, AbortReason> {
    let insts: Vec<ScalarInst> = body.iter().map(|e| e.inst).collect();
    let ops: Vec<BodyOp> = collapse(&insts);
    let mut bound: Option<i64> = None;
    let mut tracked: Vec<(usize, usize)> = Vec::new();

    for bodyop in &ops {
        let pos = bodyop.pos;
        let ev = &body[pos];
        match bodyop.kind {
            BodyOpKind::Plain(inst) => match inst {
                ScalarInst::LdInt {
                    width,
                    signed,
                    rd,
                    base,
                    index,
                } => {
                    let elem = width_elem(width);
                    let vd = active.vmap.get(Bank::Int, rd.index())?;
                    match classify_index(active, index)? {
                        IndexKind::Induction => {
                            let mut tracker = None;
                            if let Base::Sym(_) = base {
                                let id = active.trackers.len();
                                let mut t = Tracker::new(config.lanes);
                                t.record(ev.value.unwrap_or(0), config.value_limit());
                                active.trackers.push(t);
                                tracked.push((pos, id));
                                tracker = Some(id);
                                active.buffer.push(Slot::TrackedLoad {
                                    tracker: id,
                                    inst: VectorInst::VLd {
                                        elem,
                                        signed,
                                        vd,
                                        base,
                                        index,
                                    },
                                });
                            } else {
                                active.buffer.push(Slot::Fixed(Inst::V(VectorInst::VLd {
                                    elem,
                                    signed,
                                    vd,
                                    base,
                                    index,
                                })));
                            }
                            active.regs[rd.index() as usize] = RegClass::Vector {
                                elem,
                                signed,
                                tracker,
                            };
                        }
                        IndexKind::Offsets(t) => {
                            let ind = induction_reg(active)?;
                            active.buffer.push(Slot::PermLoad {
                                tracker: t,
                                elem,
                                signed,
                                vd,
                                base,
                                index: ind,
                            });
                            active.regs[rd.index() as usize] = RegClass::Vector {
                                elem,
                                signed,
                                tracker: None,
                            };
                        }
                    }
                }
                ScalarInst::LdF { fd, base, index } => {
                    let vd = active.vmap.get(Bank::Fp, fd.index())?;
                    match classify_index(active, index)? {
                        IndexKind::Induction => {
                            active.buffer.push(Slot::Fixed(Inst::V(VectorInst::VLd {
                                elem: ElemType::F32,
                                signed: false,
                                vd,
                                base,
                                index,
                            })));
                        }
                        IndexKind::Offsets(t) => {
                            let ind = induction_reg(active)?;
                            active.buffer.push(Slot::PermLoad {
                                tracker: t,
                                elem: ElemType::F32,
                                signed: false,
                                vd,
                                base,
                                index: ind,
                            });
                        }
                    }
                    active.fregs[fd.index() as usize] = RegClass::Vector {
                        elem: ElemType::F32,
                        signed: false,
                        tracker: None,
                    };
                }
                ScalarInst::StInt {
                    width,
                    rs,
                    base,
                    index,
                } => {
                    let elem = width_elem(width);
                    if !active.regs[rs.index() as usize].is_vector() {
                        return Err(AbortReason::ScalarStore);
                    }
                    let vs = active.vmap.get(Bank::Int, rs.index())?;
                    emit_store(active, elem, vs, base, index)?;
                }
                ScalarInst::StF { fs, base, index } => {
                    if !active.fregs[fs.index() as usize].is_vector() {
                        return Err(AbortReason::ScalarStore);
                    }
                    let vs = active.vmap.get(Bank::Fp, fs.index())?;
                    emit_store(active, ElemType::F32, vs, base, index)?;
                }
                ScalarInst::MovImm { cond, rd, imm } => {
                    if cond != Cond::Al {
                        return Err(AbortReason::UnsupportedOpcode { pc: ev.pc });
                    }
                    active.regs[rd.index() as usize] = RegClass::Const(i64::from(imm));
                    active.buffer.push(Slot::Fixed(Inst::S(inst)));
                }
                ScalarInst::Mov { cond, rd, rm } => {
                    if cond != Cond::Al {
                        return Err(AbortReason::UnsupportedOpcode { pc: ev.pc });
                    }
                    let src = active.regs[rm.index() as usize];
                    if !src.is_scalarish() {
                        return Err(AbortReason::UnsupportedShape {
                            what: "vector register move",
                        });
                    }
                    active.regs[rd.index() as usize] = src;
                    active.buffer.push(Slot::Fixed(Inst::S(inst)));
                }
                ScalarInst::FMov { cond, fd, fm } => {
                    if cond != Cond::Al || !active.fregs[fm.index() as usize].is_scalarish() {
                        return Err(AbortReason::UnsupportedShape {
                            what: "vector fp move",
                        });
                    }
                    active.fregs[fd.index() as usize] = RegClass::Scalar;
                    active.buffer.push(Slot::Fixed(Inst::S(inst)));
                }
                ScalarInst::Cmp { rn, op2 } => {
                    let rn_class = active.regs[rn.index() as usize];
                    match (rn_class, op2) {
                        (RegClass::Induction, Operand2::Imm(n)) => {
                            bound = Some(i64::from(n));
                            active.buffer.push(Slot::Fixed(Inst::S(inst)));
                        }
                        (c, Operand2::Imm(_)) if c.is_scalarish() => {
                            active.buffer.push(Slot::Fixed(Inst::S(inst)));
                        }
                        (c, Operand2::Reg(r))
                            if c.is_scalarish()
                                && active.regs[r.index() as usize].is_scalarish() =>
                        {
                            active.buffer.push(Slot::Fixed(Inst::S(inst)));
                        }
                        _ => {
                            return Err(AbortReason::UnsupportedShape {
                                what: "vector compare",
                            })
                        }
                    }
                }
                ScalarInst::Alu {
                    cond,
                    op,
                    rd,
                    rn,
                    op2,
                } => {
                    if cond != Cond::Al {
                        return Err(AbortReason::UnsupportedOpcode { pc: ev.pc });
                    }
                    classify_alu(active, op, rd, rn, op2, config, ev.pc)?;
                }
                ScalarInst::FAlu { op, fd, fn_, fm } => {
                    classify_falu(active, op, fd, fn_, fm, ev.pc)?;
                }
                ScalarInst::Nop => {
                    active.buffer.push(Slot::Fixed(Inst::S(inst)));
                }
                ScalarInst::B { .. } => {
                    return Err(AbortReason::UnsupportedShape {
                        what: "control flow inside loop body",
                    })
                }
                ScalarInst::Bl { .. } => return Err(AbortReason::NestedCall),
                ScalarInst::Ret | ScalarInst::Halt => {
                    return Err(AbortReason::UnsupportedOpcode { pc: ev.pc })
                }
            },
            BodyOpKind::Sat {
                op,
                elem,
                rd,
                rn,
                op2,
            } => {
                let rn_class = active.regs[rn.index() as usize];
                let RegClass::Vector {
                    elem: rn_elem,
                    signed,
                    ..
                } = rn_class
                else {
                    return Err(AbortReason::UnsupportedShape {
                        what: "saturating idiom on non-vector operand",
                    });
                };
                let eff = elem.unwrap_or(rn_elem);
                if !op.valid_for(eff) {
                    return Err(AbortReason::UnsupportedShape {
                        what: "saturating idiom on unsupported element width",
                    });
                }
                let vd = active.vmap.get(Bank::Int, rd.index())?;
                let vn = active.vmap.get(Bank::Int, rn.index())?;
                let slot = match op2 {
                    Operand2::Reg(rm) if active.regs[rm.index() as usize].is_vector() => {
                        let vm = active.vmap.get(Bank::Int, rm.index())?;
                        Slot::Fixed(Inst::V(VectorInst::VAlu {
                            op,
                            elem: eff,
                            vd,
                            vn,
                            vm,
                        }))
                    }
                    Operand2::Reg(rm) => match active.regs[rm.index() as usize] {
                        RegClass::Const(c) if fits_valu_imm(c) => sat_imm_slot(op, eff, vd, vn, c)?,
                        c if c.is_scalarish() => Slot::Fixed(Inst::V(VectorInst::VAluScalar {
                            op,
                            elem: eff,
                            vd,
                            vn,
                            src: ScalarSrc::R(rm),
                        })),
                        _ => {
                            return Err(AbortReason::UnsupportedShape {
                                what: "saturating idiom with non-scalar operand",
                            })
                        }
                    },
                    Operand2::Imm(i) => sat_imm_slot(op, eff, vd, vn, i64::from(i))?,
                };
                active.buffer.push(slot);
                active.regs[rd.index() as usize] = RegClass::Vector {
                    elem: eff,
                    signed,
                    tracker: None,
                };
            }
        }
    }
    Ok((bound, tracked))
}

fn sat_imm_slot(
    op: VAluOp,
    elem: ElemType,
    vd: VReg,
    vn: VReg,
    value: i64,
) -> Result<Slot, AbortReason> {
    let imm = i32::try_from(value).map_err(|_| AbortReason::ValueTooWide { value })?;
    if !(VALU_IMM_MIN..=VALU_IMM_MAX).contains(&imm) {
        return Err(AbortReason::ValueTooWide { value });
    }
    Ok(Slot::Fixed(Inst::V(VectorInst::VAluImm {
        op,
        elem,
        vd,
        vn,
        imm,
    })))
}

fn emit_store(
    active: &mut Active,
    elem: ElemType,
    vs: VReg,
    base: Base,
    index: Reg,
) -> Result<(), AbortReason> {
    match classify_index(active, index)? {
        IndexKind::Induction => {
            active.buffer.push(Slot::Fixed(Inst::V(VectorInst::VSt {
                elem,
                vs,
                base,
                index,
            })));
        }
        IndexKind::Offsets(t) => {
            let ind = induction_reg(active)?;
            let vtmp = active.vmap.fresh()?;
            active.buffer.push(Slot::PermStore {
                tracker: t,
                elem,
                vtmp,
                vs,
                base,
                index: ind,
            });
        }
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn classify_alu(
    active: &mut Active,
    op: AluOp,
    rd: Reg,
    rn: Reg,
    op2: Operand2,
    config: &TranslatorConfig,
    pc: u32,
) -> Result<(), AbortReason> {
    let rn_class = active.regs[rn.index() as usize];

    // Rule 10: induction increment `add r0, r0, #1` -> `add r0, r0, #W`.
    if rn_class == RegClass::Induction {
        if let Operand2::Imm(step) = op2 {
            if op == AluOp::Add && rd == rn && step == 1 {
                active.buffer.push(Slot::Fixed(Inst::S(ScalarInst::Alu {
                    cond: Cond::Al,
                    op: AluOp::Add,
                    rd,
                    rn,
                    op2: Operand2::Imm(config.lanes as i32),
                })));
                return Ok(());
            }
            return Err(AbortReason::UnsupportedShape {
                what: "unsupported induction arithmetic",
            });
        }
    }

    // Rule 8: offsets + induction -> address vector (emits nothing).
    if op == AluOp::Add {
        let as_rule8 = |a: RegClass, b: RegClass| -> Option<Result<usize, AbortReason>> {
            match (a, b) {
                (RegClass::Induction, RegClass::Vector { tracker, .. }) => {
                    Some(tracker.ok_or(AbortReason::RuntimeIndexedPermute))
                }
                _ => None,
            }
        };
        if let Operand2::Reg(rm) = op2 {
            let rm_class = active.regs[rm.index() as usize];
            if let Some(t) = as_rule8(rn_class, rm_class).or_else(|| as_rule8(rm_class, rn_class)) {
                let tracker = t?;
                active.regs[rd.index() as usize] = RegClass::AddrVector { tracker };
                return Ok(());
            }
        }
    }

    // Rule 9: reductions `r1 = dp r1, r2` with scalar accumulator.
    if let Operand2::Reg(rm) = op2 {
        let rm_class = active.regs[rm.index() as usize];
        let accum_vec = |acc: RegClass, vec: RegClass| acc.is_scalarish() && vec.is_vector();
        if rd == rn && accum_vec(rn_class, rm_class) {
            return emit_reduction(active, op, rd, rm);
        }
        if rd == rm && op.is_commutative() && accum_vec(rm_class, rn_class) {
            return emit_reduction(active, op, rd, rn);
        }
    }

    // Rules 2/6/7: vector data processing.
    if let RegClass::Vector {
        elem: rn_elem,
        signed,
        tracker: rn_tracker,
    } = rn_class
    {
        let vop = VAluOp::from_scalar(op).ok_or(AbortReason::UnsupportedOpcode { pc })?;
        let vd = active.vmap.get(Bank::Int, rd.index())?;
        let vn = active.vmap.get(Bank::Int, rn.index())?;
        let slot = match op2 {
            Operand2::Imm(imm) => sat_check_imm(vop, rn_elem, vd, vn, i64::from(imm))?,
            Operand2::Reg(rm) => {
                let rm_class = active.regs[rm.index() as usize];
                match rm_class {
                    RegClass::Vector {
                        tracker: rm_tracker,
                        ..
                    } => {
                        let vm = active.vmap.get(Bank::Int, rm.index())?;
                        if let Some(t) = rm_tracker.filter(|_| rn_tracker.is_none()) {
                            Slot::ConstAlu {
                                tracker: t,
                                op: vop,
                                elem: rn_elem,
                                vd,
                                vn,
                                vm,
                            }
                        } else {
                            Slot::Fixed(Inst::V(VectorInst::VAlu {
                                op: vop,
                                elem: rn_elem,
                                vd,
                                vn,
                                vm,
                            }))
                        }
                    }
                    // A constant that fits the immediate field becomes the
                    // splat-immediate form; anything else held in a scalar
                    // register becomes a Neon-style vector-by-scalar op
                    // (the broadcast form hoisted loop-invariant constants
                    // take).
                    RegClass::Const(c) if fits_valu_imm(c) => {
                        sat_check_imm(vop, rn_elem, vd, vn, c)?
                    }
                    RegClass::Const(_) | RegClass::Scalar | RegClass::Unknown => {
                        Slot::Fixed(Inst::V(VectorInst::VAluScalar {
                            op: vop,
                            elem: rn_elem,
                            vd,
                            vn,
                            src: ScalarSrc::R(rm),
                        }))
                    }
                    RegClass::Induction | RegClass::AddrVector { .. } => {
                        return Err(AbortReason::UnsupportedShape {
                            what: "induction or address vector as data operand",
                        })
                    }
                }
            }
        };
        active.buffer.push(slot);
        active.regs[rd.index() as usize] = RegClass::Vector {
            elem: rn_elem,
            signed,
            tracker: None,
        };
        return Ok(());
    }

    // Commutative vector-op with the vector on the right: `op rd, scalar, rv`.
    if let Operand2::Reg(rm) = op2 {
        if let RegClass::Vector {
            elem,
            signed,
            tracker: _,
        } = active.regs[rm.index() as usize]
        {
            if op.is_commutative() && rn_class.is_scalarish() {
                let vop = VAluOp::from_scalar(op).ok_or(AbortReason::UnsupportedOpcode { pc })?;
                let vd = active.vmap.get(Bank::Int, rd.index())?;
                let vn = active.vmap.get(Bank::Int, rm.index())?;
                let slot = match rn_class {
                    RegClass::Const(c) if fits_valu_imm(c) => sat_check_imm(vop, elem, vd, vn, c)?,
                    _ => Slot::Fixed(Inst::V(VectorInst::VAluScalar {
                        op: vop,
                        elem,
                        vd,
                        vn,
                        src: ScalarSrc::R(rn),
                    })),
                };
                active.buffer.push(slot);
                active.regs[rd.index() as usize] = RegClass::Vector {
                    elem,
                    signed,
                    tracker: None,
                };
                return Ok(());
            }
            return Err(AbortReason::UnsupportedShape {
                what: "vector operand in unsupported position",
            });
        }
    }

    // Rule 11: all-scalar data processing passes through unmodified.
    let op2_scalar = match op2 {
        Operand2::Imm(_) => true,
        Operand2::Reg(r) => active.regs[r.index() as usize].is_scalarish(),
    };
    if rn_class.is_scalarish() && op2_scalar {
        active.regs[rd.index() as usize] = RegClass::Scalar;
        active.buffer.push(Slot::Fixed(Inst::S(ScalarInst::Alu {
            cond: Cond::Al,
            op,
            rd,
            rn,
            op2,
        })));
        return Ok(());
    }

    Err(AbortReason::UnsupportedShape {
        what: "unsupported operand combination",
    })
}

fn sat_check_imm(
    op: VAluOp,
    elem: ElemType,
    vd: VReg,
    vn: VReg,
    value: i64,
) -> Result<Slot, AbortReason> {
    let imm = i32::try_from(value).map_err(|_| AbortReason::ValueTooWide { value })?;
    if !(VALU_IMM_MIN..=VALU_IMM_MAX).contains(&imm) {
        return Err(AbortReason::ValueTooWide { value });
    }
    Ok(Slot::Fixed(Inst::V(VectorInst::VAluImm {
        op,
        elem,
        vd,
        vn,
        imm,
    })))
}

fn emit_reduction(
    active: &mut Active,
    op: AluOp,
    rd: Reg,
    vec_reg: Reg,
) -> Result<(), AbortReason> {
    let red = red_op(op).ok_or(AbortReason::UnsupportedShape {
        what: "reduction op without vector equivalent",
    })?;
    let RegClass::Vector { elem, .. } = active.regs[vec_reg.index() as usize] else {
        unreachable!("caller checked vector class");
    };
    let vn = active.vmap.get(Bank::Int, vec_reg.index())?;
    active.buffer.push(Slot::Fixed(Inst::V(VectorInst::VRedI {
        op: red,
        elem,
        rd,
        vn,
    })));
    active.regs[rd.index() as usize] = RegClass::Scalar;
    Ok(())
}

fn classify_falu(
    active: &mut Active,
    op: FpOp,
    fd: liquid_simd_isa::FReg,
    fn_: liquid_simd_isa::FReg,
    fm: liquid_simd_isa::FReg,
    pc: u32,
) -> Result<(), AbortReason> {
    let fn_class = active.fregs[fn_.index() as usize];
    let fm_class = active.fregs[fm.index() as usize];

    // FP reduction: `fadd f1, f1, f2` with scalar accumulator.
    if fd == fn_ && fn_class.is_scalarish() && fm_class.is_vector() {
        let red = fred_op(op).ok_or(AbortReason::UnsupportedShape {
            what: "fp reduction op without vector equivalent",
        })?;
        let vn = active.vmap.get(Bank::Fp, fm.index())?;
        active
            .buffer
            .push(Slot::Fixed(Inst::V(VectorInst::VRedF { op: red, fd, vn })));
        active.fregs[fd.index() as usize] = RegClass::Scalar;
        return Ok(());
    }
    if fd == fm && fm_class.is_scalarish() && fn_class.is_vector() {
        if matches!(op, FpOp::Add | FpOp::Min | FpOp::Max) {
            let red = fred_op(op).expect("add/min/max have reductions");
            let vn = active.vmap.get(Bank::Fp, fn_.index())?;
            active
                .buffer
                .push(Slot::Fixed(Inst::V(VectorInst::VRedF { op: red, fd, vn })));
            active.fregs[fd.index() as usize] = RegClass::Scalar;
            return Ok(());
        }
        return Err(AbortReason::UnsupportedShape {
            what: "non-commutative fp reduction",
        });
    }

    let vop = match op {
        FpOp::Add => VAluOp::Add,
        FpOp::Sub => VAluOp::Sub,
        FpOp::Mul => VAluOp::Mul,
        FpOp::Div => VAluOp::Div,
        FpOp::Min => VAluOp::Min,
        FpOp::Max => VAluOp::Max,
    };

    // Element-wise: both vectors.
    if fn_class.is_vector() && fm_class.is_vector() {
        let vd = active.vmap.get(Bank::Fp, fd.index())?;
        let vn = active.vmap.get(Bank::Fp, fn_.index())?;
        let vm = active.vmap.get(Bank::Fp, fm.index())?;
        active.buffer.push(Slot::Fixed(Inst::V(VectorInst::VAlu {
            op: vop,
            elem: ElemType::F32,
            vd,
            vn,
            vm,
        })));
        active.fregs[fd.index() as usize] = RegClass::Vector {
            elem: ElemType::F32,
            signed: false,
            tracker: None,
        };
        return Ok(());
    }

    // Vector-by-scalar broadcast: the form hoisted fp constants take
    // (Neon-style `VMUL Qd, Qn, Dm[0]`).
    let broadcast = if fn_class.is_vector() && fm_class.is_scalarish() {
        Some((fn_, fm))
    } else if fm_class.is_vector() && fn_class.is_scalarish() && vop.is_commutative() {
        Some((fm, fn_))
    } else {
        None
    };
    if let Some((vec_reg, scalar_reg)) = broadcast {
        let vd = active.vmap.get(Bank::Fp, fd.index())?;
        let vn = active.vmap.get(Bank::Fp, vec_reg.index())?;
        active
            .buffer
            .push(Slot::Fixed(Inst::V(VectorInst::VAluScalar {
                op: vop,
                elem: ElemType::F32,
                vd,
                vn,
                src: ScalarSrc::F(scalar_reg),
            })));
        active.fregs[fd.index() as usize] = RegClass::Vector {
            elem: ElemType::F32,
            signed: false,
            tracker: None,
        };
        return Ok(());
    }

    // All scalar: pass through.
    if fn_class.is_scalarish() && fm_class.is_scalarish() {
        active.fregs[fd.index() as usize] = RegClass::Scalar;
        active
            .buffer
            .push(Slot::Fixed(Inst::S(ScalarInst::FAlu { op, fd, fn_, fm })));
        return Ok(());
    }

    Err(AbortReason::UnsupportedShape {
        what: "mixed scalar/vector fp operands",
    })
    .inspect_err(|_e| {
        let _ = pc;
    })
}
