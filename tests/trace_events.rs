//! End-to-end coverage of the tracing subsystem: every translator abort
//! path surfaces as a `TranslationAbort` event with the right reason tag,
//! the microcode-cache lifecycle (hit/miss/insert/evict/invalidate) is
//! visible in the event stream and never disagrees with the aggregate
//! counters, the Chrome-trace export shows translation committing before
//! the first SIMD-mode call, and attaching a tracer does not perturb
//! simulated time.

use liquid_simd_repro::compiler::{build_liquid, ArrayBuilder, KernelBuilder, Workload};
use liquid_simd_repro::facade::trace::export;
use liquid_simd_repro::facade::{
    run, BackendKind, BlockStats, CallMode, Machine, MachineConfig, TraceConfig, TraceEvent, Tracer,
};
use liquid_simd_repro::isa::{asm, ElemType, Program, VAluOp};
use liquid_simd_repro::trace::{SpanRecord, TraceRecord};

// ---------------------------------------------------------------------------
// Abort paths as trace events
// ---------------------------------------------------------------------------

/// Runs the source on a traced 8-lane Liquid machine and asserts that a
/// `TranslationAbort` with the expected reason tag was recorded, and that
/// the event tallies agree with the translator's aggregate abort counts.
fn expect_abort_event(src: &str, tag: &str) {
    let p = asm::assemble(src).unwrap();
    let tracer = Tracer::new();
    let cfg = MachineConfig::liquid(8).with_tracer(tracer.clone());
    let mut m = Machine::new(&p, cfg);
    let report = m.run().unwrap();

    let aborts: Vec<&'static str> = tracer
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::TranslationAbort { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect();
    assert!(
        aborts.contains(&tag),
        "expected a TranslationAbort with reason `{tag}`, recorded {aborts:?}"
    );
    // Aggregates and trace must never disagree.
    let stat_aborts: u64 = report.translator.aborts.values().sum();
    assert_eq!(
        tracer.kind_count("translation-abort"),
        stat_aborts,
        "abort event tally vs TranslatorStats"
    );
    assert_eq!(
        tracer.metrics().counter(&format!("translator.abort.{tag}")),
        report.translator.aborts.get(tag).copied().unwrap_or(0),
        "per-reason abort counter vs TranslatorStats"
    );
    assert_eq!(
        tracer.kind_count("translation-begin"),
        report.translator.attempts,
        "begin event tally vs attempts"
    );
}

/// A runtime-indexed permute (VTBL class): the index is loaded data, so
/// translation aborts with `runtime-indexed-permute`.
const GATHER: &str = r"
.data
.i32 idx: 3, 1, 2, 0, 7, 5, 6, 4, 11, 9, 10, 8, 15, 13, 14, 12
.i32 A: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    bl.v gather
    halt
gather:
    mov r0, #0
top:
    ldw r1, [idx + r0]
    ldw r2, [A + r1]
    stw [B + r0], r2
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
";

#[test]
fn illegal_input_abort_is_traced() {
    // Runtime-indexed permute (VTBL class): the index is loaded data.
    expect_abort_event(GATHER, "runtime-indexed-permute");
}

#[test]
fn aperiodic_offset_pattern_abort_is_traced() {
    // The offsets form no blocked permutation (the aperiodic-`cnst` case):
    // the structure matches the permutation idiom but the CAM lookup fails.
    expect_abort_event(
        r"
.data
.i32 off: 0, 2, -1, -1, 0, 2, -1, -1, 0, 2, -1, -1, 0, 2, -1, -1
.i32 A: 9, 8, 7, 6, 5, 4, 3, 2, 9, 8, 7, 6, 5, 4, 3, 2
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    bl.v weird
    halt
weird:
    mov r0, #0
top:
    ldw r1, [off + r0]
    add r1, r0, r1
    ldw r2, [A + r1]
    stw [B + r0], r2
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
",
        "cam-miss",
    );
}

#[test]
fn non_dividing_permutation_block_abort_is_traced() {
    // A cyclic shift of period 3 over a 16-element loop: 3 divides neither
    // the lane count nor the trip, so no blocked permutation matches.
    expect_abort_event(
        r"
.data
.i32 off: 1, 1, -2, 1, 1, -2, 1, 1, -2, 1, 1, -2, 1, 1, -2, 1
.i32 A: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    bl.v rot3
    halt
rot3:
    mov r0, #0
top:
    ldw r1, [off + r0]
    add r1, r0, r1
    ldw r2, [A + r1]
    stw [B + r0], r2
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
",
        "cam-miss",
    );
}

#[test]
fn scalar_store_abort_is_traced() {
    expect_abort_event(
        r"
.data
.i32 A: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    bl.v splat
    halt
splat:
    mov r1, #42
    mov r0, #0
top:
    stw [A + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
",
        "scalar-store",
    );
}

#[test]
fn interrupt_abort_is_traced() {
    // An interrupt every 20 retired instructions lands inside the first
    // translation window and aborts it externally.
    let src = r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8

.text
main:
    mov r5, #0
again:
    bl.v incr
    add r5, r5, #1
    cmp r5, #4
    blt again
    halt
incr:
    mov r0, #0
top:
    ldw r1, [A + r0]
    add r1, r1, #1
    stw [A + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt top
    ret
";
    let p = asm::assemble(src).unwrap();
    let tracer = Tracer::new();
    let mut cfg = MachineConfig::liquid(8).with_tracer(tracer.clone());
    cfg.interrupt_every = 20;
    let mut m = Machine::new(&p, cfg);
    let report = m.run().unwrap();

    assert!(
        tracer.kind_count("interrupt") > 0,
        "interrupts should have been injected"
    );
    let external_aborts = tracer
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::TranslationAbort {
                    reason: "external",
                    ..
                }
            )
        })
        .count() as u64;
    assert!(
        external_aborts > 0,
        "an interrupt during translation must abort it externally"
    );
    assert_eq!(
        external_aborts,
        report
            .translator
            .aborts
            .get("external")
            .copied()
            .unwrap_or(0),
        "external abort events vs TranslatorStats"
    );
}

// ---------------------------------------------------------------------------
// Microcode-cache lifecycle
// ---------------------------------------------------------------------------

fn many_loop_workload(n: usize) -> Workload {
    let mut kernels = Vec::new();
    let mut data = ArrayBuilder::new();
    for i in 0..n {
        let name = format!("k{i}");
        let mut k = KernelBuilder::new(&name, 32);
        let a = k.load(&format!("in{i}"), ElemType::I32);
        let b = k.bin_imm(VAluOp::Add, a, i as i32 + 1);
        let c = k.bin_imm(VAluOp::Eor, b, 21);
        k.store(&format!("out{i}"), c);
        kernels.push(k.build().unwrap());
        data = data
            .int(
                &format!("in{i}"),
                ElemType::I32,
                (0..32).map(|x| x * 3 + i as i64).collect::<Vec<i64>>(),
            )
            .zeroed(&format!("out{i}"), ElemType::I32, 32);
    }
    Workload::new("many", kernels, data.build(), 12)
}

#[test]
fn mcache_lifecycle_events_match_stats() {
    // Twelve distinct hot loops against the paper's 8-entry cache: the
    // working set does not fit, so the event stream must show evictions.
    let w = many_loop_workload(12);
    let b = build_liquid(&w).unwrap();
    let tracer = Tracer::new();
    let cfg = MachineConfig::liquid(8).with_tracer(tracer.clone());
    let out = run(&b.program, cfg).unwrap();
    let stats = out.report.mcache;

    assert!(stats.evictions > 0, "12 loops must not fit 8 entries");

    // Aggregates and trace must never disagree, event kind by event kind.
    assert_eq!(tracer.kind_count("mcache-hit"), stats.hits);
    assert_eq!(tracer.kind_count("mcache-pending"), stats.pending);
    assert_eq!(tracer.kind_count("mcache-insert"), stats.inserts);
    assert_eq!(tracer.kind_count("mcache-evict"), stats.evictions);
    let misses = tracer.kind_count("mcache-miss");
    assert_eq!(stats.hits + stats.pending + misses, stats.lookups);

    // Every eviction names a function that was inserted earlier.
    let mut inserted = std::collections::HashSet::new();
    for r in tracer.records() {
        match r.event {
            TraceEvent::McacheInsert { func_pc, .. } => {
                inserted.insert(func_pc);
            }
            TraceEvent::McacheEvict { func_pc } => {
                assert!(
                    inserted.contains(&func_pc),
                    "evicted @{func_pc} without a prior insert"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn mcache_invalidate_is_traced() {
    let w = many_loop_workload(4);
    let b = build_liquid(&w).unwrap();
    let tracer = Tracer::new();
    let cfg = MachineConfig::liquid(8).with_tracer(tracer.clone());
    let mut m = Machine::new(&b.program, cfg);
    m.run().unwrap();
    let resident = tracer.kind_count("mcache-insert") - tracer.kind_count("mcache-evict");
    assert!(resident > 0, "expected resident microcode after the run");

    m.flush_microcode();
    let invalidates: Vec<u64> = tracer
        .records()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::McacheInvalidate { entries } => Some(entries),
            _ => None,
        })
        .collect();
    assert_eq!(invalidates, vec![resident], "one invalidate, all entries");
}

// ---------------------------------------------------------------------------
// FIR: commit-before-first-SIMD-call, Chrome export, timing invariance
// ---------------------------------------------------------------------------

#[test]
fn fir_commit_precedes_first_simd_call() {
    let w = liquid_simd_repro::workloads::fir();
    let b = build_liquid(&w).unwrap();
    let tracer = Tracer::new();
    let cfg = MachineConfig::liquid(8).with_tracer(tracer.clone());
    let out = run(&b.program, cfg).unwrap();
    let simd_calls = out
        .report
        .calls
        .iter()
        .filter(|c| c.mode == CallMode::Microcode)
        .count();
    assert!(simd_calls > 0, "FIR should go SIMD after translation");

    let records = tracer.records();
    let commit_seq = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::TranslationCommit { .. }))
        .map(|r| r.seq)
        .expect("FIR must commit a translation");
    let first_simd_seq = records
        .iter()
        .find(|r| {
            matches!(
                r.event,
                TraceEvent::CallEnter {
                    mode: liquid_simd_repro::facade::trace::CallMode::Simd,
                    ..
                }
            )
        })
        .map(|r| r.seq)
        .expect("FIR must make SIMD-mode calls");
    assert!(
        commit_seq < first_simd_seq,
        "translation must commit (seq {commit_seq}) before the first \
         SIMD call (seq {first_simd_seq})"
    );

    // The same ordering must be visible in the Chrome-trace export.
    let chrome = export::chrome_trace(&records);
    assert!(chrome.starts_with("{\"traceEvents\":["));
    let commit_pos = chrome
        .find("\"cat\":\"translation-commit\"")
        .expect("commit event exported");
    let simd_call_pos = chrome.find("(simd)").expect("SIMD call event exported");
    assert!(commit_pos < simd_call_pos);

    // And the scalar warm-up calls are on record too.
    assert!(tracer.metrics().counter("calls.scalar") > 0);
    assert!(tracer.metrics().counter("calls.simd") > 0);
}

#[test]
fn tracing_does_not_perturb_cycles() {
    // The tracer is an observer: cycle-for-cycle identical simulations
    // with and without it, for both call events and cache events.
    let w = many_loop_workload(3);
    let b = build_liquid(&w).unwrap();

    let plain = run(&b.program, MachineConfig::liquid(8)).unwrap();
    let tracer = Tracer::new();
    let traced = run(
        &b.program,
        MachineConfig::liquid(8).with_tracer(tracer.clone()),
    )
    .unwrap();

    assert_eq!(plain.report.cycles, traced.report.cycles);
    assert_eq!(plain.report.retired, traced.report.retired);
    assert_eq!(plain.report.mcache, traced.report.mcache);
    assert_eq!(plain.report.icache, traced.report.icache);
    assert_eq!(plain.report.dcache, traced.report.dcache);
    assert!(tracer.emitted() > 0);

    // Retired-instruction tallies are kept even though the ring (by
    // default) does not record the per-instruction events.
    assert_eq!(
        tracer.metrics().counter("instr.retired"),
        traced.report.retired
    );

    // Call events mirror the report's call log exactly.
    assert_eq!(
        tracer.kind_count("call-enter"),
        traced.report.calls.len() as u64
    );
    let simd_calls = traced
        .report
        .calls
        .iter()
        .filter(|c| c.mode == CallMode::Microcode)
        .count() as u64;
    assert_eq!(tracer.metrics().counter("calls.simd"), simd_calls);
}

// ---------------------------------------------------------------------------
// Trace-stream identity across execution backends
// ---------------------------------------------------------------------------

/// Runs `program` traced at 8 lanes on `backend`, keeping every event in
/// the ring (per-instruction retires included). Returns the records, the
/// spans with their wall-clock fields zeroed, and the run's block stats.
fn traced_stream(
    program: &Program,
    backend: BackendKind,
) -> (Vec<TraceRecord>, Vec<SpanRecord>, BlockStats) {
    let tracer = Tracer::with_config(TraceConfig {
        capacity: usize::MAX,
        instructions: true,
        progress: true,
    });
    let cfg = MachineConfig::liquid(8)
        .with_backend(backend)
        .with_tracer(tracer.clone());
    let report = Machine::new(program, cfg).run().unwrap();
    assert_eq!(tracer.dropped(), 0, "{backend}: ring dropped events");
    let spans = tracer
        .spans()
        .into_iter()
        .map(|s| SpanRecord {
            begin_wall_ns: 0,
            end_wall_ns: s.end_wall_ns.map(|_| 0),
            ..s
        })
        .collect();
    (tracer.records(), spans, report.blocks)
}

/// Both backends must emit the same event sequence — kind, cycle stamp and
/// payload, retire by retire — and the same execution spans. The superblock
/// run must get there in blocks, never by single-stepping for the tracer or
/// an open translation window.
fn assert_same_trace(what: &str, program: &Program) {
    let (ri, si, _) = traced_stream(program, BackendKind::Interp);
    let (rs, ss, blocks) = traced_stream(program, BackendKind::Superblock);
    assert_eq!(ri.len(), rs.len(), "{what}: event count");
    if let Some(i) = (0..ri.len()).find(|&i| ri[i] != rs[i]) {
        panic!(
            "{what}: event {i} differs: interp {:?}, superblock {:?}",
            ri[i], rs[i]
        );
    }
    assert_eq!(si, ss, "{what}: spans");
    assert_eq!(blocks.fallback_translator, 0, "{what}: window fallbacks");
    assert!(blocks.block_instrs > 0, "{what}: no retire ran in a block");
}

#[test]
fn fir_trace_stream_is_identical_across_backends() {
    let b = build_liquid(&liquid_simd_repro::workloads::fir()).unwrap();
    assert_same_trace("fir@8", &b.program);
}

#[test]
fn abort_trace_stream_is_identical_across_backends() {
    let p = asm::assemble(GATHER).unwrap();
    let (records, _, _) = traced_stream(&p, BackendKind::Superblock);
    assert!(records
        .iter()
        .any(|r| matches!(r.event, TraceEvent::TranslationAbort { .. })));
    assert_same_trace("gather abort witness", &p);
}
