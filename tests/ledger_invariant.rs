//! The cycle-ledger invariant, property-tested end to end: every
//! simulated cycle lands in exactly one (PC, region, category) bucket, so
//! the ledger's bucket sum must equal the run's cycle count bit-exactly,
//! on both execution backends, for every workload at every width — and
//! the ledgers themselves must be byte-identical across backends and
//! across harness parallelism (`--jobs 1` vs `--jobs 8`). The phase
//! partition and the per-target split are derived from the ledger; one
//! hand-written program covers the shapes no workload has (a nested
//! scalar call, a program-stream vector instruction).
//!
//! The suite also pins the ledger's first payoff: the machine-checked
//! explanation of the `179.art` width inversion (w16 slower than w8),
//! byte-compared against the committed `bench/diff_179art_w8_w16.json`
//! fixture.

use liquid_simd_repro::facade as liquid;
use liquid_simd_repro::isa::{asm, Program};
use liquid_simd_repro::kernelgen::{expand_corpus, Payload};
use liquid_simd_repro::ledger::{diff, Category, Snapshot, TOP_REGION};
use liquid_simd_repro::perfhist::counters::{self, ledger_snapshot};
use liquid_simd_repro::sim::{BackendKind, MachineConfig};

const WIDTHS: [usize; 4] = [2, 4, 8, 16];

/// Runs `program` and asserts the sum invariant; the caller gets the
/// report back for cross-backend comparisons.
fn run_and_check(
    what: &str,
    program: &Program,
    width: usize,
    backend: BackendKind,
) -> liquid::RunReport {
    let cfg = MachineConfig::liquid(width).with_backend(backend);
    let report = liquid::run(program, cfg)
        .unwrap_or_else(|e| panic!("{what} w{width} {}: {e}", backend.name()))
        .report;
    assert_eq!(
        report.ledger.total_cycles(),
        report.cycles,
        "{what} w{width} {}: ledger bucket sum != report cycles",
        backend.name()
    );
    report
}

/// Asserts both backends produce the same cycles and *byte-identical*
/// ledgers (structural equality plus the rendered JSON, which is what the
/// history records and diff fixtures pin).
fn assert_cross_backend(what: &str, program: &Program, width: usize) {
    let ri = run_and_check(what, program, width, BackendKind::Interp);
    let rs = run_and_check(what, program, width, BackendKind::Superblock);
    assert_eq!(ri.cycles, rs.cycles, "{what} w{width}: cycles");
    assert_eq!(ri.ledger, rs.ledger, "{what} w{width}: ledger buckets");
    assert_eq!(
        ri.ledger.to_json(),
        rs.ledger.to_json(),
        "{what} w{width}: ledger JSON"
    );
}

#[test]
fn ledger_sum_matches_cycles_on_both_backends_all_workloads() {
    let workloads = liquid_simd_workloads::all();
    assert_eq!(workloads.len(), 15, "the fixed suite is 15 workloads");
    // One task per workload: build once, sweep every width on both
    // backends. The harness parallelizes across workloads.
    let jobs = liquid::default_jobs();
    liquid::run_tasks(jobs, workloads.len(), |i| -> Result<(), String> {
        let w = &workloads[i];
        let b = liquid::build_liquid(w).map_err(|e| format!("{}: {e}", w.name))?;
        for width in WIDTHS {
            assert_cross_backend(&w.name, &b.program, width);
        }
        Ok(())
    })
    .expect("suite sweep");
}

#[test]
fn ledger_sum_holds_on_generated_family_sample() {
    // A deterministic sample of the kernelgen corpus: the CI-sized cut
    // (short trips, shallow unrolls), strided down to a handful of kernel
    // variants so the sweep stays cheap.
    let sample: Vec<_> = expand_corpus()
        .expect("corpus expands")
        .into_iter()
        .filter(|v| v.trip <= 64 && v.unroll <= 2)
        .filter(|v| matches!(v.payload, Payload::Kernel(_)))
        .step_by(5)
        .take(6)
        .collect();
    assert!(sample.len() >= 3, "sample should cover several families");
    for v in &sample {
        let Payload::Kernel(w) = &v.payload else {
            unreachable!("filtered to kernels");
        };
        let b = liquid::build_liquid(w).unwrap_or_else(|e| panic!("{}: {e}", v.name));
        for width in WIDTHS {
            assert_cross_backend(&v.name, &b.program, width);
        }
    }
}

#[test]
fn ledger_snapshots_identical_at_jobs_1_and_jobs_8() {
    // The smoke suite across two widths, once serial and once on 8
    // workers: the rendered per-run snapshots must be byte-identical,
    // i.e. the ledger never observes scheduling.
    let workloads = liquid_simd_workloads::smoke();
    let widths = [2usize, 8];
    let builds: Vec<_> = workloads
        .iter()
        .map(|w| liquid::build_liquid(w).unwrap_or_else(|e| panic!("{}: {e}", w.name)))
        .collect();
    let sweep = |jobs: usize| -> Vec<String> {
        liquid::run_tasks(
            jobs,
            workloads.len() * widths.len(),
            |i| -> Result<String, String> {
                let (wi, si) = (i / widths.len(), i % widths.len());
                let (w, width) = (&workloads[wi], widths[si]);
                let report =
                    run_and_check(&w.name, &builds[wi].program, width, BackendKind::Interp);
                let names = liquid::ledger_region_labels(&builds[wi].program, &report.ledger);
                Ok(ledger_snapshot(&format!("{}@w{width}", w.name), &report, &names).to_json())
            },
        )
        .expect("smoke sweep")
    };
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(serial, parallel, "ledger snapshots must not observe --jobs");
    assert!(serial.iter().all(|s| s.contains("\"total_cycles\":")));
}

/// The counter telemetry every perfhist record carries: for each smoke
/// workload, and for the suite-wide merge, the `ledger.*.cycles` counters
/// sum to `cycles`.
#[test]
fn smoke_counter_snapshots_sum_ledger_cycles_to_cycles() {
    let ledger_sum = |c: &std::collections::BTreeMap<String, u64>| -> u64 {
        c.iter()
            .filter(|(k, _)| k.starts_with("ledger.") && k.ends_with(".cycles"))
            .map(|(_, &v)| v)
            .sum()
    };
    let mut merged = std::collections::BTreeMap::new();
    for w in liquid_simd_workloads::smoke() {
        let b = liquid::build_liquid(&w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let report = run_and_check(&w.name, &b.program, 8, BackendKind::Interp);
        let counters = report.counters();
        assert!(
            counters.keys().any(|k| k.starts_with("ledger.")),
            "{}",
            w.name
        );
        assert_eq!(ledger_sum(&counters), counters["cycles"], "{}", w.name);
        counters::merge(&mut merged, &counters);
    }
    assert_eq!(ledger_sum(&merged), merged["cycles"], "suite-wide merge");
}

/// Shapes no in-repo workload has: `main` runs a vector instruction in
/// the program stream and calls `outer`, which calls `inner` (so `outer`'s
/// translation aborts on the nested call and later calls replay it), next
/// to a loop `scale` that translates into microcode and a loop `splat`
/// whose translation aborts in the middle of its first call.
const NESTED: &str = r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
.i32 B: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
.i32 C: 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0

.text
main:
    mov r0, #0
    vld.i32 v0, [A + r0]
    vadd.i32 v1, v0, v0
    vst.i32 [B + r0], v1
    mov r5, #0
again:
    bl.v scale
    bl.v outer
    bl.v splat
    add r5, r5, #1
    cmp r5, #4
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
outer:
    mov r13, r14
    mov r0, #0
loop:
    bl inner
    add r0, r0, #1
    cmp r0, #4
    blt loop
    mov r14, r13
    ret
inner:
    ldw r1, [A + r0]
    add r1, r1, #1
    ret
splat:
    mov r1, #42
    mov r0, #0
fill:
    stw [C + r0], r1
    add r0, r0, #1
    cmp r0, #16
    blt fill
    ret
";

/// Targets are the ledger's *self* cycles, not inclusive call-to-return
/// deltas (the two differ only for nested calls): `outer`'s cycles leave
/// out those of the `inner` calls it makes. The derived phases still
/// partition the run, on both backends.
#[test]
fn nested_calls_and_program_stream_vectors_split_by_region() {
    let program = asm::assemble(NESTED).expect("assembles");
    let pc = |label: &str| {
        (0..program.code.len() as u32)
            .find(|&pc| program.label_at(pc) == Some(label))
            .expect(label)
    };
    let ri = run_and_check("nested", &program, 8, BackendKind::Interp);
    let rs = run_and_check("nested", &program, 8, BackendKind::Superblock);
    assert_eq!(ri.ledger.to_json(), rs.ledger.to_json(), "ledger JSON");
    for r in [&ri, &rs] {
        let p = r.phases;
        assert_eq!(p.total(), r.cycles, "phases partition the run");
        assert!(p.micro_cycles > 0, "scale runs as microcode");
        assert_eq!(p.jit_stall_cycles, 0, "hardware translation never stalls");
        assert!(r.translator.aborts.contains_key("nested-call"));
        let vector_top = r.ledger.iter().any(|(&(region, _, cat), b)| {
            region == TOP_REGION && cat == Category::VectorExecute && b.cycles > 0
        });
        assert!(vector_top, "program-stream vector cycles charge to main");
        let regions = r.ledger.region_totals();
        assert!(regions[&pc("outer")].by_category[&Category::AbortReplay].cycles > 0);
        // `splat` charges scalar-execute up to the retire that aborted its
        // translation and abort-replay from the next retire on.
        let w = r.windows.iter().find(|w| w.func_pc == pc("splat")).unwrap();
        let splat = &regions[&pc("splat")].by_category;
        assert!(r.translator.aborts.contains_key("scalar-store"));
        assert_eq!(
            splat[&Category::ScalarExecute].events,
            w.end_retired - w.begin_retired
        );
        assert!(splat[&Category::AbortReplay].cycles > 0);
        let targets = r.target_profiles();
        assert_eq!(targets.len(), 4, "four call targets");
        for (entry, t) in &targets {
            let region = &regions[entry];
            assert_eq!(t.micro_cycles, region.micro_cycles);
            assert_eq!(t.total_cycles(), region.cycles, "self cycles of @{entry}");
        }
        assert_eq!(targets[&pc("inner")].scalar_calls, 16);
        assert!(targets[&pc("scale")].micro_calls > 0);
    }
    // `profile` shows the same split.
    let prof = liquid::profile(&program, "nested", 8).expect("profiles");
    let targets = ri.target_profiles();
    assert_eq!(prof.targets.len(), targets.len());
    for (entry, _, t) in &prof.targets {
        assert_eq!(t, &targets[entry]);
    }
    assert_eq!(prof.phases, ri.phases);
}

/// The committed fixture is exactly what `liquid-simd diff 179.art@w8
/// 179.art@w16 --json --backend interp` emits: regenerate it through the same library path
/// and byte-compare, then assert the explanation names a concrete
/// dominant cost category for the paper suite's one width inversion
/// (ROADMAP item 4: `179.art` w16 > w8).
#[test]
fn pinned_179art_width_inversion_fixture_names_the_dominant_category() {
    let w = liquid_simd_workloads::all()
        .into_iter()
        .find(|w| w.name == "179.art")
        .expect("179.art in the fixed suite");
    let b = liquid::build_liquid(&w).expect("build 179.art");
    let snap_at = |width: usize| -> Snapshot {
        let report = run_and_check("179.art", &b.program, width, BackendKind::Interp);
        let names = liquid::ledger_region_labels(&b.program, &report.ledger);
        ledger_snapshot(&format!("179.art@w{width}"), &report, &names)
    };
    let d = diff::diff(&snap_at(8), &snap_at(16));

    // The inversion is real and the ledger explains it: the wide machine
    // spends its extra cycles executing scalar code (the strip-mined
    // remainder and scalar fallback at w16 outweigh the vector savings).
    assert!(d.total_delta > 0, "w16 must cost more than w8");
    assert_eq!(d.a_total, 2_380_481, "w8 cycles are pinned");
    assert_eq!(d.b_total, 2_482_896, "w16 cycles are pinned");
    assert_eq!(
        d.dominant_category.as_deref(),
        Some("scalar-execute"),
        "the diff must name the dominant cost category"
    );
    let scalar = d
        .categories
        .iter()
        .find(|c| c.name == "scalar-execute")
        .expect("scalar-execute bucket present");
    assert!(
        scalar.delta > 0 && scalar.delta.unsigned_abs() > d.total_delta.unsigned_abs() / 2,
        "scalar-execute must carry the bulk of the delta"
    );
    assert!(
        d.narrative.iter().any(|l| l.contains("scalar-execute")),
        "the narrative names the dominant category"
    );

    // Byte-for-byte the committed fixture: `diff --json` is deterministic
    // and the repo carries the explanation, not just the warning.
    let rendered = diff::render_json(&d);
    let fixture = std::fs::read_to_string("bench/diff_179art_w8_w16.json")
        .expect("bench/diff_179art_w8_w16.json committed");
    assert_eq!(
        rendered, fixture,
        "regenerated diff must match the pinned fixture byte-for-byte \
         (regenerate with: liquid-simd diff 179.art@w8 179.art@w16 --json \
         --backend interp --out bench/diff_179art_w8_w16.json)"
    );
}
