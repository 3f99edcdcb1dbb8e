//! Every JSON surface the workspace emits, read back through the one
//! parser in `liquid_simd_trace::json`.
//!
//! The explain/profile checks are the facts the diagnostics reports must
//! always show: the schema names, at least one translated region, phases
//! that sum to the cycle total, and a ledger that accounts for every
//! cycle. The rest asserts that each other surface parses, and that the
//! pinned documents re-serialize byte for byte in their layout.

use std::collections::BTreeMap;

use liquid_simd_repro::conform::{self, ConformOptions};
use liquid_simd_repro::facade::{self as liquid, diagnose, ExplainOptions, MachineConfig};
use liquid_simd_repro::isa::Program;
use liquid_simd_repro::ledger::{diff, Snapshot};
use liquid_simd_repro::perfhist::store;
use liquid_simd_repro::trace::flight::{FlightEvent, FlightRecorder, FlightStage};
use liquid_simd_repro::trace::json::Json;
use liquid_simd_repro::trace::{export, Histogram, Tracer};

/// The Liquid build of a suite workload, by case-insensitive name (the
/// same lookup the CLI's `explain fir` / `profile fft` use).
fn workload(name: &str) -> (Program, String) {
    let w = liquid_simd_repro::workloads::all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("workload {name}"));
    let b = liquid::build_liquid(&w).expect("workload builds");
    (b.program, w.name)
}

fn u64_at(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

fn str_at<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

#[test]
fn explain_and_profile_reports_hold_their_invariants() {
    for name in ["fir", "fft"] {
        let (program, display) = workload(name);
        let opts = ExplainOptions {
            widths: liquid::experiments::paper_widths(),
            ..ExplainOptions::default()
        };
        let report = liquid::explain(&program, &display, &opts).expect("explain runs");
        let explain = Json::parse(&diagnose::explain_json(&report)).expect("explain parses");
        assert_eq!(str_at(&explain, "schema"), "liquid-simd-explain-v2");
        assert!(matches!(
            str_at(&explain, "backend"),
            "interp" | "superblock"
        ));
        let translated = explain
            .get("regions")
            .and_then(Json::as_arr)
            .expect("regions array")
            .iter()
            .flat_map(|r| r.get("widths").and_then(Json::as_arr).unwrap_or(&[]))
            .filter(|rw| rw.get("outcome").map(|o| str_at(o, "status")) == Some("translated"))
            .count();
        assert!(translated > 0, "{name}: no translated region in explain");

        let report = liquid::profile(&program, &display, 8).expect("profile runs");
        let profile = Json::parse(&diagnose::profile_json(&report, 10)).expect("profile parses");
        assert_eq!(str_at(&profile, "schema"), "liquid-simd-profile-v1");
        let cycles = u64_at(&profile, &["cycles"]);
        let phases: u64 = ["scalar_cycles", "micro_cycles", "jit_stall_cycles"]
            .iter()
            .map(|k| u64_at(&profile, &["phases", k]))
            .sum();
        assert_eq!(phases, cycles, "{name}: phases must sum to cycles");
        assert_eq!(u64_at(&profile, &["ledger", "total_cycles"]), cycles);
    }
}

#[test]
fn pinned_documents_round_trip_in_their_layout() {
    // The diff fixture is rows-layout output: parse + write_rows is the
    // identity on it.
    let fixture = include_str!("../bench/diff_179art_w8_w16.json");
    assert_eq!(Json::parse(fixture).unwrap().write_rows(), fixture);
    // History lines are compact output: load + serialize is the identity.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/history.jsonl");
    let records = store::load(std::path::Path::new(path)).expect("history loads");
    assert_eq!(
        store::serialize(&records),
        include_str!("../bench/history.jsonl")
    );
    let bench = Json::parse(include_str!("../BENCH_sim.json")).unwrap();
    assert_eq!(str_at(&bench, "schema"), "liquid-simd-bench-v1");
}

#[test]
fn ledger_and_diff_surfaces_parse() {
    let (program, _) = workload("fir");
    let snap_at = |width: usize| {
        let out = liquid::run(&program, MachineConfig::liquid(width).with_ledger(true)).unwrap();
        let ledger = out.report.ledger.expect("ledger recorded");
        let doc = Json::parse(&ledger.to_json()).expect("ledger-v1 parses");
        assert_eq!(str_at(&doc, "schema"), "ledger-v1");
        assert_eq!(u64_at(&doc, &["total_cycles"]), out.report.cycles);
        let snap = Snapshot::from_ledger(&format!("FIR@w{width}"), &ledger, &BTreeMap::new());
        assert_eq!(Json::parse(&snap.to_json()).unwrap(), snap.json());
        snap
    };
    let (a, b) = (snap_at(4), snap_at(8));
    let d = Json::parse(&diff::render_json(&diff::diff(&a, &b))).expect("diff-v1 parses");
    assert_eq!(str_at(&d, "schema"), "diff-v1");
    assert_eq!(
        u64_at(&d, &["b", "total_cycles"]),
        u64_at(&Json::parse(&b.to_json()).unwrap(), &["total_cycles"])
    );
}

#[test]
fn conform_trace_flight_and_histogram_surfaces_parse() {
    let report = conform::run_conform(&ConformOptions {
        seed: 7,
        cases: 2,
        jobs: 1,
        shrink: false,
    });
    let doc = Json::parse(&conform::report_to_json(&report)).expect("conform-v1 parses");
    assert_eq!(str_at(&doc, "schema"), "conform-v1");
    assert_eq!(
        doc.get("abort_coverage"),
        Some(&conform::coverage_json(&report.coverage))
    );

    let (program, _) = workload("fir");
    let tracer = Tracer::new();
    liquid::run(
        &program,
        MachineConfig::liquid(8).with_tracer(tracer.clone()),
    )
    .unwrap();
    let records = tracer.records();
    let lines = export::json_lines(&records);
    assert_eq!(lines.lines().count(), records.len());
    for line in lines.lines() {
        Json::parse(line).expect("JSON-lines record parses");
    }
    let chrome = Json::parse(&export::chrome_trace_with_spans(&records, &tracer.spans()))
        .expect("Chrome trace parses");
    assert!(chrome.get("traceEvents").and_then(Json::as_arr).is_some());

    // Flight dumps: ids and details carry arbitrary client text, so the
    // escaper must round-trip quotes, backslashes and control characters.
    let recorder = FlightRecorder::new(2, 8, "interp");
    let nasty = "a\"b\\c\nd\te\u{1}";
    recorder.record(
        1,
        FlightEvent::new(nasty, "run", FlightStage::Parse).detail(nasty),
    );
    let records = recorder.drain();
    let dump = recorder.dump("manual", &records);
    let mut lines = dump.lines();
    let header = Json::parse(lines.next().unwrap()).expect("flight header parses");
    assert_eq!(str_at(&header, "schema"), "flight-v1");
    let event = Json::parse(lines.next().unwrap()).expect("flight record parses");
    assert_eq!(str_at(&event, "id"), nasty);
    assert_eq!(str_at(&event, "detail"), nasty);

    let mut h = Histogram::pow2(8);
    for s in [1, 7, 300] {
        h.observe(s);
    }
    let back = Json::parse(&h.to_json().write()).unwrap();
    assert_eq!(Histogram::from_json(&back), Some(h));
}
