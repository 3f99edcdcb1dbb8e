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
        let out = liquid::run(&program, MachineConfig::liquid(width)).unwrap();
        let ledger = out.report.ledger;
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

fn i64_at(doc: &Json, key: &str) -> i64 {
    match doc.get(key) {
        Some(Json::Num(n)) => n.parse().unwrap_or_else(|_| panic!("{key} is not an i64")),
        _ => panic!("missing {key}"),
    }
}

/// Checks the `diff-v1` layout and arithmetic: the key sets, every delta
/// is `b - a`, and each side's category cycles sum to its total.
fn check_diff_v1(d: &Json) {
    assert_eq!(str_at(d, "schema"), "diff-v1");
    let keys = |j: &Json| -> Vec<String> {
        let mut k: Vec<String> = j.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect();
        k.sort();
        k
    };
    for side in ["a", "b"] {
        assert_eq!(keys(d.get(side).unwrap()), ["label", "total_cycles"]);
    }
    let total = |side: &str| u64_at(d, &[side, "total_cycles"]);
    assert_eq!(
        i64_at(d, "total_delta"),
        total("b") as i64 - total("a") as i64
    );
    let categories = d.get("categories").and_then(Json::as_arr).unwrap();
    for c in categories {
        assert_eq!(
            keys(c),
            [
                "a_cycles",
                "b_cycles",
                "category",
                "delta",
                "share_permille"
            ]
        );
        let cycles = |k: &str| u64_at(c, &[k]) as i64;
        assert_eq!(i64_at(c, "delta"), cycles("b_cycles") - cycles("a_cycles"));
    }
    for side in ["a", "b"] {
        let split: u64 = categories
            .iter()
            .map(|c| u64_at(c, &[&format!("{side}_cycles")]))
            .sum();
        assert_eq!(
            split,
            total(side),
            "side {side}: categories sum to the total"
        );
    }
    for r in d.get("regions").and_then(Json::as_arr).unwrap() {
        let k = keys(r);
        for want in ["a_cycles", "b_cycles", "delta", "region"] {
            assert!(k.iter().any(|x| x == want), "region row lacks {want}");
        }
    }
    assert!(d.get("counters").and_then(Json::as_arr).is_some());
    let narrative = d.get("narrative").and_then(Json::as_arr).unwrap();
    assert!(!narrative.is_empty(), "empty narrative");
}

#[test]
fn diff_v1_reports_hold_their_invariants() {
    // Same code, same input: two runs diff to exactly zero.
    let (program, _) = workload("fir");
    let snap = |label: &str| {
        let report = liquid::run(&program, MachineConfig::liquid(8))
            .unwrap()
            .report;
        let names = liquid::ledger_region_labels(&program, &report.ledger);
        liquid_simd_repro::perfhist::counters::ledger_snapshot(label, &report, &names)
    };
    let same = Json::parse(&diff::render_json(&diff::diff(&snap("a"), &snap("b")))).unwrap();
    check_diff_v1(&same);
    assert_eq!(
        i64_at(&same, "total_delta"),
        0,
        "same-code runs diff to zero"
    );
    // The pinned 179.art width inversion (byte-identical to a fresh
    // `diff`, see tests/ledger_invariant.rs) is dominated by scalar code.
    let art = Json::parse(include_str!("../bench/diff_179art_w8_w16.json")).unwrap();
    check_diff_v1(&art);
    assert!(i64_at(&art, "total_delta") > 0);
    assert_eq!(str_at(&art, "dominant_category"), "scalar-execute");
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
    let chrome =
        Json::parse(&export::chrome_trace(&records, &tracer.spans())).expect("Chrome trace parses");
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
