//! End-to-end coverage of the performance-history subsystem: real
//! simulator runs become `perfhist-v1` records, identical code passes the
//! sentinel, a perturbed cycle count fails it (in both the library verdict
//! and the CLI's exit-code semantics), two measurements of the same code
//! serialize to the same bytes, and the dashboard is a genuinely
//! self-contained single file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use liquid_simd_repro::facade::trace::export;
use liquid_simd_repro::facade::{build_liquid, profile, run, MachineConfig};
use liquid_simd_repro::perfhist::{self, Json, RecordMeta, WorkloadRow};

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfhist-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn meta() -> RecordMeta {
    RecordMeta {
        commit: "test-commit".to_string(),
        timestamp: 1_700_000_000,
        host: "test-host".to_string(),
        config_hash: format!("{:016x}", MachineConfig::liquid(8).fingerprint()),
        smoke: true,
        widths: vec![2, 8],
        backend: "interp".to_string(),
    }
}

/// Measures the smoke workloads for real and builds one record: scalar
/// baseline, liquid cycles at 2 and 8 lanes, merged counter snapshot.
fn measure() -> Json {
    let mut rows = Vec::new();
    let mut counters = BTreeMap::new();
    for w in liquid_simd_repro::workloads::smoke() {
        let plain = liquid_simd_repro::compiler::build_plain(&w).unwrap();
        let base = run(&plain.program, MachineConfig::scalar_only()).unwrap();
        let b = build_liquid(&w).unwrap();
        let mut by_width = Vec::new();
        let mut headline = 0;
        for width in [2usize, 8] {
            let out = run(&b.program, MachineConfig::liquid(width)).unwrap();
            if width == 8 {
                headline = out.report.cycles;
                perfhist::counters::merge(
                    &mut counters,
                    &perfhist::counters::snapshot(&out.report),
                );
            }
            by_width.push((width, out.report.cycles));
        }
        rows.push(WorkloadRow {
            name: w.name.clone(),
            baseline_cycles: base.report.cycles,
            sim_cycles: headline,
            cycles_by_width: by_width,
            ledger: None,
        });
    }
    perfhist::record::build(&meta(), &rows, &counters)
}

#[test]
fn same_code_passes_perturbed_cycles_fail() {
    let baseline = measure();
    let rerun = measure();

    // Two real measurements of the same code: deterministic fields agree,
    // so the sentinel passes.
    let ok = perfhist::sentinel::check(
        &[baseline.clone(), rerun.clone()],
        &perfhist::SentinelOptions::default(),
    );
    assert!(!ok.failed, "identical code must pass: {}", ok.json.write());
    assert_eq!(ok.json.get("status").and_then(Json::as_str), Some("pass"));

    // Perturb one workload's sim_cycles by a single cycle: that is drift,
    // and drift fails — improvements included.
    let mut perturbed = rerun.clone();
    let mut rows = perturbed
        .get("workloads")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap();
    let old = rows[0].get("sim_cycles").and_then(Json::as_u64).unwrap();
    rows[0].set("sim_cycles", Json::u64(old - 1));
    perturbed.set("workloads", Json::Arr(rows));
    let bad = perfhist::sentinel::check(
        &[baseline, perturbed],
        &perfhist::SentinelOptions::default(),
    );
    assert!(bad.failed, "a one-cycle improvement is still drift");
    let drift = bad.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
    assert!(!drift.is_empty());
    assert_eq!(
        drift[0].get("metric").and_then(Json::as_str),
        Some("sim_cycles")
    );
}

#[test]
fn measurements_of_the_same_code_are_byte_identical() {
    // Records hold only simulated results plus identity metadata, so two
    // real measurements of the same code serialize to the same bytes with
    // nothing scrubbed.
    assert_eq!(measure().write(), measure().write());
}

#[test]
fn history_file_round_trips_and_sentinel_reads_it() {
    let path = tmpfile("history.jsonl");
    let _ = std::fs::remove_file(&path);
    perfhist::store::append(&path, &measure()).unwrap();
    perfhist::store::append(&path, &measure()).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    let records = perfhist::store::load(&path).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(perfhist::store::serialize(&records), on_disk);
    let v = perfhist::sentinel::check(&records, &perfhist::SentinelOptions::default());
    assert!(!v.failed);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dashboard_is_single_file_with_real_data() {
    let mut history = vec![measure(), measure()];
    // Nudge one counter so the delta table has a row to show (identical
    // code produces identical counters, which would hide the section).
    let mut counters = history[1]
        .get("counters")
        .and_then(Json::as_obj)
        .map(<[(String, Json)]>::to_vec)
        .unwrap();
    if let Some((_, v)) = counters.first_mut() {
        let bumped = v.as_u64().unwrap_or(0) + 1;
        *v = Json::u64(bumped);
    }
    history[1].set("counters", Json::Obj(counters));
    // Real span records from a traced run feed the flamegraph.
    let w = &liquid_simd_repro::workloads::smoke()[0];
    let b = build_liquid(w).unwrap();
    let prof = profile(&b.program, &w.name, 8).unwrap();
    let folded = export::folded_stacks(&prof.spans);
    assert!(!folded.is_empty(), "traced run produced folded stacks");

    let html = perfhist::dashboard::render(&history, &folded);
    assert!(html.starts_with("<!DOCTYPE html>"));
    // Self-contained: no scripts, no external fetches of any kind.
    for needle in [
        "<script", "http://", "https://", "src=", "href=", "@import", "url(",
    ] {
        assert!(!html.contains(needle), "external reference `{needle}`");
    }
    for section in ["Cycle trend", "Figure 6", "Counter deltas", "flamegraph"] {
        assert!(html.contains(section), "missing section `{section}`");
    }
    // Every smoke workload appears.
    for w in liquid_simd_repro::workloads::smoke() {
        assert!(html.contains(&w.name), "missing workload {}", w.name);
    }
}
