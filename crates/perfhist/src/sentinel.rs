//! The regression sentinel: compares the newest history record against a
//! baseline record and emits a `sentinel-v1` verdict.
//!
//! Simulated cycles are deterministic: the same code at the same machine
//! config must produce *identical* `sim_cycles`, so the gate is exact
//! match, and **any** drift (faster or slower) fails. An unexplained
//! improvement is as suspicious as a regression, and an intended one must
//! be acknowledged by appending a fresh baseline. Host time is not gated
//! here; perfbench measures it under the bounds in `BENCHMARK.json`.
//!
//! `perfhist-serve-v1` records (the serve daemon's batch telemetry) are
//! gated the same way: their `determinism` hashes must match the latest
//! older serve record that served the same request multiset (equal
//! `requests_hash`). A serve record with no comparable baseline is only a
//! failure when the history has nothing else to gate on — the bench gate
//! keeps CI honest while a new request mix seeds its first record.

use crate::record::{SCHEMA, SERVE_SCHEMA};
use crate::Json;

/// Sentinel tuning.
#[derive(Clone, Debug, Default)]
pub struct SentinelOptions {
    /// Only accept baseline records whose `commit` equals this.
    pub baseline_commit: Option<String>,
}

/// The sentinel's outcome: the `sentinel-v1` verdict document plus the
/// process-level pass/fail bit CI keys off.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The `sentinel-v1` JSON document.
    pub json: Json,
    /// Whether CI must fail: any cycle drift, no history at all, or no
    /// comparable baseline. The last matters because a config change
    /// (MachineConfig defaults, width sweep, smoke set) changes the
    /// comparability key — if that silently passed, such a change would
    /// disable the gate until someone noticed; instead it must be
    /// acknowledged by re-seeding the history.
    pub failed: bool,
}

fn is_perfhist(r: &Json) -> bool {
    r.get("schema").and_then(Json::as_str) == Some(SCHEMA)
}

fn is_serve(r: &Json) -> bool {
    r.get("schema").and_then(Json::as_str) == Some(SERVE_SCHEMA)
}

fn serve_det<'a>(r: &'a Json, key: &str) -> Option<&'a Json> {
    r.get("determinism").and_then(|d| d.get(key))
}

/// Gates the newest `perfhist-serve-v1` record against the latest older
/// serve record that served the same request multiset. Returns the serve
/// sub-verdict and whether it fails CI; `None` when the history holds no
/// serve records at all.
fn serve_check(records: &[&Json], have_bench: bool) -> Option<(Json, bool)> {
    let (newest, older) = records.split_last()?;
    let req_hash = serve_det(newest, "requests_hash").and_then(Json::as_str);
    let mut verdict = Json::obj([("records", Json::u64(records.len() as u64))]);
    let baseline = req_hash.and_then(|want| {
        older
            .iter()
            .rev()
            .find(|r| serve_det(r, "requests_hash").and_then(Json::as_str) == Some(want))
    });
    let Some(baseline) = baseline else {
        // Nothing served this request multiset before. With bench records
        // around the deterministic gate is still armed, so this is
        // advisory; in a serve-only history it is the no-baseline failure.
        let failed = !have_bench;
        verdict.set(
            "status",
            Json::Str(if failed { "no-baseline" } else { "unchecked" }.to_string()),
        );
        return Some((verdict, failed));
    };
    let mut drift: Vec<Json> = Vec::new();
    for key in ["responses_hash", "sim_cycles_total"] {
        let base = serve_det(baseline, key);
        let cur = serve_det(newest, key);
        if base != cur {
            drift.push(Json::obj([
                ("metric", key.into()),
                ("baseline", base.cloned().unwrap_or(Json::Null)),
                ("current", cur.cloned().unwrap_or(Json::Null)),
            ]));
        }
    }
    let failed = !drift.is_empty();
    verdict.set(
        "status",
        Json::Str(if failed { "fail" } else { "pass" }.to_string()),
    );
    verdict.set(
        "requests_hash",
        Json::Str(req_hash.unwrap_or("?").to_string()),
    );
    verdict.set("drift", Json::Arr(drift));
    Some((verdict, failed))
}

/// Backend name of a record. The field postdates the history format;
/// records written before execution backends existed are interpreter
/// records.
fn backend_of(r: &Json) -> &str {
    r.get("backend").and_then(Json::as_str).unwrap_or("interp")
}

fn comparable(newest: &Json, candidate: &Json) -> bool {
    // Backends must agree cycle-for-cycle, and [`cross_check`] is the gate
    // that says whether they do. Baselines pair within a backend so that
    // `check` only ever reports code drift: a backend divergence shows up
    // once, in `cross_check`, naming both backends, rather than as drift
    // against whichever backend happened to run last.
    if backend_of(newest) != backend_of(candidate) {
        return false;
    }
    for key in ["config_hash", "smoke", "widths"] {
        if newest.get(key) != candidate.get(key) {
            return false;
        }
    }
    true
}

fn workload_rows(record: &Json) -> Vec<&Json> {
    record
        .get("workloads")
        .and_then(Json::as_arr)
        .map(|rows| rows.iter().collect())
        .unwrap_or_default()
}

fn row_named<'a>(record: &'a Json, name: &str) -> Option<&'a Json> {
    workload_rows(record)
        .into_iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
}

/// Runs the sentinel over a loaded history (file order: oldest first).
#[must_use]
pub fn check(history: &[Json], opts: &SentinelOptions) -> Verdict {
    let records: Vec<&Json> = history.iter().filter(|r| is_perfhist(r)).collect();
    let serve_records: Vec<&Json> = history.iter().filter(|r| is_serve(r)).collect();
    let serve = serve_check(&serve_records, !records.is_empty());
    let Some((newest, older)) = records.split_last() else {
        if let Some((serve_json, serve_failed)) = serve {
            // Serve-only history: the serve gate is the whole verdict.
            let mut json = Json::obj([
                ("schema", "sentinel-v1".into()),
                (
                    "status",
                    Json::Str(
                        match serve_json.get("status").and_then(Json::as_str) {
                            Some("no-baseline") => "no-baseline",
                            _ if serve_failed => "fail",
                            _ => "pass",
                        }
                        .to_string(),
                    ),
                ),
            ]);
            json.set("serve", serve_json);
            return Verdict {
                json,
                failed: serve_failed,
            };
        }
        let json = Json::obj([
            ("schema", "sentinel-v1".into()),
            ("status", "no-history".into()),
        ]);
        return Verdict { json, failed: true };
    };
    let commit = newest.get("commit").and_then(Json::as_str).unwrap_or("?");
    let baseline = older.iter().rev().find(|r| {
        comparable(newest, r)
            && opts
                .baseline_commit
                .as_deref()
                .is_none_or(|want| r.get("commit").and_then(Json::as_str) == Some(want))
    });
    let mut verdict = Json::obj([("schema", "sentinel-v1".into()), ("commit", commit.into())]);
    let Some(reference) = baseline else {
        // No comparable record: the config hash, width sweep, or smoke
        // set changed (or the only record is the newest one). Fail loudly
        // — a green job here would mean the gate silently turned itself
        // off; a deliberate config change re-seeds bench/history.jsonl.
        verdict.set("status", "no-baseline".into());
        if let Some((serve_json, _)) = serve {
            verdict.set("serve", serve_json);
        }
        return Verdict {
            json: verdict,
            failed: true,
        };
    };
    verdict.set(
        "baseline_commit",
        Json::Str(
            reference
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
        ),
    );

    // --- Exact-match gate on deterministic cycles --------------------------
    let mut drift: Vec<Json> = Vec::new();
    let mut checked = 0u64;
    for row in workload_rows(newest) {
        let Some(name) = row.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base_row) = row_named(reference, name) else {
            continue; // new workload: nothing to gate against
        };
        checked += 1;
        let mut gate = |metric: String, base: Option<u64>, cur: Option<u64>| {
            if let (Some(b), Some(c)) = (base, cur) {
                if b != c {
                    drift.push(Json::obj([
                        ("workload", name.into()),
                        ("metric", metric.into()),
                        ("baseline", Json::u64(b)),
                        ("current", Json::u64(c)),
                    ]));
                }
            }
        };
        gate(
            "sim_cycles".to_string(),
            base_row.get("sim_cycles").and_then(Json::as_u64),
            row.get("sim_cycles").and_then(Json::as_u64),
        );
        gate(
            "baseline_cycles".to_string(),
            base_row.get("baseline_cycles").and_then(Json::as_u64),
            row.get("baseline_cycles").and_then(Json::as_u64),
        );
        if let (Some(base_w), Some(cur_w)) = (
            base_row.get("cycles_by_width").and_then(Json::as_obj),
            row.get("cycles_by_width").and_then(Json::as_obj),
        ) {
            for (width, cur_v) in cur_w {
                let base_v = base_w.iter().find(|(k, _)| k == width).map(|(_, v)| v);
                gate(
                    format!("cycles_by_width.{width}"),
                    base_v.and_then(Json::as_u64),
                    cur_v.as_u64(),
                );
            }
        }
    }

    // --- Counter deltas (informational) ------------------------------------
    let mut deltas: Vec<Json> = Vec::new();
    if let (Some(base_c), Some(cur_c)) = (
        reference.get("counters").and_then(Json::as_obj),
        newest.get("counters").and_then(Json::as_obj),
    ) {
        for (name, cur_v) in cur_c {
            let base_v = base_c
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_u64());
            if let (Some(b), Some(c)) = (base_v, cur_v.as_u64()) {
                if b != c {
                    deltas.push(Json::obj([
                        ("counter", Json::Str(name.clone())),
                        ("baseline", Json::u64(b)),
                        ("current", Json::u64(c)),
                    ]));
                }
            }
        }
    }

    let (serve_json, serve_failed) = match serve {
        Some((j, f)) => (Some(j), f),
        None => (None, false),
    };
    let failed = !drift.is_empty() || serve_failed;
    verdict.set(
        "status",
        Json::Str(if failed { "fail" } else { "pass" }.to_string()),
    );
    verdict.set("workloads_checked", Json::u64(checked));
    verdict.set("cycle_drift", Json::Arr(drift));
    verdict.set("counter_deltas", Json::Arr(deltas));
    if let Some(j) = serve_json {
        verdict.set("serve", j);
    }
    Verdict {
        json: verdict,
        failed,
    }
}

/// The cross-backend gate (`sentinel --cross-backend`): execution
/// backends are required to be observationally identical, so the newest
/// interpreter record and the newest superblock record must agree
/// *exactly* on every deterministic cycle count. Both records must come
/// from the same commit and the same config/smoke/width sweep — comparing
/// across code versions would report version drift as backend drift.
#[must_use]
pub fn cross_check(history: &[Json]) -> Verdict {
    let records: Vec<&Json> = history.iter().filter(|r| is_perfhist(r)).collect();
    let newest_of = |name: &str| {
        records
            .iter()
            .rev()
            .find(|r| backend_of(r) == name)
            .copied()
    };
    let mut verdict = Json::obj([("schema", "sentinel-cross-v1".into())]);
    let (Some(interp), Some(superblock)) = (newest_of("interp"), newest_of("superblock")) else {
        // The gate needs one record from each backend; a missing side must
        // fail loudly (a green job here would mean the equality gate
        // silently turned itself off).
        verdict.set("status", "no-pair".into());
        return Verdict {
            json: verdict,
            failed: true,
        };
    };
    for (side, r) in [("interp", interp), ("superblock", superblock)] {
        verdict.set(
            &format!("{side}_commit"),
            Json::Str(
                r.get("commit")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            ),
        );
    }
    let mismatched: Vec<&str> = ["commit", "config_hash", "smoke", "widths"]
        .into_iter()
        .filter(|key| interp.get(key) != superblock.get(key))
        .collect();
    if !mismatched.is_empty() {
        verdict.set("status", "incomparable".into());
        verdict.set(
            "mismatched",
            Json::Arr(
                mismatched
                    .iter()
                    .map(|k| Json::Str((*k).to_string()))
                    .collect(),
            ),
        );
        return Verdict {
            json: verdict,
            failed: true,
        };
    }

    let mut drift: Vec<Json> = Vec::new();
    let mut checked = 0u64;
    for row in workload_rows(superblock) {
        let Some(name) = row.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base_row) = row_named(interp, name) else {
            drift.push(Json::obj([
                ("workload", name.into()),
                ("metric", "missing-in-interp".into()),
            ]));
            continue;
        };
        checked += 1;
        for metric in ["sim_cycles", "baseline_cycles"] {
            let a = base_row.get(metric).and_then(Json::as_u64);
            let b = row.get(metric).and_then(Json::as_u64);
            if a != b {
                drift.push(Json::obj([
                    ("workload", name.into()),
                    ("metric", metric.into()),
                    ("interp", Json::u64(a.unwrap_or(0))),
                    ("superblock", Json::u64(b.unwrap_or(0))),
                ]));
            }
        }
        if base_row.get("cycles_by_width") != row.get("cycles_by_width") {
            drift.push(Json::obj([
                ("workload", name.into()),
                ("metric", "cycles_by_width".into()),
            ]));
        }
    }
    // Zero overlapping workloads means nothing was actually gated.
    let failed = !drift.is_empty() || checked == 0;
    verdict.set(
        "status",
        Json::Str(if failed { "fail" } else { "pass" }.to_string()),
    );
    verdict.set("workloads_checked", Json::u64(checked));
    verdict.set("cycle_drift", Json::Arr(drift));
    Verdict {
        json: verdict,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(commit: &str, cycles: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"perfhist-v1","commit":"{commit}","timestamp":1,"host":"h","config_hash":"cafe","smoke":false,"widths":[2,8],"workloads":[{{"name":"FIR","baseline_cycles":1000,"sim_cycles":{cycles},"cycles_by_width":{{"2":600,"8":{cycles}}}}}],"counters":{{"cycles":{cycles}}}}}"#
        ))
        .unwrap()
    }

    /// A record as older builds wrote it, wall-clock fields included.
    fn legacy_record(commit: &str, cycles: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"perfhist-v1","commit":"{commit}","timestamp":1,"host":"h","config_hash":"cafe","smoke":false,"widths":[2,8],"workloads":[{{"name":"FIR","baseline_cycles":1000,"sim_cycles":{cycles},"cycles_by_width":{{"2":600,"8":{cycles}}},"wall_s":0.5,"sim_cycles_per_sec":100.0}}],"counters":{{"cycles":{cycles}}},"wall":{{"figure6_serial_s":1.5}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_cycles_pass() {
        let h = vec![record("a", 250), record("b", 250)];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed);
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("pass"));
        assert_eq!(
            v.json.get("workloads_checked").and_then(Json::as_u64),
            Some(1)
        );

        // A baseline written before records dropped their wall-clock
        // fields still gates: the old fields are ignored, not rejected.
        let h = vec![legacy_record("a", 250), record("b", 250)];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(
            v.json.get("baseline_commit").and_then(Json::as_str),
            Some("a")
        );
        let h = vec![legacy_record("a", 250), record("b", 251)];
        assert!(check(&h, &SentinelOptions::default()).failed);
    }

    #[test]
    fn any_cycle_drift_fails_even_improvements() {
        let h = vec![record("a", 250), record("b", 240)];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "faster is still drift");
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
        // sim_cycles and the width-8 entry both moved.
        assert_eq!(drift.len(), 2);
        assert_eq!(
            drift[0].get("metric").and_then(Json::as_str),
            Some("sim_cycles")
        );
    }

    #[test]
    fn incomparable_configs_fail_as_no_baseline() {
        let mut other = record("a", 999);
        other.set("config_hash", "beef".into());
        let h = vec![other, record("b", 250)];
        let v = check(&h, &SentinelOptions::default());
        // The mismatched record is never compared cycle-for-cycle, but a
        // config change must not silently disable the gate: no comparable
        // baseline is itself a failure until the history is re-seeded.
        assert!(v.failed, "no comparable baseline must fail CI");
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-baseline")
        );
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr);
        assert!(drift.is_none_or(<[Json]>::is_empty), "no cycles compared");
    }

    #[test]
    fn baseline_commit_filter_selects_reference() {
        let h = vec![
            record("good", 250),
            record("noise", 999),
            record("new", 250),
        ];
        let against_noise = check(&h, &SentinelOptions::default());
        assert!(
            against_noise.failed,
            "latest record is the default baseline"
        );
        let against_good = check(
            &h,
            &SentinelOptions {
                baseline_commit: Some("good".to_string()),
            },
        );
        assert!(!against_good.failed);
        assert_eq!(
            against_good
                .json
                .get("baseline_commit")
                .and_then(Json::as_str),
            Some("good")
        );
    }

    #[test]
    fn empty_history_fails_loudly() {
        let v = check(&[], &SentinelOptions::default());
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-history")
        );
    }

    fn serve_record(req: &str, resp: &str, cycles: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"perfhist-serve-v1","commit":"c","timestamp":1,"host":"h","shards":4,"batch":{{"requests":10,"errors":0,"by_op":{{}}}},"cache":{{"hits":9,"misses":1,"entries":1,"hit_rate":0.9}},"determinism":{{"requests_hash":"{req}","responses_hash":"{resp}","sim_cycles_total":{cycles}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn matching_serve_records_pass_and_drift_fails() {
        // The baseline carries the wall-clock fields older daemons wrote;
        // they are ignored.
        let mut legacy = serve_record("aaaa", "bbbb", 100);
        legacy.set("throughput_rps", Json::f64(5.0));
        legacy.set("wall_s", Json::f64(2.0));
        let h = vec![legacy, serve_record("aaaa", "bbbb", 100)];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        let serve = v.json.get("serve").unwrap();
        assert_eq!(serve.get("status").and_then(Json::as_str), Some("pass"));

        // Same requests, different responses: cross-run nondeterminism.
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("aaaa", "XXXX", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "response drift must fail");
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("fail"));
        let drift = v
            .json
            .get("serve")
            .and_then(|s| s.get("drift"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(drift.len(), 1);
        assert_eq!(
            drift[0].get("metric").and_then(Json::as_str),
            Some("responses_hash")
        );

        // Same requests and responses, drifted cycle total.
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("aaaa", "bbbb", 101),
        ];
        assert!(check(&h, &SentinelOptions::default()).failed);
    }

    #[test]
    fn serve_baseline_skips_unrelated_request_mixes() {
        // The comparable baseline is the latest older record with the SAME
        // requests_hash — a different mix in between must not confuse it.
        let h = vec![
            serve_record("aaaa", "bbbb", 100),
            serve_record("9999", "zzzz", 7),
            serve_record("aaaa", "bbbb", 100),
        ];
        assert!(!check(&h, &SentinelOptions::default()).failed);
    }

    #[test]
    fn fresh_serve_mix_is_unchecked_with_bench_but_fails_alone() {
        // Bench records keep CI green while a new serve mix seeds itself…
        let h = vec![
            record("a", 250),
            record("b", 250),
            serve_record("aaaa", "bbbb", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(
            v.json
                .get("serve")
                .and_then(|s| s.get("status"))
                .and_then(Json::as_str),
            Some("unchecked")
        );
        // …but a serve-only history with no baseline is a hard failure.
        let h = vec![serve_record("aaaa", "bbbb", 100)];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-baseline")
        );
    }

    #[test]
    fn serve_drift_fails_even_when_bench_passes() {
        let h = vec![
            record("a", 250),
            serve_record("aaaa", "bbbb", 100),
            record("b", 250),
            serve_record("aaaa", "CCCC", 100),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed, "serve drift alone must fail CI");
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("fail"));
        assert!(
            v.json
                .get("cycle_drift")
                .and_then(Json::as_arr)
                .is_some_and(<[Json]>::is_empty),
            "bench side itself was clean"
        );
    }

    fn backend_record(commit: &str, backend: &str, cycles: u64) -> Json {
        let mut r = record(commit, cycles);
        r.set("backend", backend.into());
        r
    }

    #[test]
    fn baselines_pair_only_within_a_backend() {
        // A superblock record between two interp records must not become
        // the interp baseline (and vice versa), even with equal cycles.
        let h = vec![
            record("a", 250), // legacy record: implicitly interp
            backend_record("b", "superblock", 999),
            backend_record("c", "interp", 250),
        ];
        let v = check(&h, &SentinelOptions::default());
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(
            v.json.get("baseline_commit").and_then(Json::as_str),
            Some("a"),
            "legacy records count as interp"
        );

        // Newest is superblock: only the superblock record can gate it,
        // and there is none older → no-baseline.
        let h = vec![record("a", 250), backend_record("b", "superblock", 250)];
        let v = check(&h, &SentinelOptions::default());
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("no-baseline")
        );
    }

    #[test]
    fn cross_check_gates_backend_equality() {
        // Equal cycles on the same commit: pass.
        let h = vec![
            backend_record("c1", "interp", 250),
            backend_record("c1", "superblock", 250),
        ];
        let v = cross_check(&h);
        assert!(!v.failed, "{}", v.json.write());
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("pass"));
        assert_eq!(
            v.json.get("workloads_checked").and_then(Json::as_u64),
            Some(1)
        );

        // Any cycle difference between the backends fails.
        let h = vec![
            backend_record("c1", "interp", 250),
            backend_record("c1", "superblock", 251),
        ];
        let v = cross_check(&h);
        assert!(v.failed);
        let drift = v.json.get("cycle_drift").and_then(Json::as_arr).unwrap();
        assert!(!drift.is_empty());

        // Records from different commits are incomparable, not "equal".
        let h = vec![
            backend_record("c1", "interp", 250),
            backend_record("c2", "superblock", 250),
        ];
        let v = cross_check(&h);
        assert!(v.failed);
        assert_eq!(
            v.json.get("status").and_then(Json::as_str),
            Some("incomparable")
        );

        // A missing side fails loudly.
        let h = vec![backend_record("c1", "interp", 250)];
        let v = cross_check(&h);
        assert!(v.failed);
        assert_eq!(v.json.get("status").and_then(Json::as_str), Some("no-pair"));
    }

    #[test]
    fn counter_deltas_are_reported() {
        let h = vec![record("a", 250), record("b", 250)];
        let mut h2 = h;
        h2[1].set(
            "counters",
            Json::parse(r#"{"cycles":250,"mcache.hits":7}"#).unwrap(),
        );
        let v = check(&h2, &SentinelOptions::default());
        assert!(!v.failed);
        // "cycles" unchanged; "mcache.hits" has no baseline → not a delta.
        let deltas = v.json.get("counter_deltas").and_then(Json::as_arr).unwrap();
        assert!(deltas.is_empty());
    }
}
