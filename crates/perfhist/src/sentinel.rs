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

use liquid_simd_ledger::diff::diff;
use liquid_simd_ledger::Snapshot;

use crate::record::{self, WorkloadRow, SERVE_SCHEMA};
use crate::Json;

/// Why the gate fails on a history without a bench record.
pub const NO_HISTORY: &str = "no history — run `liquid-simd bench` to seed bench/history.jsonl";

/// Why the gate fails when the newest bench record has no comparable
/// baseline.
pub const NO_BASELINE: &str = "no comparable baseline record (config hash, width sweep, or \
                               smoke set changed) — re-seed bench/history.jsonl to \
                               acknowledge the change";

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
        let status = if failed { "no-baseline" } else { "unchecked" };
        verdict.set("status", status.into());
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
    verdict.set("status", pass_fail(failed));
    verdict.set("requests_hash", req_hash.unwrap_or("?").into());
    verdict.set("drift", Json::Arr(drift));
    Some((verdict, failed))
}

/// `"fail"` or `"pass"`.
fn pass_fail(failed: bool) -> Json {
    if failed { "fail" } else { "pass" }.into()
}

fn comparable(newest: &Json, candidate: &Json) -> bool {
    // Backends must agree cycle-for-cycle, and [`cross_check`] is the gate
    // that says whether they do. Baselines pair within a backend so that
    // `check` only ever reports code drift: a backend divergence shows up
    // once, in `cross_check`, naming both backends, rather than as drift
    // against whichever backend happened to run last.
    record::backend(newest) == record::backend(candidate)
        && ["config_hash", "smoke", "widths"]
            .into_iter()
            .all(|key| newest.get(key) == candidate.get(key))
}

/// The baseline the newest of `records` (`perfhist-v1` records, oldest
/// first) is compared against, as an index into `records`: the latest
/// older record with the same backend, config hash, smoke set and widths,
/// and from `opts.baseline_commit` when that is set. The sentinel, `diff`
/// with no sides and the dashboard all pair records through this.
#[must_use]
pub fn baseline(records: &[&Json], opts: &SentinelOptions) -> Option<usize> {
    let (newest, older) = records.split_last()?;
    let want = opts.baseline_commit.as_deref();
    older
        .iter()
        .rposition(|r| comparable(newest, r) && want.is_none_or(|want| record::commit(r) == want))
}

/// Up to three `(region, category, delta)` rows naming where a workload's
/// headline-width cycles moved, from the diff of the two rows' ledgers.
fn ledger_causes(base: &Snapshot, cur: &Snapshot) -> Vec<Json> {
    let cycles = |s: &Snapshot, region: &str, cat: &str| {
        let r = s.regions.get(region);
        r.and_then(|r| r.by_category.get(cat)).copied().unwrap_or(0)
    };
    let d = diff(base, cur);
    let moved = d.regions.iter().filter_map(|r| {
        let cat = r.top_category.as_deref()?;
        let (b, c) = (cycles(base, &r.name, cat), cycles(cur, &r.name, cat));
        let delta = i64::try_from(i128::from(c) - i128::from(b)).unwrap_or(i64::MAX);
        Some(Json::obj([
            ("region", (&r.name).into()),
            ("category", cat.into()),
            ("delta", delta.into()),
        ]))
    });
    moved.take(3).collect()
}

/// Every deterministic cycle count of one workload on which `cur` differs
/// from `base`, one `{workload, metric, <side>, <side>}` entry each with
/// `sides` naming the two values: `sim_cycles` (with the ledger causes
/// when both rows carry a ledger), `baseline_cycles`, then every width
/// both rows swept.
fn row_drift(base: &WorkloadRow, cur: &WorkloadRow, sides: [&str; 2]) -> Vec<Json> {
    let entry = |metric: String, b: u64, c: u64| {
        (b != c).then(|| {
            Json::obj([
                ("workload", (&cur.name).into()),
                ("metric", metric.into()),
                (sides[0], b.into()),
                (sides[1], c.into()),
            ])
        })
    };
    let mut out = Vec::new();
    if let Some(mut sim) = entry("sim_cycles".to_string(), base.sim_cycles, cur.sim_cycles) {
        if let (Some(b), Some(c)) = (&base.ledger, &cur.ledger) {
            sim.set("ledger", Json::Arr(ledger_causes(b, c)));
        }
        out.push(sim);
    }
    out.extend(entry(
        "baseline_cycles".to_string(),
        base.baseline_cycles,
        cur.baseline_cycles,
    ));
    out.extend(cur.cycles_by_width.iter().filter_map(|&(width, c)| {
        let &(_, b) = base.cycles_by_width.iter().find(|&&(w, _)| w == width)?;
        entry(format!("cycles_by_width.{width}"), b, c)
    }));
    out
}

/// Runs the sentinel over a loaded history (file order: oldest first).
#[must_use]
pub fn check(history: &[Json], opts: &SentinelOptions) -> Verdict {
    let records = record::bench_records(history);
    let serve_records: Vec<&Json> = history.iter().filter(|r| is_serve(r)).collect();
    let serve = serve_check(&serve_records, !records.is_empty());
    let Some(&newest) = records.last() else {
        if let Some((serve_json, serve_failed)) = serve {
            // Serve-only history: the serve gate is the whole verdict.
            let status = match serve_json.get("status").and_then(Json::as_str) {
                Some("no-baseline") => "no-baseline".into(),
                _ => pass_fail(serve_failed),
            };
            let mut json = Json::obj([("schema", "sentinel-v1".into()), ("status", status)]);
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
    let commit = record::commit(newest);
    let mut json = Json::obj([("schema", "sentinel-v1".into()), ("commit", commit.into())]);
    let Some(reference) = baseline(&records, opts).map(|i| records[i]) else {
        // No comparable record: the config hash, width sweep, or smoke
        // set changed (or the only record is the newest one). Fail loudly
        // — a green job here would mean the gate silently turned itself
        // off; a deliberate config change re-seeds bench/history.jsonl.
        json.set("status", "no-baseline".into());
        if let Some((serve_json, _)) = serve {
            json.set("serve", serve_json);
        }
        return Verdict { json, failed: true };
    };
    json.set("baseline_commit", record::commit(reference).into());

    // --- Exact-match gate on deterministic cycles --------------------------
    let base_rows = record::rows(reference);
    let mut drift: Vec<Json> = Vec::new();
    let mut checked = 0u64;
    for row in record::rows(newest) {
        // A new workload has nothing to gate against.
        if let Some(base) = base_rows.iter().find(|b| b.name == row.name) {
            checked += 1;
            drift.extend(row_drift(base, &row, ["baseline", "current"]));
        }
    }

    // --- Counter deltas (informational) ------------------------------------
    // The counters `diff` reports for the same pair, less the ones only
    // one record carries.
    let (a, b) = (
        record::snapshot(reference, "baseline"),
        record::snapshot(newest, "current"),
    );
    let deltas = diff(&a, &b)
        .counters
        .into_iter()
        .filter(|c| a.counters.contains_key(&c.name) && b.counters.contains_key(&c.name));
    let deltas = deltas.map(|c| {
        Json::obj([
            ("counter", c.name.into()),
            ("baseline", c.a.into()),
            ("current", c.b.into()),
        ])
    });

    let (serve_json, serve_failed) = match serve {
        Some((j, f)) => (Some(j), f),
        None => (None, false),
    };
    let failed = !drift.is_empty() || serve_failed;
    json.set("status", pass_fail(failed));
    json.set("workloads_checked", Json::u64(checked));
    json.set("cycle_drift", Json::Arr(drift));
    json.set("counter_deltas", Json::arr(deltas));
    if let Some(j) = serve_json {
        json.set("serve", j);
    }
    Verdict { json, failed }
}

/// The cross-backend gate (`sentinel --cross-backend`): execution
/// backends are required to be observationally identical, so the newest
/// interpreter record and the newest superblock record must agree
/// *exactly* on every deterministic cycle count. Both records must come
/// from the same commit and the same config/smoke/width sweep — comparing
/// across code versions would report version drift as backend drift.
#[must_use]
pub fn cross_check(history: &[Json]) -> Verdict {
    let records = record::bench_records(history);
    let newest_of = |name: &str| {
        records
            .iter()
            .rev()
            .find(|r| record::backend(r) == name)
            .copied()
    };
    let mut json = Json::obj([("schema", "sentinel-cross-v1".into())]);
    let (Some(interp), Some(superblock)) = (newest_of("interp"), newest_of("superblock")) else {
        // The gate needs one record from each backend; a missing side must
        // fail loudly (a green job here would mean the equality gate
        // silently turned itself off).
        json.set("status", "no-pair".into());
        return Verdict { json, failed: true };
    };
    for (side, r) in [("interp", interp), ("superblock", superblock)] {
        json.set(&format!("{side}_commit"), record::commit(r).into());
    }
    let mismatched: Vec<&str> = ["commit", "config_hash", "smoke", "widths"]
        .into_iter()
        .filter(|key| interp.get(key) != superblock.get(key))
        .collect();
    if !mismatched.is_empty() {
        json.set("status", "incomparable".into());
        json.set("mismatched", Json::arr(mismatched));
        return Verdict { json, failed: true };
    }

    let interp_rows = record::rows(interp);
    let mut drift: Vec<Json> = Vec::new();
    let mut checked = 0u64;
    for row in record::rows(superblock) {
        let Some(base) = interp_rows.iter().find(|b| b.name == row.name) else {
            drift.push(Json::obj([
                ("workload", (&row.name).into()),
                ("metric", "missing-in-interp".into()),
            ]));
            continue;
        };
        checked += 1;
        drift.extend(row_drift(base, &row, ["interp", "superblock"]));
    }
    // Zero overlapping workloads means nothing was actually gated.
    let failed = !drift.is_empty() || checked == 0;
    json.set("status", pass_fail(failed));
    json.set("workloads_checked", Json::u64(checked));
    json.set("cycle_drift", Json::Arr(drift));
    Verdict { json, failed }
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
        // Rows without a ledger gate on their totals alone.
        assert!(drift[0].get("ledger").is_none());
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
