//! `sentinel` and `dashboard`: the regression gate over the performance
//! history and its offline HTML rendering.

use std::fmt::Write as _;
use std::fs;

use liquid_simd_perfhist as perfhist;
use liquid_simd_trace::{export, Json};

use crate::args::{flag, opt, Args, Command, DEFAULT_HISTORY, HISTORY};
use crate::run::resolve_program;

#[rustfmt::skip]
pub static SENTINEL: Command = Command {
    usage: "sentinel",
    about: "regression gate: sim cycles must equal the last comparable record's",
    opts: &[
        opt("--baseline", "REF", "compare against this commit's record"),
        flag("--json", "emit the sentinel-v1 verdict document"),
        HISTORY,
        flag("--cross-backend", "gate that interp and superblock records agree"),
    ],
    run: cmd_sentinel,
};

#[rustfmt::skip]
pub static DASHBOARD: Command = Command {
    usage: "dashboard",
    about: "render the history as one self-contained HTML file",
    opts: &[
        opt("--out", "FILE", "output file (default report.html)"),
        HISTORY,
        opt("--flame", "WORKLOAD", "workload of the flamegraph (default fir)"),
        opt("--flight-dir", "DIR", "fold the flight-v1 dumps in DIR in"),
        opt("--snapshot", "FILE", "embed a metrics-v1 snapshot (inspect --raw)"),
    ],
    run: cmd_dashboard,
};

/// `sentinel`: gate the newest bench record against its baseline, which
/// pairs records only within a backend — or, with `--cross-backend`, gate
/// that the newest interp and superblock records (same commit, same
/// config) agree on every deterministic cycle count.
fn cmd_sentinel(args: &Args) -> Result<(), String> {
    let history_path = args.value_or("--history", DEFAULT_HISTORY);
    let history = perfhist::store::load(std::path::Path::new(history_path))?;
    let cross = args.flag("--cross-backend");
    let verdict = if cross {
        perfhist::cross_check(&history)
    } else {
        let opts = perfhist::SentinelOptions {
            baseline_commit: args.value("--baseline").map(str::to_string),
        };
        perfhist::sentinel::check(&history, &opts)
    };
    let v = &verdict.json;
    if args.flag("--json") {
        println!("{}", v.write());
    } else {
        print!("{}", verdict_text(v, cross));
    }
    if !verdict.failed {
        return Ok(());
    }
    let why = match (cross, text(v, "status")) {
        (false, "no-history") => perfhist::sentinel::NO_HISTORY,
        (false, "no-baseline") => perfhist::sentinel::NO_BASELINE,
        (false, _) => {
            "deterministic results drifted from the baseline (bench cycle counts or serve \
             determinism hashes)"
        }
        (true, "no-pair") => {
            "need one bench record from each backend — run `liquid-simd bench` and \
             `liquid-simd bench --backend superblock`"
        }
        (true, "incomparable") => {
            "the newest interp and superblock records are from different commits or configs \
             — re-run both benches on the same tree"
        }
        (true, _) => {
            "superblock sim cycles diverged from the interpreter (the backends must be \
             bit-exact)"
        }
    };
    let mode = if cross { " --cross-backend" } else { "" };
    Err(format!("sentinel{mode}: {why}"))
}

/// The string at `key`, or `?`.
fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// The integer at `key`, or 0.
fn num(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The value at `key` as JSON text, or `?`.
fn raw(v: &Json, key: &str) -> String {
    v.get(key).map_or_else(|| "?".to_string(), Json::write)
}

/// The array at `key`, or nothing.
fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// Human rendering of a `sentinel-v1` verdict document, or with `cross` of
/// a `sentinel-cross-v1` one. Each cycle-drift line is followed by the
/// ledger causes the verdict names for it.
pub fn verdict_text(v: &Json, cross: bool) -> String {
    let mut out = String::new();
    if cross {
        let _ = writeln!(
            out,
            "sentinel --cross-backend: {} (interp {}, superblock {}, {} workloads checked)",
            text(v, "status"),
            text(v, "interp_commit"),
            text(v, "superblock_commit"),
            num(v, "workloads_checked"),
        );
    } else {
        let _ = writeln!(
            out,
            "sentinel: {} (commit {}, baseline {}, {} workloads checked)",
            text(v, "status"),
            text(v, "commit"),
            text(v, "baseline_commit"),
            num(v, "workloads_checked"),
        );
    }
    for d in items(v, "cycle_drift") {
        let (workload, metric) = (text(d, "workload"), text(d, "metric"));
        let _ = if cross {
            let (interp, superblock) = (raw(d, "interp"), raw(d, "superblock"));
            writeln!(
                out,
                "  DRIFT {workload} {metric}: interp {interp} vs superblock {superblock}"
            )
        } else {
            let (baseline, current) = (num(d, "baseline"), num(d, "current"));
            writeln!(out, "  DRIFT {workload} {metric}: {baseline} -> {current}")
        };
        for c in items(d, "ledger") {
            let delta = raw(c, "delta");
            let sign = if delta.starts_with('-') { "" } else { "+" };
            let (region, category) = (text(c, "region"), text(c, "category"));
            let _ = writeln!(out, "    {sign}{delta} {region} {category}");
        }
    }
    let deltas = items(v, "counter_deltas");
    if !deltas.is_empty() {
        let _ = writeln!(
            out,
            "  {} counter(s) changed vs baseline (informational):",
            deltas.len()
        );
        for d in deltas.iter().take(10) {
            let (counter, baseline) = (text(d, "counter"), num(d, "baseline"));
            let _ = writeln!(out, "    {counter} {baseline} -> {}", num(d, "current"));
        }
        if deltas.len() > 10 {
            let _ = writeln!(out, "    … and {} more", deltas.len() - 10);
        }
    }
    if let Some(serve) = v.get("serve") {
        let _ = writeln!(
            out,
            "  serve: {} ({} serve records, requests {})",
            text(serve, "status"),
            num(serve, "records"),
            serve
                .get("requests_hash")
                .and_then(Json::as_str)
                .unwrap_or("-"),
        );
        for d in items(serve, "drift") {
            let (metric, baseline) = (text(d, "metric"), raw(d, "baseline"));
            let _ = writeln!(
                out,
                "  SERVE DRIFT {metric}: {baseline} -> {}",
                raw(d, "current")
            );
        }
    }
    out
}

fn cmd_dashboard(args: &Args) -> Result<(), String> {
    let history_path = args.value_or("--history", DEFAULT_HISTORY);
    let out = args.value_or("--out", "report.html");
    let flame_workload = args.value_or("--flame", "fir");
    let history = if std::path::Path::new(history_path).exists() {
        perfhist::store::load(std::path::Path::new(history_path))?
    } else {
        Vec::new()
    };
    // A traced run of one workload supplies the flamegraph: its span
    // records fold into `track;parent;child self_cycles` stacks.
    let (program, name) = resolve_program(flame_workload)?;
    let prof = liquid_simd::profile(&program, &name, 8).map_err(|e| e.to_string())?;
    let folded = export::folded_stacks(&prof.spans);
    // Optional observability panels: every flight-v1 dump under
    // --flight-dir (sorted by file name, i.e. dump order) and one
    // metrics-v1 snapshot file (an `inspect` response line works as-is).
    let mut dumps: Vec<(String, String)> = Vec::new();
    if let Some(dir) = args.value("--flight-dir") {
        let entries = fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
            let file = entry.file_name().to_string_lossy().into_owned();
            if !file.ends_with(".jsonl") {
                continue;
            }
            let text = fs::read_to_string(entry.path())
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
            dumps.push((file, text));
        }
        dumps.sort();
    }
    let snapshot = match args.value("--snapshot") {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?)
        }
    };
    let html = perfhist::dashboard::render_extended(&history, &folded, &dumps, snapshot.as_ref());
    fs::write(out, &html).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{out}: written ({} history records, {} flame frames from {name}, {} flight dumps, \
         {} bytes, self-contained)",
        history.len(),
        folded.lines().count(),
        dumps.len(),
        html.len()
    );
    Ok(())
}
