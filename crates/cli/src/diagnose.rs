//! `explain`, `profile` and `diff`: why a program translated (or not),
//! where its cycles went, and what changed between two runs.

use std::fs;

use liquid_simd::ledger::{RegionSnap, Snapshot};
use liquid_simd::MachineConfig;
use liquid_simd_perfhist as perfhist;
use liquid_simd_trace::{export, Json};

use crate::args::{flag, opt, Args, Command, Opt, BACKEND, DEFAULT_HISTORY, HISTORY};
use crate::run::resolve_program;

const JSON: Opt = flag("--json", "emit the JSON document instead of text");

#[rustfmt::skip]
pub static EXPLAIN: Command = Command {
    usage: "explain <prog|workload>",
    about: "per-region translation verdicts at every width, with abort provenance",
    opts: &[
        opt("--widths", "2,4", "widths to explain (default 2,4,8,16)"),
        BACKEND,
        JSON,
        opt("--interrupt-every", "N", "inject an interrupt every N cycles"),
        flag("--all-calls", "also attempt plain `bl` (no `bl.v`) calls"),
    ],
    run: cmd_explain,
};

#[rustfmt::skip]
pub static PROFILE: Command = Command {
    usage: "profile <prog|workload>",
    about: "cycle breakdown: phases, spans, hottest call targets, microcode cache",
    opts: &[
        opt("--lanes", "N", "SIMD width (default 8; 0 = scalar only)"),
        JSON,
        opt("--top", "N", "rows per table (default 10)"),
        opt("--trace-out", "FILE", "also write the Chrome trace with spans"),
    ],
    run: cmd_profile,
};

#[rustfmt::skip]
pub static DIFF: Command = Command {
    usage: "diff [<A@wN|FILE>] [<B@wN|FILE>]",
    about: "explain a cycle delta from the ledger (no sides: the last two records)",
    opts: &[
        BACKEND,
        JSON,
        opt("--out", "FILE", "write the report to FILE instead of stdout"),
        HISTORY,
    ],
    run: cmd_diff,
};

fn cmd_explain(args: &Args) -> Result<(), String> {
    let (program, name) = resolve_program(args.input())?;
    let opts = liquid_simd::ExplainOptions {
        widths: args.widths()?,
        interrupt_every: args.parse_or("--interrupt-every", 0, "an integer", |_| true)?,
        all_calls: args.flag("--all-calls"),
        backend: args.backend()?,
    };
    let report = liquid_simd::explain(&program, &name, &opts).map_err(|e| e.to_string())?;
    if args.flag("--json") {
        print!("{}", liquid_simd::diagnose::explain_json(&report));
    } else {
        print!("{}", liquid_simd::diagnose::render_explain(&report));
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let (program, name) = resolve_program(args.input())?;
    let lanes = args.lanes()?;
    let top = args.count("--top", 10, 1)?;
    let report = liquid_simd::profile(&program, &name, lanes).map_err(|e| e.to_string())?;
    if let Some(path) = args.value("--trace-out") {
        let text = export::chrome_trace_with_spans(&report.records, &report.spans);
        fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "{path}: {} events, {} spans written",
            report.records.len(),
            report.spans.len()
        );
    }
    if args.flag("--json") {
        print!("{}", liquid_simd::diagnose::profile_json(&report, top));
    } else {
        print!("{}", liquid_simd::diagnose::render_profile(&report, top));
    }
    Ok(())
}

/// One side of a `diff`: `<prog|workload>@wN` simulates now and rolls the
/// run's ledger into a counter-corroborated snapshot; anything else must be
/// a history file, whose newest perfhist-v1 record is rolled into one.
fn diff_snapshot(spec: &str, backend: liquid_simd::BackendKind) -> Result<Snapshot, String> {
    if let Some((base, width)) = spec.rsplit_once("@w") {
        if let Ok(w) = width.parse::<usize>() {
            if !liquid_simd_isa::SUPPORTED_WIDTHS.contains(&w) {
                return Err(format!("bad width in `{spec}` (powers of two in 2..=16)"));
            }
            let (program, name) = resolve_program(base)?;
            let label = format!("{name}@w{w}");
            let cfg = MachineConfig::liquid(w).with_backend(backend);
            let out = liquid_simd::run(&program, cfg).map_err(|e| format!("{label}: {e}"))?;
            let names = liquid_simd::ledger_region_labels(&program, &out.report.ledger);
            return Ok(perfhist::counters::ledger_snapshot(
                &label,
                &out.report,
                &names,
            ));
        }
    }
    let path = std::path::Path::new(spec);
    if !path.exists() {
        return Err(format!(
            "`{spec}` is neither `<prog|workload>@wN` nor a history file"
        ));
    }
    let records = perfhist::store::load(path)?;
    let rec = records
        .iter()
        .rev()
        .find(|r| r.get("schema").and_then(Json::as_str) == Some("perfhist-v1"))
        .ok_or_else(|| format!("{spec}: no perfhist-v1 record"))?;
    Ok(record_snapshot(rec, spec))
}

/// Rolls one perfhist-v1 record into a diff-able snapshot: `ledger.*`
/// counters become the category totals, per-workload rows become the
/// regions (with the per-category split when the record was written under
/// `bench --ledger`), and every other deterministic counter rides along as
/// corroborating evidence.
fn record_snapshot(rec: &Json, label: &str) -> Snapshot {
    let commit = rec.get("commit").and_then(Json::as_str).unwrap_or("?");
    let backend = rec.get("backend").and_then(Json::as_str).unwrap_or("?");
    let mut snap = Snapshot {
        label: format!("{label} ({commit}, {backend})"),
        ..Snapshot::default()
    };
    if let Some(pairs) = rec.get("counters").and_then(Json::as_obj) {
        for (k, v) in pairs {
            let Some(v) = v.as_u64() else { continue };
            if let Some(rest) = k.strip_prefix("ledger.") {
                if let Some(cat) = rest.strip_suffix(".cycles") {
                    snap.categories.entry(cat.to_string()).or_default().cycles = v;
                } else if let Some(cat) = rest.strip_suffix(".events") {
                    snap.categories.entry(cat.to_string()).or_default().events = v;
                }
            } else if !k.starts_with("backend.") {
                snap.counters.insert(k.clone(), v);
            }
        }
    }
    if let Some(rows) = rec.get("workloads").and_then(Json::as_arr) {
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let cycles = row.get("sim_cycles").and_then(Json::as_u64).unwrap_or(0);
            snap.total_cycles += cycles;
            let mut r = RegionSnap {
                cycles,
                ..RegionSnap::default()
            };
            if let Some(cats) = row
                .get("ledger")
                .and_then(|l| l.get("categories"))
                .and_then(Json::as_obj)
            {
                for (cat, b) in cats {
                    r.by_category.insert(
                        cat.clone(),
                        b.get("cycles").and_then(Json::as_u64).unwrap_or(0),
                    );
                }
            }
            snap.regions.insert(name, r);
        }
    }
    snap
}

/// `liquid-simd diff`: explain a performance delta from the cycle ledger.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let backend = args.backend()?;
    let (a, b) = match *args.positionals() {
        // No sides: the last two perfhist-v1 records of the history —
        // "what changed since the previous bench run?"
        [] => {
            let history_path = args.value_or("--history", DEFAULT_HISTORY);
            let records = perfhist::store::load(std::path::Path::new(history_path))?;
            let mut v1: Vec<&Json> = records
                .iter()
                .filter(|r| r.get("schema").and_then(Json::as_str) == Some("perfhist-v1"))
                .collect();
            if v1.len() < 2 {
                return Err(format!(
                    "{history_path}: need at least two perfhist-v1 records to diff \
                     (found {})",
                    v1.len()
                ));
            }
            let newest = v1.pop().expect("len checked");
            let previous = v1.pop().expect("len checked");
            (
                record_snapshot(previous, "history[-2]"),
                record_snapshot(newest, "history[-1]"),
            )
        }
        [a, b] => (diff_snapshot(a, backend)?, diff_snapshot(b, backend)?),
        _ => {
            return Err(format!(
                "diff takes zero or two sides, got one\nusage: {}",
                DIFF.help()
            ))
        }
    };
    let d = liquid_simd::ledger::diff::diff(&a, &b);
    let rendered = if args.flag("--json") {
        liquid_simd::ledger::diff::render_json(&d)
    } else {
        liquid_simd::ledger::diff::render_text(&d)
    };
    match args.value("--out") {
        Some(p) => {
            fs::write(p, &rendered).map_err(|e| format!("{p}: {e}"))?;
            println!("{p}: written");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}
