//! `explain`, `profile` and `diff`: why a program translated (or not),
//! where its cycles went, and what changed between two runs.

use std::fs;

use liquid_simd::ledger::Snapshot;
use liquid_simd::{MachineConfig, TraceConfig};
use liquid_simd_perfhist as perfhist;
use liquid_simd_trace::export;

use crate::args::{flag, opt, Args, Command, Opt, BACKEND, DEFAULT_HISTORY, HISTORY};
use crate::run::{config_from, native_lanes, resolve_program, JIT, LANES, NATIVE};

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
    about: "traced run: counters, spans, hottest call targets, microcode cache",
    opts: &[
        LANES,
        BACKEND,
        NATIVE,
        JIT,
        JSON,
        opt("--top", "N", "rows per table (default 10)"),
        opt("--trace-out", "FILE", "also write the events (.json: Chrome trace with spans)"),
        flag("--instructions", "also record every retired instruction"),
    ],
    run: cmd_profile,
};

#[rustfmt::skip]
pub static DIFF: Command = Command {
    usage: "diff [<A@wN|FILE>] [<B@wN|FILE>]",
    about: "explain a cycle delta from the ledger (no sides: newest record vs its baseline)",
    opts: &[
        BACKEND,
        JSON,
        opt("--out", "FILE", "write the report to FILE instead of stdout"),
        HISTORY,
    ],
    run: cmd_diff,
};

fn cmd_explain(args: &Args) -> Result<(), String> {
    let (program, name) = resolve_program(args.input(), None)?;
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

/// `profile`: the one traced run. Prints the run's counters and its span,
/// call-target and microcode-cache tables; `--trace-out` also writes the
/// recorded events, as a Chrome trace with the run's spans for `.json`
/// paths (loadable in Perfetto / chrome://tracing), JSON lines otherwise.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let top = args.count("--top", 10, 1)?;
    let report = traced_run(args)?;
    if let Some(path) = args.value("--trace-out") {
        let (text, spans) = if path.ends_with(".json") {
            let text = export::chrome_trace(&report.records, &report.spans);
            (text, report.spans.len())
        } else {
            (export::json_lines(&report.records), 0)
        };
        fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "{path}: {} events and {spans} spans written, {} events dropped by ring capacity",
            report.records.len(),
            report.dropped
        );
    }
    if args.flag("--json") {
        print!("{}", liquid_simd::diagnose::profile_json(&report, top));
    } else {
        print!("{}", liquid_simd::diagnose::render_profile(&report, top));
    }
    Ok(())
}

/// The traced run behind `profile`: a workload name with `--native`
/// runs its native build.
pub fn traced_run(args: &Args) -> Result<liquid_simd::ProfileReport, String> {
    let (program, name) = resolve_program(args.input(), native_lanes(args)?)?;
    let trace = TraceConfig {
        instructions: args.flag("--instructions"),
        ..TraceConfig::default()
    };
    liquid_simd::profile(&program, &name, config_from(args)?, trace).map_err(|e| e.to_string())
}

/// One side of a `diff`: `<prog|workload>@wN` simulates now and rolls the
/// run's ledger into a counter-corroborated snapshot; anything else must be
/// a history file, whose newest perfhist-v1 record is rolled into one and
/// returned beside it.
fn diff_snapshot(
    spec: &str,
    backend: liquid_simd::BackendKind,
) -> Result<(Snapshot, Option<perfhist::Json>), String> {
    if let Some((base, width)) = spec.rsplit_once("@w") {
        if let Ok(w) = width.parse::<usize>() {
            if !liquid_simd_isa::SUPPORTED_WIDTHS.contains(&w) {
                return Err(format!("bad width in `{spec}` (powers of two in 2..=16)"));
            }
            let (program, name) = resolve_program(base, None)?;
            let label = format!("{name}@w{w}");
            let cfg = MachineConfig::liquid(w).with_backend(backend);
            let (report, _) =
                liquid_simd::simulate(&program, cfg, &[]).map_err(|e| format!("{label}: {e}"))?;
            let names = liquid_simd::ledger_region_labels(&program, &report.ledger);
            let snap = perfhist::counters::ledger_snapshot(&label, &report, &names);
            return Ok((snap, None));
        }
    }
    let path = std::path::Path::new(spec);
    if !path.exists() {
        return Err(format!(
            "`{spec}` is neither `<prog|workload>@wN` nor a history file"
        ));
    }
    let records = perfhist::store::load(path)?;
    let rec = perfhist::record::bench_records(&records)
        .pop()
        .ok_or_else(|| format!("{spec}: no perfhist-v1 record"))?;
    Ok((perfhist::record::snapshot(rec, spec), Some(rec.clone())))
}

/// `liquid-simd diff`: explain a performance delta from the cycle ledger.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let backend = args.backend()?;
    let (a, b) = match *args.positionals() {
        // No sides: the newest perfhist-v1 record against the baseline
        // the sentinel gates it on — "what changed since the comparable
        // bench run?" Each side is labelled by its place from the end.
        [] => {
            let history_path = args.value_or("--history", DEFAULT_HISTORY);
            let history = perfhist::store::load(std::path::Path::new(history_path))?;
            let records = perfhist::record::bench_records(&history);
            let why = if records.is_empty() {
                perfhist::sentinel::NO_HISTORY
            } else {
                perfhist::sentinel::NO_BASELINE
            };
            let base =
                perfhist::sentinel::baseline(&records, &perfhist::SentinelOptions::default())
                    .ok_or_else(|| format!("{history_path}: {why}"))?;
            let label = format!("history[-{}]", records.len() - base);
            (
                perfhist::record::snapshot(records[base], &label),
                perfhist::record::snapshot(records[records.len() - 1], "history[-1]"),
            )
        }
        // Two records must be comparable by the rule the sentinel picks
        // its baseline with.
        [a, b] => {
            let (sa, ra) = diff_snapshot(a, backend)?;
            let (sb, rb) = diff_snapshot(b, backend)?;
            if let (Some(ra), Some(rb)) = (ra, rb) {
                let keys = perfhist::sentinel::incomparable_keys(&ra, &rb);
                if !keys.is_empty() {
                    return Err(format!(
                        "`{a}` and `{b}`: the newest records differ in {}, so they \
                         are not comparable",
                        keys.join(", ")
                    ));
                }
            }
            (sa, sb)
        }
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
