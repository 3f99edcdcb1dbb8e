//! `serve`, `inspect` and `top`: the batched simulation daemon and its
//! two live observers.

use std::collections::BTreeMap;
use std::time::Instant;

use liquid_simd_serve as serve;
use liquid_simd_trace::{Histogram, Json};

use crate::args::{flag, opt, Args, Command, Opt, DEFAULT_HISTORY};

const DEFAULT_ADDR: &str = "127.0.0.1:7070";

const ADDR: Opt = opt("--addr", "A", "daemon address (default 127.0.0.1:7070)");

#[rustfmt::skip]
pub static SERVE: Command = Command {
    usage: "serve",
    about: "simulation daemon: line-delimited serve-v1 JSON over TCP",
    opts: &[
        opt("--addr", "A", "bind address (default 127.0.0.1:7070)"),
        opt("--shards", "N", "worker shards (default min(cores, 8))"),
        opt("--backend", "B", "backend to simulate with (default interp)"),
        opt("--history", "FILE", "batch telemetry (default bench/history.jsonl)"),
        flag("--no-history", "write no batch telemetry"),
        opt("--history-every", "N", "a batch record every N requests (default 64)"),
        opt("--flight-capacity", "N", "flight ring per shard (default 4096; 0 = off)"),
        opt("--flight-dir", "DIR", "where black-box dumps go (default: none)"),
        opt("--burst-threshold", "N", "budget errors in a row that dump (default 8)"),
        opt("--cache-cap", "N", "translation-cache entries (default 0 = unbounded)"),
        flag("--inject-faults", "honor the test-only `inject` request field"),
    ],
    run: cmd_serve,
};

#[rustfmt::skip]
pub static INSPECT: Command = Command {
    usage: "inspect",
    about: "one metrics-v1 snapshot from a live daemon, as text",
    opts: &[
        ADDR,
        flag("--raw", "print the JSON line instead"),
        flag("--scrub", "print schedule-scrubbed JSON, for byte-comparing"),
    ],
    run: cmd_inspect,
};

#[rustfmt::skip]
pub static TOP: Command = Command {
    usage: "top",
    about: "live view over inspect: throughput, latency, cache hits, aborts",
    opts: &[
        ADDR,
        opt("--interval", "SECS", "seconds between redraws (default 2)"),
        opt("--count", "N", "stop after N frames (default: never)"),
        flag("--once", "one frame, no escape codes"),
    ],
    run: cmd_top,
};

/// `liquid-simd serve`: bind the daemon and block until a `shutdown`
/// request (or a bind/accept failure) stops it.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let shards = args.count("--shards", liquid_simd::default_jobs().clamp(1, 8), 1)?;
    let history_path = args.value_or("--history", DEFAULT_HISTORY);
    let defaults = serve::ServeOptions::default();
    let opts = serve::ServeOptions {
        addr: args.value_or("--addr", DEFAULT_ADDR).to_string(),
        shards,
        history: (!args.flag("--no-history")).then(|| std::path::PathBuf::from(history_path)),
        history_every: args.count("--history-every", defaults.history_every, 1)?,
        // The daemon's own default backend (the interpreter), not the
        // simulator's: `explain` replies carry the backend name and block
        // stats, and perfbench's `serve` workload checks them against an
        // interpreter replay.
        backend: args.backend_or(defaults.backend)?,
        flight_capacity: args.count("--flight-capacity", defaults.flight_capacity, 0)?,
        flight_dir: args.value("--flight-dir").map(std::path::PathBuf::from),
        inject_faults: args.flag("--inject-faults"),
        burst_threshold: args.parse_or(
            "--burst-threshold",
            defaults.burst_threshold,
            "an integer >= 1",
            |n| *n >= 1,
        )?,
        cache_capacity: args.count("--cache-cap", defaults.cache_capacity, 0)?,
    };
    if opts.inject_faults {
        eprintln!("liquid-simd serve: --inject-faults is on (test-only crash drills enabled)");
    }
    let handle = serve::spawn(opts)?;
    println!(
        "liquid-simd serve: listening on {} ({shards} shards) — line-delimited JSON, \
         {} to stop",
        handle.addr,
        Json::obj([("op", "shutdown".into())]).write()
    );
    let summary = handle.join()?;
    println!(
        "liquid-simd serve: {} requests ({} errors), cache {} hits / {} misses, \
         {} history records, {} flight dumps",
        summary.requests,
        summary.errors,
        summary.cache_hits,
        summary.cache_misses,
        summary.records_appended,
        summary.dumps
    );
    Ok(())
}

/// Sends one line-JSON request to a running daemon and parses the single
/// response line. `inspect` and `top` are pure observers, so a blocking
/// round-trip per poll is plenty.
pub fn serve_request(addr: &str, line: &str) -> Result<Json, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("connect {addr}: {e} (is `liquid-simd serve` running?)"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("{addr}: send: {e}"))?;
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .map_err(|e| format!("{addr}: recv: {e}"))?;
    if resp.trim().is_empty() {
        return Err(format!(
            "{addr}: daemon closed the connection without answering"
        ));
    }
    Json::parse(resp.trim_end()).map_err(|e| format!("{addr}: bad response: {e}"))
}

/// Fetches one `metrics-v1` document from a daemon's `inspect` op.
pub fn fetch_metrics(addr: &str) -> Result<Json, String> {
    let resp = serve_request(addr, &Json::obj([("op", "inspect".into())]).write())?;
    match resp.get("metrics") {
        Some(m) => Ok(m.clone()),
        None => Err(format!(
            "{addr}: unexpected inspect response: {}",
            resp.write()
        )),
    }
}

/// Reads the value at a dotted path through nested JSON objects with
/// `read`; absent or mistyped → the default.
fn path<T: Default>(doc: &Json, keys: &[&str], read: fn(&Json) -> Option<T>) -> T {
    keys.iter()
        .try_fold(doc, |cur, key| cur.get(key))
        .and_then(read)
        .unwrap_or_default()
}

/// One text frame over a `metrics-v1` document — shared by `inspect`
/// (one shot, with the full counter table) and `top` (redrawn per poll,
/// with a throughput line computed from the previous poll).
pub fn render_metrics_frame(
    out: &mut String,
    addr: &str,
    m: &Json,
    throughput: Option<f64>,
    counters_table: bool,
) {
    use std::fmt::Write;
    let backend = m.get("backend").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "liquid-simd @ {addr} — backend {backend}, {} shards, up {:.1}s",
        path(m, &["shards"], Json::as_u64),
        path(m, &["uptime_us"], Json::as_u64) as f64 / 1e6
    );
    let by_op = m
        .get("requests")
        .and_then(|r| r.get("by_op"))
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let _ = write!(
        out,
        "requests   {} total ({} errors)",
        path(m, &["requests", "total"], Json::as_u64),
        path(m, &["requests", "errors"], Json::as_u64)
    );
    if let Some(rps) = throughput {
        let _ = write!(out, "   throughput {rps:.1} req/s");
    }
    out.push('\n');
    if !by_op.is_empty() {
        let _ = writeln!(out, "ops        {by_op}");
    }
    for (label, name, unit) in [
        ("latency", "wall.latency_us", "us"),
        ("cycles", "request.cycles", ""),
    ] {
        let Some(h) = m
            .get("histograms")
            .and_then(|hs| hs.get(name))
            .and_then(Histogram::from_json)
        else {
            continue;
        };
        let _ = writeln!(
            out,
            "{label:<10} p50 <={}{unit}  p95 <={}{unit}  p99 <={}{unit}  max {}{unit}  \
             ({} samples)",
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.max(),
            h.count()
        );
    }
    let cap = path(m, &["cache", "translations", "capacity"], Json::as_u64);
    let _ = writeln!(
        out,
        "cache      {:.1}% hit rate ({} hits / {} misses), {} entries{}, generation {}, \
         {} evictions, {} cached builds",
        path(m, &["cache", "translations", "hit_rate"], Json::as_f64) * 100.0,
        path(m, &["cache", "translations", "hits"], Json::as_u64),
        path(m, &["cache", "translations", "misses"], Json::as_u64),
        path(m, &["cache", "translations", "entries"], Json::as_u64),
        if cap == 0 {
            " (unbounded)".to_string()
        } else {
            format!(" (cap {cap})")
        },
        path(m, &["cache", "translations", "generation"], Json::as_u64),
        path(m, &["cache", "translations", "evictions"], Json::as_u64),
        path(m, &["cache", "builds"], Json::as_u64)
    );
    let _ = writeln!(
        out,
        "flight     {} events (cap {}), {} dropped, {} contended",
        path(m, &["flight", "events"], Json::as_u64),
        path(m, &["flight", "capacity"], Json::as_u64),
        path(m, &["flight", "dropped"], Json::as_u64),
        path(m, &["flight", "contended"], Json::as_u64)
    );
    // The merged shard counters: abort-reason tallies
    // (`sim.translator.abort.<reason>`, why regions fell back to scalar),
    // the per-backend cycle split (`sim.backend.<name>.cycles` / `.runs`)
    // and the ledger's category cycles (`sim.ledger.<category>.cycles`,
    // scrub-stable at any shard count because the shards sum).
    let counters: BTreeMap<String, u64> = m
        .get("counters")
        .and_then(Json::as_obj)
        .map(|pairs| {
            let value = |v: &Json| v.as_u64().unwrap_or(0);
            pairs.iter().map(|(k, v)| (k.clone(), value(v))).collect()
        })
        .unwrap_or_default();
    let tally = |prefix: &str, suffix: &str| {
        let parts: Vec<String> = counters
            .iter()
            .filter(|&(_, &v)| v > 0)
            .filter_map(|(k, v)| {
                Some(format!(
                    "{}={v}",
                    k.strip_prefix(prefix)?.strip_suffix(suffix)?
                ))
            })
            .collect();
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    };
    let _ = writeln!(out, "aborts     {}", tally("sim.translator.abort.", ""));
    let mut backends: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (k, &v) in &counters {
        let Some(rest) = k.strip_prefix("sim.backend.") else {
            continue;
        };
        if let Some(name) = rest.strip_suffix(".cycles") {
            backends.entry(name).or_default().0 = v;
        } else if let Some(name) = rest.strip_suffix(".runs") {
            backends.entry(name).or_default().1 = v;
        }
    }
    let split = backends
        .iter()
        .map(|(name, &(cycles, runs))| format!("{name} {cycles} cycles / {runs} runs"))
        .collect::<Vec<_>>()
        .join("   ");
    let _ = writeln!(
        out,
        "backends   {}",
        if split.is_empty() { "none" } else { &split }
    );
    let _ = writeln!(out, "ledger     {}", tally("sim.ledger.", ".cycles"));
    if counters_table && m.get("counters").is_some() {
        out.push_str("counters\n");
        out.push_str(&liquid_simd::render_counter_table(&counters));
    }
}

/// `liquid-simd inspect`: one `metrics-v1` snapshot, rendered for humans
/// (or raw/scrubbed JSON for scripts and byte-comparisons).
fn cmd_inspect(args: &Args) -> Result<(), String> {
    let addr = args.value_or("--addr", DEFAULT_ADDR);
    let metrics = fetch_metrics(addr)?;
    if args.flag("--raw") {
        println!("{}", metrics.write());
        return Ok(());
    }
    if args.flag("--scrub") {
        println!("{}", serve::inspect::scrub(&metrics).write());
        return Ok(());
    }
    let mut frame = String::new();
    render_metrics_frame(&mut frame, addr, &metrics, None, true);
    print!("{frame}");
    Ok(())
}

/// `liquid-simd top`: poll `inspect` and redraw a plain-ANSI terminal
/// frame — throughput from the delta between polls, p50/p95/p99, cache
/// hit rate, abort tallies.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args.value_or("--addr", DEFAULT_ADDR);
    let interval = args.parse_or("--interval", 2.0, "seconds > 0", |&s: &f64| s > 0.0)?;
    let once = args.flag("--once");
    // 0 polls until the daemon goes away (or ctrl-c).
    let frames = if once {
        1
    } else {
        args.count("--count", 0, 1)?
    };
    let mut prev: Option<(Instant, u64)> = None;
    let mut drawn = 0usize;
    loop {
        let metrics = fetch_metrics(addr)?;
        let now = Instant::now();
        let total = path(&metrics, &["requests", "total"], Json::as_u64);
        let throughput = prev.map(|(t0, n0)| {
            let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
            total.saturating_sub(n0) as f64 / dt
        });
        prev = Some((now, total));
        let mut frame = String::new();
        render_metrics_frame(&mut frame, addr, &metrics, throughput, false);
        if once {
            // A single frame with no escape codes: pipeline-friendly.
            print!("{frame}");
        } else {
            // Home + clear-to-end keeps the redraw flicker-free on any
            // ANSI terminal; no raw mode, no external TUI machinery.
            print!("\x1b[H\x1b[2J{frame}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        drawn += 1;
        if frames != 0 && drawn >= frames {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}
