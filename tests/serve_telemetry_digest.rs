//! Every surface that reports the serve daemon's counts, pinned and
//! cross-checked:
//!
//! - one digest over the `stats` reply, the `inspect` snapshot, every
//!   `perfhist-serve-v1` batch record and the exit `ServeSummary` of a
//!   fixed sequential load, so a refactor of where the daemon counts can
//!   prove it moved no field and no value;
//! - a concurrent 4-shard load after which the views must agree with
//!   each other: `stats` totals with its `per_shard` entries, `inspect`
//!   with `stats`, the batch records with the summary, and cache lookups
//!   with shard-answered requests.
//!
//! Only wall-clock and host fields are left out of the digest:
//! `uptime_us`, the `wall.*` histograms, and each record's `commit`,
//! `timestamp` and `host`. A change that is meant to move a count updates
//! the pinned digest in the same commit and says why.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use liquid_simd_repro::serve::{fnv1a, ServeOptions, ServeSummary};
use liquid_simd_repro::trace::Json;

const PINNED: u64 = 0x6a72_e649_253e_3e32;

fn history_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "serve-telemetry-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Sends each line only after the previous reply arrived, so the daemon
/// sees a strictly sequential load.
fn in_turn(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    lines
        .iter()
        .map(|line| {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply line");
            reply.trim_end().to_string()
        })
        .collect()
}

/// Pipelines every line on one connection, then reads one reply each.
fn pipelined(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    for line in lines {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    }
    let got: Vec<String> = BufReader::new(stream)
        .lines()
        .take(lines.len())
        .map(|l| l.expect("reply line"))
        .collect();
    assert_eq!(got.len(), lines.len(), "one reply per request");
    got
}

fn records(history: &Path) -> Vec<Json> {
    std::fs::read_to_string(history)
        .expect("history written")
        .lines()
        .map(|l| Json::parse(l).expect("record parses"))
        .collect()
}

fn get_u64(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{path:?} missing from {}", doc.write()))
}

fn summary_text(s: &ServeSummary) -> String {
    format!(
        "requests {} errors {} cache_hits {} cache_misses {} records_appended {} dumps {} \
         determinism {:016x} {:016x} {}\n",
        s.requests,
        s.errors,
        s.cache_hits,
        s.cache_misses,
        s.records_appended,
        s.dumps,
        s.determinism.0,
        s.determinism.1,
        s.determinism.2
    )
}

fn telemetry_text() -> String {
    let history = history_file("digest");
    let handle = liquid_simd_repro::serve::spawn(ServeOptions {
        shards: 1,
        history: Some(history.clone()),
        history_every: 3,
        ..ServeOptions::default()
    })
    .expect("daemon binds loopback");
    let replies = in_turn(
        handle.addr,
        &[
            r#"{"op":"run","workload":"fir","width":8,"id":"miss"}"#,
            r#"{"op":"run","workload":"fir","width":8,"id":"hit"}"#,
            r#"{"op":"run","workload":"fir","width":8,"budget_cycles":10,"id":"budget"}"#,
            "this is not json",
            r#"{"op":"stats","id":"stats"}"#,
            r#"{"op":"dump","id":"dump"}"#,
            r#"{"op":"inspect","id":"inspect"}"#,
            r#"{"op":"shutdown","id":"bye"}"#,
        ],
    );
    let summary = handle.join().expect("clean daemon exit");

    let mut text = String::new();
    text.push_str(&replies[4]);
    text.push('\n');
    let mut metrics = Json::parse(&replies[6])
        .expect("inspect reply parses")
        .remove("metrics")
        .expect("metrics field");
    metrics.remove("uptime_us");
    if let Some(Json::Obj(hists)) = metrics.get("histograms").cloned() {
        let kept = hists.into_iter().filter(|(k, _)| !k.starts_with("wall."));
        metrics.set("histograms", Json::Obj(kept.collect()));
    }
    text.push_str(&metrics.write());
    text.push('\n');
    let recs = records(&history);
    assert!(recs.len() >= 2, "at least two batch records flushed");
    for mut rec in recs {
        for host_field in ["commit", "timestamp", "host"] {
            rec.remove(host_field);
        }
        text.push_str(&rec.write());
        text.push('\n');
    }
    text.push_str(&summary_text(&summary));
    let _ = std::fs::remove_file(&history);
    text
}

#[test]
fn serve_telemetry_matches_the_pinned_digest() {
    let text = telemetry_text();
    let digest = fnv1a(text.as_bytes());
    assert_eq!(
        digest, PINNED,
        "serve telemetry changed: digest {digest:#018x}, pinned {PINNED:#018x}\n{text}"
    );
}

#[test]
fn stats_inspect_records_and_summary_agree_under_concurrent_load() {
    let history = history_file("views");
    let handle = liquid_simd_repro::serve::spawn(ServeOptions {
        shards: 4,
        history: Some(history.clone()),
        history_every: 5,
        ..ServeOptions::default()
    })
    .expect("daemon binds loopback");
    let addr = handle.addr;
    // Per client: six shard-answered requests (repeats across clients hit
    // the cache) and two answered on the connection thread.
    let load = [
        r#"{"op":"run","workload":"fir","width":8}"#,
        r#"{"op":"run","workload":"fft","width":4}"#,
        r#"{"op":"translate","workload":"lu","width":8}"#,
        r#"{"op":"run","workload":"fir","width":8,"budget_cycles":10}"#,
        "this is not json",
        r#"{"op":"explain","workload":"fir","widths":[2,8]}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"run","workload":"fft","width":8}"#,
    ];
    let (shard_per_client, front_per_client) = (6, 2);
    let clients = 3;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| pipelined(addr, &load));
        }
    });
    let quiet = in_turn(addr, &[r#"{"op":"stats"}"#, r#"{"op":"inspect"}"#]);
    let stats = Json::parse(&quiet[0]).expect("stats parses");
    let inspect = Json::parse(&quiet[1])
        .expect("inspect parses")
        .remove("metrics")
        .expect("metrics field");
    handle.shutdown();
    let summary = handle.join().expect("clean daemon exit");

    let per_shard = stats.get("per_shard").and_then(Json::as_arr).unwrap();
    assert_eq!(per_shard.len(), 4);
    let shard_sum = |path: &[&str]| per_shard.iter().map(|s| get_u64(s, path)).sum::<u64>();
    let shard_answered = shard_sum(&["requests"]);
    let front = clients * front_per_client;
    assert_eq!(shard_answered, clients * shard_per_client);
    assert_eq!(get_u64(&stats, &["requests"]), shard_answered + front);
    assert_eq!(
        get_u64(&stats, &["errors"]),
        shard_sum(&["errors"]) + clients
    );
    assert_eq!(
        get_u64(&inspect, &["requests", "total"]),
        get_u64(&stats, &["requests"]) + 1,
        "inspect sees everything stats saw, plus the stats request"
    );
    let hits = get_u64(&stats, &["cache", "hits"]);
    let misses = get_u64(&stats, &["cache", "misses"]);
    assert_eq!(
        hits + misses,
        shard_answered,
        "one lookup per shard request"
    );
    assert_eq!(hits, shard_sum(&["cache", "hits"]));
    assert_eq!(misses, shard_sum(&["cache", "misses"]));
    assert_eq!(
        get_u64(&stats, &["cache", "generation"]),
        shard_sum(&["cache", "inserts"])
    );
    assert_eq!(
        get_u64(&inspect, &["cache", "translations", "hits"]),
        hits,
        "inspect and stats read the same cache counts"
    );

    let recs = records(&history);
    assert_eq!(summary.records_appended, recs.len() as u64);
    let batched: u64 = recs
        .iter()
        .map(|r| get_u64(r, &["batch", "requests"]))
        .sum();
    assert_eq!(
        batched, summary.requests,
        "batch records cover every request once"
    );
    let batched_errors: u64 = recs.iter().map(|r| get_u64(r, &["batch", "errors"])).sum();
    assert_eq!(batched_errors, summary.errors);
    // The summary adds the final stats and inspect to what stats saw.
    assert_eq!(summary.requests, get_u64(&stats, &["requests"]) + 2);
    assert_eq!(summary.cache_hits + summary.cache_misses, shard_answered);
    let _ = std::fs::remove_file(&history);
}
