//! End-to-end smoke of `liquid-simd serve`: a real daemon on a loopback
//! socket, raw `TcpStream` clients speaking the `serve-v1` wire protocol,
//! byte-identity between served responses and direct one-shot execution,
//! graceful budget rejections, cross-shard determinism, and the full
//! telemetry loop (load generator → `perfhist-serve-v1` records →
//! sentinel verdict).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use liquid_simd_repro::perfhist::{self, Json};
use liquid_simd_repro::serve::cache::BuildCache;
use liquid_simd_repro::serve::loadgen::{self, LoadOptions};
use liquid_simd_repro::serve::{ops, proto, ServeOptions};

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn spawn_daemon(shards: usize, history: Option<PathBuf>) -> liquid_simd_repro::serve::ServerHandle {
    liquid_simd_repro::serve::spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        shards,
        history,
        history_every: 0,
        ..ServeOptions::default()
    })
    .expect("daemon binds loopback")
}

/// Sends `lines` on one connection and reads exactly one response per line.
fn talk(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    for line in lines {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    }
    let reader = BufReader::new(stream);
    let got: Vec<String> = reader
        .lines()
        .take(lines.len())
        .map(|l| l.expect("response line"))
        .collect();
    assert_eq!(got.len(), lines.len(), "one response per request");
    got
}

/// What the one-shot path produces for `line`: parse, compile, execute,
/// splice the id — the exact pipeline minus the socket and the shards.
fn direct(line: &str, builds: &BuildCache) -> String {
    let req = proto::parse_request(line).expect("request parses");
    let entry = builds
        .workload(req.workload.as_deref().expect("workload request"))
        .expect("workload compiles");
    let out = ops::execute(&req, &entry.program, &entry.name);
    proto::with_id(&out.body, req.id.as_ref())
}

#[test]
fn served_responses_match_direct_execution_across_shard_counts() {
    let lines = [
        r#"{"op":"translate","workload":"fir","width":8,"id":"t1"}"#,
        r#"{"op":"run","workload":"fft","width":8,"report":true,"id":"r1"}"#,
        r#"{"op":"run","workload":"fir","width":4,"id":"r2"}"#,
        r#"{"op":"explain","workload":"lu","widths":[2,8],"id":"e1"}"#,
    ];
    let builds = BuildCache::default();
    let expected: Vec<String> = lines.iter().map(|l| direct(l, &builds)).collect();

    let mut by_shards = Vec::new();
    for shards in [1, 3] {
        let handle = spawn_daemon(shards, None);
        let got = talk(handle.addr, &lines);
        handle.shutdown();
        let summary = handle.join().expect("clean daemon exit");
        assert_eq!(summary.errors, 0, "all requests succeed at {shards} shards");
        by_shards.push(got);
    }
    assert_eq!(by_shards[0], expected, "served output == one-shot output");
    assert_eq!(
        by_shards[0], by_shards[1],
        "responses byte-identical at 1 vs 3 shards"
    );
    // Every response is a tagged serve-v1 document echoing its id.
    for (line, resp) in lines.iter().zip(&by_shards[0]) {
        let doc = Json::parse(resp).expect("response is JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("serve-v1"));
        let want_id = Json::parse(line).unwrap().get("id").cloned();
        assert_eq!(doc.get("id"), want_id.as_ref());
    }
}

#[test]
fn budgets_reject_gracefully_and_stats_sees_the_cache() {
    let handle = spawn_daemon(2, None);
    let responses = talk(
        handle.addr,
        &[
            r#"{"op":"run","workload":"fir","width":8,"budget_cycles":10,"id":1}"#,
            r#"{"op":"run","workload":"fir","width":8,"id":2}"#,
            r#"{"op":"run","workload":"fir","width":8,"id":3}"#,
        ],
    );
    let rejected = Json::parse(&responses[0]).unwrap();
    assert_eq!(
        rejected.get("schema").and_then(Json::as_str),
        Some("serve-err-v1")
    );
    assert_eq!(
        rejected.get("kind").and_then(Json::as_str),
        Some("budget-exceeded"),
        "budget rejection, not a worker death"
    );
    // The worker survived the rejection: the healthy repeats still answer,
    // identically to each other (the second is a cache hit).
    let ok = Json::parse(&responses[1]).unwrap();
    assert_eq!(ok.get("schema").and_then(Json::as_str), Some("serve-v1"));
    assert_eq!(
        responses[1].replace("\"id\":2", ""),
        responses[2].replace("\"id\":3", "")
    );

    // Stats over a fresh connection reflect the finished work.
    let stats = talk(handle.addr, &[r#"{"op":"stats"}"#]);
    let doc = Json::parse(&stats[0]).unwrap();
    let hits = doc
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(hits >= 1, "repeat run was a cache hit (got {hits})");

    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 4);
    assert_eq!(summary.errors, 1, "exactly the budget rejection");
}

/// `bench --serve --smoke --clients 4 --shards 4 --measure-recorder`: byte
/// identity at 1 and 4 shards, the 90 % translation-cache hit-rate gate,
/// and a third pass with the flight recorder off that must answer the
/// same bytes with the same determinism hashes.
#[test]
fn loadgen_history_feeds_the_sentinel() {
    let history = tmpfile("serve-history.jsonl");
    let _ = std::fs::remove_file(&history);
    let report = loadgen::run(&LoadOptions {
        smoke: true,
        shards: 4,
        history: Some(history.clone()),
        measure_recorder: true,
        ..LoadOptions::default()
    })
    .expect("load generator passes");
    assert_eq!(report.requests, 300);
    assert!(report.hit_rate >= 0.9, "hit rate {}", report.hit_rate);
    assert_eq!(
        report.single.determinism, report.sharded.determinism,
        "determinism triple equal across shard counts"
    );

    // Both passes appended a perfhist-serve-v1 record over the same
    // request multiset, so the sentinel has a comparable baseline pair.
    let records = perfhist::store::load(&history).expect("history parses");
    assert!(report.single.records_appended >= 1);
    assert!(report.sharded.records_appended >= 1);
    let verdict = perfhist::sentinel::check(&records, &Default::default());
    assert!(
        !verdict.failed,
        "matched serve passes satisfy the sentinel: {}",
        verdict.json.write()
    );
    let serve_status = verdict
        .json
        .get("serve")
        .and_then(|s| s.get("status"))
        .and_then(Json::as_str);
    assert_eq!(serve_status, Some("pass"));
}

/// The error kind of a `serve-err-v1` reply line (None for success).
fn error_kind(reply: &str) -> Option<String> {
    let doc = Json::parse(reply).expect("reply is JSON");
    (doc.get("ok") == Some(&Json::Bool(false))).then(|| {
        doc.get("kind")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    })
}

#[test]
fn hostile_nesting_gets_an_error_reply_and_the_daemon_keeps_serving() {
    let handle = spawn_daemon(1, None);
    // 100,020 bytes that open 100,000 arrays: past the parser's nesting
    // cap, so it must come back as a bad request, not a stack overflow.
    let hostile = format!("{{\"op\":\"stats\",\"id\":{}", "[".repeat(100_000));
    let replies = talk(handle.addr, &[&hostile, r#"{"op":"stats","id":"after"}"#]);
    assert_eq!(error_kind(&replies[0]).as_deref(), Some("bad-request"));
    assert!(replies[0].contains("nesting deeper than"), "{}", replies[0]);
    assert_eq!(error_kind(&replies[1]), None, "{}", replies[1]);
    // A fresh connection is served too.
    let stats = talk(handle.addr, &[r#"{"op":"stats"}"#]);
    assert_eq!(error_kind(&stats[0]), None, "{}", stats[0]);
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn inline_asm_with_duplicate_definitions_gets_an_error_reply() {
    let handle = spawn_daemon(1, None);
    let replies = talk(
        handle.addr,
        &[
            r#"{"op":"run","program":".text\nmain:\nmain:\n    halt\n","id":1}"#,
            r#"{"op":"run","program":".data\n.i32 A: 1\n.i32 A: 2\n.text\nmain:\n    halt\n","id":2}"#,
            r#"{"op":"run","program":".text\nmain:\n    halt\n","id":3}"#,
        ],
    );
    // Each used to reach a `ProgramBuilder` assert: a `panic` reply.
    assert_eq!(error_kind(&replies[0]).as_deref(), Some("bad-request"));
    assert!(
        replies[0].contains("label `main` bound twice"),
        "{}",
        replies[0]
    );
    assert_eq!(error_kind(&replies[1]).as_deref(), Some("bad-request"));
    assert!(
        replies[1].contains("symbol `A` defined twice"),
        "{}",
        replies[1]
    );
    assert_eq!(error_kind(&replies[2]), None, "{}", replies[2]);
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn oversized_line_is_refused_without_disturbing_other_connections() {
    let handle = spawn_daemon(2, None);
    let connect = || {
        let s = TcpStream::connect(handle.addr).expect("connect to daemon");
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        s
    };
    let ask = |reader: &mut BufReader<TcpStream>, line: &str| {
        reader
            .get_mut()
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let mut bystander = BufReader::new(connect());
    let first = ask(
        &mut bystander,
        r#"{"op":"run","workload":"fir","width":4,"id":1}"#,
    );
    assert_eq!(error_kind(&first), None, "{first}");

    // Exactly one byte past the cap, no newline: the daemon reads all of
    // it, answers, and hangs up.
    let mut flood = connect();
    flood
        .write_all(&vec![b'x'; proto::MAX_REQUEST_LINE + 1])
        .unwrap();
    flood.flush().unwrap();
    let mut flood = BufReader::new(flood);
    let mut reply = String::new();
    flood.read_line(&mut reply).unwrap();
    assert_eq!(
        error_kind(&reply).as_deref(),
        Some("bad-request"),
        "{reply}"
    );
    assert!(reply.contains("exceeds"), "{reply}");
    let mut rest = String::new();
    assert_eq!(flood.read_line(&mut rest).unwrap(), 0, "connection closed");

    // The other connection never noticed.
    let second = ask(
        &mut bystander,
        r#"{"op":"run","workload":"fir","width":4,"id":2}"#,
    );
    assert_eq!(
        first.replace("\"id\":1", ""),
        second.replace("\"id\":2", "")
    );
    drop(bystander);
    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!(summary.errors, 1, "exactly the oversized line");
}
