//! End-to-end smoke of the flight recorder: a real daemon on a loopback
//! socket, a forced worker panic that must land as a schema-valid
//! `flight-v1` black-box dump carrying the failing request's full
//! lifecycle, the budget-burst auto-dump trigger, and the ISSUE's
//! headline acceptance check — scrubbed `metrics-v1` snapshots that are
//! byte-identical at 1 and N shards under fixed load.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use liquid_simd_repro::perfhist::Json;
use liquid_simd_repro::serve::{inspect, ServeOptions};
use liquid_simd_repro::trace::flight::FLIGHT_SCHEMA;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flight-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(opts: ServeOptions) -> liquid_simd_repro::serve::ServerHandle {
    liquid_simd_repro::serve::spawn(opts).expect("daemon binds loopback")
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
    let got: Vec<String> = BufReader::new(stream)
        .lines()
        .take(lines.len())
        .map(|l| l.expect("response line"))
        .collect();
    assert_eq!(got.len(), lines.len(), "one response per request");
    got
}

/// Validates one `flight-v1` dump file: header schema/reason, every event
/// line well-formed with a known stage, and seq strictly increasing.
/// Returns the parsed event lines.
fn validate_dump(path: &std::path::Path, want_reason: &str) -> Vec<Json> {
    const STAGES: [&str; 8] = [
        "accept",
        "parse",
        "probe",
        "build",
        "translate",
        "execute",
        "respond",
        "panic",
    ];
    let text = std::fs::read_to_string(path).expect("dump readable");
    let mut lines = text.lines();
    let header = Json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("schema").and_then(Json::as_str),
        Some(FLIGHT_SCHEMA)
    );
    assert_eq!(
        header.get("reason").and_then(Json::as_str),
        Some(want_reason)
    );
    for key in [
        "backend",
        "shards",
        "capacity",
        "events",
        "dropped",
        "contended",
    ] {
        assert!(header.get(key).is_some(), "header carries `{key}`");
    }
    let mut events = Vec::new();
    let mut last_seq = None;
    for line in lines {
        let ev = Json::parse(line).expect("event line parses");
        for key in ["seq", "wall_us", "shard", "id", "op", "stage", "ok"] {
            assert!(ev.get(key).is_some(), "event carries `{key}`: {line}");
        }
        let stage = ev.get("stage").and_then(Json::as_str).unwrap();
        assert!(STAGES.contains(&stage), "known stage, got `{stage}`");
        let seq = ev.get("seq").and_then(Json::as_u64).unwrap();
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq strictly increasing ({prev} then {seq})");
        }
        last_seq = Some(seq);
        events.push(ev);
    }
    assert!(!events.is_empty(), "dump holds events");
    events
}

#[test]
fn forced_panic_dumps_the_failing_requests_full_lifecycle() {
    let dir = tmpdir("panic");
    let handle = spawn_daemon(ServeOptions {
        shards: 2,
        flight_dir: Some(dir.clone()),
        inject_faults: true,
        ..ServeOptions::default()
    });
    let addr = handle.addr;
    let responses = talk(
        addr,
        &[
            r#"{"op":"run","workload":"fir","id":"warm-1"}"#,
            r#"{"op":"translate","workload":"fft","id":"warm-2"}"#,
            r#"{"op":"run","workload":"fir","inject":"panic","id":"boom"}"#,
            r#"{"op":"run","workload":"fir","id":"after"}"#,
        ],
    );
    // The panic is contained: the failing request gets a serve-err-v1
    // response and the daemon keeps serving.
    let boom = Json::parse(&responses[2]).unwrap();
    assert_eq!(boom.get("ok").and_then(Json::as_str), None);
    assert_eq!(
        boom.get("schema").and_then(Json::as_str),
        Some("serve-err-v1")
    );
    let after = Json::parse(&responses[3]).unwrap();
    assert_eq!(after.get("schema").and_then(Json::as_str), Some("serve-v1"));

    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!(summary.dumps, 1, "exactly one black-box dump");

    let dump = dir.join("flight-000-worker-panic.jsonl");
    let events = validate_dump(&dump, "worker-panic");
    // The failing request's full lifecycle is in the box: accepted,
    // parsed, built, cache-probed, translated, and the panic itself.
    let boom_stages: Vec<&str> = events
        .iter()
        .filter(|e| e.get("id").and_then(Json::as_str) == Some("boom"))
        .map(|e| e.get("stage").and_then(Json::as_str).unwrap())
        .collect();
    for stage in ["accept", "parse", "build", "probe", "translate", "panic"] {
        assert!(
            boom_stages.contains(&stage),
            "boom lifecycle has `{stage}`: {boom_stages:?}"
        );
    }
    // Healthy neighbours are in the same box (context for the crash).
    assert!(events
        .iter()
        .any(|e| e.get("id").and_then(Json::as_str) == Some("warm-1")));
    // And the folded-stacks sidecar ships next to the JSONL.
    let folded = std::fs::read_to_string(dump.with_extension("folded")).unwrap();
    assert!(folded.contains("serve;run;panic 1"), "{folded}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_burst_triggers_an_automatic_dump() {
    let dir = tmpdir("burst");
    let handle = spawn_daemon(ServeOptions {
        shards: 1,
        flight_dir: Some(dir.clone()),
        burst_threshold: 3,
        ..ServeOptions::default()
    });
    let addr = handle.addr;
    let burst = r#"{"op":"run","workload":"fir","budget_cycles":10,"id":"b"}"#;
    let responses = talk(addr, &[burst, burst, burst]);
    for r in &responses {
        let doc = Json::parse(r).unwrap();
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("budget-exceeded"),
            "{r}"
        );
    }
    handle.shutdown();
    let summary = handle.join().unwrap();
    assert_eq!(summary.dumps, 1, "burst of 3 rejections tripped the dump");
    validate_dump(&dir.join("flight-000-budget-burst.jsonl"), "budget-burst");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance bar from the ISSUE: under a fixed request load, the
/// `inspect` snapshot — after `inspect::scrub` removes wall-clock and
/// schedule-dependent fields — is byte-identical at 1 shard and N shards.
#[test]
fn scrubbed_inspect_is_byte_identical_across_shard_counts() {
    let load = [
        r#"{"op":"run","workload":"fir","id":"a"}"#,
        r#"{"op":"run","workload":"fft","id":"b"}"#,
        r#"{"op":"translate","workload":"fir","id":"c"}"#,
        r#"{"op":"run","workload":"fir","id":"d"}"#,
        r#"{"op":"run","workload":"no-such-workload","id":"e"}"#,
        r#"{"op":"run","workload":"fft","id":"f"}"#,
    ];
    let snapshot_at = |shards: usize| {
        let handle = spawn_daemon(ServeOptions {
            shards,
            ..ServeOptions::default()
        });
        let addr = handle.addr;
        // All load responses are read back before `inspect` is sent, so
        // every lifecycle has been fully tallied into the registries.
        talk(addr, &load);
        let resp = talk(addr, &[r#"{"op":"inspect"}"#]);
        let doc = Json::parse(&resp[0]).unwrap();
        let metrics = doc.get("metrics").expect("metrics field").clone();
        handle.shutdown();
        handle.join().unwrap();
        inspect::scrub(&metrics).write()
    };
    let one = snapshot_at(1);
    let four = snapshot_at(4);
    assert_eq!(one, four, "scrubbed metrics-v1 identical at 1 vs 4 shards");
    // Sanity: the scrubbed form still carries the load we sent.
    let doc = Json::parse(&one).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(inspect::METRICS_SCHEMA)
    );
    assert_eq!(
        doc.get("requests")
            .and_then(|r| r.get("total"))
            .and_then(Json::as_u64),
        Some(6),
        "all 6 load requests, not the inspect itself"
    );
}
