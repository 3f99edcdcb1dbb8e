//! The `bench --serve` load generator: N concurrent clients × M pipelined
//! requests, run twice — once on a single shard, once sharded — with a
//! byte-for-byte diff of every response across the two passes.
//!
//! The generator is the service's determinism oracle. Pass 1 (`--shards 1`)
//! is trivially schedule-free; pass 2 runs the *same request multiset*
//! over many shards. If sharding leaked into any response — a shard id, a
//! cache flag, an ordering artifact — the per-id diff catches it and the
//! bench hard-fails. The request mix deliberately repeats a small template
//! pool so the cross-request translation cache is exercised: with the
//! default sizing, ≥ 90 % of requests must be cache hits or the bench
//! fails its hit-rate gate too.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use liquid_simd_trace::Json;

use crate::fnv1a;
use crate::server::{spawn, ServeOptions, ServeSummary};

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Use the three-workload smoke suite instead of the full suite.
    pub smoke: bool,
    /// Concurrent client connections per pass.
    pub clients: usize,
    /// Requests per client (`0` = auto-size so the expected cache hit
    /// rate clears 95 %).
    pub requests_per_client: usize,
    /// Shard count of the sharded pass (pass 1 always uses one shard).
    pub shards: usize,
    /// Minimum acceptable translation-cache hit rate (both passes).
    pub min_hit_rate: f64,
    /// History file receiving one `perfhist-serve-v1` record per pass.
    pub history: Option<PathBuf>,
    /// Template-selection seed (same seed ⇒ same request mix).
    pub seed: u64,
    /// Execution backend the daemon under test simulates with.
    pub backend: liquid_simd::BackendKind,
    /// Also run a third, sharded pass with the flight recorder off, whose
    /// responses and determinism hashes must match the recorder-on pass.
    pub measure_recorder: bool,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            smoke: false,
            clients: 4,
            requests_per_client: 0,
            shards: 8,
            min_hit_rate: 0.9,
            history: None,
            seed: 0xC0FFEE,
            backend: liquid_simd::BackendKind::Interp,
            measure_recorder: false,
        }
    }
}

/// What the load generator measured and verified.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Client requests diffed across the two passes.
    pub requests: u64,
    /// Error responses observed (identical in both passes).
    pub errors: u64,
    /// Worst translation-cache hit rate of the two passes.
    pub hit_rate: f64,
    /// Shard count of the sharded pass.
    pub shards: usize,
    /// Daemon summary of the single-shard pass.
    pub single: ServeSummary,
    /// Daemon summary of the sharded pass.
    pub sharded: ServeSummary,
}

/// The request-template pool: five request shapes per workload, all
/// cache-keyed differently, all byte-stable.
fn templates(smoke: bool) -> Vec<String> {
    let suite = if smoke {
        liquid_simd_workloads::smoke()
    } else {
        liquid_simd_workloads::all()
    };
    let mut out = Vec::with_capacity(suite.len() * 5);
    for w in suite {
        let n = &w.name;
        out.push(format!(
            r#"{{"op":"translate","workload":"{n}","width":8}}"#
        ));
        out.push(format!(r#"{{"op":"run","workload":"{n}","width":8}}"#));
        out.push(format!(
            r#"{{"op":"run","workload":"{n}","width":8,"report":true}}"#
        ));
        out.push(format!(
            r#"{{"op":"explain","workload":"{n}","widths":[2,8]}}"#
        ));
        out.push(format!(r#"{{"op":"run","workload":"{n}","width":0}}"#));
    }
    out
}

/// Splices a string id into a template line (same trick as
/// [`crate::proto::with_id`], client side).
fn with_string_id(template: &str, id: &str) -> String {
    format!("{},\"id\":\"{id}\"}}", &template[..template.len() - 1])
}

/// Builds every client's request lines up front so both passes send the
/// exact same multiset. Template choice is a pure function of
/// (client, request, seed).
fn build_batches(opts: &LoadOptions, pool: &[String], per_client: usize) -> Vec<Vec<String>> {
    (0..opts.clients)
        .map(|c| {
            (0..per_client)
                .map(|i| {
                    let pick = fnv1a(format!("{c}|{i}|{}", opts.seed).as_bytes());
                    let template = &pool[(pick % pool.len() as u64) as usize];
                    with_string_id(template, &format!("c{c}-r{i}"))
                })
                .collect()
        })
        .collect()
}

/// One client session: pipeline every line, then read one response per
/// line, returning `id → response line`.
fn client_session(addr: SocketAddr, lines: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(600)))
        .map_err(|e| e.to_string())?;
    for line in lines {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    let reader = BufReader::new(stream);
    let mut out = BTreeMap::new();
    for resp in reader.lines().take(lines.len()) {
        let resp = resp.map_err(|e| format!("recv: {e}"))?;
        let id = Json::parse(&resp)
            .map_err(|e| format!("unparseable response: {e}: {resp}"))?
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("response without string id: {resp}"))?;
        if out.insert(id.clone(), resp).is_some() {
            return Err(format!("duplicate response id {id}"));
        }
    }
    if out.len() != lines.len() {
        return Err(format!(
            "connection closed after {} of {} responses",
            out.len(),
            lines.len()
        ));
    }
    Ok(out)
}

/// Runs one pass: spawn a daemon, fire every client concurrently, stop the
/// daemon over a final stats+shutdown connection, and collect everything.
fn one_pass(
    opts: &LoadOptions,
    shards: usize,
    flight_capacity: usize,
    batches: &[Vec<String>],
) -> Result<(BTreeMap<String, String>, ServeSummary), String> {
    let handle = spawn(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        shards,
        history: opts.history.clone(),
        history_every: 0,
        backend: opts.backend,
        flight_capacity,
        ..ServeOptions::default()
    })?;
    let addr = handle.addr;
    let sessions = liquid_simd::run_tasks(opts.clients, opts.clients, |c| {
        client_session(addr, &batches[c])
    });
    // Always stop the daemon, even when a client failed, so join() returns.
    let control = TcpStream::connect(addr)
        .and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            s.write_all(b"{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n")?;
            s.flush()?;
            let mut lines = BufReader::new(s).lines();
            let _ = lines.next();
            let _ = lines.next();
            Ok(())
        })
        .map_err(|e| format!("control connection: {e}"));
    if control.is_err() {
        handle.shutdown();
    }
    let summary = handle.join()?;
    let mut merged = BTreeMap::new();
    for session in sessions? {
        for (id, resp) in session {
            if merged.insert(id.clone(), resp).is_some() {
                return Err(format!("id {id} answered on two connections"));
            }
        }
    }
    control?;
    Ok((merged, summary))
}

/// Runs the full two-pass load generation and verification.
///
/// # Errors
///
/// Fails on any transport error, on **any** byte difference between the
/// single-shard and sharded responses (including the daemons' cumulative
/// determinism hashes), and on a translation-cache hit rate below
/// `min_hit_rate` in either pass.
pub fn run(opts: &LoadOptions) -> Result<LoadReport, String> {
    let opts = LoadOptions {
        clients: opts.clients.max(1),
        shards: opts.shards.max(2),
        ..opts.clone()
    };
    let pool = templates(opts.smoke);
    let per_client = if opts.requests_per_client > 0 {
        opts.requests_per_client
    } else {
        // ~20 requests per template across all clients ⇒ an expected hit
        // rate of ~95 %, comfortably above the 90 % gate.
        (pool.len() * 20).div_ceil(opts.clients)
    };
    let batches = build_batches(&opts, &pool, per_client);
    let on_capacity = liquid_simd_trace::DEFAULT_FLIGHT_CAPACITY;
    let (single_map, single) = one_pass(&opts, 1, on_capacity, &batches)?;
    let (sharded_map, sharded) = one_pass(&opts, opts.shards, on_capacity, &batches)?;
    if single_map.len() != sharded_map.len() {
        return Err(format!(
            "response count diverged: {} single-shard vs {} sharded",
            single_map.len(),
            sharded_map.len()
        ));
    }
    for (id, a) in &single_map {
        match sharded_map.get(id) {
            Some(b) if a == b => {}
            Some(b) => {
                return Err(format!(
                    "NONDETERMINISM: response {id} differs across shard counts\n  \
                     shards=1: {a}\n  shards={}: {b}",
                    opts.shards
                ))
            }
            None => return Err(format!("response {id} missing from sharded pass")),
        }
    }
    if single.determinism != sharded.determinism {
        return Err(format!(
            "NONDETERMINISM: daemon hashes diverged: {:?} single-shard vs {:?} at {} shards",
            single.determinism, sharded.determinism, opts.shards
        ));
    }
    let worst = single.hit_rate().min(sharded.hit_rate());
    if worst < opts.min_hit_rate {
        return Err(format!(
            "translation-cache hit rate {:.1}% below the {:.1}% gate",
            worst * 100.0,
            opts.min_hit_rate * 100.0
        ));
    }
    // Re-run the identical sharded load with the flight recorder
    // disabled: responses must still match byte-for-byte — recording is
    // telemetry-only.
    if opts.measure_recorder {
        let (off_map, off_summary) = one_pass(&opts, opts.shards, 0, &batches)?;
        if off_map != sharded_map {
            return Err(
                "NONDETERMINISM: responses changed with the flight recorder off".to_string(),
            );
        }
        if off_summary.determinism != sharded.determinism {
            return Err("NONDETERMINISM: daemon hashes changed with the recorder off".to_string());
        }
    }
    let errors = single_map
        .values()
        .filter(|r| r.contains("\"ok\":false"))
        .count() as u64;
    Ok(LoadReport {
        requests: single_map.len() as u64,
        errors,
        hit_rate: worst,
        shards: opts.shards,
        single,
        sharded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_pool_covers_five_shapes_per_workload() {
        let pool = templates(true);
        assert_eq!(pool.len(), liquid_simd_workloads::smoke().len() * 5);
        for t in &pool {
            crate::proto::parse_request(t).expect("every template parses");
        }
        assert!(pool.iter().any(|t| t.contains(r#""op":"translate""#)));
        assert!(pool.iter().any(|t| t.contains(r#""report":true"#)));
        assert!(pool.iter().any(|t| t.contains(r#""width":0"#)));
    }

    #[test]
    fn batches_are_reproducible_and_id_unique() {
        let opts = LoadOptions {
            smoke: true,
            clients: 3,
            requests_per_client: 7,
            ..LoadOptions::default()
        };
        let pool = templates(true);
        let a = build_batches(&opts, &pool, 7);
        let b = build_batches(&opts, &pool, 7);
        assert_eq!(a, b, "same seed, same mix");
        assert_eq!(a.len(), 3);
        let ids: std::collections::BTreeSet<String> = a
            .iter()
            .flatten()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(ids.len(), 21, "every id unique");
    }

    #[test]
    fn small_load_passes_determinism_and_drives_the_cache() {
        let report = run(&LoadOptions {
            smoke: true,
            clients: 2,
            requests_per_client: 12,
            shards: 4,
            min_hit_rate: 0.0,
            ..LoadOptions::default()
        })
        .expect("load generation succeeds");
        assert_eq!(report.requests, 24);
        assert_eq!(report.single.determinism, report.sharded.determinism);
        assert!(report.sharded.cache_hits > 0, "repeats hit the cache");
    }
}
