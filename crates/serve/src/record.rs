//! `perfhist-serve-v1` record construction: one record per completed
//! serve batch, appended to the same append-only history file the bench
//! records live in (the store's single-write append makes concurrent
//! writers safe).
//!
//! Wall-clock telemetry (throughput, latency percentiles) legitimately
//! varies run to run; the `determinism` object does not. Its hashes are
//! **order-independent multiset hashes** — each served request adds
//! (wrapping) one FNV-1a hash of its canonical key (and of key+response)
//! into an accumulator — so two runs that served the same multiset of
//! requests compare equal no matter how shards interleaved them, and a
//! request repeated N times contributes N times (a XOR would cancel at
//! even multiplicities). That is the property the sentinel gates: same
//! requests ⇒ same `responses_hash` and `sim_cycles_total`, at any shard
//! count, on any host.

use std::collections::BTreeMap;

use liquid_simd_perfhist::{record, SERVE_SCHEMA};
use liquid_simd_trace::{nearest_rank, Json};

/// Aggregated telemetry of one serve batch, ready to serialize.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Requests answered in this batch (errors included).
    pub requests: u64,
    /// `serve-err-v1` responses in this batch.
    pub errors: u64,
    /// Requests per op name in this batch.
    pub by_op: BTreeMap<String, u64>,
    /// Per-request service latencies, microseconds (arrival to response
    /// enqueue).
    pub latencies_us: Vec<u64>,
    /// Batch wall-clock seconds (first arrival to flush).
    pub wall_s: f64,
}

/// Cumulative-since-startup identity of the served request stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct Determinism {
    /// Wrapping sum of FNV-1a over every deterministic request's
    /// canonical key.
    pub requests_hash: u64,
    /// Wrapping sum of FNV-1a over every canonical key + response body.
    pub responses_hash: u64,
    /// Sum of simulated cycles attributed to every request (cache hits
    /// contribute their entry's cycles, so the total is schedule- and
    /// cache-independent).
    pub sim_cycles_total: u64,
}

/// Cumulative cache counters at flush time.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Translation-cache hits.
    pub hits: u64,
    /// Translation-cache misses.
    pub misses: u64,
    /// Live entries.
    pub entries: u64,
}

/// Builds one `perfhist-serve-v1` record.
#[must_use]
pub fn build(shards: usize, batch: &BatchStats, cache: &CacheStats, det: &Determinism) -> Json {
    let mut lat = batch.latencies_us.clone();
    lat.sort_unstable();
    let hit_rate = if cache.hits + cache.misses == 0 {
        0.0
    } else {
        cache.hits as f64 / (cache.hits + cache.misses) as f64
    };
    let throughput = if batch.wall_s > 0.0 {
        batch.requests as f64 / batch.wall_s
    } else {
        0.0
    };
    let by_op = batch.by_op.iter().map(|(k, &v)| (k.clone(), v.into()));
    let pct = |p: f64| Json::from(nearest_rank(&lat, p));
    Json::obj([
        ("schema", SERVE_SCHEMA.into()),
        (
            "commit",
            record::git_commit(std::path::Path::new(".")).into(),
        ),
        ("timestamp", record::unix_now().into()),
        ("host", record::host_fingerprint().into()),
        ("shards", shards.into()),
        (
            "batch",
            Json::obj([
                ("requests", batch.requests.into()),
                ("errors", batch.errors.into()),
                ("by_op", Json::obj(by_op)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", cache.hits.into()),
                ("misses", cache.misses.into()),
                ("entries", cache.entries.into()),
                ("hit_rate", Json::f64(hit_rate)),
            ]),
        ),
        (
            "determinism",
            Json::obj([
                (
                    "requests_hash",
                    format!("{:016x}", det.requests_hash).into(),
                ),
                (
                    "responses_hash",
                    format!("{:016x}", det.responses_hash).into(),
                ),
                ("sim_cycles_total", det.sim_cycles_total.into()),
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("p50_us", pct(50.0)),
                ("p95_us", pct(95.0)),
                ("p99_us", pct(99.0)),
                ("max_us", lat.last().copied().unwrap_or(0).into()),
            ]),
        ),
        ("throughput_rps", Json::f64(throughput)),
        ("wall_s", Json::f64(batch.wall_s)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_carries_the_gated_fields() {
        let mut batch = BatchStats {
            requests: 10,
            errors: 1,
            latencies_us: vec![100, 200, 300],
            wall_s: 2.0,
            ..BatchStats::default()
        };
        batch.by_op.insert("run".to_string(), 9);
        let det = Determinism {
            requests_hash: 0xabc,
            responses_hash: 0xdef,
            sim_cycles_total: 12345,
        };
        let cache = CacheStats {
            hits: 9,
            misses: 1,
            entries: 1,
        };
        let rec = build(4, &batch, &cache, &det);
        let text = rec.write();
        assert!(text.starts_with("{\"schema\":\"perfhist-serve-v1\""));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.write(), text);
        let d = back.get("determinism").unwrap();
        assert_eq!(
            d.get("requests_hash").and_then(Json::as_str),
            Some("0000000000000abc")
        );
        assert_eq!(
            d.get("sim_cycles_total").and_then(Json::as_u64),
            Some(12345)
        );
        let c = back.get("cache").unwrap();
        assert_eq!(c.get("hit_rate").and_then(Json::as_f64), Some(0.9));
        assert_eq!(back.get("throughput_rps").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            back.get("latency")
                .and_then(|l| l.get("p50_us"))
                .and_then(Json::as_u64),
            Some(200)
        );
    }
}
