//! `perfhist-serve-v1` record construction: one record per completed
//! serve batch, appended to the same append-only history file the bench
//! records live in (the store's single-write append makes concurrent
//! writers safe).
//!
//! The daemon counts each answered request once, into a `Tally`; a
//! record's `batch` is the daemon's totals minus the totals at the
//! previous flush. A record carries request and cache counts plus the
//! `determinism` object, and no host time (perfbench's `serve` workload
//! measures throughput and latency). The determinism hashes are
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
use liquid_simd_trace::Json;

use crate::fnv1a;
use crate::ops::OpOutput;

/// What one shard-answered request did at the translation cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The entry was already cached.
    Hit,
    /// The entry was computed. `inserted` is false when a racing worker
    /// inserted the same key first; `evicted` counts the entries this
    /// insert pushed out.
    Miss {
        /// Whether this request's entry won the insert.
        inserted: bool,
        /// Entries evicted to make room.
        evicted: u64,
    },
}

/// Every count the daemon keeps about the requests it answered. Each
/// shard keeps one tally and the connection threads share one more; the
/// daemon's totals are their [`merge`](Tally::merge), and `stats`,
/// `inspect`, batch records and the exit summary all read those totals,
/// so each count has exactly one increment site.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tally {
    /// Requests answered (errors included).
    pub requests: u64,
    /// `serve-err-v1` replies.
    pub errors: u64,
    /// Requests per op name (`invalid` for lines that are not requests).
    pub by_op: BTreeMap<String, u64>,
    /// Translation-cache hits.
    pub hits: u64,
    /// Translation-cache misses.
    pub misses: u64,
    /// Entries inserted into the translation cache.
    pub inserts: u64,
    /// Entries evicted from the translation cache.
    pub evictions: u64,
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

impl Tally {
    /// Counts one answered request under its op name.
    pub fn answered(&mut self, op: &str, ok: bool) {
        self.requests += 1;
        self.errors += u64::from(!ok);
        *self.by_op.entry(op.to_string()).or_insert(0) += 1;
    }

    /// Counts one request a shard answered: the request itself, its cache
    /// lookup, and its share of the determinism accumulators. Wrapping
    /// sums (not XOR) keep the multiset hash order-independent and
    /// multiplicity-sensitive.
    pub fn served(&mut self, op: &str, key: &str, output: &OpOutput, lookup: Lookup) {
        self.answered(op, output.ok);
        match lookup {
            Lookup::Hit => self.hits += 1,
            Lookup::Miss { inserted, evicted } => {
                self.misses += 1;
                self.inserts += u64::from(inserted);
                self.evictions += evicted;
            }
        }
        let mut pair = key.as_bytes().to_vec();
        pair.extend_from_slice(output.body.as_bytes());
        self.requests_hash = self.requests_hash.wrapping_add(fnv1a(key.as_bytes()));
        self.responses_hash = self.responses_hash.wrapping_add(fnv1a(&pair));
        self.sim_cycles_total += output.cycles;
    }

    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.errors += other.errors;
        for (op, n) in &other.by_op {
            *self.by_op.entry(op.clone()).or_insert(0) += n;
        }
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.requests_hash = self.requests_hash.wrapping_add(other.requests_hash);
        self.responses_hash = self.responses_hash.wrapping_add(other.responses_hash);
        self.sim_cycles_total += other.sim_cycles_total;
    }

    /// The `determinism` object of `inspect` replies and batch records:
    /// both hashes as 16-digit hex strings (JSON numbers above 2^53 lose
    /// digits in most readers) and the cycle total.
    #[must_use]
    pub fn determinism_json(&self) -> Json {
        Json::obj([
            (
                "requests_hash",
                format!("{:016x}", self.requests_hash).into(),
            ),
            (
                "responses_hash",
                format!("{:016x}", self.responses_hash).into(),
            ),
            ("sim_cycles_total", self.sim_cycles_total.into()),
        ])
    }

    /// Hits as a fraction of all lookups (0.0 before the first lookup).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }
}

/// Builds one `perfhist-serve-v1` record. Its `batch` counts are
/// `totals` minus the totals at the previous flush (`flushed`); its cache
/// and determinism fields are the cumulative totals, with `entries` live
/// cache entries.
#[must_use]
pub(crate) fn build(shards: usize, totals: &Tally, flushed: &Tally, entries: u64) -> Json {
    let by_op = totals.by_op.iter().filter_map(|(op, &n)| {
        let new = n - flushed.by_op.get(op).copied().unwrap_or(0);
        (new > 0).then(|| (op.clone(), new.into()))
    });
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
                ("requests", (totals.requests - flushed.requests).into()),
                ("errors", (totals.errors - flushed.errors).into()),
                ("by_op", Json::obj(by_op)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", totals.hits.into()),
                ("misses", totals.misses.into()),
                ("entries", entries.into()),
                ("hit_rate", Json::f64(totals.hit_rate())),
            ]),
        ),
        ("determinism", totals.determinism_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_carries_the_gated_fields() {
        let mut flushed = Tally::default();
        flushed.answered("stats", true);
        let mut totals = flushed.clone();
        totals.answered("stats", false);
        for _ in 0..9 {
            totals.answered("run", true);
        }
        totals.hits = 9;
        totals.misses = 1;
        totals.requests_hash = 0xabc;
        totals.responses_hash = 0xdef;
        totals.sim_cycles_total = 12345;
        let rec = build(4, &totals, &flushed, 1);
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
        let b = back.get("batch").unwrap();
        assert_eq!(b.get("requests").and_then(Json::as_u64), Some(10));
        assert_eq!(b.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(
            b.get("by_op").unwrap().write(),
            r#"{"run":9,"stats":1}"#,
            "the batch is the totals minus the last flush"
        );
        let c = back.get("cache").unwrap();
        assert_eq!(c.get("hit_rate").and_then(Json::as_f64), Some(0.9));
        for gone in ["latency", "throughput_rps", "wall_s"] {
            assert!(back.get(gone).is_none(), "no host time: {gone}");
        }
    }
}
