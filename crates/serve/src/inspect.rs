//! The `metrics-v1` snapshot format behind the `inspect` op, plus the
//! scrubber that strips its wall-clock and schedule-dependent fields.
//!
//! A snapshot is a single ordered JSON document:
//!
//! ```json
//! {"schema":"metrics-v1","backend":"interp","shards":4,"uptime_us":…,
//!  "requests":{"total":…,"errors":…,"by_op":{…}},
//!  "determinism":{"requests_hash":"<hex>","responses_hash":"<hex>","sim_cycles_total":…},
//!  "cache":{"builds":…,"translations":{"entries":…,"capacity":…,
//!           "generation":…,"evictions":…,"hits":…,"misses":…,"hit_rate":…}},
//!  "flight":{"capacity":…,"events":…,"dropped":…,"contended":…},
//!  "counters":{…},"histograms":{"request.cycles":{…},"wall.latency_us":{…}}}
//! ```
//!
//! Determinism contract: after [`scrub`], a snapshot taken after a fixed
//! request load is **byte-identical at any shard count**. The fields the
//! scrubber removes are exactly the ones that legitimately depend on
//! wall-clock time or scheduling: shard count and uptime, `wall.*`
//! histograms, cache hit/miss tallies (two workers racing one miss both
//! count it), and the flight-recorder's event/drop/contention counters
//! (a racing miss records extra lifecycle events). Everything else —
//! request totals, determinism hashes, cache occupancy and generation,
//! merged per-shard counters, and the power-of-two cycle histogram — is a
//! pure function of the request multiset.

use liquid_simd_trace::{Json, Metrics};

/// Schema tag of an `inspect` snapshot.
pub const METRICS_SCHEMA: &str = "metrics-v1";

/// Histogram names with this prefix hold wall-clock samples and are
/// scrubbed before determinism comparisons.
pub const WALL_PREFIX: &str = "wall.";

/// Bucket edges for simulated-cycle histograms (`2^0 … 2^40`).
#[must_use]
pub fn cycle_bounds() -> Vec<u64> {
    liquid_simd_trace::pow2_bounds(40)
}

/// Bucket edges for wall-latency histograms in microseconds (`2^0 … 2^26`,
/// ≈ 67 s).
#[must_use]
pub fn latency_bounds() -> Vec<u64> {
    liquid_simd_trace::pow2_bounds(26)
}

/// Renders a merged registry as the `counters`/`histograms` pair of a
/// snapshot. `BTreeMap` iteration makes both orderings canonical.
#[must_use]
pub fn registry_json(m: &Metrics) -> (Json, Json) {
    let counters = m.counters().iter().map(|(k, &v)| (k.clone(), v.into()));
    let histograms = m.histograms().iter().map(|(k, h)| (k.clone(), h.to_json()));
    (Json::obj(counters), Json::obj(histograms))
}

/// Returns a copy of a `metrics-v1` snapshot with every wall-clock and
/// schedule-dependent field removed (see the module docs for the list) —
/// the form in which snapshots at different shard counts are
/// byte-identical under fixed load.
#[must_use]
pub fn scrub(doc: &Json) -> Json {
    scrub_at(doc, "")
}

fn scrub_at(doc: &Json, path: &str) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| {
                    let full = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    !scrubbed(&full)
                })
                .map(|(k, v)| {
                    let full = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    (k.clone(), scrub_at(v, &full))
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

fn scrubbed(path: &str) -> bool {
    matches!(
        path,
        "shards"
            | "uptime_us"
            | "cache.translations.hits"
            | "cache.translations.misses"
            | "cache.translations.hit_rate"
            | "flight.events"
            | "flight.dropped"
            | "flight.contended"
    ) || path.starts_with(&format!("histograms.{WALL_PREFIX}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_removes_exactly_the_volatile_fields() {
        let doc = Json::parse(
            r#"{"schema":"metrics-v1","backend":"interp","shards":4,"uptime_us":99,
            "requests":{"total":10,"errors":1},
            "cache":{"builds":2,"translations":{"entries":3,"capacity":0,"generation":3,
                     "evictions":0,"hits":7,"misses":3,"hit_rate":0.7}},
            "flight":{"capacity":4096,"events":50,"dropped":0,"contended":1},
            "counters":{"cycles":123},
            "histograms":{"request.cycles":{"count":10},"wall.latency_us":{"count":10}}}"#,
        )
        .unwrap();
        let clean = scrub(&doc);
        let text = clean.write();
        for gone in [
            "shards",
            "uptime_us",
            "hits",
            "misses",
            "hit_rate",
            "\"events\"",
            "dropped",
            "contended",
            "wall.latency_us",
        ] {
            assert!(!text.contains(gone), "{gone} must be scrubbed: {text}");
        }
        for kept in [
            "backend",
            "\"total\":10",
            "\"entries\":3",
            "\"generation\":3",
            "\"evictions\":0",
            "\"capacity\":4096",
            "request.cycles",
            "\"cycles\":123",
        ] {
            assert!(text.contains(kept), "{kept} must survive: {text}");
        }
        // Scrubbing is idempotent.
        assert_eq!(scrub(&clean).write(), text);
    }
}
