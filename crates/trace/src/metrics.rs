//! A lightweight metrics registry: named counters and fixed-bucket
//! histograms that merge across registries. No background threads, no
//! atomics — the serve daemon keeps one registry per shard behind a lock
//! and merges them for `inspect`.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper edges; a sample lands in the first bucket
/// whose bound is `>= sample`, or in the implicit overflow bucket. The
/// bucket layout is fixed at construction — recording never allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Power-of-two inclusive upper edges `[1, 2, 4, …, 2^max_pow]` — the
/// canonical bucket layout for service latency/cycle histograms. Every
/// shard using the same `max_pow` gets an identical layout, so
/// [`Histogram::merge`] across shards is exact and the merged rendering
/// is byte-identical regardless of how samples were partitioned.
#[must_use]
pub fn pow2_bounds(max_pow: u32) -> Vec<u64> {
    (0..=max_pow.min(63)).map(|p| 1u64 << p).collect()
}

impl Histogram {
    /// Creates a power-of-two-bucket histogram (see [`pow2_bounds`]).
    #[must_use]
    pub fn pow2(max_pow: u32) -> Histogram {
        Histogram::new(&pow2_bounds(max_pow))
    }

    /// Creates a histogram with the given inclusive upper bucket edges
    /// (must be strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, sample: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.max = self.max.max(sample);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 with no samples.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive upper edges.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; one longer than [`Histogram::bounds`] (the last
    /// entry is the overflow bucket).
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate percentile (`p` in `0.0..=100.0`) from the bucket
    /// layout: the inclusive upper edge of the bucket containing the
    /// `ceil(p/100 × n)`-th smallest sample, or [`Histogram::max`] when it
    /// falls in the overflow bucket. Returns 0 with no samples.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = rank(self.count, p);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Renders the histogram as ordered JSON: bounds, per-bucket counts
    /// (one longer than bounds — the overflow bucket), and the exact
    /// aggregates.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bounds", Json::arr(self.bounds.iter().copied())),
            ("counts", Json::arr(self.counts.iter().copied())),
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("max", self.max.into()),
        ])
    }

    /// Rebuilds a histogram from its [`Histogram::to_json`] form; `None`
    /// when any field is missing or the bucket layout is inconsistent.
    #[must_use]
    pub fn from_json(doc: &Json) -> Option<Histogram> {
        let u64s = |key: &str| -> Option<Vec<u64>> {
            doc.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
        };
        let (bounds, counts) = (u64s("bounds")?, u64s("counts")?);
        let layout_ok = !bounds.is_empty()
            && bounds.windows(2).all(|w| w[0] < w[1])
            && counts.len() == bounds.len() + 1;
        if !layout_ok {
            return None;
        }
        Some(Histogram {
            bounds,
            counts,
            count: doc.get("count")?.as_u64()?,
            sum: doc.get("sum")?.as_u64()?,
            max: doc.get("max")?.as_u64()?,
        })
    }

    /// Folds another histogram's samples into this one. Identical bucket
    /// layouts merge exactly; a different layout is re-binned by replaying
    /// each of `other`'s buckets at its inclusive upper edge (the overflow
    /// bucket replays at `other.max()`), preserving `count`, `sum`, and
    /// `max` exactly but only approximating the distribution.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
        } else {
            for (i, &c) in other.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let edge = if i < other.bounds.len() {
                    other.bounds[i]
                } else {
                    other.max
                };
                let idx = self
                    .bounds
                    .iter()
                    .position(|&b| edge <= b)
                    .unwrap_or(self.bounds.len());
                self.counts[idx] += c;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// The 1-based nearest rank of percentile `p` (clamped to `0..=100`)
/// among `n > 0` samples: `ceil(p/100 × n)`, at least 1.
fn rank(n: u64, p: f64) -> u64 {
    ((p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `0..=100`); the default value (zero) for an empty slice.
#[must_use]
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[rank(sorted.len() as u64, p) as usize - 1]
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )?;
        let mut prev = 0u64;
        for (i, &b) in self.bounds.iter().enumerate() {
            if self.counts[i] > 0 {
                write!(f, " [{prev}..{b}]:{}", self.counts[i])?;
            }
            prev = b + 1;
        }
        if self.counts[self.bounds.len()] > 0 {
            write!(f, " [{prev}..]:{}", self.counts[self.bounds.len()])?;
        }
        Ok(())
    }
}

/// A registry of counters and histograms keyed by dotted names
/// (`"sim.mcache.hits"`, `"wall.latency_us"`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to counter `name`, creating it at zero first if needed.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Reads counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Registers a histogram with the given bucket edges if absent.
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records a sample into histogram `name`, registering it with the
    /// given default bounds on first use.
    pub fn observe(&mut self, name: &str, sample: u64, default_bounds: &[u64]) {
        self.register_histogram(name, default_bounds);
        self.histograms
            .get_mut(name)
            .expect("registered above")
            .observe(sample);
    }

    /// Reads a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge via [`Histogram::merge`] (names absent here are cloned in).
    /// Disjoint registries simply union.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, &v) in &other.counters {
            self.add(name, v);
        }
        for (name, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(h);
            } else {
                self.histograms.insert(name.clone(), h.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for s in [5, 10, 11, 99, 5000] {
            h.observe(s);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts(), &[2, 2, 0, 1]);
        assert_eq!(h.max(), 5000);
        assert!((h.mean() - 1025.0).abs() < 1e-9);
        let text = h.to_string();
        assert!(text.contains("n=5"));
        assert!(text.contains("[0..10]:2"));
        assert!(text.contains("[1001..]:1"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn counters_and_prefixes() {
        let mut m = Metrics::new();
        m.add("translator.abort.cam-miss", 2);
        m.add("translator.abort.no-loop", 1);
        m.add("translator.abort.cam-miss", 1);
        m.add("mcache.hit", 7);
        assert_eq!(m.counter("translator.abort.cam-miss"), 3);
        assert_eq!(m.counter("missing"), 0);
        // Names that share a prefix are separate counters.
        assert_eq!(m.counter("translator.abort.no-loop"), 1);
        assert_eq!(m.counters().len(), 3);
    }

    #[test]
    fn observe_registers_on_first_use() {
        let mut m = Metrics::new();
        m.observe("lat", 42, &[10, 100]);
        m.observe("lat", 7, &[1]); // bounds ignored after registration
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.bounds(), &[10, 100]);
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        let h = Histogram::new(&[10, 100]);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn percentile_walks_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for s in [5, 6, 50, 60, 70, 80, 90, 99, 500, 9999] {
            h.observe(s);
        }
        assert_eq!(h.percentile(10.0), 10); // 1st of 10 → first bucket edge
        assert_eq!(h.percentile(50.0), 100);
        assert_eq!(h.percentile(90.0), 1000);
        assert_eq!(h.percentile(100.0), 9999); // overflow → observed max
    }

    #[test]
    fn merge_same_bounds_is_exact() {
        let mut a = Histogram::new(&[10, 100]);
        let mut b = Histogram::new(&[10, 100]);
        a.observe(5);
        b.observe(50);
        b.observe(5000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 5055);
        assert_eq!(a.max(), 5000);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
    }

    #[test]
    fn merge_different_bounds_rebins_but_keeps_totals() {
        let mut a = Histogram::new(&[1000]);
        let mut b = Histogram::new(&[10, 100]);
        b.observe(5);
        b.observe(50);
        b.observe(7000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 7055);
        assert_eq!(a.max(), 7000);
        // Edges 10 and 100 rebin under 1000; overflow replays at max 7000.
        assert_eq!(a.bucket_counts(), &[2, 1]);
    }

    #[test]
    fn pow2_bounds_double_and_cap_at_u64() {
        assert_eq!(pow2_bounds(3), vec![1, 2, 4, 8]);
        let h = Histogram::pow2(20);
        assert_eq!(h.bounds().len(), 21);
        assert_eq!(*h.bounds().last().unwrap(), 1 << 20);
        // max_pow beyond 63 clamps instead of overflowing the shift.
        assert_eq!(*pow2_bounds(80).last().unwrap(), 1u64 << 63);
    }

    #[test]
    fn shard_merge_is_partition_independent() {
        // The same sample multiset, partitioned over 1 vs N "shards",
        // must merge to byte-identical histograms (the metrics-v1
        // determinism requirement). Exactness holds because every shard
        // shares one pow2 layout.
        let samples: Vec<u64> = (0..257).map(|i| (i * i * 7 + 3) % 100_000).collect();
        let merged_of = |shards: usize| {
            let mut parts: Vec<Histogram> = (0..shards).map(|_| Histogram::pow2(32)).collect();
            for (i, &s) in samples.iter().enumerate() {
                parts[i % shards].observe(s);
            }
            let mut merged = Histogram::pow2(32);
            for p in &parts {
                merged.merge(p);
            }
            merged
        };
        let one = merged_of(1);
        for shards in [2, 3, 8] {
            let n = merged_of(shards);
            assert_eq!(one, n, "merge at 1 shard == merge at {shards}");
            assert_eq!(one.to_string(), n.to_string(), "rendering identical");
        }
    }

    #[test]
    fn merge_disjoint_registries_unions() {
        let mut a = Metrics::new();
        a.add("only.a", 1);
        a.add("shared", 2);
        a.observe("hist.a", 5, &[10]);
        let mut b = Metrics::new();
        b.add("only.b", 10);
        b.add("shared", 3);
        b.observe("hist.b", 50, &[100]);
        a.merge(&b);
        assert_eq!(a.counter("only.a"), 1);
        assert_eq!(a.counter("only.b"), 10);
        assert_eq!(a.counter("shared"), 5);
        assert_eq!(a.histogram("hist.a").unwrap().count(), 1);
        assert_eq!(a.histogram("hist.b").unwrap().count(), 1);
        assert_eq!(a.histogram("hist.b").unwrap().bounds(), &[100]);
    }

    #[test]
    fn histogram_json_round_trips_shape() {
        let mut h = Histogram::pow2(4);
        for s in [1, 3, 9, 40] {
            h.observe(s);
        }
        let doc = h.to_json();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("sum").and_then(Json::as_u64), Some(53));
        assert_eq!(doc.get("max").and_then(Json::as_u64), Some(40));
        assert_eq!(doc.get("bounds").and_then(Json::as_arr).unwrap().len(), 5);
        assert_eq!(doc.get("counts").and_then(Json::as_arr).unwrap().len(), 6);
        // Parsing the rendered text reproduces the document byte-for-byte,
        // and the histogram itself.
        let text = doc.write();
        assert_eq!(Json::parse(&text).unwrap().write(), text);
        assert_eq!(Histogram::from_json(&doc), Some(h));
    }

    #[test]
    fn from_json_percentile_matches_histogram_percentile() {
        let mut h = Histogram::pow2(16);
        for s in [1, 2, 5, 9, 100, 1000, 70_000, 70_000, 70_001, 200_000] {
            h.observe(s);
        }
        let back = Histogram::from_json(&h.to_json()).unwrap();
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(back.percentile(p), h.percentile(p), "p{p}");
        }
        assert_eq!(Histogram::from_json(&Json::Obj(vec![])), None);
        // An inconsistent layout is refused, not trusted.
        let mut bad = h.to_json();
        bad.set("counts", Json::arr([1u64]));
        assert_eq!(Histogram::from_json(&bad), None);
    }

    #[test]
    fn nearest_rank_matches_definition() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&v, 10.0), 1.0);
        assert_eq!(nearest_rank(&v, 50.0), 2.0);
        assert_eq!(nearest_rank(&v, 90.0), 4.0);
        assert_eq!(nearest_rank(&v, 100.0), 4.0);
        assert_eq!(nearest_rank(&[] as &[f64], 50.0), 0.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&lat, 50.0), 50);
        assert_eq!(nearest_rank(&lat, 95.0), 95);
        assert_eq!(nearest_rank(&lat, 99.0), 99);
        assert_eq!(nearest_rank(&lat, 100.0), 100);
        assert_eq!(nearest_rank(&[] as &[u64], 50.0), 0);
        assert_eq!(nearest_rank(&[7u64], 99.0), 7);
    }
}
