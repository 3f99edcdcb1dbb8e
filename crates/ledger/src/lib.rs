//! The cycle ledger: exact, deterministic cycle attribution.
//!
//! Every simulated cycle the machine spends is charged to exactly one
//! *bucket* keyed by `(region, pc, category)`:
//!
//! * **region** — the entry PC of the innermost call target the cycle was
//!   spent under ([`TOP_REGION`] for straight-line code outside any call,
//!   the microcode entry's function PC for accelerator execution);
//! * **pc** — the retiring instruction's PC (program index for the scalar
//!   stream, microcode position for the accelerator stream);
//! * **category** — *why* the cycle was spent (see [`Category`]).
//!
//! The ledger is always on and is the simulator's only cycle-charging
//! path: the machine feeds a dense [`Recorder`] at every retire and builds
//! one ordered [`Ledger`] when the run ends. The run's phase partition
//! (scalar / microcode / JIT stall) and its per-call-target split are
//! derived from the ledger, so the sum of all bucket cycles equals the
//! run's cycle count by construction; tier-1 tests check that on both
//! execution backends. Event-only categories (mcache probes/misses,
//! microcode dispatches) charge zero cycles and count occurrences instead,
//! so they corroborate without perturbing the partition.
//!
//! Program-stream and microcode-stream cycles stay separate inside the
//! ledger ([`RegionTotal::micro_cycles`]), even where their buckets share
//! a key in the rendered `ledger-v1` form. The ledger is a plain ordered
//! map — totalling and rendering are deterministic, and two
//! ledgers from observationally identical runs compare byte-identical when
//! rendered. [`Snapshot`] is the compact, diff-able rollup (per-region ×
//! per-category, no per-PC detail) embedded in `perfhist-v1` records and
//! consumed by [`diff`](crate::diff).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
mod recorder;

use std::collections::BTreeMap;
use std::fmt;

use liquid_simd_trace::json::Json;

pub use recorder::Recorder;

/// Region id for cycles spent outside any call (top-level driver code).
pub const TOP_REGION: u32 = u32::MAX;

/// Why a cycle was spent (or an event happened). The first four partition
/// every simulated cycle; the last three are event-only corroboration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Scalar-stream execution outside any abort-replay region.
    ScalarExecute,
    /// Accelerator execution: microcode-stream retires, plus native
    /// vector instructions in the program stream.
    VectorExecute,
    /// Translation cost: JIT pipeline stalls (hardware translation
    /// finishes charge an event with zero cycles).
    TranslateOverhead,
    /// Scalar-stream execution inside a region whose translation aborted
    /// permanently — the scalar fallback the paper's §4.2 replay pays.
    AbortReplay,
    /// One microcode-cache lookup (event-only).
    McacheProbe,
    /// One microcode-cache miss (event-only).
    McacheMiss,
    /// One dispatch into resident microcode (event-only).
    Dispatch,
}

impl Category {
    /// Every category, in canonical (ordering) order.
    pub const ALL: [Category; 7] = [
        Category::ScalarExecute,
        Category::VectorExecute,
        Category::TranslateOverhead,
        Category::AbortReplay,
        Category::McacheProbe,
        Category::McacheMiss,
        Category::Dispatch,
    ];

    /// The stable kebab-case name (the public schema surface).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::ScalarExecute => "scalar-execute",
            Category::VectorExecute => "vector-execute",
            Category::TranslateOverhead => "translate-overhead",
            Category::AbortReplay => "abort-replay",
            Category::McacheProbe => "mcache-probe",
            Category::McacheMiss => "mcache-miss",
            Category::Dispatch => "dispatch",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One attribution bucket: cycles charged plus charge occurrences.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Simulated cycles charged to this bucket.
    pub cycles: u64,
    /// Number of charges (retires for execute categories, occurrences for
    /// event-only categories).
    pub events: u64,
}

impl Bucket {
    fn add(&mut self, other: Bucket) {
        self.cycles += other.cycles;
        self.events += other.events;
    }
}

/// Per-region rollup: totals plus the per-category split.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionTotal {
    /// Cycles charged under this region, all categories.
    pub cycles: u64,
    /// The part of [`RegionTotal::cycles`] spent executing microcode (the
    /// rest was spent in the program stream).
    pub micro_cycles: u64,
    /// Events charged under this region, all categories.
    pub events: u64,
    /// Per-category bucket totals.
    pub by_category: BTreeMap<Category, Bucket>,
}

/// The attribution ledger for one run. Ordered map ⇒ deterministic
/// iteration and rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    buckets: BTreeMap<(u32, u32, Category), Bucket>,
    /// Microcode-stream cycles per region: the stream split the rendered
    /// buckets do not carry.
    micro: BTreeMap<u32, u64>,
}

impl Ledger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Charges `cycles` to the program-stream `(region, pc, category)`
    /// bucket and counts one event.
    pub fn charge(&mut self, region: u32, pc: u32, category: Category, cycles: u64) {
        self.add((region, pc, category), Bucket { cycles, events: 1 });
    }

    /// Counts one zero-cycle event on the `(region, pc, category)` bucket.
    pub fn event(&mut self, region: u32, pc: u32, category: Category) {
        self.charge(region, pc, category, 0);
    }

    fn add(&mut self, key: (u32, u32, Category), b: Bucket) {
        self.buckets.entry(key).or_default().add(b);
    }

    /// Adds a microcode bucket: vector-execute, and counted in the
    /// region's microcode-stream cycles.
    fn add_micro(&mut self, region: u32, pos: u32, b: Bucket) {
        self.add((region, pos, Category::VectorExecute), b);
        *self.micro.entry(region).or_default() += b.cycles;
    }

    /// Iterates buckets in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32, Category), &Bucket)> {
        self.buckets.iter()
    }

    /// Sum of all bucket cycles — equals the run's cycle count.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.buckets.values().map(|b| b.cycles).sum()
    }

    /// Cycles spent executing microcode, all regions.
    #[must_use]
    pub fn micro_cycles(&self) -> u64 {
        self.micro.values().sum()
    }

    /// Per-category rollup across all regions and PCs.
    #[must_use]
    pub fn category_totals(&self) -> BTreeMap<Category, Bucket> {
        let mut out: BTreeMap<Category, Bucket> = BTreeMap::new();
        for (&(_, _, cat), &b) in &self.buckets {
            out.entry(cat).or_default().add(b);
        }
        out
    }

    /// Per-region rollup with the per-category and per-stream split.
    #[must_use]
    pub fn region_totals(&self) -> BTreeMap<u32, RegionTotal> {
        let mut out: BTreeMap<u32, RegionTotal> = BTreeMap::new();
        for (&(region, _, cat), &b) in &self.buckets {
            let r = out.entry(region).or_default();
            r.cycles += b.cycles;
            r.events += b.events;
            r.by_category.entry(cat).or_default().add(b);
        }
        for (region, &cycles) in &self.micro {
            out.entry(*region).or_default().micro_cycles = cycles;
        }
        out
    }

    /// Renders the full per-PC ledger as deterministic compact `ledger-v1`
    /// JSON — the byte-identity surface for cross-backend and cross-jobs
    /// tests.
    #[must_use]
    pub fn to_json(&self) -> String {
        let buckets = self.buckets.iter().map(|(&(region, pc, cat), b)| {
            Json::Arr(vec![
                region.into(),
                pc.into(),
                cat.name().into(),
                b.cycles.into(),
                b.events.into(),
            ])
        });
        Json::obj([
            ("schema", "ledger-v1".into()),
            ("total_cycles", self.total_cycles().into()),
            ("buckets", Json::arr(buckets)),
        ])
        .write()
    }
}

/// How a region id renders in snapshots and diff output.
fn region_name(region: u32, names: &BTreeMap<u32, String>) -> String {
    if region == TOP_REGION {
        return "(top-level)".to_string();
    }
    names
        .get(&region)
        .map_or_else(|| format!("@{region}"), |n| format!("{n} @{region}"))
}

/// Per-region entry of a [`Snapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegionSnap {
    /// Cycles charged under the region.
    pub cycles: u64,
    /// Events charged under the region.
    pub events: u64,
    /// Per-category cycle split (names, so snapshots parsed back from
    /// history records round-trip even across category additions).
    pub by_category: BTreeMap<String, u64>,
}

/// The compact, diff-able rollup of one run's ledger: per-category and
/// per-region totals plus corroborating flat counters. Its body (no label,
/// no counters) is embedded in every `perfhist-v1` workload row, and it is
/// what [`diff::diff`] consumes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Human label for the run ("179.art w8", "BENCH run 4", …).
    pub label: String,
    /// Total cycles of the run.
    pub total_cycles: u64,
    /// Per-category totals, keyed by stable category name.
    pub categories: BTreeMap<String, Bucket>,
    /// Per-region totals, keyed by display name
    /// (`label @entry` / `@entry` / `(top-level)`).
    pub regions: BTreeMap<String, RegionSnap>,
    /// Corroborating evidence: any flat dotted-name counters
    /// (`mcache.conflicts`, `lanes.ops`, …) the caller wants diffed
    /// alongside the attribution.
    pub counters: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Rolls a ledger up into a snapshot. `names` maps region entry PCs to
    /// labels for display.
    #[must_use]
    pub fn from_ledger(label: &str, ledger: &Ledger, names: &BTreeMap<u32, String>) -> Snapshot {
        let categories = ledger
            .category_totals()
            .into_iter()
            .map(|(c, b)| (c.name().to_string(), b))
            .collect();
        let regions = ledger
            .region_totals()
            .into_iter()
            .map(|(r, t)| {
                (
                    region_name(r, names),
                    RegionSnap {
                        cycles: t.cycles,
                        events: t.events,
                        by_category: t
                            .by_category
                            .into_iter()
                            .map(|(c, b)| (c.name().to_string(), b.cycles))
                            .collect(),
                    },
                )
            })
            .collect();
        Snapshot {
            label: label.to_string(),
            total_cycles: ledger.total_cycles(),
            categories,
            regions,
            counters: BTreeMap::new(),
        }
    }

    /// The snapshot body (without the label) as a JSON value — the
    /// `ledger` object embedded in perfhist rows and diagnose reports.
    #[must_use]
    pub fn json(&self) -> Json {
        let categories = self.categories.iter().map(|(name, b)| {
            let body = Json::obj([("cycles", b.cycles.into()), ("events", b.events.into())]);
            (name.clone(), body)
        });
        let regions = self.regions.iter().map(|(name, r)| {
            let by_category = r.by_category.iter().map(|(c, &n)| (c.clone(), n.into()));
            let body = Json::obj([
                ("cycles", r.cycles.into()),
                ("events", r.events.into()),
                ("by_category", Json::obj(by_category)),
            ]);
            (name.clone(), body)
        });
        Json::obj([
            ("total_cycles", self.total_cycles.into()),
            ("categories", Json::obj(categories)),
            ("regions", Json::obj(regions)),
        ])
    }

    /// The inverse of [`Snapshot::json`]: the snapshot a `ledger` object
    /// describes, labelled `label`, with no counters (the body carries
    /// none). `None` when `json` has no `total_cycles`; missing rollup
    /// fields read as zero.
    #[must_use]
    pub fn from_json(label: &str, json: &Json) -> Option<Snapshot> {
        fn pairs<'a>(j: &'a Json, key: &str) -> &'a [(String, Json)] {
            j.get(key).and_then(Json::as_obj).unwrap_or(&[])
        }
        let num = |j: &Json| j.as_u64().unwrap_or(0);
        let field = |j: &Json, key: &str| j.get(key).map_or(0, num);
        let categories = pairs(json, "categories").iter().map(|(name, b)| {
            let (cycles, events) = (field(b, "cycles"), field(b, "events"));
            (name.clone(), Bucket { cycles, events })
        });
        let regions = pairs(json, "regions").iter().map(|(name, r)| {
            let by_category = pairs(r, "by_category").iter();
            let region = RegionSnap {
                cycles: field(r, "cycles"),
                events: field(r, "events"),
                by_category: by_category.map(|(c, n)| (c.clone(), num(n))).collect(),
            };
            (name.clone(), region)
        });
        Some(Snapshot {
            label: label.to_string(),
            total_cycles: json.get("total_cycles")?.as_u64()?,
            categories: categories.collect(),
            regions: regions.collect(),
            counters: BTreeMap::new(),
        })
    }

    /// [`Snapshot::json`] written compactly on one line.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ledger {
        let mut l = Ledger::new();
        l.add_micro(
            10,
            2,
            Bucket {
                cycles: 100,
                events: 1,
            },
        );
        l.charge(10, 13, Category::VectorExecute, 50);
        l.charge(TOP_REGION, 1, Category::ScalarExecute, 30);
        l.charge(10, 10, Category::TranslateOverhead, 0);
        l.event(10, 1, Category::McacheProbe);
        l.event(10, 1, Category::Dispatch);
        l
    }

    #[test]
    fn totals_partition_by_category_region_and_stream() {
        let l = sample();
        assert_eq!(l.total_cycles(), 180);
        let cats = l.category_totals();
        assert_eq!(cats[&Category::VectorExecute].cycles, 150);
        assert_eq!(cats[&Category::ScalarExecute].cycles, 30);
        assert_eq!(cats[&Category::McacheProbe].events, 1);
        let regions = l.region_totals();
        assert_eq!(regions[&10].cycles, 150);
        assert_eq!(regions[&10].micro_cycles, 100);
        assert_eq!(regions[&TOP_REGION].cycles, 30);
        assert_eq!(regions[&TOP_REGION].micro_cycles, 0);
        assert_eq!(l.micro_cycles(), 100);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"ledger-v1\",\"total_cycles\":180,"));
        // Region 10's buckets precede TOP_REGION (u32::MAX sorts last).
        let probe = a.find("mcache-probe").unwrap();
        let scalar = a.find("scalar-execute").unwrap();
        assert!(probe < scalar, "{a}");
    }

    #[test]
    fn snapshot_rolls_up_regions_and_categories() {
        let mut names = BTreeMap::new();
        names.insert(10u32, "kernel".to_string());
        let snap = Snapshot::from_ledger("t w8", &sample(), &names);
        assert_eq!(snap.total_cycles, 180);
        assert_eq!(snap.categories["vector-execute"].cycles, 150);
        assert_eq!(snap.regions["kernel @10"].cycles, 150);
        assert_eq!(snap.regions["(top-level)"].cycles, 30);
        assert_eq!(
            snap.regions["kernel @10"].by_category["vector-execute"],
            150
        );
        let json = snap.to_json();
        assert!(json.starts_with("{\"total_cycles\":180,\"categories\":{"));
        assert!(json.contains("\"kernel @10\":{\"cycles\":150"));
        assert_eq!(Snapshot::from_json("t w8", &snap.json()), Some(snap));
        assert_eq!(
            Snapshot::from_json("t w8", &Json::obj([("regions", Json::Null)])),
            None
        );
    }
}
