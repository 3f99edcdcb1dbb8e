//! `perfhist-v1` records: [`build`] writes one, and [`rows`] and
//! [`snapshot`] are the only readers of what it wrote.
//!
//! One record captures one bench invocation: identity (git commit,
//! timestamp, host, machine-config hash) and the deterministic results
//! (per-workload simulated cycles, including the scalar baseline, every
//! swept width and the headline run's ledger snapshot, plus the
//! counter-telemetry snapshot). Records carry no
//! host-time measurements, so two runs of the same code differ only in
//! `timestamp` — whatever `--jobs` was. Host time is perfbench's to
//! measure. Older records in a history may still carry `wall_s`,
//! `sim_cycles_per_sec` and `wall` fields; readers ignore them.

use std::collections::BTreeMap;

use liquid_simd_ledger::{RegionSnap, Snapshot};

use crate::Json;

/// The record schema tag this crate writes.
pub const SCHEMA: &str = "perfhist-v1";

/// The schema tag of serving-telemetry records: one per completed serve
/// batch, written by `liquid-simd serve` / `bench --serve`. They share the
/// history file with [`SCHEMA`] records — readers filter by schema — and
/// carry request/cache counts plus the order-independent determinism
/// hashes the sentinel gates on.
pub const SERVE_SCHEMA: &str = "perfhist-serve-v1";

/// The schema tag of generated-family records: one per `bench
/// --families` invocation, summarising each kernelgen family as a
/// speedup *distribution* (p10/p50/p90 over its variants) plus the
/// abort tags its untranslatable variants exercised. They share the
/// history file with [`SCHEMA`] records — readers filter by schema.
pub const GEN_SCHEMA: &str = "perfhist-gen-v1";

/// One workload's measurements inside a record.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRow {
    /// Workload name (paper Table 5 set).
    pub name: String,
    /// Scalar-only machine cycles — the speedup denominator.
    pub baseline_cycles: u64,
    /// Liquid machine cycles at the headline width (8 lanes).
    pub sim_cycles: u64,
    /// Liquid machine cycles at every swept width, `(width, cycles)`.
    pub cycles_by_width: Vec<(usize, u64)>,
    /// Cycle-ledger snapshot of the headline-width run (category and
    /// region rollups), labelled with the workload name and carrying no
    /// counters. `bench` embeds one in every row; `None` only for rows of
    /// records written before it did.
    pub ledger: Option<Snapshot>,
}

impl WorkloadRow {
    /// The row's cycle fields, without the ledger: the workload rows of
    /// both a record and the `bench` snapshot.
    #[must_use]
    pub fn cycles_json(&self) -> Json {
        let by_width = self.cycles_by_width.iter();
        Json::obj([
            ("name", (&self.name).into()),
            ("baseline_cycles", self.baseline_cycles.into()),
            ("sim_cycles", self.sim_cycles.into()),
            (
                "cycles_by_width",
                Json::obj(by_width.map(|&(width, cycles)| (width.to_string(), cycles.into()))),
            ),
        ])
    }

    /// The row as a record carries it: [`cycles_json`](Self::cycles_json)
    /// plus the ledger snapshot's body when there is one.
    #[must_use]
    pub fn json(&self) -> Json {
        let mut row = self.cycles_json();
        if let Some(ledger) = &self.ledger {
            row.set("ledger", ledger.json());
        }
        row
    }

    /// The inverse of [`json`](Self::json): the one reader of a
    /// `perfhist-v1` workload row. `None` when the row lacks its name or a
    /// cycle count; fields older records carry beside them are ignored.
    #[must_use]
    pub fn parse(row: &Json) -> Option<WorkloadRow> {
        let name = row.get("name")?.as_str()?.to_string();
        let by_width = row.get("cycles_by_width").and_then(Json::as_obj);
        Some(WorkloadRow {
            baseline_cycles: row.get("baseline_cycles")?.as_u64()?,
            sim_cycles: row.get("sim_cycles")?.as_u64()?,
            cycles_by_width: by_width
                .unwrap_or(&[])
                .iter()
                .filter_map(|(w, c)| Some((w.parse().ok()?, c.as_u64()?)))
                .collect(),
            ledger: row
                .get("ledger")
                .and_then(|l| Snapshot::from_json(&name, l)),
            name,
        })
    }
}

/// The workload rows of a `perfhist-v1` record, in record order.
#[must_use]
pub fn rows(record: &Json) -> Vec<WorkloadRow> {
    let rows = record.get("workloads").and_then(Json::as_arr);
    rows.unwrap_or(&[])
        .iter()
        .filter_map(WorkloadRow::parse)
        .collect()
}

/// The `perfhist-v1` records of a loaded history, oldest first.
#[must_use]
pub fn bench_records(history: &[Json]) -> Vec<&Json> {
    let schema = |r: &&Json| r.get("schema").and_then(Json::as_str) == Some(SCHEMA);
    history.iter().filter(schema).collect()
}

/// A record's `commit`, or `?`.
#[must_use]
pub fn commit(record: &Json) -> &str {
    record.get("commit").and_then(Json::as_str).unwrap_or("?")
}

/// A record's execution backend. Records written before the field existed
/// are interpreter records.
#[must_use]
pub fn backend(record: &Json) -> &str {
    record
        .get("backend")
        .and_then(Json::as_str)
        .unwrap_or("interp")
}

/// Rolls one `perfhist-v1` record into a diff-able snapshot labelled
/// `label (commit, backend)`: the `ledger.*` counters become the category
/// totals, each workload row becomes a region (with its ledger's category
/// split), and every other counter but `backend.*` rides along as
/// corroborating evidence.
#[must_use]
pub fn snapshot(record: &Json, label: &str) -> Snapshot {
    let mut snap = Snapshot {
        label: format!("{label} ({}, {})", commit(record), backend(record)),
        ..Snapshot::default()
    };
    let counters = record.get("counters").and_then(Json::as_obj);
    for (k, v) in counters.unwrap_or(&[]) {
        let Some(v) = v.as_u64() else { continue };
        if let Some(rest) = k.strip_prefix("ledger.") {
            if let Some(cat) = rest.strip_suffix(".cycles") {
                snap.categories.entry(cat.to_string()).or_default().cycles = v;
            } else if let Some(cat) = rest.strip_suffix(".events") {
                snap.categories.entry(cat.to_string()).or_default().events = v;
            }
        } else if !k.starts_with("backend.") {
            snap.counters.insert(k.clone(), v);
        }
    }
    for row in rows(record) {
        snap.total_cycles += row.sim_cycles;
        let by_category = row.ledger.iter().flat_map(|l| &l.categories);
        let region = RegionSnap {
            cycles: row.sim_cycles,
            by_category: by_category.map(|(c, b)| (c.clone(), b.cycles)).collect(),
            ..RegionSnap::default()
        };
        snap.regions.insert(row.name, region);
    }
    snap
}

/// Identity fields shared by every record from one bench invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordMeta {
    /// `git rev-parse HEAD`, or `"unknown"` outside a checkout.
    pub commit: String,
    /// Unix seconds at record creation.
    pub timestamp: u64,
    /// Host fingerprint (`os-arch-hostname`).
    pub host: String,
    /// Hex `MachineConfig::fingerprint()` of the liquid config measured.
    pub config_hash: String,
    /// Whether this was the reduced `--smoke` suite.
    pub smoke: bool,
    /// Widths swept.
    pub widths: Vec<usize>,
    /// Execution backend name (`"interp"` / `"superblock"`). Backends are
    /// observationally identical, so this is excluded from `config_hash`;
    /// the sentinel still pairs baselines per backend so that a backend
    /// divergence is reported by `cross_check`, not as code drift. Records
    /// written before the field existed are read as `"interp"`.
    pub backend: String,
}

/// The leading fields every bench record shares.
fn header(schema: &str, meta: &RecordMeta) -> Json {
    Json::obj([
        ("schema", schema.into()),
        ("commit", (&meta.commit).into()),
        ("timestamp", meta.timestamp.into()),
        ("host", (&meta.host).into()),
        ("config_hash", (&meta.config_hash).into()),
        ("smoke", meta.smoke.into()),
        ("widths", Json::arr(meta.widths.iter().copied())),
        ("backend", (&meta.backend).into()),
    ])
}

/// Builds a `perfhist-v1` record.
#[must_use]
pub fn build(
    meta: &RecordMeta,
    workloads: &[WorkloadRow],
    counters: &BTreeMap<String, u64>,
) -> Json {
    let mut rec = header(SCHEMA, meta);
    rec.set(
        "workloads",
        Json::arr(workloads.iter().map(WorkloadRow::json)),
    );
    let counters = counters.iter().map(|(k, &v)| (k.clone(), v.into()));
    rec.set("counters", Json::obj(counters));
    rec
}

/// One generated family's summary inside a [`GEN_SCHEMA`] record. All
/// fields derive from simulated cycles, so they are deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilyRow {
    /// Family name from the kernel-v1 spec.
    pub family: String,
    /// How many variants the family expanded to.
    pub variants: u64,
    /// 10th / 50th / 90th percentile headline-width speedup over the
    /// family's translatable variants (nearest-rank; 0 when none).
    pub speedup_p10: f64,
    /// Median speedup.
    pub speedup_p50: f64,
    /// 90th-percentile speedup.
    pub speedup_p90: f64,
    /// Abort tags observed across the family's variants, with counts.
    pub aborts: Vec<(String, u64)>,
}

impl FamilyRow {
    /// The inverse of a [`build_gen`] family row. Missing fields read as
    /// zero (`?` for the name).
    #[must_use]
    pub fn parse(row: &Json) -> FamilyRow {
        let f64_at = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let aborts = row.get("aborts").and_then(Json::as_obj).unwrap_or(&[]);
        FamilyRow {
            family: row
                .get("family")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            variants: row.get("variants").and_then(Json::as_u64).unwrap_or(0),
            speedup_p10: f64_at("speedup_p10"),
            speedup_p50: f64_at("speedup_p50"),
            speedup_p90: f64_at("speedup_p90"),
            aborts: aborts
                .iter()
                .filter_map(|(tag, n)| Some((tag.clone(), n.as_u64()?)))
                .collect(),
        }
    }
}

/// The family rows of a [`GEN_SCHEMA`] record, in record order.
#[must_use]
pub fn families(record: &Json) -> Vec<FamilyRow> {
    let rows = record.get("families").and_then(Json::as_arr);
    rows.unwrap_or(&[]).iter().map(FamilyRow::parse).collect()
}

/// Builds a `perfhist-gen-v1` record from per-family summaries.
#[must_use]
pub fn build_gen(meta: &RecordMeta, families: &[FamilyRow]) -> Json {
    let mut rec = header(GEN_SCHEMA, meta);
    let rows = families.iter().map(|f| {
        let aborts = f.aborts.iter().map(|(tag, n)| (tag.clone(), (*n).into()));
        Json::obj([
            ("family", (&f.family).into()),
            ("variants", f.variants.into()),
            ("speedup_p10", Json::f64(f.speedup_p10)),
            ("speedup_p50", Json::f64(f.speedup_p50)),
            ("speedup_p90", Json::f64(f.speedup_p90)),
            ("aborts", Json::obj(aborts)),
        ])
    });
    rec.set("families", Json::arr(rows));
    rec
}

/// `git rev-parse HEAD` in `dir`, or `"unknown"` when unavailable.
#[must_use]
pub fn git_commit(dir: &std::path::Path) -> String {
    std::process::Command::new("git")
        .arg("rev-parse")
        .arg("HEAD")
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `os-arch-hostname` host fingerprint, from compile-time target facts and
/// the runtime hostname (`HOSTNAME` env, then `/etc/hostname`, then
/// `"unknown-host"`).
#[must_use]
pub fn host_fingerprint() -> String {
    let hostname = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown-host".to_string());
    format!(
        "{}-{}-{hostname}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Unix seconds now (0 if the clock predates the epoch).
#[must_use]
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RecordMeta {
        RecordMeta {
            commit: "abc123".to_string(),
            timestamp: 1_700_000_000,
            host: "linux-x86_64-test".to_string(),
            config_hash: "deadbeef".to_string(),
            smoke: false,
            widths: vec![2, 8],
            backend: "interp".to_string(),
        }
    }

    fn row(name: &str) -> WorkloadRow {
        WorkloadRow {
            name: name.to_string(),
            baseline_cycles: 1000,
            sim_cycles: 250,
            cycles_by_width: vec![(2, 600), (8, 250)],
            ledger: None,
        }
    }

    fn ledger(name: &str) -> Snapshot {
        let body = r#"{"total_cycles":250,"categories":{"scalar-execute":{"cycles":250,"events":100}},"regions":{"(top-level)":{"cycles":250,"events":100,"by_category":{"scalar-execute":250}}}}"#;
        Snapshot::from_json(name, &Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn ledger_snapshot_splices_into_the_row_only_when_present() {
        let counters = BTreeMap::new();
        let plain = build(&meta(), &[row("FIR")], &counters);
        assert!(!plain.write().contains("\"ledger\""));
        let mut with = row("FIR");
        with.ledger = Some(ledger("FIR"));
        let rec = build(&meta(), &[with], &counters);
        let rows = rec.get("workloads").and_then(Json::as_arr).unwrap();
        let led = rows[0].get("ledger").expect("ledger spliced");
        assert_eq!(led.get("total_cycles").and_then(Json::as_u64), Some(250));
    }

    #[test]
    fn build_emits_schema_and_round_trips() {
        let mut counters = BTreeMap::new();
        counters.insert("cycles".to_string(), 250u64);
        let mut with = row("MPEG2 Dec.");
        with.ledger = Some(ledger("MPEG2 Dec."));
        let written = [row("FIR"), with];
        let rec = build(&meta(), &written, &counters);
        let text = rec.write();
        assert!(text.starts_with("{\"schema\":\"perfhist-v1\""));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.write(), text);
        let rows = back.get("workloads").and_then(Json::as_arr).unwrap();
        let cbw = rows[0].get("cycles_by_width").unwrap();
        assert_eq!(cbw.get("8").and_then(Json::as_u64), Some(250));
        assert!(!text.contains("wall"), "no host-time fields: {text}");
        // Parsing the built rows gives the rows back, ledger included.
        assert_eq!(super::rows(&back), written);
    }

    #[test]
    fn record_snapshot_reads_rows_counters_and_the_legacy_backend() {
        let mut counters = BTreeMap::new();
        counters.insert("ledger.scalar-execute.cycles".to_string(), 250u64);
        counters.insert("backend.superblock".to_string(), 0);
        counters.insert("mcache.hits".to_string(), 7);
        let mut with = row("FIR");
        with.ledger = Some(ledger("FIR"));
        let mut rec = build(&meta(), &[with, row("LU")], &counters);
        rec.remove("backend");
        let snap = snapshot(&rec, "history[-1]");
        assert_eq!(snap.label, "history[-1] (abc123, interp)");
        assert_eq!(snap.total_cycles, 500);
        assert_eq!(snap.categories["scalar-execute"].cycles, 250);
        assert_eq!(snap.regions["FIR"].by_category["scalar-execute"], 250);
        assert!(snap.regions["LU"].by_category.is_empty());
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["mcache.hits"]);
    }

    #[test]
    fn gen_record_round_trips_and_scrubs_deterministic() {
        let fam = FamilyRow {
            family: "stencil3_f32".to_string(),
            variants: 12,
            speedup_p10: 1.5,
            speedup_p50: 2.25,
            speedup_p90: 3.0,
            aborts: vec![("trip-not-multiple".to_string(), 2)],
        };
        let mut a = build_gen(&meta(), std::slice::from_ref(&fam));
        let text = a.write();
        assert!(text.starts_with("{\"schema\":\"perfhist-gen-v1\""));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.write(), text);
        assert_eq!(families(&back), std::slice::from_ref(&fam));

        // A later run of the same code differs only in its timestamp:
        // scrubbing that one identity field leaves identical bytes.
        let mut b = build_gen(
            &RecordMeta {
                timestamp: 1_700_009_999,
                ..meta()
            },
            &[fam],
        );
        assert_ne!(a.write(), b.write());
        a.remove("timestamp");
        b.remove("timestamp");
        assert_eq!(a.write(), b.write(), "family rows are deterministic");
        assert!(a.get("families").is_some());
    }
}
