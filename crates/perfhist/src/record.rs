//! `perfhist-v1` record construction and manipulation.
//!
//! One record captures one bench invocation: identity (git commit,
//! timestamp, host, machine-config hash) and the deterministic results
//! (per-workload simulated cycles, including the scalar baseline and every
//! swept width, plus the counter-telemetry snapshot). Records carry no
//! host-time measurements, so two runs of the same code differ only in
//! `timestamp` — whatever `--jobs` was. Host time is perfbench's to
//! measure. Older records in a history may still carry `wall_s`,
//! `sim_cycles_per_sec` and `wall` fields; readers ignore them.

use std::collections::BTreeMap;

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
    /// Compact cycle-ledger snapshot of the headline-width run (category
    /// and region rollups), present only when bench ran with `--ledger`.
    /// `None` keeps the row byte-identical to pre-ledger records.
    pub ledger: Option<Json>,
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
    let rows = workloads.iter().map(|w| {
        let mut row = w.cycles_json();
        if let Some(ledger) = &w.ledger {
            row.set("ledger", ledger.clone());
        }
        row
    });
    rec.set("workloads", Json::arr(rows));
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

    #[test]
    fn ledger_snapshot_splices_into_the_row_only_when_present() {
        let counters = BTreeMap::new();
        let plain = build(&meta(), &[row("FIR")], &counters);
        assert!(!plain.write().contains("\"ledger\""));
        let mut with = row("FIR");
        with.ledger =
            Some(Json::parse(r#"{"total_cycles":250,"categories":{"scalar-execute":{"cycles":250,"events":100}}}"#).unwrap());
        let rec = build(&meta(), &[with], &counters);
        let rows = rec.get("workloads").and_then(Json::as_arr).unwrap();
        let led = rows[0].get("ledger").expect("ledger spliced");
        assert_eq!(led.get("total_cycles").and_then(Json::as_u64), Some(250));
    }

    #[test]
    fn build_emits_schema_and_round_trips() {
        let mut counters = BTreeMap::new();
        counters.insert("cycles".to_string(), 250u64);
        let rec = build(&meta(), &[row("FIR")], &counters);
        let text = rec.write();
        assert!(text.starts_with("{\"schema\":\"perfhist-v1\""));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.write(), text);
        let rows = back.get("workloads").and_then(Json::as_arr).unwrap();
        let cbw = rows[0].get("cycles_by_width").unwrap();
        assert_eq!(cbw.get("8").and_then(Json::as_u64), Some(250));
        assert!(!text.contains("wall"), "no host-time fields: {text}");
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
