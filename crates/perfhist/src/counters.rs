//! Counter telemetry across runs: the labelled ledger snapshot behind
//! `liquid-simd diff`, and [`merge`] for suite-wide sums.
//!
//! One run's counters are [`RunReport::counters`], the one place their
//! dotted names are chosen. They form a stable public surface (the
//! dashboard diffs them against a baseline record), documented in
//! EXPERIMENTS.md: `translator.*` for the automaton, `mcache.*` for the
//! microcode cache, `icache.*`/`dcache.*` for the memory system, and
//! `lanes.*` for SIMD lane utilization.

use std::collections::BTreeMap;

use liquid_simd_sim::RunReport;

/// Builds a labelled ledger [`Snapshot`](liquid_simd_sim::LedgerSnapshot)
/// from one run: the attribution buckets plus the run's deterministic
/// counter telemetry as corroborating evidence. `ledger.*` keys are left
/// out (they restate the categories) and `backend.*` keys are left out
/// (run metadata, not cost). This is the one code path behind
/// `liquid-simd diff` and the pinned diff fixtures, so both stay
/// byte-identical by construction.
#[must_use]
pub fn ledger_snapshot(
    label: &str,
    report: &RunReport,
    names: &BTreeMap<u32, String>,
) -> liquid_simd_sim::LedgerSnapshot {
    let mut snap = liquid_simd_sim::LedgerSnapshot::from_ledger(label, &report.ledger, names);
    for (k, v) in report.counters() {
        if !k.starts_with("ledger.") && !k.starts_with("backend.") {
            snap.counters.insert(k, v);
        }
    }
    snap
}

/// Sums `add` into `acc` (union of names, values added) — suite-wide
/// aggregation across workload snapshots.
pub fn merge(acc: &mut BTreeMap<String, u64>, add: &BTreeMap<String, u64>) {
    for (k, &v) in add {
        *acc.entry(k.clone()).or_insert(0) += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_are_stable_and_merge_adds() {
        let mut translator = liquid_simd_translator::TranslatorStats {
            attempts: 3,
            ..Default::default()
        };
        translator.record_abort("cam-miss");
        let r = RunReport {
            cycles: 100,
            vector_retired: 4,
            lane_ops: 32,
            mcache: liquid_simd_sim::McacheStats {
                lookups: 10,
                hits: 7,
                pending: 1,
                conflicts: 2,
                ..Default::default()
            },
            translator,
            ..Default::default()
        };
        let a = r.counters();
        assert_eq!(a["cycles"], 100);
        assert_eq!(a["lanes.ops"], 32);
        assert_eq!(a["mcache.misses"], 2);
        assert_eq!(a["mcache.conflicts"], 2);
        assert_eq!(a["translator.abort.cam-miss"], 1);
        let mut acc = a.clone();
        merge(&mut acc, &a);
        assert_eq!(acc["cycles"], 200);
        assert_eq!(acc["translator.abort.cam-miss"], 2);
        // Interpreter runs (all-zero block stats) emit no blocks.* keys,
        // and an empty ledger emits no ledger.* keys.
        assert!(!a.keys().any(|k| k.starts_with("blocks.")));
        assert!(!a.keys().any(|k| k.starts_with("ledger.")));
    }

    #[test]
    fn ledger_runs_emit_category_counters() {
        let mut ledger = liquid_simd_sim::Ledger::new();
        ledger.charge(7, 9, liquid_simd_sim::LedgerCategory::VectorExecute, 64);
        ledger.event(7, 3, liquid_simd_sim::LedgerCategory::McacheProbe);
        let r = RunReport {
            ledger,
            ..Default::default()
        };
        let c = r.counters();
        assert_eq!(c["ledger.vector-execute.cycles"], 64);
        assert_eq!(c["ledger.vector-execute.events"], 1);
        assert_eq!(c["ledger.mcache-probe.cycles"], 0);
        assert_eq!(c["ledger.mcache-probe.events"], 1);
    }

    #[test]
    fn superblock_runs_emit_blocks_counters() {
        let r = RunReport {
            blocks: liquid_simd_sim::BlockStats {
                lowered: 3,
                lowered_instrs: 21,
                hits: 40,
                misses: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let c = r.counters();
        assert_eq!(c["blocks.lowered"], 3);
        assert_eq!(c["blocks.cache_hits"], 40);
        assert_eq!(c["blocks.fallback.control"], 0);
    }
}
