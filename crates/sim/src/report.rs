//! Run reports.

use std::collections::BTreeMap;

use liquid_simd_ledger::{Category, Ledger};
use liquid_simd_mem::CacheStats;
use liquid_simd_translator::TranslatorStats;

use crate::config::BackendKind;
use crate::mcache::{McacheEntryStats, McacheStats};

/// Superblock-backend telemetry: what the block cache did and when the
/// backend had to fall back to single-step interpretation. All zeros under
/// the interpreter backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Blocks lowered (one per block-cache miss).
    pub lowered: u64,
    /// Total instructions across all lowered blocks (so
    /// `lowered_instrs / lowered` is the average block length).
    pub lowered_instrs: u64,
    /// Dispatches that reused an already-lowered block.
    pub hits: u64,
    /// Dispatches that had to lower a block first.
    pub misses: u64,
    /// Lowered blocks dropped because the microcode they were derived from
    /// was evicted, overwritten, or flushed in the microcode cache.
    pub invalidations: u64,
    /// Instructions retired through lowered blocks (the rest went through
    /// the interpreter: block terminators and fallback steps).
    pub block_instrs: u64,
    /// Fallback steps for an open translation window. Always 0: blocks feed
    /// the translator tap through the interpreter's post-retire hook. Kept
    /// because the perfbench harness reads it as a layer count.
    pub fallback_translator: u64,
    /// Fallback steps: interrupt injection is configured (`interrupt_every`
    /// / `interrupt_at` fire on exact retire indices).
    pub fallback_interrupts: u64,
    /// Fallback steps: the next instruction is control flow (branch, call,
    /// return, halt) — always executed by the interpreter.
    pub fallback_control: u64,
}

impl BlockStats {
    /// Total single-step fallbacks, all reasons.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback_translator + self.fallback_interrupts + self.fallback_control
    }

    /// Average lowered-block length in instructions (0 if none).
    #[must_use]
    pub fn avg_block_len(&self) -> f64 {
        if self.lowered == 0 {
            0.0
        } else {
            self.lowered_instrs as f64 / self.lowered as f64
        }
    }

    /// The counters under their dotted `blocks.*` names, sorted by name
    /// (the spelling [`RunReport::counters`] and `explain --json` share).
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("blocks.cache_hits", self.hits),
            ("blocks.cache_misses", self.misses),
            ("blocks.fallback.control", self.fallback_control),
            ("blocks.fallback.interrupts", self.fallback_interrupts),
            ("blocks.fallback.translator", self.fallback_translator),
            ("blocks.instrs", self.block_instrs),
            ("blocks.invalidations", self.invalidations),
            ("blocks.lowered", self.lowered),
            ("blocks.lowered_instrs", self.lowered_instrs),
        ]
    }
}

/// How a call to an outlined function was serviced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallMode {
    /// Executed the scalar body.
    Scalar,
    /// Executed translated SIMD microcode from the microcode cache.
    Microcode,
}

/// One dynamic call of an outlined (or plain) function — the raw material
/// for the paper's Table 6 (cycles between consecutive calls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallEvent {
    /// Callee entry PC (code index).
    pub target: u32,
    /// Cycle at which the call issued.
    pub cycle: u64,
    /// How it was serviced.
    pub mode: CallMode,
}

/// One translation attempt's lifetime, in retired-instruction indices.
///
/// `begin_retired` is the retire index of the `bl.v` that started the
/// translation; the first observed body instruction retires at
/// `begin_retired + 1` and the window closes at `end_retired` (the retire
/// index of the `ret` that finished it, or of the instruction whose retire
/// aborted it). The conformance abort sweep replays the run injecting an
/// external abort at every index in `begin_retired..=end_retired`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationWindow {
    /// Entry PC of the outlined function being shadowed.
    pub func_pc: u32,
    /// Retired-instruction count when the translation began.
    pub begin_retired: u64,
    /// Retired-instruction count when it finished or aborted (`0` while
    /// still open — a window left open at halt stays `0`).
    pub end_retired: u64,
    /// Whether the attempt committed microcode (`false`: aborted or open).
    pub completed: bool,
}

/// Where the run's cycles went, partitioned exactly: the three fields sum
/// to [`RunReport::cycles`]. Derived from the run's ledger
/// ([`PhaseBreakdown::of`]), never charged on its own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Cycles advanced while executing the program (scalar) stream.
    pub scalar_cycles: u64,
    /// Cycles advanced while executing translated microcode.
    pub micro_cycles: u64,
    /// Pipeline-stall cycles charged by a software-JIT translation
    /// (hardware translation runs off the critical path and charges none).
    pub jit_stall_cycles: u64,
}

impl PhaseBreakdown {
    /// The phase partition of a ledger: its microcode-stream cycles, its
    /// translate-overhead cycles (only a software JIT charges any), and
    /// the program-stream rest.
    #[must_use]
    pub fn of(ledger: &Ledger) -> PhaseBreakdown {
        let micro_cycles = ledger.micro_cycles();
        let jit_stall_cycles = ledger
            .category_totals()
            .get(&Category::TranslateOverhead)
            .map_or(0, |b| b.cycles);
        PhaseBreakdown {
            scalar_cycles: ledger.total_cycles() - micro_cycles - jit_stall_cycles,
            micro_cycles,
            jit_stall_cycles,
        }
    }

    /// Sum of all phases — equals the run's total cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.scalar_cycles + self.micro_cycles + self.jit_stall_cycles
    }
}

/// Cycle attribution for one call target: how often and how long it ran
/// in each servicing mode (see [`RunReport::target_profiles`]). Cycles are
/// the target's ledger *self* cycles: a nested call's cycles belong to the
/// callee, not to its caller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetProfile {
    /// Calls serviced by the scalar fallback body.
    pub scalar_calls: u64,
    /// Program-stream cycles charged to the target (its scalar body, plus
    /// any JIT translation stall).
    pub scalar_cycles: u64,
    /// Calls serviced by translated microcode.
    pub micro_calls: u64,
    /// Microcode cycles charged to the target.
    pub micro_cycles: u64,
}

impl TargetProfile {
    /// Total cycles attributed to this target.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.scalar_cycles + self.micro_cycles
    }
}

/// Everything measured during one simulation.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Total cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub retired: u64,
    /// Retired scalar instructions.
    pub scalar_retired: u64,
    /// Retired vector instructions.
    pub vector_retired: u64,
    /// Total lane-operations performed by retired vector instructions:
    /// each vector retire contributes its active lane count (`vperm`
    /// contributes its block size). `lane_ops / (vector_retired × lanes)`
    /// is the run's SIMD lane utilization.
    pub lane_ops: u64,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// Translator statistics.
    pub translator: TranslatorStats,
    /// Microcode-cache statistics.
    pub mcache: McacheStats,
    /// Per-function microcode-cache statistics (keyed by entry PC; history
    /// survives eviction, including the evictor's identity).
    pub mcache_entries: BTreeMap<u32, McacheEntryStats>,
    /// Exact cycle partition: scalar vs microcode execution vs JIT stall,
    /// derived from [`RunReport::ledger`] when the run ends.
    pub phases: PhaseBreakdown,
    /// Call log (for call-distance analyses).
    pub calls: Vec<CallEvent>,
    /// Completed translations: `(function pc, microcode length)`.
    pub translations: Vec<(u32, usize)>,
    /// Every translation attempt's retired-instruction window, in begin
    /// order (committed, aborted, and still-open attempts alike).
    pub windows: Vec<TranslationWindow>,
    /// Whether the program reached `halt`.
    pub halted: bool,
    /// Which execution backend produced this report. Backends are required
    /// to be observationally identical; everything else in the report is
    /// backend-independent.
    pub backend: BackendKind,
    /// Superblock-backend telemetry (all zeros under the interpreter).
    pub blocks: BlockStats,
    /// Exact per-(region, PC, category) cycle attribution: the one place
    /// every run charges its cycles. Its cycle sum equals
    /// [`RunReport::cycles`], and both backends produce byte-identical
    /// ledgers for the same run.
    pub ledger: Ledger,
}

impl RunReport {
    /// Flattens the report into dotted counter names: the one place a
    /// run's counts are named. This map is the `counters` object of a
    /// `perfhist-v1` record and of a serve reply's telemetry, the evidence
    /// in a ledger snapshot, and what `liquid-simd profile` prints.
    ///
    /// Everything is a monotonic count, so maps from several runs can be
    /// summed. The backend that executed the run is a
    /// `backend.<name>.runs` count, so a sum across runs (or serve shards)
    /// shows how work split between backends. The `ledger.*.cycles` sum to
    /// `cycles`. The `blocks.*` counters are kept only when the backend
    /// did block work, so interpreter records stay byte-compatible with
    /// pre-backend history baselines.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        let mut put = |k: &str, v: u64| {
            out.insert(k.to_string(), v);
        };
        put("cycles", self.cycles);
        put("retired", self.retired);
        put("retired.scalar", self.scalar_retired);
        put("retired.vector", self.vector_retired);
        put("lanes.ops", self.lane_ops);
        let backend = self.backend.name();
        put(&format!("backend.{backend}.runs"), 1);
        put(&format!("backend.{backend}.cycles"), self.cycles);
        if self.blocks != BlockStats::default() {
            for (k, v) in self.blocks.counters() {
                put(k, v);
            }
        }
        for (cat, bucket) in self.ledger.category_totals() {
            put(&format!("ledger.{}.cycles", cat.name()), bucket.cycles);
            put(&format!("ledger.{}.events", cat.name()), bucket.events);
        }
        put("icache.accesses", self.icache.accesses);
        put("icache.hits", self.icache.hits);
        put("dcache.accesses", self.dcache.accesses);
        put("dcache.hits", self.dcache.hits);
        let m = &self.mcache;
        put("mcache.lookups", m.lookups);
        put("mcache.hits", m.hits);
        put(
            "mcache.misses",
            m.lookups.saturating_sub(m.hits + m.pending),
        );
        put("mcache.pending", m.pending);
        put("mcache.inserts", m.inserts);
        put("mcache.evictions", m.evictions);
        put("mcache.conflicts", m.conflicts);
        let t = &self.translator;
        put("translator.attempts", t.attempts);
        put("translator.successes", t.successes);
        put("translator.aborted", t.aborted());
        put("translator.uops_emitted", t.uops_emitted);
        put("translator.instrs_observed", t.instrs_observed);
        put("translator.phase.collect", t.collect_observed);
        put("translator.phase.loop", t.loop_observed);
        put("translator.buffer_high_water", t.buffer_high_water);
        for (tag, &n) in &t.aborts {
            put(&format!("translator.abort.{tag}"), n);
        }
        put("phases.scalar_cycles", self.phases.scalar_cycles);
        put("phases.micro_cycles", self.phases.micro_cycles);
        put("phases.jit_stall_cycles", self.phases.jit_stall_cycles);
        out
    }

    /// Per-call-target attribution, keyed by entry PC: call counts from the
    /// call log, cycles from the target's ledger region split by stream.
    #[must_use]
    pub fn target_profiles(&self) -> BTreeMap<u32, TargetProfile> {
        let regions = self.ledger.region_totals();
        let mut out: BTreeMap<u32, TargetProfile> = BTreeMap::new();
        for c in &self.calls {
            let t = out.entry(c.target).or_insert_with(|| {
                let r = regions.get(&c.target).cloned().unwrap_or_default();
                TargetProfile {
                    scalar_cycles: r.cycles - r.micro_cycles,
                    micro_cycles: r.micro_cycles,
                    ..TargetProfile::default()
                }
            });
            match c.mode {
                CallMode::Scalar => t.scalar_calls += 1,
                CallMode::Microcode => t.micro_calls += 1,
            }
        }
        out
    }

    /// Cycles between the first two calls of `target` (paper Table 6).
    #[must_use]
    pub fn first_call_gap(&self, target: u32) -> Option<u64> {
        let mut calls = self.calls.iter().filter(|c| c.target == target);
        let first = calls.next()?.cycle;
        let second = calls.next()?.cycle;
        Some(second - first)
    }

    /// Entry PCs of every distinct call target, in first-call order.
    #[must_use]
    pub fn call_targets(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for c in &self.calls {
            if !out.contains(&c.target) {
                out.push(c.target);
            }
        }
        out
    }

    /// Fraction of calls to `target` serviced by microcode.
    #[must_use]
    pub fn microcode_fraction(&self, target: u32) -> f64 {
        let (total, micro) = self
            .calls
            .iter()
            .filter(|c| c.target == target)
            .fold((0u64, 0u64), |(t, m), c| {
                (t + 1, m + u64::from(c.mode == CallMode::Microcode))
            });
        if total == 0 {
            0.0
        } else {
            micro as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_stats_metrics_use_stable_dotted_names() {
        let b = BlockStats {
            lowered: 2,
            lowered_instrs: 10,
            hits: 7,
            misses: 2,
            invalidations: 1,
            block_instrs: 80,
            fallback_translator: 3,
            fallback_interrupts: 0,
            fallback_control: 11,
        };
        let r = RunReport {
            blocks: b,
            ..RunReport::default()
        };
        let c = r.counters();
        assert_eq!(c["blocks.lowered"], 2);
        assert_eq!(c["blocks.cache_hits"], 7);
        assert_eq!(c["blocks.invalidations"], 1);
        assert_eq!(c["blocks.fallback.control"], 11);
        assert_eq!(c.keys().filter(|k| k.starts_with("blocks.")).count(), 9);
        let names: Vec<&str> = b.counters().iter().map(|(k, _)| *k).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted: {names:?}");
        assert!((b.avg_block_len() - 5.0).abs() < 1e-12);
        assert_eq!(b.fallbacks(), 14);
        // Interpreter runs (all-zero block stats) name no blocks.* counter.
        let interp = RunReport::default().counters();
        assert!(!interp.keys().any(|k| k.starts_with("blocks.")));
    }

    #[test]
    fn run_report_metrics_tag_the_backend() {
        let r = RunReport {
            cycles: 500,
            retired: 100,
            scalar_retired: 60,
            vector_retired: 40,
            backend: BackendKind::Superblock,
            ..RunReport::default()
        };
        let c = r.counters();
        assert_eq!(c["cycles"], 500);
        assert_eq!(c["retired.vector"], 40);
        assert_eq!(c["backend.superblock.runs"], 1);
        assert_eq!(c["backend.superblock.cycles"], 500);
        assert!(!c.contains_key("backend.interp.runs"));
        let interp = RunReport {
            backend: BackendKind::Interp,
            ..RunReport::default()
        };
        assert_eq!(interp.counters()["backend.interp.runs"], 1);
    }

    #[test]
    fn call_gap_and_fraction() {
        let r = RunReport {
            calls: vec![
                CallEvent {
                    target: 5,
                    cycle: 100,
                    mode: CallMode::Scalar,
                },
                CallEvent {
                    target: 9,
                    cycle: 200,
                    mode: CallMode::Scalar,
                },
                CallEvent {
                    target: 5,
                    cycle: 450,
                    mode: CallMode::Microcode,
                },
            ],
            ..RunReport::default()
        };
        assert_eq!(r.first_call_gap(5), Some(350));
        assert_eq!(r.first_call_gap(9), None);
        assert_eq!(r.call_targets(), vec![5, 9]);
        assert!((r.microcode_fraction(5) - 0.5).abs() < 1e-12);
        assert_eq!(r.microcode_fraction(7), 0.0);
    }
}
