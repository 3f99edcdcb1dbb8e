//! Drivers regenerating every table and figure of the paper's evaluation
//! (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results).
//!
//! Every driver is a `*_jobs` function that fans the independent
//! `(workload, width, mode)` simulation units across `jobs` worker
//! threads via [`crate::harness::run_tasks`] and reassembles results in
//! task order, so any job count produces identical rows (`jobs = 1` is the
//! plain serial loop) — see `tests/parallel.rs` for the byte-identity
//! check.

use std::collections::BTreeMap;
use std::fmt;

use liquid_simd_compiler::Workload;
use liquid_simd_isa::SUPPORTED_WIDTHS;
use liquid_simd_sim::{Machine, MachineConfig};

use crate::harness::{run_tasks, BuildCache};
use crate::VerifyError;

/// Table 5: scalar instructions per outlined function, per benchmark.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Number of outlined hot-loop functions.
    pub functions: usize,
    /// Mean instructions per outlined function.
    pub mean: f64,
    /// Maximum instructions in any outlined function.
    pub max: usize,
}

/// Runs the Table 5 measurement (static sizes of outlined functions) with
/// the work spread over `jobs` worker threads.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile.
pub fn table5_jobs(workloads: &[Workload], jobs: usize) -> Result<Vec<Table5Row>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    run_tasks(
        jobs,
        workloads.len(),
        |i| -> Result<Table5Row, VerifyError> {
            let b = cache.liquid(i)?;
            let sizes: Vec<usize> = b.outlined.iter().map(|f| f.instrs).collect();
            let functions = sizes.len();
            let mean = sizes.iter().sum::<usize>() as f64 / functions.max(1) as f64;
            let max = sizes.iter().copied().max().unwrap_or(0);
            Ok(Table5Row {
                benchmark: cache.workload(i).name.clone(),
                functions,
                mean,
                max,
            })
        },
    )
}

impl fmt::Display for Table5Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>5} {:>8.1} {:>5}",
            self.benchmark, self.functions, self.mean, self.max
        )
    }
}

/// Table 6: cycles between the first two consecutive calls to each
/// outlined hot loop, bucketed as in the paper.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Loops with first-call gap `< 150` cycles.
    pub lt150: usize,
    /// Loops with gap in `[150, 300)`.
    pub lt300: usize,
    /// Loops with gap `>= 300`.
    pub ge300: usize,
    /// Mean gap across outlined loops.
    pub mean: f64,
}

/// Runs the Table 6 measurement on the scalar side of a Liquid machine
/// (gaps are measured between the first two calls, i.e. while translation
/// would be in flight), one simulation per worker-thread task.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn table6_jobs(workloads: &[Workload], jobs: usize) -> Result<Vec<Table6Row>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    run_tasks(
        jobs,
        workloads.len(),
        |i| -> Result<Table6Row, VerifyError> {
            let b = cache.liquid(i)?;
            // Translation disabled: we want raw call spacing of the scalar
            // binary, exactly the paper's measurement setup.
            let mut cfg = MachineConfig::scalar_only();
            cfg.max_cycles = 50_000_000_000;
            let out = crate::run(&b.program, cfg)?;
            let mut gaps = Vec::new();
            for f in &b.outlined {
                if let Some(gap) = out.report.first_call_gap(f.entry) {
                    gaps.push(gap);
                }
            }
            let lt150 = gaps.iter().filter(|&&g| g < 150).count();
            let lt300 = gaps.iter().filter(|&&g| (150..300).contains(&g)).count();
            let ge300 = gaps.iter().filter(|&&g| g >= 300).count();
            let mean = if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().sum::<u64>() as f64 / gaps.len() as f64
            };
            Ok(Table6Row {
                benchmark: cache.workload(i).name.clone(),
                lt150,
                lt300,
                ge300,
                mean,
            })
        },
    )
}

impl fmt::Display for Table6Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>5} {:>5} {:>5} {:>10.0}",
            self.benchmark, self.lt150, self.lt300, self.ge300, self.mean
        )
    }
}

/// Figure 6: speedup over the scalar baseline at each accelerator width,
/// for both the Liquid binary (dynamic translation) and the native binary,
/// plus the translation-overhead callout.
#[derive(Clone, Debug)]
pub struct Figure6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline cycles (plain scalar binary, no accelerator).
    pub baseline_cycles: u64,
    /// Liquid speedup by width (dynamic translation, cold microcode cache).
    pub liquid: BTreeMap<usize, f64>,
    /// Speedup with built-in ISA support: the same binary with its
    /// microcode resident from cycle 0 (the paper's callout comparator).
    pub pretranslated: BTreeMap<usize, f64>,
    /// Native-binary speedup by width (separately compiled vector code).
    pub native: BTreeMap<usize, f64>,
}

impl Figure6Row {
    /// The built-in-ISA-minus-liquid speedup difference at a width (the
    /// paper's callout shows a worst case of about 0.001, for FIR).
    #[must_use]
    pub fn overhead(&self, width: usize) -> f64 {
        self.pretranslated.get(&width).copied().unwrap_or(0.0)
            - self.liquid.get(&width).copied().unwrap_or(0.0)
    }
}

/// Runs the Figure 6 sweep, decomposed into `(workload, width, mode)`
/// simulation units and fanned over `jobs` worker threads. This is the
/// heaviest sweep in the repo — `1 + 3 * widths.len()` simulations per
/// workload — and every unit is independent, so it scales until cores run
/// out.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn figure6_jobs(
    workloads: &[Workload],
    widths: &[usize],
    jobs: usize,
) -> Result<Vec<Figure6Row>, VerifyError> {
    let cache = BuildCache::new(workloads, widths);
    // Unit layout per workload: [baseline, then (liquid, pretranslated,
    // native) per width]. Reassembly below depends on this order, and
    // perfbench's `figure6` workload mirrors it.
    let per = 1 + widths.len() * 3;
    let cycles = run_tasks(
        jobs,
        workloads.len() * per,
        |i| -> Result<u64, VerifyError> {
            let (wi, unit) = (i / per, i % per);
            if unit == 0 {
                let plain = cache.plain(wi)?;
                let out = crate::run(&plain.program, MachineConfig::scalar_only())?;
                return Ok(out.report.cycles);
            }
            let k = unit - 1;
            let width = widths[k / 3];
            let out = match k % 3 {
                0 => crate::run(&cache.liquid(wi)?.program, MachineConfig::liquid(width))?,
                1 => crate::run_pretranslated(
                    &cache.liquid(wi)?.program,
                    MachineConfig::liquid(width),
                )?,
                _ => crate::run(
                    &cache.native(wi, width)?.program,
                    MachineConfig::native(width),
                )?,
            };
            Ok(out.report.cycles)
        },
    )?;

    let rows = workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let chunk = &cycles[wi * per..(wi + 1) * per];
            let baseline_cycles = chunk[0];
            let mut liquid = BTreeMap::new();
            let mut pretranslated = BTreeMap::new();
            let mut native = BTreeMap::new();
            for (k, &width) in widths.iter().enumerate() {
                liquid.insert(width, baseline_cycles as f64 / chunk[1 + 3 * k] as f64);
                pretranslated.insert(width, baseline_cycles as f64 / chunk[2 + 3 * k] as f64);
                native.insert(width, baseline_cycles as f64 / chunk[3 + 3 * k] as f64);
            }
            Figure6Row {
                benchmark: w.name.clone(),
                baseline_cycles,
                liquid,
                pretranslated,
                native,
            }
        })
        .collect();
    Ok(rows)
}

impl fmt::Display for Figure6Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<14}", self.benchmark)?;
        for s in self.liquid.values() {
            write!(f, " {s:>6.2}")?;
        }
        write!(f, "  |")?;
        for s in self.pretranslated.values() {
            write!(f, " {s:>6.2}")?;
        }
        write!(f, "  |")?;
        for s in self.native.values() {
            write!(f, " {s:>6.2}")?;
        }
        Ok(())
    }
}

/// Code-size overhead of the Liquid binary vs the plain binary (paper §5:
/// "less than 1%", worst case hydro2d).
#[derive(Clone, Debug)]
pub struct CodeSizeRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Plain binary code bytes.
    pub plain_bytes: usize,
    /// Liquid binary code bytes.
    pub liquid_bytes: usize,
    /// Extra read-only data the Liquid build adds (offset/constant arrays).
    pub extra_data_bytes: i64,
}

impl CodeSizeRow {
    /// Code-size overhead relative to the hot-loop-only binaries built
    /// here. Note these binaries *are* the hot loops: the paper's "< 1%"
    /// is measured against full SPEC/MediaBench applications, whose text
    /// dwarfs the outlining additions — see [`CodeSizeRow::overhead_vs_app`].
    #[must_use]
    pub fn overhead(&self) -> f64 {
        (self.liquid_bytes as f64 - self.plain_bytes as f64) / self.plain_bytes as f64
    }

    /// The same absolute overhead expressed against a realistic
    /// application text size (the paper's measurement baseline).
    #[must_use]
    pub fn overhead_vs_app(&self, app_text_bytes: usize) -> f64 {
        (self.liquid_bytes as f64 - self.plain_bytes as f64) / app_text_bytes as f64
    }
}

/// Runs the code-size comparison, with compilation spread over `jobs`
/// worker threads.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile.
pub fn code_size_jobs(
    workloads: &[Workload],
    jobs: usize,
) -> Result<Vec<CodeSizeRow>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    run_tasks(
        jobs,
        workloads.len(),
        |i| -> Result<CodeSizeRow, VerifyError> {
            let plain = cache.plain(i)?;
            let liquid = cache.liquid(i)?;
            Ok(CodeSizeRow {
                benchmark: cache.workload(i).name.clone(),
                plain_bytes: plain.program.code_bytes(),
                liquid_bytes: liquid.program.code_bytes(),
                extra_data_bytes: liquid.program.data_bytes() as i64
                    - plain.program.data_bytes() as i64,
            })
        },
    )
}

impl fmt::Display for CodeSizeRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>8} {:>8} {:>7.2}% {:>8}",
            self.benchmark,
            self.plain_bytes,
            self.liquid_bytes,
            self.overhead() * 100.0,
            self.extra_data_bytes
        )
    }
}

/// Microcode-cache working-set measurement (paper §5: 8 entries of 64
/// instructions suffice for every benchmark).
#[derive(Clone, Debug)]
pub struct McacheRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Distinct hot loops (outlined functions actually translated).
    pub hot_loops: usize,
    /// Largest translated microcode sequence (instructions).
    pub max_uops: usize,
    /// Microcode-cache evictions during the run at the paper geometry.
    pub evictions: u64,
    /// Fraction of calls serviced by microcode, across all hot loops.
    pub microcode_call_fraction: f64,
}

/// Runs the microcode-cache working-set measurement at the paper's 8x64
/// geometry, one simulation per worker-thread task.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn mcache_jobs(workloads: &[Workload], jobs: usize) -> Result<Vec<McacheRow>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    run_tasks(
        jobs,
        workloads.len(),
        |i| -> Result<McacheRow, VerifyError> {
            let b = cache.liquid(i)?;
            let out = crate::run(&b.program, MachineConfig::liquid(8))?;
            let hot_loops = out.report.translations.len();
            let max_uops = out
                .report
                .translations
                .iter()
                .map(|&(_, n)| n)
                .max()
                .unwrap_or(0);
            let micro = out
                .report
                .calls
                .iter()
                .filter(|c| c.mode == crate::CallMode::Microcode)
                .count();
            let total = out.report.calls.len().max(1);
            Ok(McacheRow {
                benchmark: cache.workload(i).name.clone(),
                hot_loops,
                max_uops,
                evictions: out.report.mcache.evictions,
                microcode_call_fraction: micro as f64 / total as f64,
            })
        },
    )
}

impl fmt::Display for McacheRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>5} {:>5} {:>5} {:>7.1}%",
            self.benchmark,
            self.hot_loops,
            self.max_uops,
            self.evictions,
            self.microcode_call_fraction * 100.0
        )
    }
}

/// Ablation A1: sensitivity to translation latency (paper: translation
/// could take "tens of cycles per instruction" without hurting, because
/// call gaps exceed 300 cycles).
#[derive(Clone, Debug)]
pub struct LatencyAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles at each translation cost (cycles per observed instruction).
    pub cycles_by_cost: BTreeMap<u64, u64>,
}

/// Runs the translation-latency ablation at 8 lanes, decomposed into
/// `(workload, cost)` simulation units and fanned over `jobs` worker
/// threads.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn ablation_latency_jobs(
    workloads: &[Workload],
    costs: &[u64],
    jobs: usize,
) -> Result<Vec<LatencyAblationRow>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    let per = costs.len();
    let cycles = run_tasks(
        jobs,
        workloads.len() * per,
        |i| -> Result<u64, VerifyError> {
            let (wi, ci) = (i / per, i % per);
            let b = cache.liquid(wi)?;
            let mut cfg = MachineConfig::liquid(8);
            cfg.translation.cycles_per_instr = costs[ci];
            let out = crate::run(&b.program, cfg)?;
            Ok(out.report.cycles)
        },
    )?;
    Ok(workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| LatencyAblationRow {
            benchmark: w.name.clone(),
            cycles_by_cost: costs
                .iter()
                .enumerate()
                .map(|(ci, &cost)| (cost, cycles[wi * per + ci]))
                .collect(),
        })
        .collect())
}

/// Ablation A2: hardware translator vs software JIT (which stalls the CPU
/// for its translation work).
#[derive(Clone, Debug)]
pub struct JitAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles with the hardware translator.
    pub hw_cycles: u64,
    /// Cycles with the software JIT at the given per-instruction cost.
    pub jit_cycles: u64,
}

/// Runs the hardware-vs-JIT ablation at 8 lanes, decomposed into
/// `(workload, translator-kind)` units and fanned over `jobs` worker
/// threads.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn ablation_jit_jobs(
    workloads: &[Workload],
    jit_cost: u64,
    jobs: usize,
) -> Result<Vec<JitAblationRow>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    let cycles = run_tasks(jobs, workloads.len() * 2, |i| -> Result<u64, VerifyError> {
        let (wi, unit) = (i / 2, i % 2);
        let b = cache.liquid(wi)?;
        let mut cfg = MachineConfig::liquid(8);
        if unit == 1 {
            cfg.translation.jit = true;
            cfg.translation.jit_cycles_per_instr = jit_cost;
            cfg.translation.hw_value_limit = false; // JITs keep full-width values
        }
        let out = crate::run(&b.program, cfg)?;
        Ok(out.report.cycles)
    })?;
    Ok(workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| JitAblationRow {
            benchmark: w.name.clone(),
            hw_cycles: cycles[wi * 2],
            jit_cycles: cycles[wi * 2 + 1],
        })
        .collect())
}

/// The Figure 6 callout: the paper measured the worst-case speedup
/// difference between the Liquid binary and "built-in ISA support" across
/// all benchmarks and found about 0.001, occurring in FIR. The steady-state
/// overhead vanishes with call count (only the first call per loop runs
/// scalar), so this driver raises the repetition count to amortise warm-up
/// the way the paper's full benchmark runs did.
#[derive(Clone, Debug)]
pub struct OverheadCallout {
    /// Benchmark used (FIR, as in the paper).
    pub benchmark: String,
    /// Speedup of the Liquid binary with dynamic translation.
    pub liquid_speedup: f64,
    /// Speedup with built-in ISA support (preloaded microcode).
    pub builtin_speedup: f64,
}

impl OverheadCallout {
    /// The speedup difference (paper: ~0.001 in the worst case).
    #[must_use]
    pub fn difference(&self) -> f64 {
        self.builtin_speedup - self.liquid_speedup
    }
}

/// Runs the overhead callout on a (typically high-repetition) workload at
/// 8 lanes, as two independent chains over `jobs` worker threads: the
/// scalar baseline, and the liquid run followed by a resident pass that
/// starts with the liquid run's microcode preloaded. The resident pass is
/// [`crate::run_pretranslated`]'s second pass; its first pass would be an
/// exact repeat of the liquid run, so the chain takes the snapshot from
/// the liquid run itself.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the workload fails to compile or simulate.
pub fn overhead_callout(w: &Workload, jobs: usize) -> Result<OverheadCallout, VerifyError> {
    let workloads = std::slice::from_ref(w);
    let cache = BuildCache::new(workloads, &[]);
    let chains = run_tasks(jobs, 2, |i| -> Result<Vec<u64>, VerifyError> {
        if i == 0 {
            let plain = cache.plain(0)?;
            let base = crate::run(&plain.program, MachineConfig::scalar_only())?;
            return Ok(vec![base.report.cycles]);
        }
        let program = &cache.liquid(0)?.program;
        let mut liquid = Machine::new(program, MachineConfig::liquid(8));
        let liquid_cycles = liquid.run()?.cycles;
        let mut resident = Machine::new(program, MachineConfig::liquid(8));
        resident.preload_microcode(&liquid.microcode_snapshot());
        Ok(vec![liquid_cycles, resident.run()?.cycles])
    })?;
    let (base, liquid, builtin) = (chains[0][0], chains[1][0], chains[1][1]);
    Ok(OverheadCallout {
        benchmark: w.name.clone(),
        liquid_speedup: base as f64 / liquid as f64,
        builtin_speedup: base as f64 / builtin as f64,
    })
}

/// Per-benchmark dynamic metrics captured through the tracing subsystem:
/// calls by mode, translation outcomes, abort-reason tallies, mcache and
/// memory behaviour — everything the end-of-run aggregates flatten away.
#[derive(Clone, Debug)]
pub struct MetricsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles of the traced run.
    pub cycles: u64,
    /// The full metrics registry (counters + histograms) of the run.
    pub metrics: liquid_simd_trace::Metrics,
    /// Per-kind event tallies (`"translation-commit"` → count, ...).
    pub events: BTreeMap<&'static str, u64>,
}

impl MetricsRow {
    /// Abort-reason tallies, keyed by `AbortReason::tag()` strings.
    #[must_use]
    pub fn aborts(&self) -> BTreeMap<String, u64> {
        self.metrics.with_prefix("translator.abort.")
    }
}

/// Runs each workload's Liquid binary at 8 lanes with a tracer attached
/// and returns the captured per-benchmark metrics, one traced simulation
/// per worker-thread task. The tracer handle is not `Send` (`Rc`-based),
/// so each task creates its own tracer and ships back only the plain-data
/// [`Metrics`] registry.
///
/// [`Metrics`]: liquid_simd_trace::Metrics
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn metrics_jobs(workloads: &[Workload], jobs: usize) -> Result<Vec<MetricsRow>, VerifyError> {
    let cache = BuildCache::new(workloads, &[]);
    run_tasks(
        jobs,
        workloads.len(),
        |i| -> Result<MetricsRow, VerifyError> {
            let b = cache.liquid(i)?;
            let tracer = liquid_simd_trace::Tracer::new();
            let cfg = MachineConfig::liquid(8).with_tracer(tracer.clone());
            let out = crate::run(&b.program, cfg)?;
            Ok(MetricsRow {
                benchmark: cache.workload(i).name.clone(),
                cycles: out.report.cycles,
                metrics: tracer.metrics(),
                events: tracer.kind_counts(),
            })
        },
    )
}

impl fmt::Display for MetricsRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>10} cycles, {:>4} commits, {:>4} aborts, {:>5} simd calls",
            self.benchmark,
            self.cycles,
            self.events.get("translation-commit").copied().unwrap_or(0),
            self.events.get("translation-abort").copied().unwrap_or(0),
            self.metrics.counter("calls.simd"),
        )
    }
}

/// Convenience: the paper's width sweep.
#[must_use]
pub fn paper_widths() -> Vec<usize> {
    SUPPORTED_WIDTHS.to_vec()
}
