//! Drivers regenerating every table and figure of the paper's evaluation
//! (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results).
//!
//! Every driver reads one [`BuildCache`]. A driver that simulates is a
//! `*_jobs` function: it lists the [`Unit`]s it reads, runs them on every
//! workload over `jobs` worker threads, then reads its rows from the
//! cache's memoized runs ([`BuildCache::run`]); Table 5 and code size read
//! builds only. Drivers that share a cache share their runs (Figure 6's
//! 8-lane liquid run serves the microcode-cache table and both
//! ablations), and any job count produces identical rows — see
//! `tests/parallel.rs` for the byte-identity check.

use std::collections::BTreeMap;
use std::fmt;

use liquid_simd_compiler::Workload;
use liquid_simd_isa::SUPPORTED_WIDTHS;
use liquid_simd_sim::{BackendKind, MachineConfig};

use crate::harness::{run_tasks, Binary, BuildCache, Unit};
use crate::VerifyError;

/// Runs every unit on every workload of `cache`, unit by unit over `jobs`
/// worker threads, then builds one row per workload with `row`, which
/// reads its runs back from the memo.
fn rows<R>(
    cache: &BuildCache,
    units: &[Unit],
    jobs: usize,
    row: impl Fn(usize, &Workload) -> Result<R, VerifyError>,
) -> Result<Vec<R>, VerifyError> {
    let runs: Vec<(usize, Unit)> = units
        .iter()
        .flat_map(|&unit| (0..cache.workloads().len()).map(move |wi| (wi, unit)))
        .collect();
    run_tasks(jobs, runs.len(), |i| cache.run(runs[i].0, runs[i].1))?;
    cache
        .workloads()
        .iter()
        .enumerate()
        .map(|(wi, w)| row(wi, w))
        .collect()
}

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

/// Runs the Table 5 measurement: static sizes of outlined functions, read
/// from the liquid builds.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile.
pub fn table5(cache: &BuildCache) -> Result<Vec<Table5Row>, VerifyError> {
    rows(cache, &[], 1, |wi, w| {
        let b = cache.build(wi, Binary::Liquid)?;
        let sizes: Vec<usize> = b.outlined.iter().map(|f| f.instrs).collect();
        let functions = sizes.len();
        Ok(Table5Row {
            benchmark: w.name.clone(),
            functions,
            mean: sizes.iter().sum::<usize>() as f64 / functions.max(1) as f64,
            max: sizes.iter().copied().max().unwrap_or(0),
        })
    })
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
/// would be in flight).
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn table6_jobs(cache: &BuildCache, jobs: usize) -> Result<Vec<Table6Row>, VerifyError> {
    // Translation disabled: we want raw call spacing of the scalar
    // binary, exactly the paper's measurement setup.
    let mut cfg = MachineConfig::scalar_only();
    cfg.max_cycles = 50_000_000_000;
    let scalar_side = Unit::new(Binary::Liquid, &cfg);
    rows(cache, &[scalar_side], jobs, |wi, w| {
        let out = cache.run(wi, scalar_side)?;
        let gaps: Vec<u64> = cache
            .build(wi, Binary::Liquid)?
            .outlined
            .iter()
            .filter_map(|f| out.report.first_call_gap(f.entry))
            .collect();
        let lt150 = gaps.iter().filter(|&&g| g < 150).count();
        let lt300 = gaps.iter().filter(|&&g| (150..300).contains(&g)).count();
        let ge300 = gaps.iter().filter(|&&g| g >= 300).count();
        Ok(Table6Row {
            benchmark: w.name.clone(),
            lt150,
            lt300,
            ge300,
            mean: gaps.iter().sum::<u64>() as f64 / gaps.len().max(1) as f64,
        })
    })
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

/// Figure 6: speedup over the scalar baseline at each accelerator width
/// for the Liquid binary (dynamic translation), the same binary with
/// built-in ISA support, and the native binary.
#[derive(Clone, Debug, PartialEq)]
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

/// The Figure 6 sweep's units at `widths` on `backend`: the plain build on
/// the scalar baseline, then per width [`figure6_width_units`].
#[must_use]
pub fn figure6_units(widths: &[usize], backend: BackendKind) -> Vec<Unit> {
    let mut units = vec![figure6_baseline(backend)];
    units.extend(widths.iter().flat_map(|&w| figure6_width_units(w, backend)));
    units
}

/// Figure 6's scalar baseline (its denominator) on `backend`.
#[must_use]
pub fn figure6_baseline(backend: BackendKind) -> Unit {
    Unit::new(
        Binary::Plain,
        &MachineConfig::scalar_only().with_backend(backend),
    )
}

/// Figure 6's units at `width` on `backend`: the liquid build translated
/// dynamically, the same build with that run's microcode resident
/// (built-in ISA) and the native build.
#[must_use]
pub fn figure6_width_units(width: usize, backend: BackendKind) -> [Unit; 3] {
    let liquid = MachineConfig::liquid(width).with_backend(backend);
    let native = MachineConfig::native(width).with_backend(backend);
    [
        Unit::new(Binary::Liquid, &liquid),
        Unit::new(Binary::Resident, &liquid),
        Unit::new(Binary::Native(width), &native),
    ]
}

/// Runs the Figure 6 sweep over the cache's workloads at `widths`:
/// [`figure6_units`], `1 + 3 * widths` simulations per workload, fanned
/// over `jobs` worker threads. It is the heaviest sweep in the repo, and
/// every run but the resident one, which reads its liquid run's
/// microcode, is independent. Every unit simulates on `backend`; backends
/// give identical cycles.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn figure6_jobs(
    cache: &BuildCache,
    widths: &[usize],
    jobs: usize,
    backend: BackendKind,
) -> Result<Vec<Figure6Row>, VerifyError> {
    let units = figure6_units(widths, backend);
    rows(cache, &units, jobs, |wi, w| {
        let cycles = |unit| cache.run(wi, unit).map(|r| r.report.cycles);
        let baseline_cycles = cycles(figure6_baseline(backend))?;
        let speedup = |unit| cycles(unit).map(|c| baseline_cycles as f64 / c as f64);
        let mut row = Figure6Row {
            benchmark: w.name.clone(),
            baseline_cycles,
            liquid: BTreeMap::new(),
            pretranslated: BTreeMap::new(),
            native: BTreeMap::new(),
        };
        for &width in widths {
            let [liquid, resident, native] = figure6_width_units(width, backend);
            row.liquid.insert(width, speedup(liquid)?);
            row.pretranslated.insert(width, speedup(resident)?);
            row.native.insert(width, speedup(native)?);
        }
        Ok(row)
    })
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

/// Runs the code-size comparison of the plain and liquid builds.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile.
pub fn code_size(cache: &BuildCache) -> Result<Vec<CodeSizeRow>, VerifyError> {
    rows(cache, &[], 1, |wi, w| {
        let plain = &cache.build(wi, Binary::Plain)?.program;
        let liquid = &cache.build(wi, Binary::Liquid)?.program;
        Ok(CodeSizeRow {
            benchmark: w.name.clone(),
            plain_bytes: plain.code_bytes(),
            liquid_bytes: liquid.code_bytes(),
            extra_data_bytes: liquid.data_bytes() as i64 - plain.data_bytes() as i64,
        })
    })
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
/// geometry: it reads the 8-lane liquid run, Figure 6's unit.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn mcache_jobs(cache: &BuildCache, jobs: usize) -> Result<Vec<McacheRow>, VerifyError> {
    let liquid = Unit::new(Binary::Liquid, &MachineConfig::liquid(8));
    rows(cache, &[liquid], jobs, |wi, w| {
        let report = &cache.run(wi, liquid)?.report;
        let max_uops = report.translations.iter().map(|&(_, n)| n).max();
        let micro = report
            .calls
            .iter()
            .filter(|c| c.mode == crate::CallMode::Microcode)
            .count();
        Ok(McacheRow {
            benchmark: w.name.clone(),
            hot_loops: report.translations.len(),
            max_uops: max_uops.unwrap_or(0),
            evictions: report.mcache.evictions,
            microcode_call_fraction: micro as f64 / report.calls.len().max(1) as f64,
        })
    })
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

/// Runs the translation-latency ablation at 8 lanes: one liquid unit per
/// cost, where cost 1 is Figure 6's 8-lane liquid unit.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn ablation_latency_jobs(
    cache: &BuildCache,
    costs: &[u64],
    jobs: usize,
) -> Result<Vec<LatencyAblationRow>, VerifyError> {
    let at_cost = |cost| {
        let mut cfg = MachineConfig::liquid(8);
        cfg.translation.cycles_per_instr = cost;
        Unit::new(Binary::Liquid, &cfg)
    };
    let units: Vec<Unit> = costs.iter().map(|&cost| at_cost(cost)).collect();
    rows(cache, &units, jobs, |wi, w| {
        let cycles_by_cost = costs
            .iter()
            .map(|&cost| Ok((cost, cache.run(wi, at_cost(cost))?.report.cycles)))
            .collect::<Result<_, VerifyError>>()?;
        Ok(LatencyAblationRow {
            benchmark: w.name.clone(),
            cycles_by_cost,
        })
    })
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

/// Runs the hardware-vs-JIT ablation at 8 lanes: Figure 6's 8-lane
/// liquid unit against the same machine with the software JIT.
///
/// # Errors
///
/// Returns a [`VerifyError`] if a workload fails to compile or simulate.
pub fn ablation_jit_jobs(
    cache: &BuildCache,
    jit_cost: u64,
    jobs: usize,
) -> Result<Vec<JitAblationRow>, VerifyError> {
    let mut jit = MachineConfig::liquid(8);
    jit.translation.jit = true;
    jit.translation.jit_cycles_per_instr = jit_cost;
    jit.translation.hw_value_limit = false; // JITs keep full-width values
    let hw = Unit::new(Binary::Liquid, &MachineConfig::liquid(8));
    let jit = Unit::new(Binary::Liquid, &jit);
    rows(cache, &[hw, jit], jobs, |wi, w| {
        Ok(JitAblationRow {
            benchmark: w.name.clone(),
            hw_cycles: cache.run(wi, hw)?.report.cycles,
            jit_cycles: cache.run(wi, jit)?.report.cycles,
        })
    })
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

/// Runs the overhead callout on a (typically high-repetition) workload,
/// on a cache of its own: Figure 6's baseline, 8-lane liquid and resident
/// units, as two independent chains over `jobs` worker threads (the
/// resident run starts from the liquid run's microcode).
///
/// # Errors
///
/// Returns a [`VerifyError`] if the workload fails to compile or simulate.
pub fn overhead_callout(w: &Workload, jobs: usize) -> Result<OverheadCallout, VerifyError> {
    let cache = BuildCache::new(std::slice::from_ref(w));
    let base = figure6_baseline(BackendKind::default());
    let [liquid, resident, _] = figure6_width_units(8, BackendKind::default());
    let callout = rows(&cache, &[base, resident], jobs, |_, w| {
        let cycles = |unit| cache.run(0, unit).map(|r| r.report.cycles as f64);
        Ok(OverheadCallout {
            benchmark: w.name.clone(),
            liquid_speedup: cycles(base)? / cycles(liquid)?,
            builtin_speedup: cycles(base)? / cycles(resident)?,
        })
    });
    Ok(callout?.remove(0))
}

/// Convenience: the paper's width sweep.
#[must_use]
pub fn paper_widths() -> Vec<usize> {
    SUPPORTED_WIDTHS.to_vec()
}
