//! The run protocol shared by the two batch workloads (`figure6`,
//! `families`): set up several times, warm up, then repeat the fixed job
//! on one thread for the run's seconds; or, traced, alternate untraced
//! and traced passes of set-up plus job.
//!
//! End-to-end CPU times are normalised to the reference host's speed
//! with yardstick slices interleaved into the job (see `yardstick`).
//! Traced per-layer times stay raw, so they add up to the traced pass's
//! raw CPU time.

use std::time::{Duration, Instant};

use liquid_simd::isa::Program;
use liquid_simd::mem::Memory;
use liquid_simd::{Machine, MachineConfig, RunReport};

use crate::clock::{process_cpu_s, thread_cpu_ns, Diag};
use crate::spans::Tracer;
use crate::stats::{geomean, median, tail, Tally};
use crate::yardstick;
use crate::Metrics;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// How long the warm-up repeats before timing starts.
const WARM_UP: Duration = Duration::from_secs(3);

/// Timed repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 2;

/// Simulation CPU time between two yardstick slices.
const YARDSTICK_EVERY_NS: u64 = 100_000_000;

/// The CPU time of one simulation call.
#[derive(Clone, Copy, Debug)]
pub struct OpTime {
    /// Thread-CPU milliseconds.
    pub ms: f64,
    /// Whether the call started with a cold microcode cache and ran the
    /// dynamic translator (a liquid-mode simulation).
    pub miss: bool,
    /// Yardstick slices run before this call.
    slices_before: usize,
}

/// What one repetition of a batch job produced.
#[derive(Default)]
pub struct JobOut {
    /// Oracle checks made by the job.
    pub tally: Tally,
    /// Simulated instructions retired by every simulation of the job.
    pub retired: u64,
    /// Scalar-over-liquid cycle ratios at 8 lanes, one per kernel.
    pub speedups_w8: Vec<f64>,
    /// Per-simulation CPU times, in execution order.
    pub ops: Vec<OpTime>,
    /// Cycles of every simulation in canonical (seed-independent) order.
    pub cycles: Vec<u64>,
    /// Yardstick slices run between simulations.
    yardstick: yardstick::Slices,
    /// Simulation CPU time since the last yardstick slice.
    since_slice_ns: u64,
}

impl JobOut {
    /// A job output with `slots` canonical cycle slots.
    #[must_use]
    pub fn with_slots(slots: usize) -> JobOut {
        JobOut {
            cycles: vec![0; slots],
            ..JobOut::default()
        }
    }

    /// Times `f` as one simulation call, then runs a yardstick slice if
    /// enough simulation time has passed since the last one.
    pub fn op<R>(&mut self, miss: bool, f: impl FnOnce() -> R) -> R {
        let start = thread_cpu_ns();
        let out = f();
        let ns = thread_cpu_ns().saturating_sub(start);
        self.ops.push(OpTime {
            ms: ns as f64 * 1e-6,
            miss,
            slices_before: self.yardstick.len(),
        });
        self.since_slice_ns += ns;
        if self.since_slice_ns >= YARDSTICK_EVERY_NS {
            self.since_slice_ns = 0;
            self.yardstick.run();
        }
        out
    }
}

/// Runs `prog` to `halt`: through the facade's `liquid_simd::run` when
/// untraced, split into `Machine::new` (`sim.new_s`) and `Machine::run`
/// (`layer`) when traced. Returns the report and the final memory.
///
/// # Errors
///
/// Returns the simulator's error message.
pub fn simulate(
    tr: &mut Tracer,
    layer: &'static str,
    prog: &Program,
    cfg: MachineConfig,
) -> Result<(RunReport, Memory), String> {
    if !tr.enabled() {
        let out = liquid_simd::run(prog, cfg).map_err(|e| e.to_string())?;
        return Ok((out.report, out.memory));
    }
    let mut m = tr.span("sim.new_s", |_| Machine::new(prog, cfg));
    let report = tr.span(layer, |_| m.run()).map_err(|e| e.to_string())?;
    Ok((report, m.memory().clone()))
}

/// A workload whose fixed job runs on the calling thread.
pub trait Batch {
    /// What set-up makes: the job's inputs.
    type Inputs;
    /// Makes the inputs (spans charge compile and generation layers).
    fn setup(&self, tr: &mut Tracer) -> Result<Self::Inputs, String>;
    /// Untimed work before the first timed job.
    fn warm_up(&self, inputs: &Self::Inputs) -> Result<(), String>;
    /// The fixed job: every simulation, each checked by the oracle.
    fn job(&self, inputs: &Self::Inputs, tr: &mut Tracer) -> Result<JobOut, String>;
}

/// Repeats the workload's warm-up for [`WARM_UP`]: a fresh process runs
/// measurably slower for its first seconds, beyond what the yardstick
/// tracks.
fn warm_up<B: Batch>(b: &B, inputs: &B::Inputs) -> Result<(), String> {
    let start = Instant::now();
    while start.elapsed() < WARM_UP {
        b.warm_up(inputs)?;
    }
    Ok(())
}

fn stop_after(start: Instant, last: Duration, seconds: f64) -> bool {
    (start.elapsed() + last).as_secs_f64() > seconds
}

/// Runs `job` and returns its output with its process-CPU seconds,
/// excluding the yardstick slices run inside it.
fn timed_job<B: Batch>(
    b: &B,
    inputs: &B::Inputs,
    tr: &mut Tracer,
) -> Result<(JobOut, f64), String> {
    let t0 = process_cpu_s();
    let mut out = b.job(inputs, tr)?;
    let cpu = process_cpu_s() - t0 - out.yardstick.total_s();
    if out.yardstick.is_empty() {
        out.yardstick.run();
    }
    Ok((out, cpu))
}

/// The end-to-end run: every `end_to_end` metric.
///
/// # Errors
///
/// Returns the first set-up or simulation error.
pub fn run_e2e<B: Batch>(b: &B, seconds: f64) -> Result<(Metrics, Tally), String> {
    let diag = Diag::start();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = process_cpu_s();
        let made = b.setup(&mut Tracer::off())?;
        let cpu = process_cpu_s() - t0;
        setups.push(cpu * yardstick::Slices::one().factor());
        inputs = Some(made);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    warm_up(b, &inputs)?;

    // Only the first repetition's output is kept whole; later ones are
    // checked against it and reduced to their per-simulation times, so the
    // harness's own memory barely grows with the repetition count and
    // `peak_rss_mb` stays the program's.
    let start = Instant::now();
    let (mut cpus, mut raw, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    let mut first: Option<JobOut> = None;
    // `op_ms[i]`: simulation `i`'s CPU ms in each repetition (every
    // repetition runs the same simulations in the same order), each
    // normalised by the yardstick slices on either side of it.
    let mut op_ms: Vec<Vec<f64>> = Vec::new();
    loop {
        let rep = Instant::now();
        let (out, cpu) = timed_job(b, &inputs, &mut Tracer::off())?;
        cpus.push(cpu * out.yardstick.factor());
        raw.push(cpu);
        tally.attempted += out.tally.attempted;
        tally.failed += out.tally.failed;
        let times = out
            .ops
            .iter()
            .map(|o| o.ms * out.yardstick.factor_between(o.slices_before));
        match &first {
            None => {
                op_ms = times.map(|t| vec![t]).collect();
                first = Some(out);
            }
            Some(f) => {
                for (v, t) in op_ms.iter_mut().zip(times) {
                    v.push(t);
                }
                tally.check(out.cycles == f.cycles, || {
                    "simulated cycles changed between repetitions".to_string()
                });
            }
        }
        if cpus.len() >= MIN_REPS && stop_after(start, rep.elapsed(), seconds) {
            break;
        }
    }
    let first = first.expect("the loop runs at least once");

    // Each simulation's time is its median over the repetitions, so
    // neither a drifting host nor one disturbed repetition moves the
    // percentiles.
    let ops: Vec<f64> = op_ms.iter().map(|v| median(v)).collect();
    let misses: Vec<f64> = ops
        .iter()
        .zip(&first.ops)
        .filter(|(_, o)| o.miss)
        .map(|(&ms, _)| ms)
        .collect();
    let cpu_s = median(&cpus);
    let (tail_pct, tail_ms) = tail(&ops);
    let (wall_s, wait_s) = diag.read();
    eprintln!(
        "perfbench: {} reps of {} sims, tail = p{tail_pct:.2}; raw cpu_s {:.4}, \
         harness.wall_s={wall_s:.3} harness.sched_wait_s={wait_s:.3}",
        cpus.len(),
        ops.len(),
        median(&raw)
    );
    let metrics = vec![
        ("cpu_s", cpu_s),
        ("sim_minstr_per_cpu_s", first.retired as f64 / cpu_s / 1e6),
        ("speedup_geomean_w8", geomean(&first.speedups_w8)),
        ("req_p50_ms", median(&ops)),
        ("req_p99_ms", tail_ms),
        ("miss_p50_ms", median(&misses)),
        ("req_per_s", first.ops.len() as f64 / cpu_s),
        ("ok_frac", tally.ok_frac()),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", crate::clock::peak_rss_mb()?),
    ];
    Ok((metrics, tally))
}

/// The traced run: alternating untraced and traced passes of set-up plus
/// job, reporting per-layer self times as means over the traced passes,
/// counters of one traced pass, and the harness diagnostics.
///
/// # Errors
///
/// Returns the first set-up or simulation error.
pub fn run_traced<B: Batch>(b: &B, seconds: f64) -> Result<(Metrics, Tally), String> {
    warm_up(b, &b.setup(&mut Tracer::off())?)?;

    let diag = Diag::start();
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut traced_cpu, mut slices) = (Vec::new(), Vec::new());
    // Pass CPU times normalised by each pass's own yardstick slices, so
    // host drift between the two passes of a pair does not read as
    // tracing overhead.
    let (mut plain_norm, mut traced_norm) = (Vec::new(), Vec::new());
    let mut tracers = Vec::new();
    loop {
        let pair = Instant::now();
        let t0 = process_cpu_s();
        let inputs = b.setup(&mut Tracer::off())?;
        let setup_cpu = process_cpu_s() - t0;
        let (plain, cpu) = timed_job(b, &inputs, &mut Tracer::off())?;
        plain_norm.push((setup_cpu + cpu) * plain.yardstick.factor());
        drop(inputs);

        let mut tr = Tracer::on();
        let t0 = process_cpu_s();
        let inputs = b.setup(&mut tr)?;
        let setup_cpu = process_cpu_s() - t0;
        let (traced, cpu) = timed_job(b, &inputs, &mut tr)?;
        traced_cpu.push(setup_cpu + cpu);
        traced_norm.push((setup_cpu + cpu) * traced.yardstick.factor());
        drop(inputs);

        for t in [plain.tally, traced.tally] {
            tally.attempted += t.attempted;
            tally.failed += t.failed;
        }
        tally.check(traced.cycles == plain.cycles, || {
            "traced pass simulated different cycles than the untraced pass".to_string()
        });
        slices.push(plain.yardstick.mean_s());
        tracers.push(tr);
        if stop_after(start, pair.elapsed(), seconds) {
            break;
        }
    }
    let (wall_s, wait_s) = diag.read();
    let passes = tracers.len() as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let traced_s = mean(&traced_cpu);
    let mut metrics: Metrics = crate::TIMED_LAYERS
        .iter()
        .map(|&layer| {
            let total: f64 = tracers.iter().map(|t| t.self_s(layer)).sum();
            (layer, total / passes)
        })
        .collect();
    let attributed = tracers.iter().map(Tracer::total_self_s).sum::<f64>() / passes;
    for &name in crate::COUNTED_LAYERS {
        metrics.push((name, tracers[0].counter(name) as f64));
    }
    metrics.extend([
        ("harness.traced_cpu_s", traced_s),
        ("harness.unattributed_s", traced_s - attributed),
        (
            "harness.trace_overhead_frac",
            mean(&traced_norm) / mean(&plain_norm) - 1.0,
        ),
        ("harness.wall_s", wall_s),
        ("harness.sched_wait_s", wait_s),
        ("harness.yardstick_s", median(&slices)),
    ]);
    eprintln!("perfbench: {} traced passes", tracers.len());
    Ok((metrics, tally))
}
