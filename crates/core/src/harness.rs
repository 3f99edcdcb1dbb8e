//! Dependency-free parallel experiment harness (`std` only, no `unsafe`):
//!
//! * [`run_tasks`] — a scoped-thread work queue whose results come back
//!   **in task order**, so a parallel run is byte-identical to the serial
//!   one.
//! * [`BuildCache`] — the run table: memoized builds and simulation
//!   [`Unit`]s, each computed once by the first task that needs it and
//!   gold-checked before its machine drops.
//!
//! Determinism: scheduling decides only *when* a task runs, never *what*
//! it computes. Tasks share nothing mutable but the memo, whose every value
//! is a deterministic function of its key, and the caller always sees the
//! error of the **lowest-indexed** failing task, as a serial loop would.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use liquid_simd_compiler::{
    build_liquid, build_native, build_plain, gold, Build, DataEnv, Workload,
};
use liquid_simd_isa::{Inst, SUPPORTED_WIDTHS};
use liquid_simd_sim::{BackendKind, MachineConfig, RunReport, TranslationConfig};

use crate::{verify_against_gold, VerifyError};

/// The scheduler's default degree of parallelism: one worker per available
/// hardware thread (1 if that cannot be determined).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `count` independent tasks on up to `jobs` worker threads and
/// returns their results **in task order** (index `i` of the output is
/// `task(i)`).
///
/// Workers claim indices from a shared atomic counter (dynamic load
/// balancing: a slow simulation does not hold up the queue). With
/// `jobs <= 1` one worker runs the tasks in index order: a serial loop.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing task. Once any task
/// fails, workers stop claiming new tasks (already-running ones finish).
///
/// # Panics
///
/// A panicking task is contained, not fatal to the queue: the panic is
/// caught, every remaining task still runs, and once the queue has drained
/// the payload of the **lowest-indexed** panicking task is re-raised — so
/// a panic is never swallowed, and never takes unrelated in-flight work
/// down with it. A re-raised panic takes precedence over any task `Err`.
pub fn run_tasks<T, E, F>(jobs: usize, count: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    // Lowest-indexed panic payload; re-raised only after the queue drains.
    let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let contained = |i: usize| -> Option<Result<T, E>> {
        match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(r) => Some(r),
            Err(payload) => {
                let mut slot = first_panic.lock().expect("panic slot poisoned");
                if slot.as_ref().is_none_or(|(idx, _)| i < *idx) {
                    *slot = Some((i, payload));
                }
                None
            }
        }
    };

    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1).min(count) {
            let (slots, next, failed, contained) = (&slots, &next, &failed, &contained);
            scope.spawn(move || loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                // A panicked task leaves its slot empty but does not set
                // `failed`: the queue keeps draining.
                let Some(result) = contained(i) else {
                    continue;
                };
                if result.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    if let Some((_, payload)) = first_panic.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }

    // Indices are claimed monotonically and (absent panics, re-raised
    // above) every claimed task fills its slot, so filled slots form a
    // prefix; in index order any error precedes every abandoned (`None`)
    // slot.
    let mut out = Vec::with_capacity(count);
    for slot in slots {
        match slot.into_inner().expect("result slot poisoned") {
            Some(Ok(value)) => out.push(value),
            Some(Err(e)) => return Err(e),
            None => unreachable!("slot abandoned without a preceding error"),
        }
    }
    Ok(out)
}

/// Which binary of a workload a [`Unit`] simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binary {
    /// The plain build: scalar code, no outlining.
    Plain,
    /// The liquid build: outlined scalar loops, translated at run time.
    Liquid,
    /// The liquid build with the microcode of its [`Binary::Liquid`] run
    /// on the same machine resident from cycle 0: the paper's built-in
    /// ISA support.
    Resident,
    /// The native SIMD build at this many lanes.
    Native(usize),
}

/// What to simulate on a workload: one of its binaries on a machine. The
/// machine is the default [`MachineConfig`] with its lanes, translation,
/// cycle limit and backend set, which covers every machine the
/// experiments use. Unlike a `MachineConfig`, whose tracer is
/// single-threaded, a unit can be shared by worker threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unit {
    /// Which binary runs.
    pub binary: Binary,
    lanes: usize,
    translation: TranslationConfig,
    max_cycles: u64,
    backend: BackendKind,
}

impl Unit {
    /// `binary` on `config`.
    ///
    /// # Panics
    ///
    /// If `config` carries a tracer or differs from the default machine in
    /// anything but its lanes, translation, cycle limit and backend.
    #[must_use]
    pub fn new(binary: Binary, config: &MachineConfig) -> Unit {
        let unit = Unit {
            binary,
            lanes: config.lanes,
            translation: config.translation,
            max_cycles: config.max_cycles,
            backend: config.backend,
        };
        assert!(
            config.tracer.is_none() && unit.config() == *config,
            "a unit's machine is the default one with lanes, translation, \
             cycle limit and backend set"
        );
        unit
    }

    /// The machine this unit runs on.
    #[must_use]
    pub fn config(&self) -> MachineConfig {
        MachineConfig {
            lanes: self.lanes,
            translation: self.translation,
            max_cycles: self.max_cycles,
            backend: self.backend,
            ..MachineConfig::default()
        }
    }
}

/// The unit's label, derived from its fields: the binary and, off the
/// scalar-only machine, its width, with a suffix only for a non-default
/// translation cost, JIT or backend. Every check names its run by it.
impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.binary, self.lanes) {
            (Binary::Plain, 0) => write!(f, "plain/scalar")?,
            (Binary::Plain, w) => write!(f, "plain@{w}")?,
            (Binary::Liquid, 0) => write!(f, "liquid/scalar")?,
            (Binary::Liquid, w) => write!(f, "liquid/translated@{w}")?,
            (Binary::Resident, w) => write!(f, "liquid/resident@{w}")?,
            (Binary::Native(w), _) => write!(f, "native@{w}")?,
        }
        let default = TranslationConfig::default();
        if self.translation.cycles_per_instr != default.cycles_per_instr {
            write!(f, " cost={}", self.translation.cycles_per_instr)?;
        }
        if self.translation.jit {
            write!(f, " jit={}", self.translation.jit_cycles_per_instr)?;
        }
        if self.backend != BackendKind::default() {
            write!(f, " backend={}", self.backend.name())?;
        }
        Ok(())
    }
}

/// A memoized simulation: its report and the microcode resident at halt.
#[derive(Debug)]
pub struct Simulated {
    /// Cycle counts, cache and translator stats, call log, ledger.
    pub report: RunReport,
    /// The machine's `microcode_snapshot()` after the run.
    pub microcode: Vec<(u32, Vec<Inst>)>,
}

/// One memoized value: computed by the first task that asks, shared by
/// every later one.
type Slot<T> = Arc<OnceLock<Result<Arc<T>, VerifyError>>>;
/// A memo table: each key once, with its slot.
type Memo<K, T> = Mutex<Vec<(K, Slot<T>)>>;

/// Memoized builds and runs shared by all tasks of one or more
/// experiments: each build is compiled, and each [`Unit`] simulated on a
/// workload, at most once, by whichever task needs it first (racing tasks
/// block on its [`OnceLock`]). Errors are memoized too, so every task sees
/// the same [`VerifyError`]. Each run is gold-checked before its machine
/// drops, so runs keep their report, not their memory.
pub struct BuildCache<'w> {
    workloads: &'w [Workload],
    /// Shared with every [`BuildCache::fresh_runs`] cache.
    builds: Arc<Memo<(usize, Binary), Build>>,
    /// Shared like `builds`.
    gold: Arc<Memo<usize, DataEnv>>,
    runs: Memo<(usize, Unit), Simulated>,
}

/// The value of `key` in `table`, computed with `compute` on first use.
fn memo<K: PartialEq, T>(
    table: &Memo<K, T>,
    key: K,
    compute: impl FnOnce() -> Result<T, VerifyError>,
) -> Result<Arc<T>, VerifyError> {
    let slot = {
        let mut table = table.lock().expect("memo table poisoned");
        let i = table
            .iter()
            .position(|(k, _)| *k == key)
            .unwrap_or_else(|| {
                table.push((key, Slot::default()));
                table.len() - 1
            });
        Arc::clone(&table[i].1)
    };
    slot.get_or_init(|| compute().map(Arc::new)).clone()
}

impl<'w> BuildCache<'w> {
    /// Creates an empty cache over `workloads`.
    #[must_use]
    pub fn new(workloads: &'w [Workload]) -> BuildCache<'w> {
        BuildCache {
            workloads,
            builds: Arc::default(),
            gold: Arc::default(),
            runs: Memo::default(),
        }
    }

    /// A cache over the same workloads that shares this one's builds and
    /// gold but none of its runs: each run it is asked for is simulated
    /// again. `bench` checks its parallel Figure 6 sweep on one against
    /// the serial sweep's runs, so the two stay independent computations.
    #[must_use]
    pub fn fresh_runs(&self) -> BuildCache<'w> {
        BuildCache {
            workloads: self.workloads,
            builds: Arc::clone(&self.builds),
            gold: Arc::clone(&self.gold),
            runs: Memo::default(),
        }
    }

    /// The workloads, in index order.
    #[must_use]
    pub fn workloads(&self) -> &'w [Workload] {
        self.workloads
    }

    /// The build of workload `index` that `binary` runs (a resident run
    /// runs the liquid build).
    ///
    /// # Errors
    ///
    /// Returns the memoized compile error, or a [`VerifyError::Compile`]
    /// for a native width outside [`SUPPORTED_WIDTHS`].
    pub fn build(&self, index: usize, binary: Binary) -> Result<Arc<Build>, VerifyError> {
        let w = &self.workloads[index];
        let binary = match binary {
            Binary::Resident => Binary::Liquid,
            other => other,
        };
        memo(&self.builds, (index, binary), || match binary {
            Binary::Native(width) if !SUPPORTED_WIDTHS.contains(&width) => Err(
                VerifyError::Compile(format!("no native build at width {width}")),
            ),
            Binary::Native(width) => Ok(build_native(w, width)?),
            Binary::Plain => Ok(build_plain(w)?),
            Binary::Liquid | Binary::Resident => Ok(build_liquid(w)?),
        })
    }

    /// The gold (reference evaluator) data environment of workload `index`.
    ///
    /// # Errors
    ///
    /// Returns the memoized gold-evaluation error.
    pub fn gold(&self, index: usize) -> Result<Arc<DataEnv>, VerifyError> {
        memo(&self.gold, index, || {
            gold::run_gold(&self.workloads[index]).map_err(Into::into)
        })
    }

    /// The memoized run of `unit` on workload `index`, simulated on first
    /// use and checked against the memoized gold before its machine drops.
    ///
    /// # Errors
    ///
    /// Returns the memoized compile, gold or simulation error, or a
    /// [`VerifyError::Mismatch`] naming the workload and the unit's label
    /// when the final memory differs from gold.
    pub fn run(&self, index: usize, unit: Unit) -> Result<Arc<Simulated>, VerifyError> {
        memo(&self.runs, (index, unit), || {
            let build = self.build(index, unit.binary)?;
            let gold = self.gold(index)?;
            let liquid = Unit {
                binary: Binary::Liquid,
                ..unit
            };
            let resident = match unit.binary {
                Binary::Resident => self.run(index, liquid)?.microcode.clone(),
                _ => Vec::new(),
            };
            let (report, machine) = crate::simulate(&build.program, unit.config(), &resident)?;
            let name = format!("{} {unit}", self.workloads[index].name);
            verify_against_gold(&name, &build.program, machine.memory(), &gold)?;
            Ok(Simulated {
                report,
                microcode: machine.microcode_snapshot(),
            })
        })
    }

    /// How many distinct runs the cache holds, each simulated once.
    #[must_use]
    pub fn simulations(&self) -> usize {
        self.runs.lock().expect("memo table poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_task_order() {
        for jobs in [1, 2, 8] {
            let out: Result<Vec<usize>, ()> = run_tasks(jobs, 37, |i| Ok(i * i));
            assert_eq!(out.unwrap(), (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        // Both 5 and 11 fail; every schedule must report 5.
        for jobs in [1, 3, 8] {
            let out: Result<Vec<usize>, usize> =
                run_tasks(jobs, 16, |i| if i == 5 || i == 11 { Err(i) } else { Ok(i) });
            assert_eq!(out.unwrap_err(), 5);
        }
    }

    #[test]
    fn zero_tasks_and_zero_jobs_are_fine() {
        let out: Result<Vec<u8>, ()> = run_tasks(0, 0, |_| Ok(0));
        assert_eq!(out.unwrap(), Vec::<u8>::new());
        let out: Result<Vec<usize>, ()> = run_tasks(0, 3, Ok);
        assert_eq!(out.unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let out: Result<Vec<()>, ()> = run_tasks(8, 64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(out.unwrap().len(), 64);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panicking_task_drains_queue_and_panic_is_surfaced() {
        // One task panics; the queue must still drain (every other task
        // runs) and the original payload must reach the caller — on both
        // the serial and the parallel path.
        for jobs in [1, 4] {
            let started: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_tasks(jobs, 16, |i| {
                    started[i].fetch_add(1, Ordering::Relaxed);
                    assert!(i != 3, "boom at {i}");
                    Ok::<usize, ()>(i)
                })
            }));
            let payload = caught.expect_err("panic must be surfaced, not swallowed");
            let msg = payload
                .downcast_ref::<String>()
                .expect("original payload preserved");
            assert!(msg.contains("boom at 3"), "payload intact: {msg}");
            // Queue drained: every task was claimed and entered, including
            // the ones after the panic.
            assert!(
                started.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "jobs={jobs}: remaining tasks must complete after a panic"
            );
        }
    }

    #[test]
    fn lowest_indexed_panic_wins() {
        for jobs in [1, 4] {
            let ran = AtomicU32::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_tasks(jobs, 12, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 2 && i != 9, "panic {i}");
                    Ok::<usize, ()>(i)
                })
            }));
            let payload = caught.expect_err("panic surfaced");
            let msg = payload.downcast_ref::<String>().unwrap();
            assert!(msg.contains("panic 2"), "lowest index wins: {msg}");
            // Every task ran, panicked ones included.
            assert_eq!(ran.load(Ordering::Relaxed), 12);
        }
    }

    #[test]
    fn build_cache_memoizes_and_shares_errors() {
        let w = liquid_simd_workloads::smoke();
        let cache = BuildCache::new(&w);
        let a = cache.build(0, Binary::Liquid).unwrap();
        let b = cache.build(0, Binary::Resident).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "a resident run shares the liquid build"
        );
        assert!(cache.build(1, Binary::Plain).is_ok());
        assert!(cache.build(2, Binary::Native(8)).is_ok());
        assert!(cache.gold(0).is_ok());
        // An unsupported width is a deterministic error, not a panic.
        assert!(matches!(
            cache.build(0, Binary::Native(3)),
            Err(VerifyError::Compile(msg)) if msg.contains("no native build at width 3")
        ));
    }

    #[test]
    fn run_memo_simulates_each_unit_once() {
        let w = liquid_simd_workloads::smoke();
        let cache = BuildCache::new(&w);
        let liquid = MachineConfig::liquid(8);
        // The resident run simulates its liquid run first, once.
        let resident = cache.run(0, Unit::new(Binary::Resident, &liquid)).unwrap();
        assert_eq!(cache.simulations(), 2);
        let cold = cache.run(0, Unit::new(Binary::Liquid, &liquid)).unwrap();
        let again = cache.run(0, Unit::new(Binary::Liquid, &liquid)).unwrap();
        assert!(Arc::ptr_eq(&cold, &again));
        assert!(resident.report.cycles < cold.report.cycles);
        assert!(!cold.microcode.is_empty());
        assert_eq!(cache.simulations(), 2);
        // The backend is part of the key; the same units again cost nothing.
        let interp = liquid.clone().with_backend(BackendKind::Interp);
        let units = [
            Unit::new(Binary::Liquid, &interp),
            Unit::new(Binary::Liquid, &liquid),
            Unit::new(Binary::Native(8), &MachineConfig::native(8)),
        ];
        let run_all = || {
            let runs: Vec<_> = (0..w.len()).flat_map(|i| units.map(|u| (i, u))).collect();
            run_tasks(2, runs.len(), |i| cache.run(runs[i].0, runs[i].1)).unwrap()
        };
        let runs = run_all();
        assert_eq!(cache.simulations(), 3 * w.len() + 1);
        assert_eq!(runs[0].report.cycles, cold.report.cycles);
        run_all();
        assert_eq!(cache.simulations(), 3 * w.len() + 1);
    }

    #[test]
    fn fresh_runs_share_builds_and_gold_but_simulate_again() {
        let w = liquid_simd_workloads::smoke();
        let cache = BuildCache::new(&w);
        let unit = Unit::new(Binary::Liquid, &MachineConfig::liquid(8));
        let first = cache.run(0, unit).unwrap();
        let fresh = cache.fresh_runs();
        assert_eq!(fresh.simulations(), 0);
        let again = fresh.run(0, unit).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "the run is simulated again");
        assert_eq!(again.report.cycles, first.report.cycles);
        assert_eq!(fresh.simulations(), 1);
        assert!(Arc::ptr_eq(
            &cache.build(0, Binary::Liquid).unwrap(),
            &fresh.build(0, Binary::Liquid).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &cache.gold(0).unwrap(),
            &fresh.gold(0).unwrap()
        ));
        assert_eq!(cache.builds.lock().unwrap().len(), 1);
    }

    #[test]
    fn check_labels_are_distinct_and_suffixes_name_the_machine() {
        let units = crate::check_units();
        let mut labels: Vec<String> = units.iter().map(ToString::to_string).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), units.len(), "{labels:?}");
        let mut cfg = MachineConfig::liquid(8).with_backend(BackendKind::Interp);
        cfg.translation.cycles_per_instr = 4;
        cfg.translation.jit = true;
        let label = Unit::new(Binary::Liquid, &cfg).to_string();
        assert!(
            label.ends_with("@8 cost=4 jit=40 backend=interp"),
            "{label}"
        );
    }

    #[test]
    fn a_wrong_output_fails_its_run_with_the_workload_and_label() {
        use crate::experiments::{figure6_baseline, figure6_jobs, figure6_units};
        let w = liquid_simd_workloads::smoke();
        let bad = 1;
        let mut env = gold::run_gold(&w[bad]).unwrap();
        match &mut env.arrays.values_mut().next().unwrap().1 {
            liquid_simd_compiler::ArrayData::Int(v) => v[0] += 1,
            liquid_simd_compiler::ArrayData::F32(v) => v[0] += 1.0 + v[0].abs(),
        }
        let cache = BuildCache::new(&w);
        let slot = OnceLock::from(Ok(Arc::new(env)));
        cache.gold.lock().unwrap().push((bad, Arc::new(slot)));

        let backend = BackendKind::default();
        let err = figure6_jobs(&cache, &[8], 2, backend).unwrap_err();
        let VerifyError::Mismatch { config, .. } = &err else {
            panic!("expected a mismatch, got {err}");
        };
        let first = figure6_baseline(backend);
        assert_eq!(*config, format!("{} {first}", w[bad].name));

        // Every run of the perturbed workload fails; the others match a
        // clean cache.
        let clean = BuildCache::new(&w);
        for unit in figure6_units(&[8], backend) {
            for wi in 0..w.len() {
                let run = cache.run(wi, unit);
                if wi == bad {
                    assert!(matches!(run, Err(VerifyError::Mismatch { .. })), "{unit}");
                } else {
                    let cycles = clean.run(wi, unit).unwrap().report.cycles;
                    assert_eq!(run.unwrap().report.cycles, cycles, "{unit}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a unit's machine")]
    fn a_unit_rejects_a_machine_it_cannot_key() {
        let mut config = MachineConfig::liquid(8);
        config.mcache_entries = 4;
        let _ = Unit::new(Binary::Liquid, &config);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
