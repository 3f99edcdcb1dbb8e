//! Dependency-free parallel experiment harness.
//!
//! Every experiment driver in [`crate::experiments`] decomposes into
//! independent `(workload, width, mode)` simulation units. This module
//! provides the two pieces that let them fan out across cores with zero
//! new dependencies (`std` only, no `unsafe`):
//!
//! * [`run_tasks`] — a scoped-thread work-queue scheduler. Workers claim
//!   task indices from a shared atomic counter; each result lands in its
//!   own slot, and the caller reassembles them **in task order**, so the
//!   output of a parallel run is byte-identical to the serial run.
//! * [`BuildCache`] — [`OnceLock`]-memoized compilation. A width sweep
//!   needs each workload's plain/liquid build once, not once per width;
//!   the first task to need a build compiles it, everyone else blocks
//!   briefly and shares the result.
//!
//! Determinism argument: scheduling only decides *when* a unit runs, never
//! *what* it computes — units share no mutable state (each simulation owns
//! its [`Machine`](liquid_simd_sim::Machine)) and results are indexed, so
//! reassembly order is fixed. Errors are deterministic too: the caller
//! always sees the error of the **lowest-indexed** failing task, matching
//! what a serial loop would have returned first.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use liquid_simd_compiler::{
    build_liquid, build_native, build_plain, gold, Build, DataEnv, Workload,
};

use crate::VerifyError;

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
/// With `jobs <= 1` this degenerates to a plain serial loop — no threads
/// are spawned, so `--jobs 1` is exactly the pre-parallel behaviour. With
/// more jobs, workers claim indices from a shared atomic counter (dynamic
/// load balancing: a slow simulation does not hold up the queue).
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

    if jobs <= 1 || count <= 1 {
        let mut out = Vec::with_capacity(count);
        let mut first_err = None;
        for i in 0..count {
            match contained(i) {
                Some(Ok(value)) => out.push(value),
                // An Err stops claiming new tasks, exactly as the parallel
                // path's `failed` flag does.
                Some(Err(e)) => {
                    first_err = Some(e);
                    break;
                }
                // A panic drains: keep running the remaining tasks.
                None => {}
            }
        }
        if let Some((_, payload)) = first_panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        return match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        };
    }

    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(count) {
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

/// Memoized compilation results shared by all tasks of one experiment.
///
/// Each build is compiled at most once, by whichever task needs it first
/// ([`OnceLock::get_or_init`] makes racing tasks block rather than
/// duplicate the work), and errors are memoized the same way — every task
/// that needs a broken build sees the same [`VerifyError`].
pub struct BuildCache<'w> {
    workloads: &'w [Workload],
    widths: Vec<usize>,
    plain: Vec<OnceLock<Result<Build, VerifyError>>>,
    liquid: Vec<OnceLock<Result<Build, VerifyError>>>,
    /// `native[workload][width index]`, parallel to `widths`.
    native: Vec<Vec<OnceLock<Result<Build, VerifyError>>>>,
    gold: Vec<OnceLock<Result<DataEnv, VerifyError>>>,
}

impl<'w> BuildCache<'w> {
    /// Creates an empty cache over `workloads`. Native builds are
    /// width-specific, so the accelerator widths the experiment will
    /// request must be registered up front.
    #[must_use]
    pub fn new(workloads: &'w [Workload], widths: &[usize]) -> BuildCache<'w> {
        fn locks<T>(n: usize) -> Vec<OnceLock<T>> {
            std::iter::repeat_with(OnceLock::new).take(n).collect()
        }
        BuildCache {
            workloads,
            widths: widths.to_vec(),
            plain: locks(workloads.len()),
            liquid: locks(workloads.len()),
            native: (0..workloads.len()).map(|_| locks(widths.len())).collect(),
            gold: locks(workloads.len()),
        }
    }

    /// The workload at `index`.
    #[must_use]
    pub fn workload(&self, index: usize) -> &'w Workload {
        &self.workloads[index]
    }

    /// The plain (scalar, no outlining) build of workload `index`.
    ///
    /// # Errors
    ///
    /// Returns the memoized compile error, if compilation failed.
    pub fn plain(&self, index: usize) -> Result<&Build, VerifyError> {
        self.plain[index]
            .get_or_init(|| build_plain(&self.workloads[index]).map_err(Into::into))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The Liquid (outlined scalar) build of workload `index`.
    ///
    /// # Errors
    ///
    /// Returns the memoized compile error, if compilation failed.
    pub fn liquid(&self, index: usize) -> Result<&Build, VerifyError> {
        self.liquid[index]
            .get_or_init(|| build_liquid(&self.workloads[index]).map_err(Into::into))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The native SIMD build of workload `index` at `width` lanes.
    ///
    /// # Errors
    ///
    /// Returns the memoized compile error, or a [`VerifyError::Compile`]
    /// if `width` was not registered in [`BuildCache::new`].
    pub fn native(&self, index: usize, width: usize) -> Result<&Build, VerifyError> {
        let Some(wi) = self.widths.iter().position(|&w| w == width) else {
            return Err(VerifyError::Compile(format!(
                "width {width} not registered in the build cache"
            )));
        };
        self.native[index][wi]
            .get_or_init(|| build_native(&self.workloads[index], width).map_err(Into::into))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The gold (reference evaluator) data environment of workload `index`.
    ///
    /// # Errors
    ///
    /// Returns the memoized gold-evaluation error.
    pub fn gold(&self, index: usize) -> Result<&DataEnv, VerifyError> {
        self.gold[index]
            .get_or_init(|| gold::run_gold(&self.workloads[index]).map_err(Into::into))
            .as_ref()
            .map_err(Clone::clone)
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
        let cache = BuildCache::new(&w, &[2, 8]);
        let a = cache.liquid(0).unwrap().program.code_bytes();
        let b = cache.liquid(0).unwrap().program.code_bytes();
        assert_eq!(a, b);
        assert!(cache.plain(1).is_ok());
        assert!(cache.native(2, 8).is_ok());
        assert!(cache.gold(0).is_ok());
        // Unregistered width is a deterministic error, not a panic.
        assert!(matches!(
            cache.native(0, 4),
            Err(VerifyError::Compile(msg)) if msg.contains("not registered")
        ));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
