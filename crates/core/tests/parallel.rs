//! Determinism of the parallel experiment harness: any `--jobs` level must
//! produce byte-identical experiment output, and repeated parallel runs
//! must be stable. Scheduling decides only *when* a simulation unit runs,
//! never *what* it computes, and a run the drivers share through one
//! [`BuildCache`] is the same run whichever driver asked for it first —
//! these tests pin that invariant.

use liquid_simd::{experiments, verify_workloads, BackendKind, BuildCache, Workload};

const WIDTHS: [usize; 2] = [2, 8];

/// Renders rows one per line, as the CLI prints them.
fn render<T: std::fmt::Display>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

#[test]
fn figure6_is_identical_at_any_job_count_and_stable_across_runs() {
    let workloads = liquid_simd_workloads::smoke();
    let sweep = |jobs: usize, backend: BackendKind| {
        let cache = BuildCache::new(&workloads);
        render(&experiments::figure6_jobs(&cache, &WIDTHS, jobs, backend).expect("sweep"))
    };
    let serial = sweep(1, BackendKind::default());
    assert_eq!(serial.lines().count(), workloads.len());
    for jobs in [2, 8] {
        let parallel = sweep(jobs, BackendKind::default());
        assert_eq!(serial, parallel, "figure6 diverged at jobs={jobs}");
    }
    // Repeated parallel runs: same bytes again (no run-to-run drift).
    let again = sweep(8, BackendKind::default());
    assert_eq!(serial, again, "figure6 unstable across repeated runs");
    // The interpreter simulates the same cycles.
    assert_eq!(
        serial,
        sweep(2, BackendKind::Interp),
        "figure6 differs on interp"
    );
}

#[test]
fn table5_and_table6_are_identical_at_any_job_count() {
    let workloads = liquid_simd_workloads::smoke();
    let tables = |jobs| {
        let cache = BuildCache::new(&workloads);
        let t5 = render(&experiments::table5(&cache).expect("table 5"));
        let t6 = render(&experiments::table6_jobs(&cache, jobs).expect("table 6"));
        t5 + &t6
    };
    let serial = tables(1);
    assert_eq!(serial.lines().count(), 2 * workloads.len());
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            tables(jobs),
            "tables 5 and 6 diverged at jobs={jobs}"
        );
    }
}

/// Code size, the microcode-cache table, both ablations and a short
/// callout at `jobs`. With `after_figure6` they share a cache with a
/// Figure 6 sweep run first, so the microcode-cache table and the
/// ablations' 8-lane liquid runs are the sweep's.
fn remaining(workloads: &[Workload], jobs: usize, after_figure6: bool) -> String {
    let cache = BuildCache::new(workloads);
    if after_figure6 {
        experiments::figure6_jobs(&cache, &WIDTHS, jobs, BackendKind::default()).expect("figure 6");
    }
    let mut fir = liquid_simd_workloads::fir();
    fir.reps = 40;
    [
        render(&experiments::code_size(&cache).expect("code size")),
        render(&experiments::mcache_jobs(&cache, jobs).expect("mcache")),
        format!(
            "{:?}\n",
            experiments::ablation_latency_jobs(&cache, &[1, 40], jobs).expect("A1")
        ),
        format!(
            "{:?}\n",
            experiments::ablation_jit_jobs(&cache, 40, jobs).expect("A2")
        ),
        format!(
            "{:?}\n",
            experiments::overhead_callout(&fir, jobs).expect("callout")
        ),
    ]
    .concat()
}

#[test]
fn remaining_drivers_are_identical_at_any_job_count() {
    let workloads = liquid_simd_workloads::smoke();
    let serial = remaining(&workloads, 1, false);
    assert_eq!(serial.lines().count(), 2 * workloads.len() + 3);
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            remaining(&workloads, jobs, false),
            "drivers diverged at jobs={jobs}"
        );
        assert_eq!(
            serial,
            remaining(&workloads, jobs, true),
            "drivers reading Figure 6's runs diverged at jobs={jobs}"
        );
    }
}

#[test]
fn parallel_verification_passes_on_the_smoke_set() {
    verify_workloads(&liquid_simd_workloads::smoke(), 8).expect("parallel verify");
}
