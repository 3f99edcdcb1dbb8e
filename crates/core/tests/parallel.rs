//! Determinism of the parallel experiment harness: any `--jobs` level must
//! produce byte-identical experiment output, and repeated parallel runs
//! must be stable. Scheduling decides only *when* a simulation unit runs,
//! never *what* it computes — these tests pin that invariant.

use liquid_simd::{experiments, verify_workloads, BackendKind};

/// Renders rows exactly as the CLI prints them, one per line.
fn render<T: std::fmt::Display>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("{r}\n")).collect()
}

#[test]
fn figure6_is_identical_at_any_job_count_and_stable_across_runs() {
    let workloads = liquid_simd_workloads::smoke();
    let widths = [2usize, 8];
    let sweep = |jobs: usize, backend: BackendKind| {
        render(&experiments::figure6_jobs(&workloads, &widths, jobs, backend).expect("sweep"))
    };
    let serial = sweep(1, BackendKind::default());
    assert!(!serial.is_empty());
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
    let t5_serial = render(&experiments::table5_jobs(&workloads, 1).expect("t5 serial"));
    let t5_parallel = render(&experiments::table5_jobs(&workloads, 8).expect("t5 parallel"));
    assert_eq!(t5_serial, t5_parallel);

    let t6_serial = render(&experiments::table6_jobs(&workloads, 1).expect("t6 serial"));
    let t6_parallel = render(&experiments::table6_jobs(&workloads, 8).expect("t6 parallel"));
    assert_eq!(t6_serial, t6_parallel);
}

#[test]
fn remaining_drivers_are_identical_at_any_job_count() {
    let workloads = liquid_simd_workloads::smoke();

    let serial = render(&experiments::code_size_jobs(&workloads, 1).expect("serial"));
    let parallel = render(&experiments::code_size_jobs(&workloads, 4).expect("parallel"));
    assert_eq!(serial, parallel, "code_size diverged");

    let serial = render(&experiments::mcache_jobs(&workloads, 1).expect("serial"));
    let parallel = render(&experiments::mcache_jobs(&workloads, 4).expect("parallel"));
    assert_eq!(serial, parallel, "mcache diverged");

    let costs = [1u64, 40];
    let serial = experiments::ablation_latency_jobs(&workloads, &costs, 1).expect("serial");
    let parallel = experiments::ablation_latency_jobs(&workloads, &costs, 4).expect("parallel");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.cycles_by_cost, p.cycles_by_cost,
            "{} diverged",
            s.benchmark
        );
    }

    let serial = experiments::ablation_jit_jobs(&workloads, 40, 1).expect("serial");
    let parallel = experiments::ablation_jit_jobs(&workloads, 40, 4).expect("parallel");
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.hw_cycles, s.jit_cycles),
            (p.hw_cycles, p.jit_cycles),
            "{} diverged",
            s.benchmark
        );
    }
}

#[test]
fn parallel_verification_passes_on_the_smoke_set() {
    verify_workloads(&liquid_simd_workloads::smoke(), 8).expect("parallel verify");
}
