//! The abort-point injection sweep.
//!
//! The paper's core safety claim (§4.3) is that the dynamic translator can
//! be interrupted at *any* retired instruction of a translating region —
//! a context switch, an interrupt — and the machine simply keeps executing
//! the scalar loop, bit-for-bit correct, with **no partial microcode** left
//! in the translation cache. This module turns that claim into an
//! exhaustive experiment: run a workload once cleanly to learn each
//! translation window `[begin_retired, end_retired]`, then re-run the
//! whole program once per interior retire index with an external abort
//! injected exactly there, checking the output against the gold evaluator
//! and the microcode cache for partial entries every time.
//!
//! The sweep starts at `begin_retired + 1`: translation begins in the
//! control-flow phase of a machine step, *after* that step's injection
//! point, so an injection at `begin_retired` lands before the translator
//! is active and would be a vacuous no-op.

use liquid_simd::{build_liquid, gold, verify_against_gold, BackendKind, MachineConfig, Workload};

use crate::gen::LegalSpec;
use crate::oracle::run_reference;

/// The result of sweeping one workload at one lane width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Workload name.
    pub name: String,
    /// Lane width of the machine swept.
    pub lanes: usize,
    /// Number of injection points exercised (sum over windows).
    pub points: u64,
    /// Whether every injection point passed.
    pub passed: bool,
    /// First failing point, empty when passed.
    pub detail: String,
}

/// Sweeps an external abort across every retired-instruction index of
/// every completed translation window of `workload`, asserting that each
/// aborted run still produces the gold result and leaves no microcode
/// entry for the aborted region.
#[must_use]
pub fn sweep_workload(workload: &Workload, lanes: usize) -> SweepOutcome {
    let name = workload.name.clone();
    let fail = |detail: String| SweepOutcome {
        name: name.clone(),
        lanes,
        points: 0,
        passed: false,
        detail,
    };

    let gold_env = match gold::run_gold(workload) {
        Ok(env) => env,
        Err(e) => return fail(format!("gold evaluation failed: {e}")),
    };
    let build = match build_liquid(workload) {
        Ok(b) => b,
        Err(e) => return fail(format!("liquid build failed: {e}")),
    };
    let clean = match run_reference(&build.program, MachineConfig::liquid(lanes)) {
        Ok((report, _, _)) => report,
        Err(e) => return fail(format!("clean run failed: {e}")),
    };
    let windows: Vec<_> = clean.windows.iter().filter(|w| w.completed).collect();
    if windows.is_empty() {
        return fail("no completed translation window to sweep".to_string());
    }

    let mut points = 0u64;
    for window in windows {
        for n in window.begin_retired + 1..=window.end_retired {
            points += 1;
            let mut cfg = MachineConfig::liquid(lanes).with_backend(BackendKind::Interp);
            cfg.interrupt_at = vec![n];
            let mut m = liquid_simd::Machine::new(&build.program, cfg);
            let report = match m.run() {
                Ok(r) => r,
                Err(e) => {
                    return fail(format!("inject@{n}: run failed: {e}"));
                }
            };
            if !crate::oracle::saw_injected_abort(&report) {
                return fail(format!(
                    "inject@{n}: no injected abort recorded (window {:#x} [{}, {}])",
                    window.func_pc, window.begin_retired, window.end_retired
                ));
            }
            if let Err(e) = verify_against_gold("inject", &build.program, m.memory(), &gold_env) {
                return fail(format!("inject@{n}: output diverged from gold: {e}"));
            }
            // A single-rep workload never re-enters the region after the
            // abort, so any cache entry for it would be a partial one.
            if workload.reps == 1 {
                let partial = m
                    .microcode_snapshot()
                    .iter()
                    .any(|(pc, _)| *pc == window.func_pc);
                if partial {
                    return fail(format!(
                        "inject@{n}: microcode cache holds an entry for aborted \
                         region {:#x}",
                        window.func_pc
                    ));
                }
            }
        }
    }

    SweepOutcome {
        name,
        lanes,
        points,
        passed: true,
        detail: String::new(),
    }
}

/// The two fixed workloads the conformance run always sweeps: a saturating
/// i8 kernel (value-clamping path) and an i32 multiply-reduce (reduction
/// epilogue path). Single rep so the no-partial-entry check is decisive.
#[must_use]
pub fn sweep_specs() -> Vec<LegalSpec> {
    vec![LegalSpec::sweep_sat(), LegalSpec::sweep_red()]
}

/// Runs the full standard sweep (both fixed workloads) at one lane width.
#[must_use]
pub fn run_standard_sweeps(lanes: usize) -> Vec<SweepOutcome> {
    sweep_specs()
        .iter()
        .map(|spec| match spec.to_workload() {
            Ok(w) => sweep_workload(&w, lanes),
            Err(e) => SweepOutcome {
                name: spec.name.clone(),
                lanes,
                points: 0,
                passed: false,
                detail: format!("sweep spec does not build: {e}"),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_sweeps_pass_at_width_8() {
        for outcome in run_standard_sweeps(8) {
            assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
            assert!(outcome.points > 0, "{}: swept nothing", outcome.name);
        }
    }

    #[test]
    fn sweep_detects_missing_window() {
        // A trip-less spec cannot exist, but a workload whose region never
        // completes translation (too many uops) must be reported, not
        // silently passed.
        let spec = LegalSpec::sweep_sat();
        let w = spec.to_workload().unwrap();
        // Lanes = 0 (scalar-only) never translates.
        let outcome = sweep_workload(&w, 0);
        assert!(!outcome.passed);
        assert!(outcome.detail.contains("no completed translation window"));
    }
}
