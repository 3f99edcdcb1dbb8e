//! Differential verification: simulated memory vs the gold evaluator.

use std::error::Error;
use std::fmt;

use liquid_simd_compiler::{ArrayData, CompileError, DataEnv, Workload};
use liquid_simd_isa::{Program, SUPPORTED_WIDTHS};
use liquid_simd_mem::Memory;
use liquid_simd_sim::{BackendKind, MachineConfig, SimError};

use crate::experiments::figure6_units;
use crate::harness::{run_tasks, Binary, BuildCache, Unit};

/// Relative tolerance for `f32` comparisons. Reductions reassociate under
/// vectorisation (the paper's SIMD hardware does too), so float results
/// match only approximately; integer results must match bit-exactly.
pub const F32_RTOL: f32 = 1e-3;

/// A verification failure.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// Compilation failed.
    Compile(String),
    /// Simulation failed.
    Sim(String),
    /// An output array differs from the reference.
    Mismatch {
        /// Which run produced the mismatch (for a [`BuildCache`] run, the
        /// workload and the unit's label).
        config: String,
        /// Array name.
        array: String,
        /// Element index.
        index: usize,
        /// Expected (gold) value as text.
        expected: String,
        /// Actual simulated value as text.
        actual: String,
    },
    /// An array in the gold environment has no symbol in the program.
    MissingSymbol {
        /// Array name.
        array: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Compile(e) => write!(f, "compile error: {e}"),
            VerifyError::Sim(e) => write!(f, "simulation error: {e}"),
            VerifyError::Mismatch {
                config,
                array,
                index,
                expected,
                actual,
            } => write!(
                f,
                "[{config}] {array}[{index}]: expected {expected}, got {actual}"
            ),
            VerifyError::MissingSymbol { array } => {
                write!(f, "array `{array}` has no symbol in the program")
            }
        }
    }
}

impl Error for VerifyError {}

impl From<CompileError> for VerifyError {
    fn from(e: CompileError) -> VerifyError {
        VerifyError::Compile(e.to_string())
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> VerifyError {
        VerifyError::Sim(e.to_string())
    }
}

/// `true` if two `f32` values agree within [`F32_RTOL`] (relative to the
/// larger magnitude, and absolute below 1).
#[must_use]
pub fn f32_close(a: f32, b: f32) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= F32_RTOL * scale
}

/// Compares every array of the gold environment against the program's
/// memory image after a run.
///
/// # Errors
///
/// Returns the first mismatch found.
pub fn verify_against_gold(
    config_name: &str,
    program: &Program,
    memory: &Memory,
    gold_env: &DataEnv,
) -> Result<(), VerifyError> {
    for (name, (elem, data)) in &gold_env.arrays {
        let Some((_, sym)) = program.symbol_by_name(name) else {
            return Err(VerifyError::MissingSymbol {
                array: name.clone(),
            });
        };
        let mismatch = |index: usize, expected: String, actual: String| VerifyError::Mismatch {
            config: config_name.to_string(),
            array: name.clone(),
            index,
            expected,
            actual,
        };
        match data {
            ArrayData::Int(values) => {
                let bytes = elem.bytes();
                for (i, &expected) in values.iter().enumerate() {
                    let addr = sym.addr + i as u32 * bytes;
                    let actual = memory
                        .read(addr, bytes)
                        .map_err(|e| VerifyError::Sim(e.to_string()))?;
                    if i64::from(actual) != expected {
                        return Err(mismatch(i, expected.to_string(), actual.to_string()));
                    }
                }
            }
            ArrayData::F32(values) => {
                for (i, &expected) in values.iter().enumerate() {
                    let addr = sym.addr + i as u32 * 4;
                    let actual = memory
                        .read_f32(addr)
                        .map_err(|e| VerifyError::Sim(e.to_string()))?;
                    if !f32_close(expected, actual) {
                        return Err(mismatch(i, expected.to_string(), actual.to_string()));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The runs that check a workload against gold, in check order: the
/// plain and liquid builds on the scalar-only machine (the liquid one is
/// forward compatibility: virtualised code runs with no accelerator and
/// no translator), then at every supported width the liquid build
/// translated dynamically, the same build with that run's microcode
/// resident (built-in ISA support) and the native build. Each is named by
/// its [`Unit`] label.
#[must_use]
pub fn check_units() -> Vec<Unit> {
    let mut units = figure6_units(&SUPPORTED_WIDTHS, BackendKind::default());
    units.insert(1, Unit::new(Binary::Liquid, &MachineConfig::scalar_only()));
    units
}

/// Full differential verification of one workload: every unit of
/// [`check_units`], each checked against the gold evaluator.
///
/// # Errors
///
/// Returns the first failure.
pub fn verify_workload(w: &Workload) -> Result<(), VerifyError> {
    verify_workloads(std::slice::from_ref(w), 1)
}

/// [`verify_workload`] over many workloads: every `(workload, unit)` run
/// of [`check_units`] goes through one [`BuildCache`], which gold-checks
/// it, fanned over `jobs` worker threads via [`run_tasks`]. On failure
/// the error is the one a serial [`verify_workload`] loop would have hit
/// first.
///
/// # Errors
///
/// Returns the first failure (in serial check order).
pub fn verify_workloads(workloads: &[Workload], jobs: usize) -> Result<(), VerifyError> {
    let cache = BuildCache::new(workloads);
    let units = check_units();
    let runs: Vec<(usize, Unit)> = (0..workloads.len())
        .flat_map(|wi| units.iter().map(move |&unit| (wi, unit)))
        .collect();
    run_tasks(jobs, runs.len(), |i| cache.run(runs[i].0, runs[i].1)).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_tolerance_behaviour() {
        assert!(f32_close(1.0, 1.0));
        assert!(f32_close(1000.0, 1000.5));
        assert!(!f32_close(1.0, 1.1));
        assert!(f32_close(0.0, 0.0));
        assert!(!f32_close(0.0, 0.1));
    }
}
