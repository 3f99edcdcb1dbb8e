//! Differential verification: simulated memory vs the gold evaluator.

use std::error::Error;
use std::fmt;

use liquid_simd_compiler::{ArrayData, CompileError, DataEnv, Workload};
use liquid_simd_isa::{ElemType, Program, SUPPORTED_WIDTHS};
use liquid_simd_mem::Memory;
use liquid_simd_sim::{MachineConfig, SimError};

use crate::harness::{Binary, BuildCache, Unit};

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
        /// Which configuration produced the mismatch.
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

fn f32_close(a: f32, b: f32) -> bool {
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
    let _ = ElemType::I8; // (symbol used via elem.bytes())
    Ok(())
}

/// Full differential verification of one workload:
///
/// * plain scalar binary on the scalar-only machine;
/// * Liquid binary on the scalar-only machine (forward compatibility: the
///   virtualised code runs correctly with no accelerator and no translator);
/// * Liquid binary under dynamic translation at every supported width;
/// * native binary at every supported width;
///
/// each checked against the gold evaluator.
///
/// # Errors
///
/// Returns the first failure.
pub fn verify_workload(w: &Workload) -> Result<(), VerifyError> {
    verify_workloads(std::slice::from_ref(w), 1)
}

/// [`verify_workload`] over many workloads, with every
/// `(workload, configuration)` check fanned over `jobs` worker threads via
/// [`crate::harness::run_tasks`]. Builds and gold results are memoized in
/// a [`BuildCache`], so each binary is compiled once no matter how many
/// configurations exercise it; the checks simulate themselves, because
/// the cache's runs keep no memory image. On failure the error is the one
/// a serial [`verify_workload`] loop would have hit first.
///
/// # Errors
///
/// Returns the first failure (in serial check order).
pub fn verify_workloads(workloads: &[Workload], jobs: usize) -> Result<(), VerifyError> {
    let cache = BuildCache::new(workloads);
    let scalar = MachineConfig::scalar_only();
    let mut checks = vec![("plain/scalar".into(), Unit::new(Binary::Plain, &scalar))];
    checks.push(("liquid/scalar".into(), Unit::new(Binary::Liquid, &scalar)));
    for lanes in SUPPORTED_WIDTHS {
        let liquid = Unit::new(Binary::Liquid, &MachineConfig::liquid(lanes));
        let native = Unit::new(Binary::Native(lanes), &MachineConfig::native(lanes));
        checks.push((format!("liquid/translated@{lanes}"), liquid));
        checks.push((format!("native@{lanes}"), native));
    }
    let runs: Vec<(usize, &(String, Unit))> = (0..workloads.len())
        .flat_map(|wi| checks.iter().map(move |check| (wi, check)))
        .collect();
    crate::harness::run_tasks(jobs, runs.len(), |i| {
        let (wi, (label, unit)) = runs[i];
        let gold_env = cache.gold(wi)?;
        let program = &cache.build(wi, unit.binary)?.program;
        let out = crate::run(program, unit.config())?;
        verify_against_gold(label, program, &out.memory, &gold_env)
    })
    .map(drop)
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
