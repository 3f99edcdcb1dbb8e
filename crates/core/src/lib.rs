//! Liquid SIMD — public facade.
//!
//! This crate ties the reproduction together: compile a [`Workload`] three
//! ways ([`build_liquid`] / [`build_native`] / [`build_plain`]), run the
//! binaries on the simulated machine ([`run`]), check results against the
//! reference evaluator ([`verify_against_gold`]), and regenerate every
//! table and figure of the paper's evaluation ([`experiments`]).
//!
//! # Quickstart
//!
//! ```
//! use liquid_simd::{
//!     build_liquid, build_plain, run, verify_workload, MachineConfig, Workload,
//! };
//! use liquid_simd_compiler::{ArrayBuilder, KernelBuilder};
//! use liquid_simd_isa::{ElemType, VAluOp};
//!
//! // A hot loop: B[i] = A[i] * 3 + 1 over 64 elements, called 4 times.
//! let mut k = KernelBuilder::new("saxpyish", 64);
//! let a = k.load("A", ElemType::I32);
//! let t = k.bin_imm(VAluOp::Mul, a, 3);
//! let c = k.bin_imm(VAluOp::Add, t, 1);
//! k.store("B", c);
//! let data = ArrayBuilder::new()
//!     .int("A", ElemType::I32, (0..64).collect::<Vec<i64>>())
//!     .zeroed("B", ElemType::I32, 64)
//!     .build();
//! let w = Workload::new("demo", vec![k.build().unwrap()], data, 4);
//!
//! // One call checks all three binaries against the gold evaluator at
//! // every supported accelerator width.
//! verify_workload(&w).unwrap();
//!
//! // And the headline effect: the Liquid binary beats the scalar baseline
//! // on a machine with an 8-lane accelerator.
//! let liquid = build_liquid(&w).unwrap();
//! let plain = build_plain(&w).unwrap();
//! let fast = run(&liquid.program, MachineConfig::liquid(8)).unwrap();
//! let slow = run(&plain.program, MachineConfig::scalar_only()).unwrap();
//! assert!(fast.report.cycles < slow.report.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnose;
pub mod experiments;
pub mod harness;
mod verify;

pub use diagnose::{
    explain, ledger_region_labels, profile, render_counter_table, ExplainOptions, ExplainReport,
    ProfileReport, RegionOutcome, RegionReport,
};
pub use harness::{default_jobs, run_tasks, BuildCache};
pub use liquid_simd_compiler::{
    build_liquid, build_native, build_plain, gold, ArrayBuilder, Build, CompileError, DataEnv,
    Kernel, KernelBuilder, OutlinedFn, ReduceInit, Workload,
};
pub use liquid_simd_isa as isa;
pub use liquid_simd_ledger as ledger;
pub use liquid_simd_mem as mem;
pub use liquid_simd_sim::{
    BackendKind, BlockStats, CallEvent, CallMode, ExecBackend, InterpBackend, LatencyModel,
    Machine, MachineConfig, RunReport, SimError, SuperblockBackend, TranslationConfig,
    TranslationWindow,
};
pub use liquid_simd_trace as trace;
pub use liquid_simd_trace::{TraceConfig, TraceEvent, Tracer};
pub use liquid_simd_translator as translator;
pub use verify::{verify_against_gold, verify_workload, verify_workloads, VerifyError, F32_RTOL};

use liquid_simd_isa::Program;
use liquid_simd_mem::Memory;

/// The result of one simulation: measurements plus final memory.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Cycle counts, cache stats, translator stats, call log.
    pub report: RunReport,
    /// Final memory image (for output verification).
    pub memory: Memory,
}

/// Runs a program to `halt` on a machine with the given configuration.
///
/// # Errors
///
/// Returns [`SimError`] for simulation faults (wild memory, cycle limit).
pub fn run(program: &Program, config: MachineConfig) -> Result<RunOutcome, SimError> {
    let mut machine = Machine::new(program, config);
    let report = machine.run()?;
    Ok(RunOutcome {
        report,
        memory: machine.memory().clone(),
    })
}

/// Runs a Liquid binary as if the processor had *built-in ISA support* for
/// its SIMD loops: a first run harvests the dynamically translated
/// microcode, then a fresh machine executes with that microcode resident
/// from cycle 0 (no translation warm-up). This is the paper's Figure 6
/// callout comparator ("the simulator treated outlined functions like
/// native SIMD code").
///
/// # Errors
///
/// Returns [`SimError`] for simulation faults in either pass.
pub fn run_pretranslated(program: &Program, config: MachineConfig) -> Result<RunOutcome, SimError> {
    let mut warm = Machine::new(program, config.clone());
    warm.run()?;
    let microcode = warm.microcode_snapshot();
    let mut machine = Machine::new(program, config);
    machine.preload_microcode(&microcode);
    let report = machine.run()?;
    Ok(RunOutcome {
        report,
        memory: machine.memory().clone(),
    })
}
