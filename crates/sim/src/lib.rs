//! Cycle-level processor simulator for the Liquid SIMD reproduction.
//!
//! Models an ARM-926EJ-S-class core — the paper's evaluation vehicle (§5):
//! in-order, single-issue, five-stage, with 16 KB 64-way I/D caches — plus
//! the paper's three additions (Figure 1, grey boxes):
//!
//! * a parameterised **SIMD accelerator** executing VSIMD instructions over
//!   2–16 lanes with the same functional-unit latencies as the scalar core;
//! * a post-retirement **dynamic translation** tap feeding a
//!   [`Translator`](liquid_simd_translator::Translator);
//! * a **microcode cache** ([`Mcache`]) holding translated SIMD loops; calls
//!   to translated functions execute microcode instead of the scalar body.
//!
//! Timing is a scoreboard model: one instruction issues per cycle, stalling
//! on operand readiness (multi-cycle multiplies/divides, load-use delays),
//! plus taken-branch penalties (the ARM9 has no branch predictor) and cache
//! miss penalties. Vector instructions occupy one issue slot and operate on
//! all lanes at once — the source of SIMD speedup, as in the paper's
//! SimpleScalar extension. Every cycle is charged once, to the run's cycle
//! ledger ([`RunReport::ledger`]); the phase partition and the per-target
//! split are derived from it.
//!
//! # Example
//!
//! ```
//! use liquid_simd_isa::asm;
//! use liquid_simd_sim::{Machine, MachineConfig};
//!
//! let p = asm::assemble(r"
//! .data
//! .i32 A: 1, 2, 3, 4
//! .text
//! main:
//!     mov r0, #0
//! top:
//!     ldw r1, [A + r0]
//!     add r1, r1, #10
//!     stw [A + r0], r1
//!     add r0, r0, #1
//!     cmp r0, #4
//!     blt top
//!     halt
//! ").unwrap();
//! let mut m = Machine::new(&p, MachineConfig::scalar_only());
//! let report = m.run().unwrap();
//! assert!(report.halted);
//! let (_, sym) = p.symbol_by_name("A").unwrap();
//! assert_eq!(m.memory().read_signed(sym.addr, 4).unwrap(), 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod block;
mod config;
mod exec;
mod machine;
mod mcache;
pub mod meta;
mod regfile;
mod report;

pub use backend::{ExecBackend, InterpBackend, SuperblockBackend};
pub use config::{BackendKind, LatencyModel, MachineConfig, TranslationConfig};
pub use exec::SimError;
pub use machine::Machine;
pub use mcache::{Mcache, McacheEntryStats, McacheStats};
pub use meta::{InstMeta, RegRef};
pub use report::{
    BlockStats, CallEvent, CallMode, PhaseBreakdown, RunReport, TargetProfile, TranslationWindow,
};

/// Re-exported cycle-ledger vocabulary ([`RunReport::ledger`] is typed
/// against these; see the `liquid-simd-ledger` crate for the full API).
pub use liquid_simd_ledger::{Category as LedgerCategory, Ledger, Snapshot as LedgerSnapshot};
