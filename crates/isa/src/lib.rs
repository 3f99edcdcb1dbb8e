//! Instruction-set definitions for the Liquid SIMD reproduction.
//!
//! This crate defines the two instruction sets the paper's system is built
//! around, plus the binary-format and text-format tooling:
//!
//! * **SRISC** — an ARM-like baseline *scalar* ISA: sixteen 32-bit integer
//!   registers, sixteen 32-bit floating-point registers, condition flags,
//!   fully-predicated data-processing instructions, base+index memory
//!   addressing, and `bl`/`ret` procedure linkage (see [`ScalarInst`]).
//! * **VSIMD** — a Neon-like *vector* ISA executed by the SIMD accelerator:
//!   element-wise arithmetic/logic, saturating arithmetic, reductions,
//!   permutations and vector memory operations, all parameterised by element
//!   type and executed at the accelerator's lane width (see [`VectorInst`]).
//!
//! On top of the instruction types, the crate provides:
//!
//! * [`Program`] / [`ProgramBuilder`] — a binary container (code, data
//!   segment, symbols) and a label-aware builder for constructing programs.
//! * [`encode`] — a fixed 32-bit binary encoding with exact round-tripping,
//!   used for the paper's code-size measurements and the microcode-buffer
//!   sizing (32 bits per microcode slot, §4.1 of the paper).
//! * [`asm`] — a textual assembler and disassembler whose syntax mirrors the
//!   listings in the paper (e.g. `ld f0, [RealOut + r1]`,
//!   `vadd.f32 v2, v2, v0`).
//!
//! # Example
//!
//! ```
//! use liquid_simd_isa::{ProgramBuilder, Reg, AluOp, Operand2, Cond};
//!
//! let mut b = ProgramBuilder::new();
//! let loop_top = b.new_label();
//! b.mov_imm(Reg::R0, 0);
//! b.bind(loop_top);
//! b.alu(AluOp::Add, Reg::R1, Reg::R1, Operand2::Reg(Reg::R0));
//! b.alu(AluOp::Add, Reg::R0, Reg::R0, Operand2::Imm(1));
//! b.cmp(Reg::R0, Operand2::Imm(16));
//! b.b(Cond::Lt, loop_top);
//! b.halt();
//! let program = b.finish().expect("valid program");
//! assert_eq!(program.code.len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod builder;
mod cond;
pub mod encode;
mod error;
mod inst;
pub mod object;
mod op;
mod perm;
mod program;
mod reg;
mod scalar;
mod vector;

pub use builder::{Label, ProgramBuilder};
pub use cond::{Cond, Flags};
pub use error::IsaError;
pub use inst::Inst;
pub use op::{AluOp, Base, ElemType, FpOp, LaneLoop, MemWidth, Operand2, RedOp, VAluOp};
pub use perm::PermKind;
pub use program::{Program, SymId, Symbol};
pub use reg::{FReg, Reg, VReg};
pub use scalar::ScalarInst;
pub use vector::{ScalarSrc, VectorInst};

/// The maximum vectorizable width a Liquid SIMD binary is compiled for
/// (paper §3.1: data is aligned to an assumed maximum width; accelerators of
/// any power-of-two width `<= MAX_VECTOR_WIDTH` can be targeted dynamically).
pub const MAX_VECTOR_WIDTH: usize = 16;

/// Supported SIMD accelerator widths, in lanes (paper Figure 6 sweeps these).
pub const SUPPORTED_WIDTHS: [usize; 4] = [2, 4, 8, 16];
