//! Operation kinds, operand forms, and element types shared by the scalar
//! and vector instruction sets.

use std::fmt;

use crate::error::IsaError;
use crate::program::SymId;
use crate::reg::Reg;

/// Integer ALU operations available to scalar data-processing instructions
/// and (through [`VAluOp`]) to the vector unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// `rd = rn + op2`
    Add = 0,
    /// `rd = rn - op2`
    Sub = 1,
    /// `rd = op2 - rn` (reverse subtract; used for negation idioms)
    Rsb = 2,
    /// `rd = rn * op2` (low 32 bits)
    Mul = 3,
    /// `rd = rn & op2`
    And = 4,
    /// `rd = rn | op2`
    Orr = 5,
    /// `rd = rn ^ op2`
    Eor = 6,
    /// `rd = rn & !op2`
    Bic = 7,
    /// `rd = rn << op2` (logical)
    Lsl = 8,
    /// `rd = rn >> op2` (logical)
    Lsr = 9,
    /// `rd = rn >> op2` (arithmetic)
    Asr = 10,
    /// `rd = min(rn, op2)` signed (paper Table 1 category 4 uses scalar `min`)
    Min = 11,
    /// `rd = max(rn, op2)` signed
    Max = 12,
}

impl AluOp {
    /// All operations in encoding order.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Rsb,
        AluOp::Mul,
        AluOp::And,
        AluOp::Orr,
        AluOp::Eor,
        AluOp::Bic,
        AluOp::Lsl,
        AluOp::Lsr,
        AluOp::Asr,
        AluOp::Min,
        AluOp::Max,
    ];

    /// The operation's 4-bit encoding.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// Decodes an operation from its 4-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Decode`] for out-of-range encodings.
    pub fn from_bits(bits: u32) -> Result<AluOp, IsaError> {
        AluOp::ALL
            .get(bits as usize)
            .copied()
            .ok_or(IsaError::Decode {
                what: "alu op",
                value: bits,
            })
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Rsb => "rsb",
            AluOp::Mul => "mul",
            AluOp::And => "and",
            AluOp::Orr => "orr",
            AluOp::Eor => "eor",
            AluOp::Bic => "bic",
            AluOp::Lsl => "lsl",
            AluOp::Lsr => "lsr",
            AluOp::Asr => "asr",
            AluOp::Min => "min",
            AluOp::Max => "max",
        }
    }

    /// Evaluates the operation on 32-bit integer values (wrapping), the
    /// single source of truth shared by the simulator and the compiler's
    /// gold evaluator.
    #[must_use]
    pub fn eval(self, a: i32, b: i32) -> i32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Rsb => b.wrapping_sub(a),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Orr => a | b,
            AluOp::Eor => a ^ b,
            AluOp::Bic => a & !b,
            AluOp::Lsl => ((a as u32) << (b as u32 & 31)) as i32,
            AluOp::Lsr => ((a as u32) >> (b as u32 & 31)) as i32,
            AluOp::Asr => a >> (b as u32 & 31),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }

    /// Whether `op(a, b) == op(b, a)` for all inputs.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::Mul
                | AluOp::And
                | AluOp::Orr
                | AluOp::Eor
                | AluOp::Min
                | AluOp::Max
        )
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Scalar floating-point operations (`f32`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FpOp {
    /// `fd = fn + fm`
    Add = 0,
    /// `fd = fn - fm`
    Sub = 1,
    /// `fd = fn * fm`
    Mul = 2,
    /// `fd = fn / fm`
    Div = 3,
    /// `fd = min(fn, fm)`
    Min = 4,
    /// `fd = max(fn, fm)`
    Max = 5,
}

impl FpOp {
    /// All operations in encoding order.
    pub const ALL: [FpOp; 6] = [
        FpOp::Add,
        FpOp::Sub,
        FpOp::Mul,
        FpOp::Div,
        FpOp::Min,
        FpOp::Max,
    ];

    /// The operation's 3-bit encoding.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// Decodes an operation from its 3-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Decode`] for out-of-range encodings.
    pub fn from_bits(bits: u32) -> Result<FpOp, IsaError> {
        FpOp::ALL
            .get(bits as usize)
            .copied()
            .ok_or(IsaError::Decode {
                what: "fp op",
                value: bits,
            })
    }

    /// Evaluates the operation on `f32` values.
    #[must_use]
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            FpOp::Add => a + b,
            FpOp::Sub => a - b,
            FpOp::Mul => a * b,
            FpOp::Div => a / b,
            FpOp::Min => a.min(b),
            FpOp::Max => a.max(b),
        }
    }

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "fadd",
            FpOp::Sub => "fsub",
            FpOp::Mul => "fmul",
            FpOp::Div => "fdiv",
            FpOp::Min => "fmin",
            FpOp::Max => "fmax",
        }
    }
}

impl fmt::Display for FpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Width of a scalar integer memory access.
///
/// Memory operands are *element indexed*: the effective address is
/// `base + index * width_bytes`, so the same induction variable walks arrays
/// of any element width. This is how the translator derives the vector
/// element size from the load opcode (paper Table 1 category 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MemWidth {
    /// Byte (8-bit).
    B = 0,
    /// Half-word (16-bit).
    H = 1,
    /// Word (32-bit).
    W = 2,
}

impl MemWidth {
    /// All widths in encoding order.
    pub const ALL: [MemWidth; 3] = [MemWidth::B, MemWidth::H, MemWidth::W];

    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
        }
    }

    /// The width's 2-bit encoding.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// Decodes a width from its 2-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Decode`] for out-of-range encodings.
    pub fn from_bits(bits: u32) -> Result<MemWidth, IsaError> {
        MemWidth::ALL
            .get(bits as usize)
            .copied()
            .ok_or(IsaError::Decode {
                what: "memory width",
                value: bits,
            })
    }

    /// The assembler suffix (`b`, `h`, `w`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            MemWidth::B => "b",
            MemWidth::H => "h",
            MemWidth::W => "w",
        }
    }
}

/// Element type of a vector operation or vector memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ElemType {
    /// 8-bit integer elements.
    I8 = 0,
    /// 16-bit integer elements.
    I16 = 1,
    /// 32-bit integer elements.
    I32 = 2,
    /// 32-bit IEEE-754 elements.
    F32 = 3,
}

impl ElemType {
    /// All element types in encoding order.
    pub const ALL: [ElemType; 4] = [ElemType::I8, ElemType::I16, ElemType::I32, ElemType::F32];

    /// Element size in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            ElemType::I8 => 1,
            ElemType::I16 => 2,
            ElemType::I32 | ElemType::F32 => 4,
        }
    }

    /// Whether the elements are floating point.
    #[must_use]
    pub fn is_float(self) -> bool {
        matches!(self, ElemType::F32)
    }

    /// The 2-bit encoding.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// Decodes an element type from its 2-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Decode`] for out-of-range encodings.
    pub fn from_bits(bits: u32) -> Result<ElemType, IsaError> {
        ElemType::ALL
            .get(bits as usize)
            .copied()
            .ok_or(IsaError::Decode {
                what: "element type",
                value: bits,
            })
    }

    /// The assembler suffix (`i8`, `i16`, `i32`, `f32`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            ElemType::I8 => "i8",
            ElemType::I16 => "i16",
            ElemType::I32 => "i32",
            ElemType::F32 => "f32",
        }
    }

    /// The element type whose [`suffix`](ElemType::suffix) is `s`.
    #[must_use]
    pub fn from_suffix(s: &str) -> Option<ElemType> {
        ElemType::ALL.into_iter().find(|e| e.suffix() == s)
    }

    /// The scalar memory width that loads one element of this type, or
    /// `None` for `f32` (which uses the dedicated `ldf`/`stf` opcodes).
    #[must_use]
    pub fn mem_width(self) -> Option<MemWidth> {
        match self {
            ElemType::I8 => Some(MemWidth::B),
            ElemType::I16 => Some(MemWidth::H),
            ElemType::I32 => Some(MemWidth::W),
            ElemType::F32 => None,
        }
    }
}

impl fmt::Display for ElemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Reduction operations (paper Table 1 category 4: "multiple vector elements
/// used to compute one result").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RedOp {
    /// Running minimum.
    Min = 0,
    /// Running maximum.
    Max = 1,
    /// Running sum.
    Sum = 2,
}

impl RedOp {
    /// All reductions in encoding order.
    pub const ALL: [RedOp; 3] = [RedOp::Min, RedOp::Max, RedOp::Sum];

    /// The 2-bit encoding.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// Decodes a reduction from its 2-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Decode`] for out-of-range encodings.
    pub fn from_bits(bits: u32) -> Result<RedOp, IsaError> {
        RedOp::ALL
            .get(bits as usize)
            .copied()
            .ok_or(IsaError::Decode {
                what: "reduction op",
                value: bits,
            })
    }

    /// Folds one integer lane into an accumulator.
    #[must_use]
    pub fn eval_i(self, acc: i32, lane: i32) -> i32 {
        match self {
            RedOp::Min => acc.min(lane),
            RedOp::Max => acc.max(lane),
            RedOp::Sum => acc.wrapping_add(lane),
        }
    }

    /// Folds one `f32` lane into an accumulator.
    #[must_use]
    pub fn eval_f(self, acc: f32, lane: f32) -> f32 {
        match self {
            RedOp::Min => acc.min(lane),
            RedOp::Max => acc.max(lane),
            RedOp::Sum => acc + lane,
        }
    }

    /// The assembler mnemonic stem (`vredmin`, ...).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            RedOp::Min => "vredmin",
            RedOp::Max => "vredmax",
            RedOp::Sum => "vredsum",
        }
    }
}

/// Vector ALU operations. The element type on the instruction selects the
/// integer/float interpretation; [`VAluOp::valid_for`] rejects meaningless
/// combinations (e.g. bitwise ops on `f32`, saturating ops on `i32`/`f32`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum VAluOp {
    /// Element-wise add (wrapping for integers).
    Add = 0,
    /// Element-wise subtract (wrapping for integers).
    Sub = 1,
    /// Element-wise multiply (low bits for integers).
    Mul = 2,
    /// Element-wise divide (`f32` only).
    Div = 3,
    /// Element-wise bitwise AND (integer only).
    And = 4,
    /// Element-wise bitwise OR (integer only).
    Orr = 5,
    /// Element-wise bitwise XOR (integer only).
    Eor = 6,
    /// Element-wise signed minimum (or `f32` minimum).
    Min = 7,
    /// Element-wise signed maximum (or `f32` maximum).
    Max = 8,
    /// Unsigned saturating add (`i8`/`i16`; clamps to `[0, 2^n - 1]`).
    SatAdd = 9,
    /// Unsigned saturating subtract (`i8`/`i16`; clamps at 0).
    SatSub = 10,
    /// Signed saturating add (`i8`/`i16`).
    SSatAdd = 11,
    /// Signed saturating subtract (`i8`/`i16`).
    SSatSub = 12,
    /// Element-wise logical shift left (integer only).
    Lsl = 13,
    /// Element-wise logical shift right (integer only).
    Lsr = 14,
    /// Element-wise arithmetic shift right (integer only).
    Asr = 15,
}

impl VAluOp {
    /// All operations in encoding order.
    pub const ALL: [VAluOp; 16] = [
        VAluOp::Add,
        VAluOp::Sub,
        VAluOp::Mul,
        VAluOp::Div,
        VAluOp::And,
        VAluOp::Orr,
        VAluOp::Eor,
        VAluOp::Min,
        VAluOp::Max,
        VAluOp::SatAdd,
        VAluOp::SatSub,
        VAluOp::SSatAdd,
        VAluOp::SSatSub,
        VAluOp::Lsl,
        VAluOp::Lsr,
        VAluOp::Asr,
    ];

    /// The 4-bit encoding.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }

    /// Decodes an operation from its 4-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Decode`] for out-of-range encodings.
    pub fn from_bits(bits: u32) -> Result<VAluOp, IsaError> {
        VAluOp::ALL
            .get(bits as usize)
            .copied()
            .ok_or(IsaError::Decode {
                what: "vector alu op",
                value: bits,
            })
    }

    /// Evaluates one 32-bit lane. Lanes carry full 32-bit values (loads
    /// extend, stores truncate); the element type matters only for the
    /// float interpretation and saturating clamp bounds. This exact-match
    /// property with the scalar ALU is what makes the Liquid scalar
    /// representation lossless.
    #[must_use]
    pub fn eval_lane(self, elem: ElemType, a: u32, b: u32) -> u32 {
        if elem == ElemType::F32 {
            let fa = f32::from_bits(a);
            let fb = f32::from_bits(b);
            let r = match self {
                VAluOp::Add => fa + fb,
                VAluOp::Sub => fa - fb,
                VAluOp::Mul => fa * fb,
                VAluOp::Div => fa / fb,
                VAluOp::Min => fa.min(fb),
                VAluOp::Max => fa.max(fb),
                // Undefined combinations are rejected by `valid_for`; fall
                // back to integer semantics for robustness.
                _ => return self.eval_lane(ElemType::I32, a, b),
            };
            return r.to_bits();
        }
        let ai = a as i32;
        let bi = b as i32;
        let sat_u_max: i64 = if elem == ElemType::I8 { 255 } else { 65535 };
        let sat_s: (i64, i64) = if elem == ElemType::I8 {
            (-128, 127)
        } else {
            (-32768, 32767)
        };
        match self {
            VAluOp::Add => ai.wrapping_add(bi) as u32,
            VAluOp::Sub => ai.wrapping_sub(bi) as u32,
            VAluOp::Mul => ai.wrapping_mul(bi) as u32,
            VAluOp::Div => {
                // f32-only op; integer fallback mirrors eval_lane's float
                // branch never reaching here through valid instructions.
                (f32::from_bits(a) / f32::from_bits(b)).to_bits()
            }
            VAluOp::And => a & b,
            VAluOp::Orr => a | b,
            VAluOp::Eor => a ^ b,
            VAluOp::Min => ai.min(bi) as u32,
            VAluOp::Max => ai.max(bi) as u32,
            // Saturating ops are defined as *32-bit wrapping arithmetic
            // followed by a clamp* — exactly what the scalar idiom
            // (`add; cmp; movgt; cmp; movlt`) computes, so translation is
            // lossless for every input. On element-range inputs this is
            // identical to true saturating hardware.
            VAluOp::SatAdd => i64::from(ai.wrapping_add(bi)).clamp(0, sat_u_max) as u32,
            VAluOp::SatSub => i64::from(ai.wrapping_sub(bi)).clamp(0, sat_u_max) as u32,
            VAluOp::SSatAdd => i64::from(ai.wrapping_add(bi)).clamp(sat_s.0, sat_s.1) as u32,
            VAluOp::SSatSub => i64::from(ai.wrapping_sub(bi)).clamp(sat_s.0, sat_s.1) as u32,
            VAluOp::Lsl => a << (b & 31),
            VAluOp::Lsr => a >> (b & 31),
            VAluOp::Asr => (ai >> (b & 31)) as u32,
        }
    }

    /// Whether `op(a, b) == op(b, a)` for all lanes.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            VAluOp::Add
                | VAluOp::Mul
                | VAluOp::And
                | VAluOp::Orr
                | VAluOp::Eor
                | VAluOp::Min
                | VAluOp::Max
        )
    }

    /// Whether this operation is defined for the given element type.
    #[must_use]
    pub fn valid_for(self, elem: ElemType) -> bool {
        match self {
            VAluOp::Add | VAluOp::Sub | VAluOp::Mul | VAluOp::Min | VAluOp::Max => true,
            VAluOp::Div => elem == ElemType::F32,
            VAluOp::And | VAluOp::Orr | VAluOp::Eor | VAluOp::Lsl | VAluOp::Lsr | VAluOp::Asr => {
                !elem.is_float()
            }
            VAluOp::SatAdd | VAluOp::SatSub | VAluOp::SSatAdd | VAluOp::SSatSub => {
                matches!(elem, ElemType::I8 | ElemType::I16)
            }
        }
    }

    /// The assembler mnemonic (element suffix added separately).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            VAluOp::Add => "vadd",
            VAluOp::Sub => "vsub",
            VAluOp::Mul => "vmul",
            VAluOp::Div => "vdiv",
            VAluOp::And => "vand",
            VAluOp::Orr => "vorr",
            VAluOp::Eor => "veor",
            VAluOp::Min => "vmin",
            VAluOp::Max => "vmax",
            VAluOp::SatAdd => "vqaddu",
            VAluOp::SatSub => "vqsubu",
            VAluOp::SSatAdd => "vqadds",
            VAluOp::SSatSub => "vqsubs",
            VAluOp::Lsl => "vlsl",
            VAluOp::Lsr => "vlsr",
            VAluOp::Asr => "vasr",
        }
    }

    /// The scalar [`AluOp`] with identical per-element semantics, if one
    /// exists (saturating ops have none — they need idioms, paper §3.2).
    #[must_use]
    pub fn scalar_equivalent(self) -> Option<AluOp> {
        match self {
            VAluOp::Add => Some(AluOp::Add),
            VAluOp::Sub => Some(AluOp::Sub),
            VAluOp::Mul => Some(AluOp::Mul),
            VAluOp::And => Some(AluOp::And),
            VAluOp::Orr => Some(AluOp::Orr),
            VAluOp::Eor => Some(AluOp::Eor),
            VAluOp::Min => Some(AluOp::Min),
            VAluOp::Max => Some(AluOp::Max),
            VAluOp::Lsl => Some(AluOp::Lsl),
            VAluOp::Lsr => Some(AluOp::Lsr),
            VAluOp::Asr => Some(AluOp::Asr),
            VAluOp::Div | VAluOp::SatAdd | VAluOp::SatSub | VAluOp::SSatAdd | VAluOp::SSatSub => {
                None
            }
        }
    }

    /// The vector op with identical per-element semantics to a scalar op.
    #[must_use]
    pub fn from_scalar(op: AluOp) -> Option<VAluOp> {
        match op {
            AluOp::Add => Some(VAluOp::Add),
            AluOp::Sub => Some(VAluOp::Sub),
            AluOp::Mul => Some(VAluOp::Mul),
            AluOp::And => Some(VAluOp::And),
            AluOp::Orr => Some(VAluOp::Orr),
            AluOp::Eor => Some(VAluOp::Eor),
            AluOp::Min => Some(VAluOp::Min),
            AluOp::Max => Some(VAluOp::Max),
            AluOp::Lsl => Some(VAluOp::Lsl),
            AluOp::Lsr => Some(VAluOp::Lsr),
            AluOp::Asr => Some(VAluOp::Asr),
            AluOp::Rsb | AluOp::Bic => None,
        }
    }
}

impl fmt::Display for VAluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The flexible second operand of scalar data-processing instructions
/// (register or small immediate, like ARM's `Operand2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand2 {
    /// A register operand.
    Reg(Reg),
    /// An immediate operand. Encodable range depends on the instruction
    /// format (see [`crate::encode`]); out-of-range values must be
    /// materialised via `mov` or a constant-pool load.
    Imm(i32),
}

impl fmt::Display for Operand2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand2::Reg(r) => write!(f, "{r}"),
            Operand2::Imm(i) => write!(f, "#{i}"),
        }
    }
}

/// The base of a memory operand: either a register or a data-segment symbol
/// (the paper writes `[RealOut + r1]` — `RealOut` is a symbol base).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Base {
    /// Register base.
    Reg(Reg),
    /// Symbol base, resolved against the program's symbol table.
    Sym(SymId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_encodings_roundtrip() {
        for &op in &AluOp::ALL {
            assert_eq!(AluOp::from_bits(op.bits()).unwrap(), op);
        }
        for &op in &FpOp::ALL {
            assert_eq!(FpOp::from_bits(op.bits()).unwrap(), op);
        }
        for &op in &VAluOp::ALL {
            assert_eq!(VAluOp::from_bits(op.bits()).unwrap(), op);
        }
        for &w in &MemWidth::ALL {
            assert_eq!(MemWidth::from_bits(w.bits()).unwrap(), w);
        }
        for &e in &ElemType::ALL {
            assert_eq!(ElemType::from_bits(e.bits()).unwrap(), e);
            assert_eq!(ElemType::from_suffix(e.suffix()), Some(e));
        }
        assert_eq!(ElemType::from_suffix("i64"), None);
        for &r in &RedOp::ALL {
            assert_eq!(RedOp::from_bits(r.bits()).unwrap(), r);
        }
        assert!(AluOp::from_bits(13).is_err());
        assert!(VAluOp::from_bits(16).is_err());
    }

    #[test]
    fn scalar_vector_equivalence_is_consistent() {
        for &v in &VAluOp::ALL {
            if let Some(s) = v.scalar_equivalent() {
                assert_eq!(VAluOp::from_scalar(s), Some(v));
            }
        }
    }

    #[test]
    fn validity_rules() {
        assert!(VAluOp::Add.valid_for(ElemType::F32));
        assert!(!VAluOp::And.valid_for(ElemType::F32));
        assert!(!VAluOp::SatAdd.valid_for(ElemType::I32));
        assert!(VAluOp::SatAdd.valid_for(ElemType::I8));
        assert!(VAluOp::Div.valid_for(ElemType::F32));
        assert!(!VAluOp::Div.valid_for(ElemType::I16));
    }
}
