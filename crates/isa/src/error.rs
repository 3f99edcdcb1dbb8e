//! Error type shared across the ISA crate.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing, encoding, decoding, or assembling
/// instructions and programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsaError {
    /// A register index was out of range for its file.
    InvalidRegister {
        /// Register-file prefix (`"r"`, `"f"`, or `"v"`).
        file: &'static str,
        /// The offending index.
        index: u8,
    },
    /// An immediate does not fit in the instruction encoding's field.
    ImmOutOfRange {
        /// Which field overflowed.
        what: &'static str,
        /// The offending value.
        value: i64,
        /// Inclusive field bounds.
        min: i64,
        /// Inclusive field bounds.
        max: i64,
    },
    /// A field could not be decoded from a binary word.
    Decode {
        /// What was being decoded.
        what: &'static str,
        /// The raw field value.
        value: u32,
    },
    /// An instruction combines fields illegally (e.g. bitwise AND on `f32`
    /// elements, or a saturating op on floats).
    InvalidCombination {
        /// Explanation of the illegal combination.
        reason: String,
    },
    /// A branch target or label was never bound.
    UnboundLabel {
        /// The label's numeric id.
        label: u32,
    },
    /// A symbol name was defined twice in one program.
    DuplicateSymbol {
        /// The symbol name.
        name: String,
    },
    /// An assembler label was bound twice in one program.
    DuplicateLabel {
        /// The label name.
        name: String,
    },
    /// A referenced symbol does not exist.
    UnknownSymbol {
        /// The symbol name or id as text.
        name: String,
    },
    /// Assembler parse error.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::InvalidRegister { file, index } => {
                write!(f, "register {file}{index} is out of range")
            }
            IsaError::ImmOutOfRange {
                what,
                value,
                min,
                max,
            } => write!(f, "{what} {value} does not fit in [{min}, {max}]"),
            IsaError::Decode { what, value } => {
                write!(f, "cannot decode {what} from value {value:#x}")
            }
            IsaError::InvalidCombination { reason } => {
                write!(f, "invalid instruction: {reason}")
            }
            IsaError::UnboundLabel { label } => write!(f, "label L{label} was never bound"),
            IsaError::DuplicateSymbol { name } => write!(f, "symbol `{name}` defined twice"),
            IsaError::DuplicateLabel { name } => write!(f, "label `{name}` bound twice"),
            IsaError::UnknownSymbol { name } => write!(f, "unknown symbol `{name}`"),
            IsaError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
        }
    }
}

impl Error for IsaError {}
