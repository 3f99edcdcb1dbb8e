//! Program container: code, data segment, and the symbol table.

use std::fmt;

use crate::error::IsaError;
use crate::inst::Inst;

/// Default virtual address at which a program's data segment is mapped.
pub const DEFAULT_DATA_BASE: u32 = 0x1000_0000;

/// An index into a program's symbol table.
///
/// Memory operands reference data-segment arrays by symbol (like an ARM
/// literal pool / GOT slot), which keeps the fixed 32-bit instruction
/// encoding possible while allowing full 32-bit data addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(u16);

impl SymId {
    /// Maximum encodable symbol id (11-bit field in memory instructions).
    pub const MAX: u16 = 2047;

    /// Creates a symbol id.
    ///
    /// # Panics
    ///
    /// Panics if `id > SymId::MAX`.
    #[must_use]
    pub fn new(id: u16) -> SymId {
        assert!(id <= Self::MAX, "symbol id {id} exceeds {}", Self::MAX);
        SymId(id)
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// A named region in the data segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name (unique within a program).
    pub name: String,
    /// Address of the region (absolute virtual address).
    pub addr: u32,
    /// Region size in bytes.
    pub size: u32,
    /// Element size this region is conventionally accessed with (bytes);
    /// informational, used by disassembly and the constant-pool machinery.
    pub elem_bytes: u32,
}

/// A complete executable image: instructions, initial data, symbols.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The code section. Instruction `i` lives at code index `i`; the binary
    /// encoding maps it to byte address `i * 4`.
    pub code: Vec<Inst>,
    /// Initial data-segment image, mapped at [`Program::data_base`].
    pub data: Vec<u8>,
    /// Symbol table; [`SymId`] values index into this.
    pub symbols: Vec<Symbol>,
    /// Entry point (code index).
    pub entry: u32,
    /// Virtual address of the start of the data segment.
    pub data_base: u32,
    /// Optional map from code index to a human-readable label (function
    /// entries); used by disassembly and reports.
    pub labels: Vec<(u32, String)>,
}

impl Program {
    /// Resolves a symbol id to its symbol.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnknownSymbol`] if the id is out of range.
    pub fn symbol(&self, id: SymId) -> Result<&Symbol, IsaError> {
        self.symbols
            .get(id.index())
            .ok_or_else(|| IsaError::UnknownSymbol {
                name: id.to_string(),
            })
    }

    /// Looks up a symbol by name.
    #[must_use]
    pub fn symbol_by_name(&self, name: &str) -> Option<(SymId, &Symbol)> {
        self.symbols
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (SymId::new(i as u16), s))
    }

    /// The label bound to a code index, if any.
    #[must_use]
    pub fn label_at(&self, index: u32) -> Option<&str> {
        self.labels
            .iter()
            .find(|(i, _)| *i == index)
            .map(|(_, n)| n.as_str())
    }

    /// Code size in bytes under the fixed 32-bit encoding — the paper's
    /// code-size-overhead metric (§5 "Code Size Overhead").
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.code.len() * 4
    }

    /// Data-segment size in bytes.
    #[must_use]
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Validates the whole program: every instruction is internally valid,
    /// branch targets are in range, and symbol references resolve.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found.
    pub fn validate(&self) -> Result<(), IsaError> {
        use crate::scalar::ScalarInst;
        for (idx, inst) in self.code.iter().enumerate() {
            inst.validate()?;
            let check_target = |t: u32| -> Result<(), IsaError> {
                if (t as usize) < self.code.len() {
                    Ok(())
                } else {
                    Err(IsaError::InvalidCombination {
                        reason: format!("instruction {idx}: branch target @{t} out of range"),
                    })
                }
            };
            match inst {
                Inst::S(ScalarInst::B { target, .. }) => check_target(*target)?,
                Inst::S(ScalarInst::Bl { target, .. }) => check_target(*target)?,
                _ => {}
            }
            let sym = match inst {
                Inst::S(s) => s.base_symbol(),
                Inst::V(v) => match v {
                    crate::vector::VectorInst::VLd { base, .. }
                    | crate::vector::VectorInst::VSt { base, .. } => match base {
                        crate::op::Base::Sym(s) => Some(*s),
                        crate::op::Base::Reg(_) => None,
                    },
                    crate::vector::VectorInst::VAluConst { cnst, .. } => Some(*cnst),
                    _ => None,
                },
            };
            if let Some(s) = sym {
                self.symbol(s)?;
            }
        }
        if self.entry as usize >= self.code.len() && !self.code.is_empty() {
            return Err(IsaError::InvalidCombination {
                reason: format!("entry point @{} out of range", self.entry),
            });
        }
        Ok(())
    }

    /// Renders the full program as assembly text (disassembly). The output
    /// round-trips through [`crate::asm::assemble`].
    #[must_use]
    pub fn disassemble(&self) -> String {
        crate::asm::disassemble(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Reg, ScalarInst};

    fn tiny() -> Program {
        Program {
            code: vec![
                Inst::S(ScalarInst::MovImm {
                    cond: Cond::Al,
                    rd: Reg::R0,
                    imm: 1,
                }),
                Inst::S(ScalarInst::Halt),
            ],
            data: vec![0; 16],
            symbols: vec![Symbol {
                name: "a".to_string(),
                addr: DEFAULT_DATA_BASE,
                size: 16,
                elem_bytes: 4,
            }],
            entry: 0,
            data_base: DEFAULT_DATA_BASE,
            labels: vec![(0, "main".to_string())],
        }
    }

    #[test]
    fn symbol_lookup() {
        let p = tiny();
        assert_eq!(p.symbol(SymId::new(0)).unwrap().name, "a");
        assert!(p.symbol(SymId::new(1)).is_err());
        let (id, s) = p.symbol_by_name("a").unwrap();
        assert_eq!(id, SymId::new(0));
        assert_eq!(s.size, 16);
        assert!(p.symbol_by_name("b").is_none());
    }

    #[test]
    fn sizes_and_labels() {
        let p = tiny();
        assert_eq!(p.code_bytes(), 8);
        assert_eq!(p.data_bytes(), 16);
        assert_eq!(p.label_at(0), Some("main"));
        assert_eq!(p.label_at(1), None);
    }

    #[test]
    fn validate_catches_bad_targets() {
        let mut p = tiny();
        p.code.push(Inst::S(ScalarInst::B {
            cond: Cond::Al,
            target: 99,
        }));
        assert!(p.validate().is_err());
    }
}
