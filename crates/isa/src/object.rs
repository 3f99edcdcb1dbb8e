//! A simple object-file container for programs: magic, version, encoded
//! code words, data image, and symbol table. This is what `liquid-simd
//! asm` writes and `liquid-simd run`/`disasm` read — one `.lsim` file is
//! the "binary" whose forward compatibility the paper is about.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! 0    4  magic  "LSIM"
//! 4    4  format version (1)
//! 8    4  entry point (code index)
//! 12   4  data base address
//! 16   4  code word count N
//! 20   4  data byte count D
//! 24   4  symbol count S
//! 28   4  label count L
//! 32   4N encoded instructions
//! ..   D  data image
//! ..      S * { addr:u32, size:u32, elem_bytes:u32, name_len:u32, name }
//! ..      L * { index:u32, name_len:u32, name }
//! ```

use crate::encode::{decode_code, encode_code};
use crate::error::IsaError;
use crate::program::{Program, Symbol};

/// File magic.
pub const MAGIC: &[u8; 4] = b"LSIM";
/// Current format version.
pub const VERSION: u32 = 1;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, IsaError> {
        let end = self.pos + 4;
        let slice = self.bytes.get(self.pos..end).ok_or(IsaError::Decode {
            what: "object file (truncated)",
            value: self.pos as u32,
        })?;
        self.pos = end;
        Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], IsaError> {
        let end = self.pos + n;
        let slice = self.bytes.get(self.pos..end).ok_or(IsaError::Decode {
            what: "object file (truncated)",
            value: self.pos as u32,
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a header count of items at least `each` bytes long and checks
    /// that they fit in the bytes that remain, so a corrupt count is an
    /// error rather than an allocation the caller cannot catch.
    fn count(&mut self, each: usize, what: &'static str) -> Result<usize, IsaError> {
        let n = self.u32()?;
        let remaining = self.bytes.len() - self.pos;
        match (n as usize).checked_mul(each) {
            Some(len) if len <= remaining => Ok(n as usize),
            _ => Err(IsaError::Decode { what, value: n }),
        }
    }

    fn string(&mut self) -> Result<String, IsaError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| IsaError::Decode {
            what: "object file (symbol name)",
            value: self.pos as u32,
        })
    }
}

/// Serialises a program to the object format.
///
/// # Errors
///
/// Returns an encoding error if any instruction does not fit the binary
/// format (programs built by this crate's tools always fit).
pub fn write(program: &Program) -> Result<Vec<u8>, IsaError> {
    let words = encode_code(&program.code)?;
    let mut out = Vec::with_capacity(64 + words.len() * 4 + program.data.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, program.entry);
    put_u32(&mut out, program.data_base);
    put_u32(&mut out, words.len() as u32);
    put_u32(&mut out, program.data.len() as u32);
    put_u32(&mut out, program.symbols.len() as u32);
    put_u32(&mut out, program.labels.len() as u32);
    for w in words {
        put_u32(&mut out, w);
    }
    out.extend_from_slice(&program.data);
    for sym in &program.symbols {
        put_u32(&mut out, sym.addr);
        put_u32(&mut out, sym.size);
        put_u32(&mut out, sym.elem_bytes);
        put_str(&mut out, &sym.name);
    }
    for (index, name) in &program.labels {
        put_u32(&mut out, *index);
        put_str(&mut out, name);
    }
    Ok(out)
}

/// Loads a program from the object format.
///
/// # Errors
///
/// Returns [`IsaError::Decode`] for malformed files and propagates
/// validation errors for structurally invalid programs.
pub fn read(bytes: &[u8]) -> Result<Program, IsaError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.bytes(4)? != MAGIC {
        return Err(IsaError::Decode {
            what: "object file magic",
            value: 0,
        });
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(IsaError::Decode {
            what: "object file version",
            value: version,
        });
    }
    let entry = r.u32()?;
    let data_base = r.u32()?;
    // Every count is checked before anything is allocated. A symbol is at
    // least its three fields and a name length; a label, its index and a
    // name length.
    let n_code = r.count(4, "object file (code word count)")?;
    let n_data = r.count(1, "object file (data byte count)")?;
    let n_syms = r.count(16, "object file (symbol count)")?;
    let n_labels = r.count(8, "object file (label count)")?;
    let mut words = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        words.push(r.u32()?);
    }
    let code = decode_code(&words)?;
    let data = r.bytes(n_data)?.to_vec();
    let mut symbols = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        let addr = r.u32()?;
        let size = r.u32()?;
        let elem_bytes = r.u32()?;
        let name = r.string()?;
        symbols.push(Symbol {
            name,
            addr,
            size,
            elem_bytes,
        });
    }
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        let index = r.u32()?;
        let name = r.string()?;
        labels.push((index, name));
    }
    let program = Program {
        code,
        data,
        symbols,
        entry,
        data_base,
        labels,
    };
    program.validate()?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    const SAMPLE: &str = r"
.data
.i32 A: 1, 2, 3, 4, 5, 6, 7, 8
.f32 B: 1.5, -2.5

.text
main:
    mov r0, #0
loop:
    ldw r1, [A + r0]
    add r1, r1, #3
    stw [A + r0], r1
    add r0, r0, #1
    cmp r0, #8
    blt loop
    halt
";

    #[test]
    fn object_roundtrip() {
        let p = asm::assemble(SAMPLE).unwrap();
        let bytes = write(&p).unwrap();
        let q = read(&bytes).unwrap();
        assert_eq!(p.code, q.code);
        assert_eq!(p.data, q.data);
        assert_eq!(p.symbols, q.symbols);
        assert_eq!(p.labels, q.labels);
        assert_eq!(p.entry, q.entry);
        assert_eq!(p.data_base, q.data_base);
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let p = asm::assemble(SAMPLE).unwrap();
        let mut bytes = write(&p).unwrap();
        assert!(read(&bytes[..10]).is_err());
        bytes[0] = b'X';
        assert!(read(&bytes).is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let p = asm::assemble(SAMPLE).unwrap();
        let mut bytes = write(&p).unwrap();
        bytes[4] = 99;
        assert!(read(&bytes).is_err());
    }
}
