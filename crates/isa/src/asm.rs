//! Textual assembler and disassembler.
//!
//! The syntax mirrors the listings in the paper (Figure 4). A module has an
//! optional data section followed by code:
//!
//! ```text
//! .data
//! .f32 RealOut: 1.0, 2.0, 3.0, 4.0
//! .i32 bfly: 4, 4, 4, 4, -4, -4, -4, -4
//! .zero tmp0: 128 x 4
//!
//! .text
//! main:
//!     mov r0, #0
//! loop:
//!     ldw r1, [bfly + r0]
//!     add r1, r0, r1
//!     ldf f0, [RealOut + r1]
//!     add r0, r0, #1
//!     cmp r0, #8
//!     blt loop
//!     halt
//! ```
//!
//! [`disassemble`] produces text in exactly this syntax, and
//! [`assemble`]`(`[`disassemble`]`(p))` reproduces the program's code and
//! symbols (round-trip tested).

use std::collections::{HashMap, HashSet};

use crate::builder::ProgramBuilder;
use crate::cond::Cond;
use crate::error::IsaError;
use crate::inst::Inst;
use crate::op::{AluOp, Base, ElemType, FpOp, MemWidth, Operand2, RedOp, VAluOp};
use crate::perm::PermKind;
use crate::program::Program;
use crate::reg::{FReg, Reg, VReg};
use crate::scalar::ScalarInst;
use crate::vector::VectorInst;

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

/// Renders a program as assembly text (see module docs for the syntax).
#[must_use]
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    if !p.symbols.is_empty() {
        out.push_str(".data\n");
        for sym in &p.symbols {
            let start = (sym.addr - p.data_base) as usize;
            let bytes = &p.data[start..start + sym.size as usize];
            let all_zero = bytes.iter().all(|&b| b == 0);
            if all_zero && sym.size > 0 {
                let elems = sym.size / sym.elem_bytes;
                out.push_str(&format!(
                    ".zero {}: {} x {}\n",
                    sym.name, elems, sym.elem_bytes
                ));
                continue;
            }
            match sym.elem_bytes {
                2 => {
                    let vals: Vec<String> = bytes
                        .chunks_exact(2)
                        .map(|c| i16::from_le_bytes([c[0], c[1]]).to_string())
                        .collect();
                    out.push_str(&format!(".i16 {}: {}\n", sym.name, vals.join(", ")));
                }
                4 => {
                    let vals: Vec<String> = bytes
                        .chunks_exact(4)
                        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]).to_string())
                        .collect();
                    out.push_str(&format!(".i32 {}: {}\n", sym.name, vals.join(", ")));
                }
                _ => {
                    let vals: Vec<String> = bytes.iter().map(|&b| (b as i8).to_string()).collect();
                    out.push_str(&format!(".i8 {}: {}\n", sym.name, vals.join(", ")));
                }
            }
        }
        out.push('\n');
    }
    out.push_str(".text\n");

    // Collect branch targets so we can emit local labels.
    let mut targets: Vec<u32> = Vec::new();
    for inst in &p.code {
        match inst {
            Inst::S(ScalarInst::B { target, .. }) | Inst::S(ScalarInst::Bl { target, .. })
                if !targets.contains(target) =>
            {
                targets.push(*target);
            }
            _ => {}
        }
    }
    let label_for = |idx: u32| -> Option<String> {
        if let Some(name) = p.label_at(idx) {
            Some(name.to_string())
        } else if targets.contains(&idx) {
            Some(format!("L{idx}"))
        } else {
            None
        }
    };

    for (idx, inst) in p.code.iter().enumerate() {
        let idx = idx as u32;
        if let Some(l) = label_for(idx) {
            out.push_str(&format!("{l}:\n"));
        }
        let text = match inst {
            Inst::S(ScalarInst::B { cond, target }) => {
                format!(
                    "b{cond} {}",
                    label_for(*target).unwrap_or_else(|| format!("@{target}"))
                )
            }
            Inst::S(ScalarInst::Bl {
                target,
                vectorizable,
            }) => {
                let m = if *vectorizable { "bl.v" } else { "bl" };
                format!(
                    "{m} {}",
                    label_for(*target).unwrap_or_else(|| format!("@{target}"))
                )
            }
            other => render_with_symbols(other, p),
        };
        out.push_str(&format!("    {text}\n"));
    }
    out
}

/// Renders a slice of a program's code (e.g. one outlined function) with
/// symbol names substituted — the pretty-printer examples and reports use.
#[must_use]
pub fn disassemble_range(p: &Program, entry: u32, len: usize) -> String {
    let mut out = String::new();
    for (i, inst) in p.code.iter().enumerate().skip(entry as usize).take(len) {
        if let Some(name) = p.label_at(i as u32) {
            out.push_str(&format!("{name}:\n"));
        }
        out.push_str(&format!("    {}\n", render_with_symbols(inst, p)));
    }
    out
}

/// Renders instructions that are not part of a program (translated
/// microcode) — no symbol table is available, so `symN` ids remain.
#[must_use]
pub fn disassemble_microcode(code: &[Inst], p: &Program) -> String {
    let mut out = String::new();
    for inst in code {
        out.push_str(&format!("    {}\n", render_with_symbols(inst, p)));
    }
    out
}

/// Renders one instruction substituting symbol names for `symN` ids.
fn render_with_symbols(inst: &Inst, p: &Program) -> String {
    let mut text = inst.to_string();
    // Replace any `symN` occurrence with its name.
    while let Some(pos) = text.find("sym") {
        let tail = &text[pos + 3..];
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        if digits.is_empty() {
            break;
        }
        let id: usize = digits.parse().expect("digits parse");
        let name = p
            .symbols
            .get(id)
            .map_or_else(|| format!("sym{id}"), |s| s.name.clone());
        text = format!(
            "{}{}{}",
            &text[..pos],
            name,
            &text[pos + 3 + digits.len()..]
        );
    }
    text
}

// ---------------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------------

/// Assembles a module from text (see module docs for the syntax).
///
/// # Errors
///
/// Returns [`IsaError::Parse`] with a line number for syntax errors, and
/// label/symbol errors from program finalisation.
pub fn assemble(source: &str) -> Result<Program, IsaError> {
    Assembler::new().assemble(source)
}

struct Assembler {
    builder: ProgramBuilder,
    labels: HashMap<String, crate::builder::Label>,
    /// Labels already bound: the builder panics on a second binding.
    bound: HashSet<crate::builder::Label>,
}

fn perr(line: usize, message: impl Into<String>) -> IsaError {
    IsaError::Parse {
        line,
        message: message.into(),
    }
}

impl Assembler {
    fn new() -> Assembler {
        Assembler {
            builder: ProgramBuilder::new(),
            labels: HashMap::new(),
            bound: HashSet::new(),
        }
    }

    fn label(&mut self, name: &str) -> crate::builder::Label {
        if let Some(&l) = self.labels.get(name) {
            l
        } else {
            let l = self.builder.new_label();
            self.labels.insert(name.to_string(), l);
            l
        }
    }

    fn assemble(mut self, source: &str) -> Result<Program, IsaError> {
        let lines: Vec<&str> = source.lines().collect();
        let mut idx = 0;
        while idx < lines.len() {
            let lineno = idx + 1;
            let raw_line = lines[idx];
            idx += 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() || line == ".data" || line == ".text" {
                continue;
            }
            if let Some(rest) = line.strip_prefix('.') {
                // Data directives continue across lines while the value
                // list ends with a trailing comma.
                let mut body = rest.to_string();
                while body.trim_end().ends_with(',') && idx < lines.len() {
                    body.push(' ');
                    body.push_str(strip_comment(lines[idx]).trim());
                    idx += 1;
                }
                self.parse_directive(lineno, &body)?;
                continue;
            }
            if let Some(name) = line.strip_suffix(':') {
                let name = name.trim();
                let l = self.label(name);
                if !self.bound.insert(l) {
                    return Err(IsaError::DuplicateLabel {
                        name: name.to_string(),
                    });
                }
                self.builder.bind_named(l, name);
                continue;
            }
            let inst = self.parse_inst(lineno, line)?;
            match inst {
                ParsedInst::Plain(i) => {
                    self.builder.push(i);
                }
                ParsedInst::Branch { cond, label } => {
                    let l = self.label(&label);
                    self.builder.b(cond, l);
                }
                ParsedInst::Call {
                    label,
                    vectorizable,
                } => {
                    let l = self.label(&label);
                    if vectorizable {
                        self.builder.bl_v(l);
                    } else {
                        self.builder.bl(l);
                    }
                }
            }
        }
        self.builder.finish()
    }

    fn parse_directive(&mut self, lineno: usize, rest: &str) -> Result<(), IsaError> {
        let (kind, body) = rest
            .split_once(' ')
            .ok_or_else(|| perr(lineno, "directive needs a body"))?;
        let (name, values) = body
            .split_once(':')
            .ok_or_else(|| perr(lineno, "directive needs `name: values`"))?;
        let name = name.trim();
        let values = values.trim();
        // The builder panics on a second definition.
        if self.builder.symbol_named(name).is_some() {
            return Err(IsaError::DuplicateSymbol {
                name: name.to_string(),
            });
        }
        match kind {
            "i8" => {
                let vals = parse_list::<i8>(lineno, values)?;
                self.builder.add_i8s(name, &vals);
            }
            "i16" => {
                let vals = parse_list::<i16>(lineno, values)?;
                self.builder.add_i16s(name, &vals);
            }
            "i32" => {
                let vals = parse_list::<i32>(lineno, values)?;
                self.builder.add_i32s(name, &vals);
            }
            "f32" => {
                let vals = parse_list::<f32>(lineno, values)?;
                self.builder.add_f32s(name, &vals);
            }
            "zero" => {
                let (elems, bytes) = values
                    .split_once('x')
                    .ok_or_else(|| perr(lineno, "`.zero name: N x BYTES`"))?;
                let elems: usize = elems
                    .trim()
                    .parse()
                    .map_err(|_| perr(lineno, "bad element count"))?;
                let bytes: u32 = bytes
                    .trim()
                    .parse()
                    .map_err(|_| perr(lineno, "bad element size"))?;
                self.builder.reserve(name, elems, bytes);
            }
            other => return Err(perr(lineno, format!("unknown directive .{other}"))),
        }
        Ok(())
    }

    fn parse_base(&mut self, lineno: usize, token: &str) -> Result<Base, IsaError> {
        if let Some(r) = parse_reg(token) {
            Ok(Base::Reg(r))
        } else if let Some(id) = self.builder.symbol_named(token) {
            Ok(Base::Sym(id))
        } else {
            Err(perr(lineno, format!("unknown base `{token}`")))
        }
    }

    /// Parses a `[base + index]` memory operand.
    fn parse_mem(&mut self, lineno: usize, token: &str) -> Result<(Base, Reg), IsaError> {
        let inner = token
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| perr(lineno, format!("expected [base + index], got `{token}`")))?;
        let (b, i) = inner
            .split_once('+')
            .ok_or_else(|| perr(lineno, "memory operand needs `base + index`"))?;
        let base = self.parse_base(lineno, b.trim())?;
        let index =
            parse_reg(i.trim()).ok_or_else(|| perr(lineno, format!("bad index `{}`", i.trim())))?;
        Ok((base, index))
    }

    #[allow(clippy::too_many_lines)]
    fn parse_inst(&mut self, lineno: usize, line: &str) -> Result<ParsedInst, IsaError> {
        let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
            Some((m, r)) => (m.trim(), r.trim()),
            None => (line, ""),
        };
        let ops: Vec<String> = split_operands(rest);
        let op_str = |i: usize| -> Result<&str, IsaError> {
            ops.get(i)
                .map(String::as_str)
                .ok_or_else(|| perr(lineno, format!("missing operand {i}")))
        };
        let int_reg = |i: usize| -> Result<Reg, IsaError> {
            let t = op_str(i)?;
            parse_reg(t).ok_or_else(|| perr(lineno, format!("bad register `{t}`")))
        };
        let f_reg = |i: usize| -> Result<FReg, IsaError> {
            let t = op_str(i)?;
            parse_freg(t).ok_or_else(|| perr(lineno, format!("bad fp register `{t}`")))
        };
        let operand2 = |i: usize| -> Result<Operand2, IsaError> {
            let t = op_str(i)?;
            if let Some(imm) = t.strip_prefix('#') {
                Ok(Operand2::Imm(parse_int(lineno, imm)?))
            } else {
                parse_reg(t)
                    .map(Operand2::Reg)
                    .ok_or_else(|| perr(lineno, format!("bad operand `{t}`")))
            }
        };

        // Fixed mnemonics first.
        match mnemonic {
            "ret" => return Ok(ParsedInst::Plain(Inst::S(ScalarInst::Ret))),
            "halt" => return Ok(ParsedInst::Plain(Inst::S(ScalarInst::Halt))),
            "nop" => return Ok(ParsedInst::Plain(Inst::S(ScalarInst::Nop))),
            "cmp" => {
                return Ok(ParsedInst::Plain(Inst::S(ScalarInst::Cmp {
                    rn: int_reg(0)?,
                    op2: operand2(1)?,
                })))
            }
            "bl" | "bl.v" => {
                return Ok(ParsedInst::Call {
                    label: op_str(0)?.to_string(),
                    vectorizable: mnemonic == "bl.v",
                })
            }
            _ => {}
        }

        // Vector mnemonics carry dot-separated suffixes.
        if mnemonic.starts_with('v') {
            return self.parse_vector(lineno, mnemonic, &ops);
        }

        // Branches: `b` + condition suffix.
        if let Some(suffix) = mnemonic.strip_prefix('b') {
            if let Some(cond) = parse_cond(suffix) {
                return Ok(ParsedInst::Branch {
                    cond,
                    label: op_str(0)?.to_string(),
                });
            }
        }

        // Loads/stores.
        if let Some(tail) = mnemonic
            .strip_prefix("ld")
            .or_else(|| mnemonic.strip_prefix("st"))
        {
            let is_load = mnemonic.starts_with("ld");
            if tail == "f" {
                return Ok(ParsedInst::Plain(Inst::S(if is_load {
                    let fd = f_reg(0)?;
                    let (base, index) = self.parse_mem(lineno, op_str(1)?)?;
                    ScalarInst::LdF { fd, base, index }
                } else {
                    let (base, index) = self.parse_mem(lineno, op_str(0)?)?;
                    let fs = f_reg(1)?;
                    ScalarInst::StF { fs, base, index }
                })));
            }
            let (width, signed) = match tail {
                "b" => (MemWidth::B, false),
                "bs" => (MemWidth::B, true),
                "h" => (MemWidth::H, false),
                "hs" => (MemWidth::H, true),
                "w" => (MemWidth::W, false),
                "ws" => (MemWidth::W, true),
                _ => {
                    return Err(perr(lineno, format!("unknown mnemonic `{mnemonic}`")));
                }
            };
            return Ok(ParsedInst::Plain(Inst::S(if is_load {
                let rd = int_reg(0)?;
                let (base, index) = self.parse_mem(lineno, op_str(1)?)?;
                ScalarInst::LdInt {
                    width,
                    signed,
                    rd,
                    base,
                    index,
                }
            } else {
                let (base, index) = self.parse_mem(lineno, op_str(0)?)?;
                let rs = int_reg(1)?;
                ScalarInst::StInt {
                    width,
                    rs,
                    base,
                    index,
                }
            })));
        }

        // fmov / fp alu (no conditional fp-alu).
        if let Some(suffix) = mnemonic.strip_prefix("fmov") {
            let cond = parse_cond(suffix)
                .ok_or_else(|| perr(lineno, format!("bad condition `{suffix}`")))?;
            return Ok(ParsedInst::Plain(Inst::S(ScalarInst::FMov {
                cond,
                fd: f_reg(0)?,
                fm: f_reg(1)?,
            })));
        }
        for op in FpOp::ALL {
            if mnemonic == op.mnemonic() {
                return Ok(ParsedInst::Plain(Inst::S(ScalarInst::FAlu {
                    op,
                    fd: f_reg(0)?,
                    fn_: f_reg(1)?,
                    fm: f_reg(2)?,
                })));
            }
        }

        // mov with condition suffix.
        if let Some(suffix) = mnemonic.strip_prefix("mov") {
            let cond = parse_cond(suffix)
                .ok_or_else(|| perr(lineno, format!("bad condition `{suffix}`")))?;
            let rd = int_reg(0)?;
            return Ok(ParsedInst::Plain(Inst::S(match operand2(1)? {
                Operand2::Imm(imm) => ScalarInst::MovImm { cond, rd, imm },
                Operand2::Reg(rm) => ScalarInst::Mov { cond, rd, rm },
            })));
        }

        // Integer ALU with condition suffix (longest mnemonic match first).
        let mut alu_match: Option<(AluOp, Cond)> = None;
        for op in AluOp::ALL {
            if let Some(suffix) = mnemonic.strip_prefix(op.mnemonic()) {
                if let Some(cond) = parse_cond(suffix) {
                    alu_match = Some((op, cond));
                    break;
                }
            }
        }
        if let Some((op, cond)) = alu_match {
            return Ok(ParsedInst::Plain(Inst::S(ScalarInst::Alu {
                cond,
                op,
                rd: int_reg(0)?,
                rn: int_reg(1)?,
                op2: operand2(2)?,
            })));
        }

        Err(perr(lineno, format!("unknown mnemonic `{mnemonic}`")))
    }

    fn parse_vector(
        &mut self,
        lineno: usize,
        mnemonic: &str,
        ops: &[String],
    ) -> Result<ParsedInst, IsaError> {
        let parts: Vec<&str> = mnemonic.split('.').collect();
        let stem = parts[0];
        let elem_part = parts
            .last()
            .ok_or_else(|| perr(lineno, "vector mnemonic needs .elem suffix"))?;
        let elem = ElemType::from_suffix(elem_part)
            .ok_or_else(|| perr(lineno, format!("bad element type `{elem_part}`")))?;
        let op_str = |i: usize| -> Result<&str, IsaError> {
            ops.get(i)
                .map(String::as_str)
                .ok_or_else(|| perr(lineno, format!("missing operand {i}")))
        };
        let v_reg = |i: usize| -> Result<VReg, IsaError> {
            let t = op_str(i)?;
            parse_vreg(t).ok_or_else(|| perr(lineno, format!("bad vector register `{t}`")))
        };

        // Permutations: vbfly.b8.f32 / vrev.b4.i16 / vrot.b8.k3.i32
        let perm = match stem {
            "vbfly" | "vrev" | "vrot" => {
                let block_part = parts
                    .get(1)
                    .and_then(|p| p.strip_prefix('b'))
                    .ok_or_else(|| perr(lineno, "permutation needs .bN block suffix"))?;
                let block: u8 = block_part
                    .parse()
                    .map_err(|_| perr(lineno, "bad block size"))?;
                Some(match stem {
                    "vbfly" => PermKind::Bfly { block },
                    "vrev" => PermKind::Rev { block },
                    _ => {
                        let amt_part = parts
                            .get(2)
                            .and_then(|p| p.strip_prefix('k'))
                            .ok_or_else(|| perr(lineno, "vrot needs .kN amount suffix"))?;
                        let amt: u8 = amt_part.parse().map_err(|_| perr(lineno, "bad amount"))?;
                        PermKind::Rot { block, amt }
                    }
                })
            }
            _ => None,
        };
        if let Some(kind) = perm {
            return Ok(ParsedInst::Plain(Inst::V(VectorInst::VPerm {
                kind,
                elem,
                vd: v_reg(0)?,
                vn: v_reg(1)?,
            })));
        }

        match stem {
            "vld" | "vlds" => {
                let vd = v_reg(0)?;
                let (base, index) = self.parse_mem(lineno, op_str(1)?)?;
                Ok(ParsedInst::Plain(Inst::V(VectorInst::VLd {
                    elem,
                    signed: stem == "vlds",
                    vd,
                    base,
                    index,
                })))
            }
            "vst" => {
                let (base, index) = self.parse_mem(lineno, op_str(0)?)?;
                let vs = v_reg(1)?;
                Ok(ParsedInst::Plain(Inst::V(VectorInst::VSt {
                    elem,
                    vs,
                    base,
                    index,
                })))
            }
            "vsplat" => {
                let vd = v_reg(0)?;
                let imm = op_str(1)?
                    .strip_prefix('#')
                    .ok_or_else(|| perr(lineno, "vsplat needs #imm"))?;
                Ok(ParsedInst::Plain(Inst::V(VectorInst::VSplat {
                    elem,
                    vd,
                    imm: parse_int(lineno, imm)?,
                })))
            }
            "vredmin" | "vredmax" | "vredsum" => {
                let op = match stem {
                    "vredmin" => RedOp::Min,
                    "vredmax" => RedOp::Max,
                    _ => RedOp::Sum,
                };
                let dst = op_str(0)?;
                if let Some(fd) = parse_freg(dst) {
                    Ok(ParsedInst::Plain(Inst::V(VectorInst::VRedF {
                        op,
                        fd,
                        vn: v_reg(1)?,
                    })))
                } else if let Some(rd) = parse_reg(dst) {
                    Ok(ParsedInst::Plain(Inst::V(VectorInst::VRedI {
                        op,
                        elem,
                        rd,
                        vn: v_reg(1)?,
                    })))
                } else {
                    Err(perr(lineno, format!("bad reduction destination `{dst}`")))
                }
            }
            _ => {
                let op = VAluOp::ALL
                    .into_iter()
                    .find(|op| op.mnemonic() == stem)
                    .ok_or_else(|| perr(lineno, format!("unknown vector mnemonic `{stem}`")))?;
                let vd = v_reg(0)?;
                let vn = v_reg(1)?;
                let third = op_str(2)?;
                let inst = if let Some(imm) = third.strip_prefix('#') {
                    VectorInst::VAluImm {
                        op,
                        elem,
                        vd,
                        vn,
                        imm: parse_int(lineno, imm)?,
                    }
                } else if let Some(sym) = third.strip_prefix('=') {
                    let cnst = self
                        .builder
                        .symbol_named(sym)
                        .ok_or_else(|| perr(lineno, format!("unknown symbol `{sym}`")))?;
                    VectorInst::VAluConst {
                        op,
                        elem,
                        vd,
                        vn,
                        cnst,
                    }
                } else if let Some(vm) = parse_vreg(third) {
                    VectorInst::VAlu {
                        op,
                        elem,
                        vd,
                        vn,
                        vm,
                    }
                } else if let Some(fs) = parse_freg(third) {
                    VectorInst::VAluScalar {
                        op,
                        elem,
                        vd,
                        vn,
                        src: crate::vector::ScalarSrc::F(fs),
                    }
                } else if let Some(rs) = parse_reg(third) {
                    VectorInst::VAluScalar {
                        op,
                        elem,
                        vd,
                        vn,
                        src: crate::vector::ScalarSrc::R(rs),
                    }
                } else {
                    return Err(perr(lineno, format!("bad vector operand `{third}`")));
                };
                Ok(ParsedInst::Plain(Inst::V(inst)))
            }
        }
    }
}

enum ParsedInst {
    Plain(Inst),
    Branch { cond: Cond, label: String },
    Call { label: String, vectorizable: bool },
}

/// Strips a trailing comment. `;` always starts a comment; `#` starts one
/// only when followed by whitespace or end-of-line, so immediates (`#0`,
/// `#-4`, `#0xFF`) survive while paper-style `# load the vectors` comments
/// are removed.
fn strip_comment(line: &str) -> &str {
    if let Some(pos) = line.find(';') {
        return &line[..pos];
    }
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'#' {
            let next = bytes.get(i + 1);
            if next.is_none() || next.is_some_and(u8::is_ascii_whitespace) {
                return &line[..i];
            }
        }
    }
    line
}

/// Splits an operand string on commas, respecting `[...]` brackets.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn parse_int(lineno: usize, s: &str) -> Result<i32, IsaError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| perr(lineno, format!("bad integer `{s}`")))?;
    let value = if neg { -value } else { value };
    i32::try_from(value).map_err(|_| perr(lineno, format!("integer `{s}` out of range")))
}

fn parse_list<T: std::str::FromStr>(lineno: usize, s: &str) -> Result<Vec<T>, IsaError> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<T>()
                .map_err(|_| perr(lineno, format!("bad value `{t}`")))
        })
        .collect()
}

fn parse_indexed(token: &str, prefix: char, max: u8) -> Option<u8> {
    let rest = token.strip_prefix(prefix)?;
    let idx: u8 = rest.parse().ok()?;
    (idx < max).then_some(idx)
}

fn parse_reg(t: &str) -> Option<Reg> {
    parse_indexed(t, 'r', 16).map(Reg::of)
}

fn parse_freg(t: &str) -> Option<FReg> {
    parse_indexed(t, 'f', 16).map(FReg::of)
}

fn parse_vreg(t: &str) -> Option<VReg> {
    parse_indexed(t, 'v', 16).map(VReg::of)
}

fn parse_cond(suffix: &str) -> Option<Cond> {
    Cond::ALL.into_iter().find(|c| c.suffix() == suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
.data
.i32 bfly: 4, 4, 4, 4, -4, -4, -4, -4
.f32 RealOut: 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5
.zero tmp0: 8 x 4

.text
main:
    mov r0, #0
loop:
    ldw r1, [bfly + r0]      # load offset for butterfly
    add r1, r0, r1
    ldf f0, [RealOut + r1]
    stf [tmp0 + r0], f0
    add r0, r0, #1
    cmp r0, #8
    blt loop
    halt
";

    #[test]
    fn assembles_the_paper_shape() {
        let p = assemble(SAMPLE).expect("assembles");
        assert_eq!(p.code.len(), 9);
        assert_eq!(p.symbols.len(), 3);
        assert_eq!(p.symbol_by_name("bfly").unwrap().1.size, 32);
        match p.code[1] {
            Inst::S(ScalarInst::LdInt { width, base, .. }) => {
                assert_eq!(width, MemWidth::W);
                assert!(matches!(base, Base::Sym(_)));
            }
            ref other => panic!("unexpected {other:?}"),
        }
        match p.code[7] {
            Inst::S(ScalarInst::B { cond, target }) => {
                assert_eq!(cond, Cond::Lt);
                assert_eq!(target, 1);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disassemble_assemble_roundtrip() {
        let p = assemble(SAMPLE).unwrap();
        let text = disassemble(&p);
        let p2 = assemble(&text).expect("reassembles");
        assert_eq!(p.code, p2.code);
        assert_eq!(p.symbols.len(), p2.symbols.len());
        for (a, b) in p.symbols.iter().zip(&p2.symbols) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.size, b.size);
        }
        // Float data encodes bit-exactly through the .i32 fallback.
        assert_eq!(p.data, p2.data);
    }

    #[test]
    fn vector_syntax() {
        let src = r"
.data
.i32 A: 1, 2, 3, 4
.i32 mask: 255, 255, 255, 255

.text
main:
    mov r0, #0
    vld.i32 v0, [A + r0]
    vadd.i32 v1, v0, v0
    vand.i32 v1, v1, =mask
    vlsr.i32 v1, v1, #2
    vbfly.b4.i32 v1, v1
    vrot.b4.k1.i32 v1, v1
    vredsum.i32 r1, v1
    vredmax.f32 f1, v1
    vsplat.i32 v2, #42
    vst.i32 [A + r0], v1
    halt
";
        let p = assemble(src).expect("assembles");
        assert_eq!(p.code.len(), 12);
        assert!(matches!(
            p.code[5],
            Inst::V(VectorInst::VPerm {
                kind: PermKind::Bfly { block: 4 },
                ..
            })
        ));
        let text = disassemble(&p);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p.code, p2.code);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble(".text\n    frobnicate r1, r2\n").unwrap_err();
        match err {
            IsaError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_definitions_are_errors_not_panics() {
        assert_eq!(
            assemble(".data\n.i32 A: 1\n.f32 A: 2.0\n.text\nmain:\n    halt\n"),
            Err(IsaError::DuplicateSymbol {
                name: "A".to_string()
            })
        );
        assert_eq!(
            assemble(".text\nmain:\n    nop\nmain:\n    halt\n"),
            Err(IsaError::DuplicateLabel {
                name: "main".to_string()
            })
        );
    }

    #[test]
    fn conditional_mnemonics() {
        let src =
            ".text\nmain:\n    cmp r1, #255\n    movgt r1, #255\n    addlt r2, r2, #1\n    halt\n";
        let p = assemble(src).unwrap();
        assert!(matches!(
            p.code[1],
            Inst::S(ScalarInst::MovImm {
                cond: Cond::Gt,
                imm: 255,
                ..
            })
        ));
        assert!(matches!(
            p.code[2],
            Inst::S(ScalarInst::Alu {
                cond: Cond::Lt,
                op: AluOp::Add,
                ..
            })
        ));
    }
}
