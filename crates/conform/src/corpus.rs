//! Corpus persistence: the `conform-case-v1` text format.
//!
//! Minimised failing cases are written as small line-oriented text files
//! under `tests/corpus/` so they become permanent regression tests — the
//! tier-1 corpus runner replays every `.case` file through the full
//! oracle on each `cargo test`. The format is deliberately trivial to
//! hand-edit: one `key value` line per field, `#` comments, and `f32`
//! constants stored as IEEE-754 bit patterns so replays are bit-exact.
//! Every token the format shares with `kernel-v1` (ops, permutations,
//! reductions, idioms, element types, numbers) is read and written by
//! `liquid_simd_kernelgen::format`, so both formats spell each one way.
//!
//! ```text
//! # conform-case-v1
//! name sat_clamp
//! kind legal
//! trip 16
//! reps 1
//! elem i8
//! data-seed 0x5eed5a7
//! input signed
//! op ssatadd v0 imm 100
//! ```
//!
//! An illegal case names an untranslatable idiom on the same `idiom`
//! line a `kernel-v1` family file uses (one parser reads both), plus
//! its trip; `kernelgen` renders the region:
//!
//! ```text
//! # conform-case-v1
//! name case7_oversized
//! kind illegal
//! trip 16
//! data-seed 0x1f2e3d4c
//! idiom oversized 70
//! ```

use std::fmt::Write as _;
use std::path::Path;

use liquid_simd_isa::ElemType;
use liquid_simd_kernelgen::format::{
    idiom_text, op_name, op_value, parse_idiom, parse_perm, parse_u64, perm_text, red_name,
    red_value,
};

use crate::gen::{CaseSpec, IllegalSpec, InputSpec, LegalSpec, OpSpec, ReduceSpec, Rhs};

/// Magic first line of every corpus file.
pub const MAGIC: &str = "# conform-case-v1";

/// A corpus parse failure: file (or name) plus reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusError {
    /// Which file or case failed to parse.
    pub what: String,
    /// Why.
    pub reason: String,
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corpus case `{}`: {}", self.what, self.reason)
    }
}

impl std::error::Error for CorpusError {}

/// Serialises a case to `conform-case-v1` text.
#[must_use]
pub fn to_text(case: &CaseSpec) -> String {
    let mut s = String::new();
    s.push_str(MAGIC);
    s.push('\n');
    let _ = writeln!(s, "name {}", case.name());
    let _ = writeln!(s, "kind {}", case.kind());
    match case {
        CaseSpec::Legal(l) => {
            let _ = writeln!(s, "trip {}", l.trip);
            let _ = writeln!(s, "reps {}", l.reps);
            let _ = writeln!(s, "elem {}", l.elem.suffix());
            let _ = writeln!(s, "data-seed {:#x}", l.data_seed);
            for input in &l.inputs {
                let mut line = String::from("input");
                line.push_str(if input.unsigned {
                    " unsigned"
                } else {
                    " signed"
                });
                if let Some(p) = input.perm {
                    let _ = write!(line, " perm {}", perm_text(p));
                }
                let _ = writeln!(s, "{line}");
            }
            for op in &l.ops {
                let rhs = match &op.rhs {
                    Rhs::Imm(i) => format!("imm {i}"),
                    Rhs::ConstI(p) => format!(
                        "consti {}",
                        p.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                    Rhs::ConstF(p) => format!(
                        "constf {}",
                        p.iter()
                            .map(|f| format!("{:#010x}", f.to_bits()))
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                    Rhs::Value(v) => format!("v{v}"),
                };
                let _ = writeln!(s, "op {} v{} {rhs}", op_name(op.op), op.a);
            }
            if let Some(p) = l.mid_perm {
                let _ = writeln!(s, "mid-perm {}", perm_text(p));
            }
            if let Some(r) = l.reduce {
                let _ = writeln!(s, "reduce {} v{}", red_name(r.op), r.target);
            }
            if l.inject_last {
                s.push_str("inject-last\n");
            }
        }
        CaseSpec::Illegal(i) => {
            let _ = writeln!(s, "trip {}", i.trip);
            let _ = writeln!(s, "data-seed {:#x}", i.data_seed);
            let _ = writeln!(s, "idiom {}", idiom_text(i.idiom));
        }
    }
    s
}

fn parse_vref(what: &str, v: &str) -> Result<usize, CorpusError> {
    v.strip_prefix('v')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| CorpusError {
            what: what.to_string(),
            reason: format!("bad value reference `{v}` (expected vN)"),
        })
}

/// Parses `conform-case-v1` text back into a spec. `what` names the source
/// (file name) for error messages.
///
/// # Errors
///
/// Returns [`CorpusError`] on any malformed line.
pub fn parse(what: &str, text: &str) -> Result<CaseSpec, CorpusError> {
    let err = |reason: String| CorpusError {
        what: what.to_string(),
        reason,
    };
    let number = |v: &str| parse_u64(v).ok_or_else(|| err(format!("bad number `{v}`")));
    let mut lines = text.lines().map(str::trim);
    if lines.next() != Some(MAGIC) {
        return Err(err(format!("first line must be `{MAGIC}`")));
    }

    let mut name = None;
    let mut kind = None;
    let mut trip = 16u32;
    let mut reps = 1u32;
    let mut elem = ElemType::I32;
    let mut data_seed = 0u64;
    let mut inputs = Vec::new();
    let mut ops = Vec::new();
    let mut mid_perm = None;
    let mut reduce = None;
    let mut inject_last = false;
    let mut idiom = None;

    for line in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "name" => name = Some(rest.to_string()),
            "kind" => kind = Some(rest.to_string()),
            "trip" => trip = number(rest)? as u32,
            "reps" => reps = number(rest)? as u32,
            "elem" => {
                elem =
                    ElemType::from_suffix(rest).ok_or_else(|| err(format!("bad elem `{rest}`")))?;
            }
            "data-seed" => data_seed = number(rest)?,
            "input" => {
                let mut input = InputSpec {
                    unsigned: false,
                    perm: None,
                };
                let mut toks = rest.split_whitespace();
                match toks.next() {
                    Some("unsigned") => input.unsigned = true,
                    Some("signed") | None => {}
                    Some(t) => return Err(err(format!("bad input qualifier `{t}`"))),
                }
                if let Some(t) = toks.next() {
                    if t != "perm" {
                        return Err(err(format!("expected `perm`, got `{t}`")));
                    }
                    let spec = toks.next().ok_or_else(|| err("missing perm spec".into()))?;
                    input.perm =
                        Some(parse_perm(spec).ok_or_else(|| err(format!("bad perm `{spec}`")))?);
                }
                inputs.push(input);
            }
            "op" => {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                if toks.len() < 3 {
                    return Err(err(format!("bad op line `{line}`")));
                }
                let op = op_value(toks[0]).ok_or_else(|| err(format!("bad op `{}`", toks[0])))?;
                let a = parse_vref(what, toks[1])?;
                let rhs = match toks[2] {
                    "imm" => {
                        let v = toks.get(3).ok_or_else(|| err("missing imm".into()))?;
                        Rhs::Imm(v.parse().map_err(|_| err(format!("bad imm `{v}`")))?)
                    }
                    "consti" => {
                        let v = toks.get(3).ok_or_else(|| err("missing consti".into()))?;
                        let pat: Result<Vec<i64>, _> = v.split(',').map(str::parse).collect();
                        Rhs::ConstI(pat.map_err(|_| err(format!("bad consti `{v}`")))?)
                    }
                    "constf" => {
                        let v = toks.get(3).ok_or_else(|| err("missing constf".into()))?;
                        let pat: Result<Vec<f32>, CorpusError> = v
                            .split(',')
                            .map(|t| {
                                if let Some(hex) = t.strip_prefix("0x") {
                                    u32::from_str_radix(hex, 16)
                                        .map(f32::from_bits)
                                        .map_err(|_| err(format!("bad constf bits `{t}`")))
                                } else {
                                    t.parse().map_err(|_| err(format!("bad constf `{t}`")))
                                }
                            })
                            .collect();
                        Rhs::ConstF(pat?)
                    }
                    v => Rhs::Value(parse_vref(what, v)?),
                };
                ops.push(OpSpec { op, a, rhs });
            }
            "mid-perm" => {
                mid_perm = Some(parse_perm(rest).ok_or_else(|| err(format!("bad perm `{rest}`")))?);
            }
            "reduce" => {
                let (r, t) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(format!("bad reduce line `{line}`")))?;
                reduce = Some(ReduceSpec {
                    op: red_value(r).ok_or_else(|| err(format!("bad reduction `{r}`")))?,
                    target: parse_vref(what, t.trim())?,
                });
            }
            "inject-last" => inject_last = true,
            "idiom" => idiom = Some(parse_idiom(rest).map_err(err)?),
            _ => return Err(err(format!("unknown key `{key}`"))),
        }
    }

    let name = name.ok_or_else(|| err("missing `name`".into()))?;
    match kind.as_deref() {
        Some("legal") => {
            if inputs.is_empty() {
                return Err(err("legal case needs at least one input".into()));
            }
            Ok(CaseSpec::Legal(LegalSpec {
                name,
                trip,
                reps,
                elem,
                inputs,
                ops,
                mid_perm,
                reduce,
                data_seed,
                inject_last,
            }))
        }
        Some("illegal") => {
            let idiom = idiom.ok_or_else(|| err("illegal case needs `idiom`".into()))?;
            if idiom.is_translatable() {
                return Err(err(format!("idiom {} is translatable", idiom.keyword())));
            }
            idiom.check(trip).map_err(err)?;
            Ok(CaseSpec::Illegal(IllegalSpec {
                name,
                idiom,
                trip,
                data_seed,
            }))
        }
        Some(k) => Err(err(format!("unknown kind `{k}`"))),
        None => Err(err("missing `kind`".into())),
    }
}

/// Loads every `.case` file in `dir`, sorted by file name for determinism.
/// A missing directory is an empty corpus, not an error.
///
/// # Errors
///
/// Returns [`CorpusError`] for unreadable or malformed files.
pub fn load_dir(dir: &Path) -> Result<Vec<(String, CaseSpec)>, CorpusError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(Vec::new()),
    };
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let fname = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&path).map_err(|e| CorpusError {
            what: fname.clone(),
            reason: format!("unreadable: {e}"),
        })?;
        out.push((fname.clone(), parse(&fname, &text)?));
    }
    Ok(out)
}

/// Writes a case to `<dir>/<name>.case`, creating `dir` if needed.
///
/// # Errors
///
/// Returns [`CorpusError`] if the directory or file cannot be written.
pub fn save(dir: &Path, case: &CaseSpec) -> Result<std::path::PathBuf, CorpusError> {
    std::fs::create_dir_all(dir).map_err(|e| CorpusError {
        what: case.name().to_string(),
        reason: format!("cannot create {}: {e}", dir.display()),
    })?;
    let path = dir.join(format!("{}.case", case.name()));
    std::fs::write(&path, to_text(case)).map_err(|e| CorpusError {
        what: case.name().to_string(),
        reason: format!("cannot write {}: {e}", path.display()),
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;
    use liquid_simd_isa::{PermKind, VAluOp};

    #[test]
    fn generated_cases_round_trip() {
        let mut cases: Vec<CaseSpec> = (0..48).map(|i| generate_case(0xDECAF, i)).collect();
        // Every op on an `op` line and every permutation shape on an
        // `input … perm` line.
        let mut every = LegalSpec::sweep_sat();
        every.inputs = [
            PermKind::Bfly { block: 2 },
            PermKind::Rev { block: 16 },
            PermKind::Rot { block: 8, amt: 7 },
        ]
        .into_iter()
        .map(|p| InputSpec {
            unsigned: false,
            perm: Some(p),
        })
        .collect();
        every.ops = VAluOp::ALL
            .into_iter()
            .map(|op| OpSpec {
                op,
                a: 0,
                rhs: Rhs::Value(1),
            })
            .collect();
        cases.push(CaseSpec::Legal(every));
        for case in cases {
            let text = to_text(&case);
            let back = parse("t", &text).expect("round-trip parse");
            assert_eq!(back, case, "round-trip mismatch:\n{text}");
        }
    }

    #[test]
    fn coverage_specs_round_trip() {
        for spec in crate::gen::coverage_specs() {
            let case = CaseSpec::Illegal(spec);
            let text = to_text(&case);
            assert_eq!(parse("t", &text).unwrap(), case, "{text}");
        }
    }

    #[test]
    fn sweep_specs_round_trip() {
        for spec in crate::abort::sweep_specs() {
            let case = CaseSpec::Legal(spec);
            assert_eq!(parse("t", &to_text(&case)).unwrap(), case);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("t", "nonsense").is_err());
        assert!(parse("t", "# conform-case-v1\nname x\nkind legal\n").is_err());
        assert!(parse("t", "# conform-case-v1\nname x\nkind illegal\n").is_err());
        for idiom in ["map", "strided 9", "trip-skew", "bogus"] {
            let text = format!("{MAGIC}\nname x\nkind illegal\ntrip 17\nidiom {idiom}\n");
            assert!(parse("t", &text).is_err(), "{idiom}");
        }
        assert!(parse(
            "t",
            &format!("{MAGIC}\nname x\nkind legal\ninput signed\nop frob v0 imm 1\n")
        )
        .is_err());
    }

    #[test]
    fn decimal_constf_accepted() {
        let text =
            format!("{MAGIC}\nname x\nkind legal\nelem f32\ninput signed\nop add v0 constf 1.5\n");
        match parse("t", &text).unwrap() {
            CaseSpec::Legal(l) => assert_eq!(l.ops[0].rhs, Rhs::ConstF(vec![1.5])),
            CaseSpec::Illegal(_) => panic!("expected legal"),
        }
    }
}
