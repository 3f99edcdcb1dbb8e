//! The `kernel-v1` text format: a line-oriented serialization of
//! [`FamilySpec`], in the same `key value` style as `conform-case-v1`.
//! `parse(print(spec)) == spec` is test-pinned.
//!
//! This module also holds the token vocabulary both formats share, so
//! each token has one spelling: ops ([`op_name`]), permutations
//! ([`perm_text`], `bfly:B` / `rev:B` / `rot:B:A`), reductions
//! ([`red_name`]), idioms ([`idiom_text`]) and hex-or-decimal numbers
//! ([`parse_u64`]). Element types are spelled by [`ElemType::suffix`].
//!
//! ```text
//! # kernel-v1
//! family dot_i32
//! idiom dot
//! elem i32
//! trips 32 64 128 256 512
//! unrolls 1 2 3 4
//! reps 2
//! seed 0xd071
//! ops mul add
//! reduce sum
//! ```

use liquid_simd_isa::{ElemType, PermKind, RedOp, VAluOp};

use crate::spec::{FamilySpec, Idiom, GATHER_TILE, OVERSIZED_ADDS, WIDE_OFFSET};

/// First line of every `kernel-v1` file.
pub const MAGIC: &str = "# kernel-v1";

/// An op's token in both formats.
#[must_use]
pub fn op_name(op: VAluOp) -> &'static str {
    match op {
        VAluOp::Add => "add",
        VAluOp::Sub => "sub",
        VAluOp::Mul => "mul",
        VAluOp::Div => "div",
        VAluOp::And => "and",
        VAluOp::Orr => "orr",
        VAluOp::Eor => "eor",
        VAluOp::Min => "min",
        VAluOp::Max => "max",
        VAluOp::SatAdd => "satadd",
        VAluOp::SatSub => "satsub",
        VAluOp::SSatAdd => "ssatadd",
        VAluOp::SSatSub => "ssatsub",
        VAluOp::Lsl => "lsl",
        VAluOp::Lsr => "lsr",
        VAluOp::Asr => "asr",
    }
}

/// The inverse of [`op_name`].
#[must_use]
pub fn op_value(name: &str) -> Option<VAluOp> {
    VAluOp::ALL.into_iter().find(|&op| op_name(op) == name)
}

/// A permutation's token in both formats: `bfly:B`, `rev:B` or `rot:B:A`.
#[must_use]
pub fn perm_text(p: PermKind) -> String {
    match p {
        PermKind::Bfly { block } => format!("bfly:{block}"),
        PermKind::Rev { block } => format!("rev:{block}"),
        PermKind::Rot { block, amt } => format!("rot:{block}:{amt}"),
    }
}

/// The inverse of [`perm_text`].
#[must_use]
pub fn parse_perm(s: &str) -> Option<PermKind> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        ["bfly", b] => Some(PermKind::Bfly {
            block: b.parse().ok()?,
        }),
        ["rev", b] => Some(PermKind::Rev {
            block: b.parse().ok()?,
        }),
        ["rot", b, a] => Some(PermKind::Rot {
            block: b.parse().ok()?,
            amt: a.parse().ok()?,
        }),
        _ => None,
    }
}

/// A `0x`-prefixed hex or a decimal number, in both formats.
#[must_use]
pub fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A reduction's token in both formats.
#[must_use]
pub fn red_name(r: RedOp) -> &'static str {
    match r {
        RedOp::Min => "min",
        RedOp::Max => "max",
        RedOp::Sum => "sum",
    }
}

/// The inverse of [`red_name`].
#[must_use]
pub fn red_value(name: &str) -> Option<RedOp> {
    match name {
        "min" => Some(RedOp::Min),
        "max" => Some(RedOp::Max),
        "sum" => Some(RedOp::Sum),
        _ => None,
    }
}

/// An `idiom` line's value: the keyword, then each argument. An
/// untranslatable idiom's argument is printed only when it differs
/// from its default, so the corpus files carry none.
#[must_use]
pub fn idiom_text(idiom: Idiom) -> String {
    let kw = idiom.keyword();
    match idiom {
        Idiom::Stencil { taps } => format!("{kw} {taps}"),
        Idiom::Permute { kind } => format!("{kw} {}", perm_text(kind)),
        Idiom::Strided { stride } => format!("{kw} {stride}"),
        Idiom::Gather { offsets } if offsets != GATHER_TILE => {
            let offs: Vec<String> = offsets.iter().map(i32::to_string).collect();
            format!("{kw} {}", offs.join(","))
        }
        Idiom::Oversized { adds } if adds != OVERSIZED_ADDS => format!("{kw} {adds}"),
        Idiom::WideOffset { offset } if offset != WIDE_OFFSET => format!("{kw} {offset}"),
        _ => kw.to_string(),
    }
}

/// Parses an `idiom` line's value (the inverse of [`idiom_text`]). The
/// `kernel-v1` and `conform-case-v1` readers both call it. Parameter
/// ranges are [`Idiom::check`]'s job.
pub fn parse_idiom(text: &str) -> Result<Idiom, String> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    let kw = toks.first().copied().unwrap_or_default();
    let proto = Idiom::ALL
        .into_iter()
        .find(|i| i.keyword() == kw)
        .ok_or_else(|| format!("unknown idiom {kw:?}"))?;
    // Every idiom takes at most one argument.
    let tok = || {
        toks.get(1)
            .copied()
            .ok_or_else(|| format!("idiom {kw} needs an argument"))
    };
    let arg = || -> Result<u32, String> {
        tok()?
            .parse::<u32>()
            .map_err(|_| format!("bad idiom argument in {text:?}"))
    };
    // An optional argument: the default when absent.
    let or = |default: u32| if toks.len() > 1 { arg() } else { Ok(default) };
    let idiom = match proto {
        Idiom::Stencil { .. } => Idiom::Stencil { taps: arg()? },
        Idiom::Permute { .. } => {
            let t = tok()?;
            Idiom::Permute {
                kind: parse_perm(t).ok_or_else(|| format!("bad permutation {t:?}"))?,
            }
        }
        Idiom::Strided { .. } => Idiom::Strided { stride: arg()? },
        Idiom::Gather { .. } => match toks.get(1) {
            None => proto,
            Some(list) => {
                let offs: Vec<i32> = list
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad gather offsets {list:?}"))?;
                Idiom::Gather {
                    offsets: offs
                        .try_into()
                        .map_err(|_| format!("gather needs 16 offsets, got {list:?}"))?,
                }
            }
        },
        Idiom::Oversized { .. } => Idiom::Oversized {
            adds: or(OVERSIZED_ADDS)?,
        },
        Idiom::WideOffset { .. } => Idiom::WideOffset {
            offset: or(WIDE_OFFSET)?,
        },
        other => other,
    };
    let takes = match idiom {
        Idiom::Stencil { .. } | Idiom::Permute { .. } | Idiom::Strided { .. } => 2,
        Idiom::Gather { .. } | Idiom::Oversized { .. } | Idiom::WideOffset { .. } => 2,
        _ => 1,
    };
    if toks.len() > takes {
        return Err(format!("too many idiom arguments in {text:?}"));
    }
    Ok(idiom)
}

/// Serialize a spec to canonical `kernel-v1` text (keys in fixed
/// order, seed in lowercase hex, one trailing newline).
#[must_use]
pub fn print(spec: &FamilySpec) -> String {
    let mut s = String::new();
    s.push_str(MAGIC);
    s.push('\n');
    s.push_str(&format!("family {}\n", spec.family));
    s.push_str(&format!("idiom {}\n", idiom_text(spec.idiom)));
    s.push_str(&format!("elem {}\n", spec.elem.suffix()));
    let join = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(" ");
    s.push_str(&format!("trips {}\n", join(&spec.trips)));
    s.push_str(&format!("unrolls {}\n", join(&spec.unrolls)));
    s.push_str(&format!("reps {}\n", spec.reps));
    s.push_str(&format!("seed {:#x}\n", spec.seed));
    if !spec.ops.is_empty() {
        let ops: Vec<&str> = spec.ops.iter().map(|&o| op_name(o)).collect();
        s.push_str(&format!("ops {}\n", ops.join(" ")));
    }
    if let Some(r) = spec.reduce {
        s.push_str(&format!("reduce {}\n", red_name(r)));
    }
    s
}

/// Parse `kernel-v1` text. `what` names the source (file name) for
/// error messages. The result is validated before being returned.
pub fn parse(what: &str, text: &str) -> Result<FamilySpec, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MAGIC) {
        return Err(format!("{what}: missing `{MAGIC}` header"));
    }
    let mut family: Option<String> = None;
    let mut idiom: Option<Idiom> = None;
    let mut elem: Option<ElemType> = None;
    let mut trips: Option<Vec<u32>> = None;
    let mut unrolls: Option<Vec<u32>> = None;
    let mut reps: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut ops: Vec<VAluOp> = Vec::new();
    let mut reduce: Option<RedOp> = None;

    for (ln, raw) in lines.enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let ctx = |msg: String| format!("{what}:{}: {msg}", ln + 2);
        let toks: Vec<&str> = line.split_whitespace().collect();
        let numbers = |toks: &[&str]| -> Result<Vec<u32>, String> {
            toks.iter()
                .map(|t| t.parse::<u32>().map_err(|_| format!("bad number {t:?}")))
                .collect()
        };
        match toks[0] {
            "family" if toks.len() == 2 => family = Some(toks[1].to_string()),
            "idiom" => idiom = Some(parse_idiom(&line["idiom".len()..]).map_err(ctx)?),
            "elem" if toks.len() == 2 => {
                elem = Some(
                    ElemType::from_suffix(toks[1])
                        .ok_or_else(|| ctx(format!("unknown elem {:?}", toks[1])))?,
                );
            }
            "trips" => trips = Some(numbers(&toks[1..]).map_err(ctx)?),
            "unrolls" => unrolls = Some(numbers(&toks[1..]).map_err(ctx)?),
            "reps" if toks.len() == 2 => {
                reps = Some(
                    toks[1]
                        .parse()
                        .map_err(|_| ctx(format!("bad reps {:?}", toks[1])))?,
                );
            }
            "seed" if toks.len() == 2 => {
                seed =
                    Some(parse_u64(toks[1]).ok_or_else(|| ctx(format!("bad seed {:?}", toks[1])))?);
            }
            "ops" => {
                ops = toks[1..]
                    .iter()
                    .map(|t| op_value(t).ok_or_else(|| ctx(format!("unknown op {t:?}"))))
                    .collect::<Result<_, _>>()?;
            }
            "reduce" if toks.len() == 2 => {
                reduce = Some(
                    red_value(toks[1])
                        .ok_or_else(|| ctx(format!("unknown reduce {:?}", toks[1])))?,
                );
            }
            key => return Err(ctx(format!("unknown or malformed key {key:?}"))),
        }
    }

    let need = |name: &str| format!("{what}: missing `{name}` line");
    let spec = FamilySpec {
        family: family.ok_or_else(|| need("family"))?,
        idiom: idiom.ok_or_else(|| need("idiom"))?,
        elem: elem.ok_or_else(|| need("elem"))?,
        trips: trips.ok_or_else(|| need("trips"))?,
        unrolls: unrolls.ok_or_else(|| need("unrolls"))?,
        reps: reps.ok_or_else(|| need("reps"))?,
        seed: seed.ok_or_else(|| need("seed"))?,
        ops,
        reduce,
    };
    spec.validate().map_err(|e| format!("{what}: {e}"))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FamilySpec {
        FamilySpec {
            family: "dot_i32".into(),
            idiom: Idiom::Dot,
            elem: ElemType::I32,
            trips: vec![32, 64],
            unrolls: vec![1, 2],
            reps: 2,
            seed: 0xD071,
            ops: vec![VAluOp::Add],
            reduce: Some(RedOp::Sum),
        }
    }

    #[test]
    fn print_parse_round_trip() {
        let spec = sample();
        let text = print(&spec);
        let back = parse("sample", &text).unwrap();
        assert_eq!(back, spec);
        // Canonical form is a fixed point.
        assert_eq!(print(&back), text);
    }

    /// Every permutation shape at every block size.
    fn every_perm() -> Vec<PermKind> {
        [2u8, 4, 8, 16]
            .into_iter()
            .flat_map(|block| {
                [PermKind::Bfly { block }, PermKind::Rev { block }]
                    .into_iter()
                    .chain((1..block).map(move |amt| PermKind::Rot { block, amt }))
            })
            .collect()
    }

    #[test]
    fn every_op_and_idiom_round_trips() {
        for op in VAluOp::ALL {
            assert_eq!(op_value(op_name(op)), Some(op));
        }
        let mut spec = sample();
        spec.idiom = Idiom::Map;
        spec.elem = ElemType::I8;
        spec.ops = VAluOp::ALL.to_vec();
        assert_eq!(parse("ops", &print(&spec)).unwrap(), spec);

        let mut idioms = Idiom::ALL.to_vec();
        for kind in every_perm() {
            assert_eq!(parse_perm(&perm_text(kind)), Some(kind));
            idioms.push(Idiom::Permute { kind });
        }
        idioms.extend([
            Idiom::Gather {
                offsets: [1, -1, 0, 3, 2, -2, 1, -1, 0, 0, 1, -1, 3, -3, 0, 0],
            },
            Idiom::Oversized { adds: 70 },
            Idiom::WideOffset { offset: 2100 },
        ]);
        for idiom in idioms {
            let line = idiom_text(idiom);
            assert_eq!(parse_idiom(&line).unwrap(), idiom, "{line}");
        }
    }

    #[test]
    fn default_idiom_arguments_are_omitted_and_extra_ones_rejected() {
        for idiom in Idiom::ALL.into_iter().filter(|i| !i.is_translatable()) {
            let expected = match idiom {
                Idiom::Strided { stride } => format!("strided {stride}"),
                _ => idiom.keyword().to_string(),
            };
            assert_eq!(idiom_text(idiom), expected);
        }
        assert!(parse_idiom("oversized 70 80").is_err());
        assert!(parse_idiom("map 1").is_err());
        assert!(parse_idiom("gather 1,2")
            .unwrap_err()
            .contains("16 offsets"));
    }

    #[test]
    fn retired_spellings_are_rejected_by_name() {
        let text = print(&sample());
        let e = parse("x", &text.replace("ops add", "ops sat-add")).unwrap_err();
        assert!(e.contains("\"sat-add\""), "{e}");
        let e = parse("x", &text.replace("idiom dot", "idiom permute bfly 4")).unwrap_err();
        assert!(e.contains("\"bfly\""), "{e}");
        assert_eq!(
            parse_idiom("permute bfly:4"),
            Ok(Idiom::Permute {
                kind: PermKind::Bfly { block: 4 }
            })
        );
    }

    #[test]
    fn rejects_missing_header_and_bad_keys() {
        assert!(parse("x", "family a\n").is_err());
        let mut text = print(&sample());
        text.push_str("bogus 1\n");
        assert!(parse("x", &text).unwrap_err().contains("bogus"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut text = String::from("# kernel-v1\n\n# a comment\n");
        text.push_str(print(&sample()).strip_prefix("# kernel-v1\n").unwrap());
        assert_eq!(parse("x", &text).unwrap(), sample());
    }
}
