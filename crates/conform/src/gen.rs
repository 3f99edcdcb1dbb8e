//! Case generation: seeded random loop specs.
//!
//! Every conformance case is first materialised as a *spec* — a small,
//! serialisable description of either a random-but-valid vectorizable
//! kernel ([`LegalSpec`]) or a deliberately untranslatable assembly region
//! ([`IllegalSpec`]). Specs, not programs, are the unit of shrinking and
//! corpus persistence: they round-trip through the corpus text format and
//! rebuild the exact same workload from their embedded data seed.

use liquid_simd::{ArrayBuilder, CompileError, Kernel, KernelBuilder, ReduceInit, Workload};
use liquid_simd_compiler::NodeId;
use liquid_simd_isa::{ElemType, PermKind, RedOp, VAluOp, SUPPORTED_WIDTHS};
use liquid_simd_kernelgen::spec::GATHER_TILE;
use liquid_simd_kernelgen::Idiom;
use liquid_simd_workloads::util::XorShift64;

/// One generated conformance case.
#[derive(Clone, Debug, PartialEq)]
pub enum CaseSpec {
    /// A random valid kernel: every pipeline must agree.
    Legal(LegalSpec),
    /// A random untranslatable region: translation must abort, never
    /// mistranslate, and scalar fallback must stay correct.
    Illegal(IllegalSpec),
}

impl CaseSpec {
    /// The case's name (unique within one conform run).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            CaseSpec::Legal(s) => &s.name,
            CaseSpec::Illegal(s) => &s.name,
        }
    }

    /// `"legal"` or `"illegal"`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CaseSpec::Legal(_) => "legal",
            CaseSpec::Illegal(_) => "illegal",
        }
    }
}

/// One input array of a legal case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputSpec {
    /// Zero-extended (unsigned) load; only meaningful for sub-word ints.
    pub unsigned: bool,
    /// Optional load-side permutation.
    pub perm: Option<PermKind>,
}

/// The right-hand side of one op in a legal case's dataflow chain.
#[derive(Clone, Debug, PartialEq)]
pub enum Rhs {
    /// Scalar immediate (integer elements only).
    Imm(i32),
    /// Broadcast integer constant pattern (`cnst`-style).
    ConstI(Vec<i64>),
    /// Broadcast float constant pattern.
    ConstF(Vec<f32>),
    /// A previously computed value (index into the value list).
    Value(usize),
}

/// One element-wise op appended to the value list.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSpec {
    /// The vector ALU operation.
    pub op: VAluOp,
    /// Left operand: index into the value list.
    pub a: usize,
    /// Right operand.
    pub rhs: Rhs,
}

/// An optional reduction output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceSpec {
    /// The reduction operator (init is always 0 / 0.0).
    pub op: RedOp,
    /// Reduced value: index into the value list.
    pub target: usize,
}

/// A random-but-valid vectorizable kernel, described shrinkably.
///
/// The value list is: inputs first (indices `0..inputs.len()`), then one
/// value per op, then — if present — the mid-dataflow permutation of the
/// last value. The kernel always stores the final value to `out`.
#[derive(Clone, Debug, PartialEq)]
pub struct LegalSpec {
    /// Case name.
    pub name: String,
    /// Trip count (a positive multiple of 16).
    pub trip: u32,
    /// Driver repetitions.
    pub reps: u32,
    /// Element type of inputs and outputs.
    pub elem: ElemType,
    /// Input arrays `in0..inN`.
    pub inputs: Vec<InputSpec>,
    /// Dataflow chain.
    pub ops: Vec<OpSpec>,
    /// Mid-dataflow permutation of the last value (forces fission).
    pub mid_perm: Option<PermKind>,
    /// Optional reduction into `racc`.
    pub reduce: Option<ReduceSpec>,
    /// Seeds the deterministic input data.
    pub data_seed: u64,
    /// Replay with an external abort injected at the last retired
    /// instruction of the first translation window (regression shape for
    /// abort-at-last-instruction).
    pub inject_last: bool,
}

impl LegalSpec {
    /// Number of values in the value list.
    #[must_use]
    pub fn value_count(&self) -> usize {
        self.inputs.len() + self.ops.len() + usize::from(self.mid_perm.is_some())
    }

    /// Builds the concrete workload this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the spec describes an invalid kernel
    /// (possible for hand-edited corpus files; generated specs are valid
    /// by construction).
    pub fn to_workload(&self) -> Result<Workload, CompileError> {
        let float = self.elem == ElemType::F32;
        let mut k = KernelBuilder::new("conform", self.trip);
        let mut data = ArrayBuilder::new();
        let mut rng = XorShift64::new(self.data_seed);
        let mut values = Vec::new();

        for (i, input) in self.inputs.iter().enumerate() {
            let name = format!("in{i}");
            let id = match input.perm {
                Some(p) => k.load_perm(&name, self.elem, p),
                None if input.unsigned && !float => k.load_u(&name, self.elem),
                None => k.load(&name, self.elem),
            };
            values.push(id);
            data = if float {
                let v: Vec<f32> = (0..self.trip).map(|_| rng.range_f32(-8.0, 8.0)).collect();
                data.f32(&name, v)
            } else {
                let hi = match self.elem {
                    ElemType::I8 => 127,
                    ElemType::I16 => 2000,
                    _ => 100_000,
                };
                let v: Vec<i64> = (0..self.trip).map(|_| rng.range_i64(-hi, hi)).collect();
                data.int(&name, self.elem, v)
            };
        }

        let value_of = |values: &[NodeId], idx: usize| {
            values
                .get(idx)
                .copied()
                .ok_or_else(|| CompileError::Invalid {
                    kernel: "conform".to_string(),
                    reason: format!("spec references value v{idx} which does not exist"),
                })
        };

        for op in &self.ops {
            let a = value_of(&values, op.a)?;
            let id = match &op.rhs {
                Rhs::Imm(imm) => k.bin_imm(op.op, a, *imm),
                Rhs::ConstI(pat) => {
                    let c = k.constv(self.elem, pat.clone());
                    k.bin(op.op, a, c)
                }
                Rhs::ConstF(pat) => {
                    let c = k.constf(pat.clone());
                    k.bin(op.op, a, c)
                }
                Rhs::Value(b) => {
                    let b = value_of(&values, *b)?;
                    k.bin(op.op, a, b)
                }
            };
            values.push(id);
        }

        if let Some(kind) = self.mid_perm {
            let a = *values.last().expect("at least one input");
            values.push(k.perm(kind, a));
        }

        let out = *values.last().expect("at least one input");
        k.store("out", out);
        data = data.zeroed("out", self.elem, self.trip as usize);
        if let Some(r) = self.reduce {
            let target = value_of(&values, r.target)?;
            if float {
                k.reduce(r.op, target, "racc", ReduceInit::F32(0.0));
            } else {
                k.reduce(r.op, target, "racc", ReduceInit::Int(0));
            }
            data = data.zeroed("racc", if float { ElemType::F32 } else { ElemType::I32 }, 1);
        }

        let kernel: Kernel = k.build()?;
        Ok(Workload::new(
            &self.name,
            vec![kernel],
            data.build(),
            self.reps,
        ))
    }

    /// Fixed sweep workload: a saturating `i8` add, exercising the
    /// value-clamping microcode path. Single rep so an aborted translation
    /// can never be retried (decisive for the no-partial-entry check).
    #[must_use]
    pub fn sweep_sat() -> LegalSpec {
        LegalSpec {
            name: "sweep_sat".to_string(),
            trip: 16,
            reps: 1,
            elem: ElemType::I8,
            inputs: vec![InputSpec {
                unsigned: false,
                perm: None,
            }],
            ops: vec![OpSpec {
                op: VAluOp::SSatAdd,
                a: 0,
                rhs: Rhs::Imm(100),
            }],
            mid_perm: None,
            reduce: None,
            data_seed: 0x05EE_D5A7,
            inject_last: false,
        }
    }

    /// Fixed sweep workload: an `i32` multiply feeding a sum reduction,
    /// exercising the reduction-epilogue microcode path. Single rep.
    #[must_use]
    pub fn sweep_red() -> LegalSpec {
        LegalSpec {
            name: "sweep_red".to_string(),
            trip: 16,
            reps: 1,
            elem: ElemType::I32,
            inputs: vec![InputSpec {
                unsigned: false,
                perm: None,
            }],
            ops: vec![OpSpec {
                op: VAluOp::Mul,
                a: 0,
                rhs: Rhs::Imm(3),
            }],
            mid_perm: None,
            reduce: Some(ReduceSpec {
                op: RedOp::Sum,
                target: 1,
            }),
            data_seed: 0x5EED_12ED,
            inject_last: false,
        }
    }
}

/// A deliberately untranslatable region: one of `kernelgen`'s
/// untranslatable idioms at one trip, rendered by
/// [`emit_region`](liquid_simd_kernelgen::emit_region).
#[derive(Clone, Debug, PartialEq)]
pub struct IllegalSpec {
    /// Case name.
    pub name: String,
    /// The untranslatable shape and its parameters.
    pub idiom: Idiom,
    /// Loop trip count.
    pub trip: u32,
    /// Seeds the deterministic data arrays.
    pub data_seed: u64,
}

/// Trip count of every illegal region but `trip-skew`'s (one
/// hardware-maximal vector).
pub const ILLEGAL_TRIP: u32 = 16;

/// One deterministic spec per untranslatable idiom, appended to every
/// conform run so the `abort_coverage` section always has a witness
/// for each abort shape regardless of what the random mix drew.
#[must_use]
pub fn coverage_specs() -> Vec<IllegalSpec> {
    Idiom::ALL
        .into_iter()
        .filter(|idiom| !idiom.is_translatable())
        .enumerate()
        .map(|(i, idiom)| IllegalSpec {
            name: format!("cov_{}", idiom.keyword()),
            idiom,
            trip: ILLEGAL_TRIP,
            data_seed: 0xC0DE_0000 + i as u64,
        })
        .collect()
}

/// `true` with probability `p`.
fn chance(rng: &mut XorShift64, p: f64) -> bool {
    rng.next_f64() < p
}

fn random_perm(rng: &mut XorShift64) -> PermKind {
    let block = [2u8, 4, 8, 16][rng.range_usize(0, 4)];
    match rng.range_usize(0, 3) {
        0 => PermKind::Bfly { block },
        1 => PermKind::Rev { block },
        _ => PermKind::Rot {
            block,
            amt: rng.range_i64(1, i64::from(block)) as u8,
        },
    }
}

/// Offsets that structurally resemble a permutation but miss the CAM at
/// every supported width. `i + offsets[i]` always stays inside `0..16`.
fn cam_missing_offsets(rng: &mut XorShift64) -> [i32; 16] {
    for _ in 0..64 {
        let offsets: [i32; 16] = std::array::from_fn(|i| {
            let lo = -(i.min(3) as i32);
            let hi = (15 - i).min(3) as i32;
            rng.range_i64(i64::from(lo), i64::from(hi) + 1) as i32
        });
        let misses_everywhere = SUPPORTED_WIDTHS
            .iter()
            .all(|&w| PermKind::match_offsets(&offsets, w).is_none());
        if misses_everywhere {
            return offsets;
        }
    }
    // Deterministic fallback: the corpus's known-miss tile.
    GATHER_TILE
}

/// Generates case `index` of a conform run seeded with `seed`. Roughly one
/// case in four is illegal; the rest are random valid kernels.
#[must_use]
pub fn generate_case(seed: u64, index: u64) -> CaseSpec {
    // Decorrelate per-case streams.
    let case_seed = (seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0xA5A5);
    let mut rng = XorShift64::new(case_seed);
    let data_seed = rng.next_u64();

    if rng.range_usize(0, 4) == 0 {
        let shapes: Vec<Idiom> = Idiom::ALL
            .into_iter()
            .filter(|idiom| !idiom.is_translatable())
            .collect();
        let mut trip = ILLEGAL_TRIP;
        let idiom = match shapes[rng.range_usize(0, shapes.len())] {
            Idiom::Strided { .. } => Idiom::Strided {
                stride: rng.range_i64(2, 5) as u32,
            },
            Idiom::Gather { .. } => Idiom::Gather {
                offsets: cam_missing_offsets(&mut rng),
            },
            Idiom::Oversized { .. } => Idiom::Oversized {
                adds: rng.range_i64(66, 96) as u32,
            },
            Idiom::WideOffset { .. } => Idiom::WideOffset {
                offset: rng.range_i64(2100, 3000) as u32,
            },
            Idiom::TripSkew => {
                // The loop runs trip + 1 times: an odd count in 17..=31.
                trip = 2 * rng.range_i64(8, 16) as u32;
                Idiom::TripSkew
            }
            other => other,
        };
        return CaseSpec::Illegal(IllegalSpec {
            name: format!("case{index}_{}", idiom.keyword()),
            idiom,
            trip,
            data_seed,
        });
    }

    let elem = [ElemType::I8, ElemType::I16, ElemType::I32, ElemType::F32][rng.range_usize(0, 4)];
    let float = elem == ElemType::F32;
    let trip = [16u32, 32][rng.range_usize(0, 2)];
    let reps = [1u32, 2][rng.range_usize(0, 2)];

    let inputs: Vec<InputSpec> = (0..rng.range_usize(1, 4))
        .map(|_| {
            let perm = chance(&mut rng, 0.3).then(|| random_perm(&mut rng));
            InputSpec {
                unsigned: perm.is_none() && !float && chance(&mut rng, 0.5),
                perm,
            }
        })
        .collect();

    let int_ops = [
        VAluOp::Add,
        VAluOp::Sub,
        VAluOp::Mul,
        VAluOp::And,
        VAluOp::Orr,
        VAluOp::Eor,
        VAluOp::Min,
        VAluOp::Max,
        VAluOp::Lsr,
        VAluOp::Asr,
    ];
    let sat_ops = [
        VAluOp::SatAdd,
        VAluOp::SatSub,
        VAluOp::SSatAdd,
        VAluOp::SSatSub,
    ];
    let fp_ops = [
        VAluOp::Add,
        VAluOp::Sub,
        VAluOp::Mul,
        VAluOp::Min,
        VAluOp::Max,
    ];

    let mut value_count = inputs.len();
    let mut ops = Vec::new();
    for _ in 0..rng.range_usize(2, 9) {
        let a = rng.range_usize(0, value_count);
        let op = if float {
            fp_ops[rng.range_usize(0, fp_ops.len())]
        } else if matches!(elem, ElemType::I8 | ElemType::I16) && chance(&mut rng, 0.25) {
            sat_ops[rng.range_usize(0, sat_ops.len())]
        } else {
            int_ops[rng.range_usize(0, int_ops.len())]
        };
        let rhs = match rng.range_usize(0, 3) {
            0 if !float => Rhs::Imm(rng.range_i64(-100, 100) as i32),
            1 => {
                let len = [1usize, 2, 4][rng.range_usize(0, 3)];
                if float {
                    Rhs::ConstF((0..len).map(|_| rng.range_f32(-2.0, 2.0)).collect())
                } else {
                    Rhs::ConstI((0..len).map(|_| rng.range_i64(-60, 60)).collect())
                }
            }
            _ => Rhs::Value(rng.range_usize(0, value_count)),
        };
        ops.push(OpSpec { op, a, rhs });
        value_count += 1;
    }

    let mid_perm = chance(&mut rng, 0.3).then_some(PermKind::Bfly { block: 4 });
    if mid_perm.is_some() {
        value_count += 1;
    }
    let reduce = chance(&mut rng, 0.5).then(|| ReduceSpec {
        op: [RedOp::Min, RedOp::Max, RedOp::Sum][rng.range_usize(0, 3)],
        target: rng.range_usize(0, value_count),
    });

    CaseSpec::Legal(LegalSpec {
        name: format!("case{index}_legal"),
        trip,
        reps,
        elem,
        inputs,
        ops,
        mid_perm,
        reduce,
        data_seed,
        inject_last: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for i in 0..32 {
            let a = generate_case(0xC0FFEE, i);
            let b = generate_case(0xC0FFEE, i);
            assert_eq!(a, b, "same seed and index must regenerate identically");
            if let CaseSpec::Legal(spec) = &a {
                spec.to_workload().expect("generated legal specs build");
            }
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = generate_case(1, 0);
        let b = generate_case(2, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn cam_miss_offsets_miss_at_every_width() {
        let mut rng = XorShift64::new(7);
        for _ in 0..16 {
            let offs = cam_missing_offsets(&mut rng);
            for (i, &o) in offs.iter().enumerate() {
                let dst = i as i32 + o;
                assert!((0..16).contains(&dst), "offset escapes the array");
            }
            for w in SUPPORTED_WIDTHS {
                assert!(PermKind::match_offsets(&offs, w).is_none());
            }
        }
    }

    #[test]
    fn illegal_draws_cover_every_shape_and_vary_its_parameters() {
        let mut seen: std::collections::BTreeMap<&str, std::collections::BTreeSet<String>> =
            std::collections::BTreeMap::new();
        for i in 0..2000 {
            if let CaseSpec::Illegal(s) = generate_case(0xC0FFEE, i) {
                let params = format!("{:?} trip {}", s.idiom, s.trip);
                seen.entry(s.idiom.keyword()).or_default().insert(params);
            }
        }
        let shapes = Idiom::ALL.iter().filter(|i| !i.is_translatable()).count();
        assert_eq!(seen.len(), shapes, "drawn shapes: {:?}", seen.keys());
        assert!(seen.contains_key("index-gather"));
        for randomized in ["strided", "gather", "oversized", "trip-skew", "wide-offset"] {
            assert!(seen[randomized].len() > 1, "{randomized} never varies");
        }
    }

    #[test]
    fn mix_contains_both_populations() {
        let (mut legal, mut illegal) = (0, 0);
        for i in 0..64 {
            match generate_case(99, i) {
                CaseSpec::Legal(_) => legal += 1,
                CaseSpec::Illegal(_) => illegal += 1,
            }
        }
        assert!(
            legal > 0 && illegal > 0,
            "{legal} legal / {illegal} illegal"
        );
    }
}
