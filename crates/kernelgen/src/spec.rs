//! Family specifications: the in-memory form of a `kernel-v1` spec
//! file. One spec describes a *family* of kernels; the expander
//! instantiates it over its `trips × unrolls` grid.

use liquid_simd_isa::{ElemType, PermKind, RedOp, VAluOp, SUPPORTED_WIDTHS};

/// The compute/memory idiom a family instantiates.
///
/// The first four idioms are translatable: they lower to vector IR
/// through `KernelBuilder` and exercise the full triple (vector IR,
/// scalarized loop, gold-native). The remaining twelve are
/// *deliberately* untranslatable shapes — each emits a scalar assembly
/// loop the translator must abort on (never mistranslate), and each one
/// pins a specific [`AbortReason`] tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Idiom {
    /// Element-wise op chain over two input arrays.
    Map,
    /// `taps`-point weighted stencil over one input array.
    Stencil {
        /// Number of taps (window width), `2..=8`.
        taps: u32,
    },
    /// Element-wise product feeding a reduction accumulator.
    Dot,
    /// A permuted load (declared [`PermKind`]) combined with a straight
    /// load — the butterfly/reverse/rotate family.
    Permute {
        /// The permutation applied to the first input.
        kind: PermKind,
    },
    /// Non-unit induction step — aborts `unsupported-shape`.
    Strided {
        /// Induction increment per iteration, `2..=8`.
        stride: u32,
    },
    /// Data-dependent read-modify-write of a bucket array — aborts
    /// `runtime-indexed-permute`.
    Histogram,
    /// Splat of a loop-invariant scalar into the output — aborts
    /// `scalar-store`.
    Scatter,
    /// Gather through an offset table that matches no hardware permute
    /// — aborts `cam-miss`.
    Gather,
    /// A predicated ALU op in the loop body; the partial decoder only
    /// accepts unconditional data processing — aborts
    /// `unsupported-opcode`.
    CondAlu,
    /// A `bl` inside the outlined region — aborts `nested-call`.
    NestedCall,
    /// A straight-line region with no backward branch — aborts
    /// `no-loop`.
    NoLoop,
    /// A loop body too large for the microcode buffer — aborts
    /// `too-many-uops`.
    Oversized,
    /// Loop bound one past the trip grid (`trip + 1` iterations), so
    /// the observed trip divides no SIMD width — aborts
    /// `trip-not-multiple`.
    TripSkew,
    /// The recorded induction bound disagrees with the trip a second
    /// counter actually enforces — aborts `bound-mismatch`.
    BoundDrift,
    /// One gather offset beyond the value tracker's range — aborts
    /// `value-too-wide`.
    WideOffset,
    /// More live vector values than the hardware register file — aborts
    /// `register-pressure`.
    ManyLive,
}

impl Idiom {
    /// True if this idiom lowers to vector IR (translatable).
    #[must_use]
    pub fn is_translatable(self) -> bool {
        matches!(
            self,
            Idiom::Map | Idiom::Stencil { .. } | Idiom::Dot | Idiom::Permute { .. }
        )
    }

    /// The abort tag an untranslatable idiom must hit (None for
    /// translatable idioms).
    #[must_use]
    pub fn expected_abort(self) -> Option<&'static str> {
        match self {
            Idiom::Strided { .. } => Some("unsupported-shape"),
            Idiom::Histogram => Some("runtime-indexed-permute"),
            Idiom::Scatter => Some("scalar-store"),
            Idiom::Gather => Some("cam-miss"),
            Idiom::CondAlu => Some("unsupported-opcode"),
            Idiom::NestedCall => Some("nested-call"),
            Idiom::NoLoop => Some("no-loop"),
            Idiom::Oversized => Some("too-many-uops"),
            Idiom::TripSkew => Some("trip-not-multiple"),
            Idiom::BoundDrift => Some("bound-mismatch"),
            Idiom::WideOffset => Some("value-too-wide"),
            Idiom::ManyLive => Some("register-pressure"),
            _ => None,
        }
    }
}

/// One parsed `kernel-v1` family specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySpec {
    /// Family name (`[a-z0-9_]+`), unique across the corpus.
    pub family: String,
    /// The idiom instantiated by every variant of the family.
    pub idiom: Idiom,
    /// Element type of the data arrays.
    pub elem: ElemType,
    /// Trip counts to instantiate (each a positive multiple of 16).
    pub trips: Vec<u32>,
    /// Chain-repetition factors to instantiate (`1..=8`).
    pub unrolls: Vec<u32>,
    /// Outer repetitions of the whole kernel per run.
    pub reps: u32,
    /// Family seed; each variant derives a decorrelated data seed.
    pub seed: u64,
    /// Op chain. For `map`/`permute` the first op combines the two
    /// inputs; the rest apply constants. For `stencil`/`dot` all ops
    /// are a post-chain after the MAC/product.
    pub ops: Vec<VAluOp>,
    /// Optional reduction of the final value into `racc`.
    pub reduce: Option<RedOp>,
}

/// Largest trip the expander accepts (keeps bench wall time bounded).
pub const MAX_TRIP: u32 = 4096;

fn float_ok(op: VAluOp) -> bool {
    matches!(
        op,
        VAluOp::Add | VAluOp::Sub | VAluOp::Mul | VAluOp::Min | VAluOp::Max
    )
}

fn sat_op(op: VAluOp) -> bool {
    matches!(
        op,
        VAluOp::SatAdd | VAluOp::SatSub | VAluOp::SSatAdd | VAluOp::SSatSub
    )
}

impl FamilySpec {
    /// Structural validation; every parsed or hand-built spec goes
    /// through here before expansion.
    pub fn validate(&self) -> Result<(), String> {
        let f = &self.family;
        if f.is_empty()
            || !f
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(format!("family name {f:?} must be non-empty [a-z0-9_]"));
        }
        if self.trips.is_empty() {
            return Err(format!("{f}: trips must be non-empty"));
        }
        for &t in &self.trips {
            if t == 0 || t % 16 != 0 || t > MAX_TRIP {
                return Err(format!(
                    "{f}: trip {t} must be a positive multiple of 16 and <= {MAX_TRIP}"
                ));
            }
        }
        if self.unrolls.is_empty() || self.unrolls.iter().any(|&u| !(1..=8).contains(&u)) {
            return Err(format!("{f}: unrolls must be non-empty, each in 1..=8"));
        }
        if !(1..=100).contains(&self.reps) {
            return Err(format!("{f}: reps {} must be in 1..=100", self.reps));
        }
        match self.idiom {
            Idiom::Map | Idiom::Permute { .. } if self.ops.is_empty() => {
                return Err(format!("{f}: map/permute idioms need at least one op"));
            }
            Idiom::Stencil { taps } if !(2..=8).contains(&taps) => {
                return Err(format!("{f}: stencil taps {taps} must be in 2..=8"));
            }
            Idiom::Dot if self.reduce.is_none() => {
                return Err(format!("{f}: dot idiom requires a reduce"));
            }
            Idiom::Permute { kind } => {
                let block = match kind {
                    PermKind::Bfly { block } | PermKind::Rev { block } => block,
                    PermKind::Rot { block, .. } => block,
                };
                let b = usize::from(block);
                if !SUPPORTED_WIDTHS.contains(&b) {
                    return Err(format!(
                        "{f}: permute block {b} must be a power of two in 2..=16"
                    ));
                }
            }
            Idiom::Strided { stride } if !(2..=8).contains(&stride) => {
                return Err(format!("{f}: stride {stride} must be in 2..=8"));
            }
            _ => {}
        }
        if self.idiom.is_translatable() {
            for &op in &self.ops {
                if self.elem == ElemType::F32 && !float_ok(op) {
                    return Err(format!("{f}: op {op:?} is not f32-capable"));
                }
                if sat_op(op) && !matches!(self.elem, ElemType::I8 | ElemType::I16) {
                    return Err(format!("{f}: saturating op {op:?} needs i8/i16"));
                }
            }
        } else {
            if self.elem != ElemType::I32 {
                return Err(format!("{f}: untranslatable idioms are i32-only"));
            }
            if self.unrolls != [1] {
                return Err(format!("{f}: untranslatable idioms take unrolls = [1]"));
            }
            if self.reps != 1 {
                return Err(format!("{f}: untranslatable idioms take reps = 1"));
            }
            if !self.ops.is_empty() || self.reduce.is_some() {
                return Err(format!("{f}: untranslatable idioms take no ops/reduce"));
            }
            if let Idiom::Strided { stride } = self.idiom {
                // The scalar loop's bound compare carries trip*stride.
                let max = liquid_simd_isa::encode::CMP_IMM_MAX as u32;
                for &t in &self.trips {
                    if t.checked_mul(stride).is_none_or(|b| b > max) {
                        return Err(format!("{f}: trip {t} x stride {stride} overflows"));
                    }
                }
            }
            if self.idiom == Idiom::Gather {
                // The miss-everything offset tile has period 4.
                for &t in &self.trips {
                    if t % 4 != 0 {
                        return Err(format!("{f}: gather trips must be multiples of 4"));
                    }
                }
            }
        }
        // Narrowest supported width must divide every trip (guaranteed
        // by the multiple-of-16 rule, but keep the invariant explicit).
        debug_assert!(self
            .trips
            .iter()
            .all(|t| SUPPORTED_WIDTHS.iter().all(|w| t % *w as u32 == 0)));
        Ok(())
    }

    /// Number of variants this spec expands to.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        self.trips.len() * self.unrolls.len()
    }
}
