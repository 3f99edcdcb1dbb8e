//! Family specifications: the in-memory form of a `kernel-v1` spec
//! file. One spec describes a *family* of kernels; the expander
//! instantiates it over its `trips × unrolls` grid.

use liquid_simd_isa::{ElemType, PermKind, RedOp, VAluOp, SUPPORTED_WIDTHS};

/// The compute/memory idiom a family instantiates.
///
/// The first four idioms are translatable: they lower to vector IR
/// through `KernelBuilder` and exercise the full triple (vector IR,
/// scalarized loop, gold-native). The remaining thirteen are
/// *deliberately* untranslatable shapes — each emits a scalar assembly
/// loop the translator must abort on (never mistranslate), and each one
/// pins a specific [`AbortReason`] tag. They are the one description of
/// an untranslatable region: corpus families and `conform`'s illegal
/// cases are both drawn from them.
///
/// A parameter of an untranslatable idiom that the corpus leaves at its
/// default (the `kernel-v1` line omits it) is one `conform` randomizes.
///
/// [`AbortReason`]: Idiom::expected_abort
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
    /// A gather through a loaded index (`B[i] = A[idx[i]]`) — aborts
    /// `runtime-indexed-permute`. No corpus family uses it; `conform`
    /// draws it.
    IndexGather,
    /// Splat of a loop-invariant scalar into the output — aborts
    /// `scalar-store`.
    Scatter,
    /// Gather through an offset table that matches no hardware permute
    /// — aborts `cam-miss`.
    Gather {
        /// Per-element offsets, tiled over the trip: element `i` reads
        /// `A[i + offsets[i % 16]]`. Each `j + offsets[j]` stays in
        /// `0..16`. Default [`GATHER_TILE`].
        offsets: [i32; 16],
    },
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
    Oversized {
        /// Filler `add`s in the body, `65..=128` (past the 64-uop
        /// microcode entry on their own). Default [`OVERSIZED_ADDS`].
        adds: u32,
    },
    /// Loop bound one past the trip (`trip + 1` iterations); the trip
    /// is even, so the observed trip divides no SIMD width — aborts
    /// `trip-not-multiple`.
    TripSkew,
    /// The recorded induction bound disagrees with the trip a second
    /// counter actually enforces — aborts `bound-mismatch`.
    BoundDrift,
    /// One gather offset beyond the value tracker's range — aborts
    /// `value-too-wide`.
    WideOffset {
        /// The out-of-range offset, `2048..=4095` (past the 12-bit
        /// signed value field). Default [`WIDE_OFFSET`].
        offset: u32,
    },
    /// More live vector values than the hardware register file — aborts
    /// `register-pressure`.
    ManyLive,
}

/// The `gather` idiom's default offsets: the period-4 tile
/// `[0, 2, -1, -1]`, which matches no hardware permute pattern at any
/// supported width, so the translator's CAM lookup must miss.
pub const GATHER_TILE: [i32; 16] = [0, 2, -1, -1, 0, 2, -1, -1, 0, 2, -1, -1, 0, 2, -1, -1];

/// The `oversized` idiom's default body: 80 single-uop adds.
pub const OVERSIZED_ADDS: u32 = 80;

/// The `wide-offset` idiom's default offset — past the translator's
/// value-tracker range (2048) with margin.
pub const WIDE_OFFSET: u32 = 2500;

impl Idiom {
    /// One instance of every idiom, in declaration order. The
    /// untranslatable ones carry their default parameters: these are
    /// the canonical witnesses, one per abort shape.
    pub const ALL: [Idiom; 17] = [
        Idiom::Map,
        Idiom::Stencil { taps: 3 },
        Idiom::Dot,
        Idiom::Permute {
            kind: PermKind::Bfly { block: 4 },
        },
        Idiom::Strided { stride: 2 },
        Idiom::Histogram,
        Idiom::IndexGather,
        Idiom::Scatter,
        Idiom::Gather {
            offsets: GATHER_TILE,
        },
        Idiom::CondAlu,
        Idiom::NestedCall,
        Idiom::NoLoop,
        Idiom::Oversized {
            adds: OVERSIZED_ADDS,
        },
        Idiom::TripSkew,
        Idiom::BoundDrift,
        Idiom::WideOffset {
            offset: WIDE_OFFSET,
        },
        Idiom::ManyLive,
    ];

    /// The idiom's `kernel-v1` keyword (the first word of its `idiom`
    /// line), which also names an illegal `conform` case's family.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Idiom::Map => "map",
            Idiom::Stencil { .. } => "stencil",
            Idiom::Dot => "dot",
            Idiom::Permute { .. } => "permute",
            Idiom::Strided { .. } => "strided",
            Idiom::Histogram => "histogram",
            Idiom::IndexGather => "index-gather",
            Idiom::Scatter => "scatter",
            Idiom::Gather { .. } => "gather",
            Idiom::CondAlu => "cond-alu",
            Idiom::NestedCall => "nested-call",
            Idiom::NoLoop => "no-loop",
            Idiom::Oversized { .. } => "oversized",
            Idiom::TripSkew => "trip-skew",
            Idiom::BoundDrift => "bound-drift",
            Idiom::WideOffset { .. } => "wide-offset",
            Idiom::ManyLive => "many-live",
        }
    }

    /// True if this idiom lowers to vector IR (translatable).
    #[must_use]
    pub fn is_translatable(self) -> bool {
        self.expected_abort().is_none()
    }

    /// The abort tag an untranslatable idiom must hit (None for
    /// translatable idioms).
    #[must_use]
    pub fn expected_abort(self) -> Option<&'static str> {
        match self {
            Idiom::Map | Idiom::Stencil { .. } | Idiom::Dot | Idiom::Permute { .. } => None,
            Idiom::Strided { .. } => Some("unsupported-shape"),
            Idiom::Histogram | Idiom::IndexGather => Some("runtime-indexed-permute"),
            Idiom::Scatter => Some("scalar-store"),
            Idiom::Gather { .. } => Some("cam-miss"),
            Idiom::CondAlu => Some("unsupported-opcode"),
            Idiom::NestedCall => Some("nested-call"),
            Idiom::NoLoop => Some("no-loop"),
            Idiom::Oversized { .. } => Some("too-many-uops"),
            Idiom::TripSkew => Some("trip-not-multiple"),
            Idiom::BoundDrift => Some("bound-mismatch"),
            Idiom::WideOffset { .. } => Some("value-too-wide"),
            Idiom::ManyLive => Some("register-pressure"),
        }
    }

    /// Checks the idiom's parameters and, for an untranslatable idiom,
    /// that its region can be emitted at `trip` (`16..=MAX_TRIP`).
    pub fn check(self, trip: u32) -> Result<(), String> {
        match self {
            Idiom::Stencil { taps } if !(2..=8).contains(&taps) => {
                return Err(format!("stencil taps {taps} must be in 2..=8"));
            }
            Idiom::Permute { kind } => {
                let block = match kind {
                    PermKind::Bfly { block } | PermKind::Rev { block } => block,
                    PermKind::Rot { block, .. } => block,
                };
                let b = usize::from(block);
                if !SUPPORTED_WIDTHS.contains(&b) {
                    return Err(format!(
                        "permute block {b} must be a power of two in 2..=16"
                    ));
                }
            }
            Idiom::Strided { stride } if !(2..=8).contains(&stride) => {
                return Err(format!("stride {stride} must be in 2..=8"));
            }
            Idiom::Gather { offsets } => {
                if (0..16).any(|j| !(0..16).contains(&(j + offsets[j as usize]))) {
                    return Err(format!("gather offsets {offsets:?} leave their 16-block"));
                }
                if !trip.is_multiple_of(16) {
                    return Err(format!("gather trip {trip} must be a multiple of 16"));
                }
            }
            Idiom::Oversized { adds } if !(65..=128).contains(&adds) => {
                return Err(format!("oversized adds {adds} must be in 65..=128"));
            }
            Idiom::TripSkew if !trip.is_multiple_of(2) => {
                return Err(format!("trip-skew trip {trip} must be even"));
            }
            Idiom::WideOffset { offset } if !(2048..=4095).contains(&offset) => {
                return Err(format!("wide offset {offset} must be in 2048..=4095"));
            }
            _ => {}
        }
        if !self.is_translatable() && !(16..=MAX_TRIP).contains(&trip) {
            return Err(format!("trip {trip} must be in 16..={MAX_TRIP}"));
        }
        Ok(())
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

// The strided idiom's bound compare carries trip × stride.
const _: () = assert!(MAX_TRIP * 8 <= liquid_simd_isa::encode::CMP_IMM_MAX as u32);

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
            self.idiom.check(t).map_err(|e| format!("{f}: {e}"))?;
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
            Idiom::Dot if self.reduce.is_none() => {
                return Err(format!("{f}: dot idiom requires a reduce"));
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
