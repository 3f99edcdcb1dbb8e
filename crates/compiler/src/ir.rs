//! The vector-kernel IR: a dataflow graph over memory-resident arrays.
//!
//! Kernels model exactly the loops the paper vectorises: a
//! memory-to-memory pipeline (loads → element-wise ops / permutations →
//! stores, plus reductions into scalars), executed for `trip` elements.
//! `trip` must be a multiple of [`MAX_VECTOR_WIDTH`] — the paper's §3.1
//! alignment rule ("the application must be compiled to some maximum
//! vectorizable length").

use std::collections::BTreeMap;

use liquid_simd_isa::{ElemType, PermKind, RedOp, VAluOp, MAX_VECTOR_WIDTH};

use crate::error::CompileError;

/// Reference to a value-producing node within one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Initial value of a reduction accumulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReduceInit {
    /// Integer accumulator initial value.
    Int(i32),
    /// Floating-point accumulator initial value.
    F32(f32),
}

/// One dataflow node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Load element `i` (optionally permuted: element `src_kind(i)` of each
    /// block) of an array.
    Load {
        /// Source array name.
        array: String,
        /// Element type.
        elem: ElemType,
        /// Sign-extend narrow elements.
        signed: bool,
        /// Element offset added to the induction index (stencil neighbours,
        /// filter taps): the access reads `array[i + offset]`. The code
        /// generators realise this with an alias symbol so the scalar
        /// representation stays a plain base+induction access.
        offset: u32,
        /// Full-width (32-bit) storage access: the lane is reloaded exactly
        /// as stored, while `elem` keeps its semantic meaning for
        /// downstream ops. Only fission-inserted temporaries use this —
        /// lanes are 32-bit, so spilling them at element width would
        /// truncate.
        wide: bool,
        /// Optional blocked permutation applied while loading.
        perm: Option<PermKind>,
    },
    /// A periodic integer constant vector (lane `i` sees
    /// `pattern[i mod len]`) — paper Table 1 category 3.
    ConstVecI {
        /// Element type.
        elem: ElemType,
        /// The repeating pattern (power-of-two length).
        pattern: Vec<i64>,
    },
    /// A periodic `f32` constant vector.
    ConstVecF {
        /// The repeating pattern (power-of-two length).
        pattern: Vec<f32>,
    },
    /// Element-wise binary operation.
    Bin {
        /// Operation.
        op: VAluOp,
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
    },
    /// Element-wise operation against a small immediate (must fit the
    /// vector-immediate field, ±255) — paper Table 1 category 2.
    BinImm {
        /// Operation.
        op: VAluOp,
        /// Operand.
        a: NodeId,
        /// Immediate.
        imm: i32,
    },
    /// Mid-dataflow blocked permutation. The Liquid scalar representation
    /// cannot express this directly — fission moves it to a memory boundary
    /// (paper §3.2 and the Figure 4 example).
    Perm {
        /// Permutation kind.
        kind: PermKind,
        /// Operand.
        a: NodeId,
    },
    /// Reduce all elements into a scalar, written to `out[0]` after the
    /// loop — paper Table 1 category 4.
    Reduce {
        /// Reduction operation.
        op: RedOp,
        /// Operand.
        a: NodeId,
        /// Output array (element 0 receives the result).
        out: String,
        /// Accumulator initial value.
        init: ReduceInit,
    },
    /// Store element `i` (optionally permuted on the way out) of a value.
    Store {
        /// Destination array name.
        array: String,
        /// Value to store.
        value: NodeId,
        /// Element offset added to the induction index (`array[i + offset]`).
        offset: u32,
        /// Full-width (32-bit) storage access (see `Load::wide`).
        wide: bool,
        /// Optional blocked permutation applied while storing.
        perm: Option<PermKind>,
    },
}

/// A validated vector kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    name: String,
    trip: u32,
    nodes: Vec<Node>,
}

impl Kernel {
    /// The kernel's name (used for outlined-function labels).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element trip count.
    #[must_use]
    pub fn trip(&self) -> u32 {
        self.trip
    }

    /// The dataflow nodes, in topological (construction) order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The element type produced by a node (`None` for stores/reduces).
    #[must_use]
    pub fn elem_of(&self, id: NodeId) -> Option<ElemType> {
        match &self.nodes[id.0 as usize] {
            Node::Load { elem, .. } | Node::ConstVecI { elem, .. } => Some(*elem),
            Node::ConstVecF { .. } => Some(ElemType::F32),
            Node::Bin { a, .. } | Node::BinImm { a, .. } | Node::Perm { a, .. } => self.elem_of(*a),
            Node::Reduce { .. } | Node::Store { .. } => None,
        }
    }

    /// Whether a node's value is floating point.
    #[must_use]
    pub fn is_float(&self, id: NodeId) -> bool {
        self.elem_of(id) == Some(ElemType::F32)
    }

    /// Whether a node's lanes carry sign-extended values (drives the
    /// signedness of temporary reloads inserted by fission).
    #[must_use]
    pub fn is_signed(&self, id: NodeId) -> bool {
        match &self.nodes[id.0 as usize] {
            Node::Load { signed, .. } => *signed,
            Node::ConstVecI { .. } | Node::ConstVecF { .. } => true,
            Node::Bin { a, .. } | Node::BinImm { a, .. } | Node::Perm { a, .. } => {
                self.is_signed(*a)
            }
            Node::Reduce { .. } | Node::Store { .. } => true,
        }
    }

    /// Array names loaded by this kernel.
    #[must_use]
    pub fn inputs(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Load { array, .. } => Some(array.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Array names written by this kernel (stores and reduction outputs).
    #[must_use]
    pub fn outputs(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Store { array, .. } => Some(array.as_str()),
                Node::Reduce { out, .. } => Some(out.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Per node: `true` if it is a *uniform* constant vector (pattern
    /// length 1) whose every use is the second operand of a binary op, or
    /// the first operand of a commutative one. Such constants are
    /// loop-invariant scalars: the code generators hoist them into a scalar
    /// register before the loop and use vector-by-scalar broadcast forms
    /// inside it.
    #[must_use]
    pub fn hoistable_consts(&self) -> Vec<bool> {
        let mut hoist: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::ConstVecI { pattern, .. } => pattern.len() == 1,
                Node::ConstVecF { pattern } => pattern.len() == 1,
                _ => false,
            })
            .collect();
        for node in &self.nodes {
            match node {
                Node::Bin { op, a, b } => {
                    // `b` position is always expressible as a broadcast;
                    // `a` position only commutes into one.
                    if !op.is_commutative() {
                        hoist[a.0 as usize] = false;
                    }
                    let _ = b;
                }
                Node::BinImm { a, .. } | Node::Perm { a, .. } | Node::Reduce { a, .. } => {
                    hoist[a.0 as usize] = false;
                }
                Node::Store { value, .. } => hoist[value.0 as usize] = false,
                _ => {}
            }
        }
        // Two hoisted constants feeding the same op would leave no vector
        // operand; demote the first.
        for node in &self.nodes {
            if let Node::Bin { a, b, .. } = node {
                if hoist[a.0 as usize] && hoist[b.0 as usize] {
                    hoist[a.0 as usize] = false;
                }
            }
        }
        hoist
    }

    /// The single scalar value of a hoistable uniform constant, as the
    /// 32-bit register image the scalar code would hold (sign-extended for
    /// integers, IEEE-754 bits for floats).
    #[must_use]
    pub fn uniform_const_bits(&self, id: NodeId) -> Option<u32> {
        match &self.nodes[id.0 as usize] {
            Node::ConstVecI { elem, pattern } if pattern.len() == 1 => {
                let canon = DataEnv::canon(*elem, pattern[0]);
                let raw = canon as u64 as u32;
                Some(match elem {
                    ElemType::I8 => (raw as u8 as i8) as i32 as u32,
                    ElemType::I16 => (raw as u16 as i16) as i32 as u32,
                    _ => raw,
                })
            }
            Node::ConstVecF { pattern } if pattern.len() == 1 => Some(pattern[0].to_bits()),
            _ => None,
        }
    }

    /// Renames the kernel (used by fission to suffix sub-kernels).
    pub(crate) fn with_name(mut self, name: String) -> Kernel {
        self.name = name;
        self
    }

    /// Builds a kernel directly from parts, re-validating.
    pub(crate) fn from_parts(
        name: String,
        trip: u32,
        nodes: Vec<Node>,
    ) -> Result<Kernel, CompileError> {
        let k = Kernel { name, trip, nodes };
        k.validate()?;
        Ok(k)
    }

    /// Builds a kernel from parts *without* validation, so tests can hand
    /// the evaluators malformed dataflow.
    #[cfg(test)]
    pub(crate) fn unvalidated(name: &str, trip: u32, nodes: Vec<Node>) -> Kernel {
        Kernel {
            name: name.to_string(),
            trip,
            nodes,
        }
    }

    fn invalid(&self, reason: impl Into<String>) -> CompileError {
        CompileError::Invalid {
            kernel: self.name.clone(),
            reason: reason.into(),
        }
    }

    /// Full structural validation.
    pub(crate) fn validate(&self) -> Result<(), CompileError> {
        if self.trip == 0 || !(self.trip as usize).is_multiple_of(MAX_VECTOR_WIDTH) {
            return Err(self.invalid(format!(
                "trip {} must be a positive multiple of the maximum vector width {}",
                self.trip, MAX_VECTOR_WIDTH
            )));
        }
        let mut has_effect = false;
        for (i, node) in self.nodes.iter().enumerate() {
            let check_ref = |id: NodeId| -> Result<(), CompileError> {
                if id.0 as usize >= i {
                    return Err(self.invalid(format!("node {i} references later node {}", id.0)));
                }
                match self.nodes[id.0 as usize] {
                    Node::Store { .. } | Node::Reduce { .. } => {
                        Err(self.invalid(format!("node {i} uses a non-value node {}", id.0)))
                    }
                    _ => Ok(()),
                }
            };
            let check_perm = |kind: PermKind| -> Result<(), CompileError> {
                kind.validate().map_err(|e| self.invalid(e.to_string()))?;
                if u32::from(kind.block()) > self.trip
                    || !self.trip.is_multiple_of(u32::from(kind.block()))
                {
                    return Err(self.invalid(format!(
                        "permutation block {} vs trip {}",
                        kind.block(),
                        self.trip
                    )));
                }
                if usize::from(kind.block()) > MAX_VECTOR_WIDTH {
                    return Err(self.invalid("permutation block exceeds maximum vector width"));
                }
                Ok(())
            };
            match node {
                Node::Load { perm, .. } => {
                    if let Some(k) = perm {
                        check_perm(*k)?;
                    }
                }
                Node::ConstVecI { pattern, .. } => {
                    if pattern.is_empty()
                        || !pattern.len().is_power_of_two()
                        || pattern.len() > MAX_VECTOR_WIDTH
                    {
                        return Err(self.invalid(
                            "constant pattern length must be a power of two <= max width",
                        ));
                    }
                }
                Node::ConstVecF { pattern } => {
                    if pattern.is_empty()
                        || !pattern.len().is_power_of_two()
                        || pattern.len() > MAX_VECTOR_WIDTH
                    {
                        return Err(self.invalid(
                            "constant pattern length must be a power of two <= max width",
                        ));
                    }
                }
                Node::Bin { op, a, b } => {
                    check_ref(*a)?;
                    check_ref(*b)?;
                    let ea = self.elem_of(*a).expect("value node");
                    let eb = self.elem_of(*b).expect("value node");
                    if ea.is_float() != eb.is_float() {
                        return Err(self.invalid(format!("node {i} mixes float and int operands")));
                    }
                    if !op.valid_for(ea) {
                        return Err(self.invalid(format!("node {i}: {op} invalid for {ea}")));
                    }
                }
                Node::BinImm { op, a, imm } => {
                    check_ref(*a)?;
                    let ea = self.elem_of(*a).expect("value node");
                    if ea.is_float() {
                        return Err(self.invalid(format!(
                            "node {i}: immediate ops need integer operands (use ConstVecF)"
                        )));
                    }
                    if !op.valid_for(ea) {
                        return Err(self.invalid(format!("node {i}: {op} invalid for {ea}")));
                    }
                    if !(-256..=255).contains(imm) {
                        return Err(self.invalid(format!(
                            "node {i}: immediate {imm} outside vector-immediate range (use ConstVecI)"
                        )));
                    }
                }
                Node::Perm { kind, a } => {
                    check_ref(*a)?;
                    check_perm(*kind)?;
                }
                Node::Reduce { op, a, .. } => {
                    check_ref(*a)?;
                    let _ = op;
                    has_effect = true;
                }
                Node::Store { value, perm, .. } => {
                    check_ref(*value)?;
                    if let Some(k) = perm {
                        check_perm(*k)?;
                    }
                    has_effect = true;
                }
            }
        }
        if !has_effect {
            return Err(self.invalid("kernel has no store or reduction"));
        }
        self.validate_memory_order()
    }

    /// The scalar loop executes all nodes per element before moving to the
    /// next element, while gold evaluation is whole-vector SSA. The two
    /// agree only when no iteration can observe another iteration's write:
    /// each array is stored at most once, loads of an array precede its
    /// store, and an array that is both loaded and stored is accessed
    /// without permutation on either side.
    fn validate_memory_order(&self) -> Result<(), CompileError> {
        use std::collections::BTreeMap;
        let mut store_at: BTreeMap<&str, usize> = BTreeMap::new();
        let mut store_perm: BTreeMap<&str, bool> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Store { array, perm, .. } = node {
                if store_at.insert(array.as_str(), i).is_some() {
                    return Err(self.invalid(format!("array `{array}` stored twice")));
                }
                store_perm.insert(array.as_str(), perm.is_some());
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Load { array, perm, .. } = node {
                if let Some(&s) = store_at.get(array.as_str()) {
                    if i > s {
                        return Err(
                            self.invalid(format!("array `{array}` loaded after being stored"))
                        );
                    }
                    if perm.is_some() || store_perm[array.as_str()] {
                        return Err(self.invalid(format!(
                            "array `{array}` is updated in place with a permutation; \
                             use a separate output array"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Incremental kernel construction.
#[derive(Clone, Debug)]
pub struct KernelBuilder {
    name: String,
    trip: u32,
    nodes: Vec<Node>,
}

impl KernelBuilder {
    /// Starts a kernel over `trip` elements.
    #[must_use]
    pub fn new(name: &str, trip: u32) -> KernelBuilder {
        KernelBuilder {
            name: name.to_string(),
            trip,
            nodes: Vec::new(),
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Loads an array (sign-extending).
    pub fn load(&mut self, array: &str, elem: ElemType) -> NodeId {
        self.load_at(array, elem, 0)
    }

    /// Loads `array[i + offset]` (sign-extending) — stencil neighbours and
    /// filter taps.
    pub fn load_at(&mut self, array: &str, elem: ElemType, offset: u32) -> NodeId {
        self.push(Node::Load {
            array: array.to_string(),
            elem,
            signed: true,
            offset,
            wide: false,
            perm: None,
        })
    }

    /// Loads an array zero-extending narrow elements (pixel data).
    pub fn load_u(&mut self, array: &str, elem: ElemType) -> NodeId {
        self.load_u_at(array, elem, 0)
    }

    /// Loads `array[i + offset]` zero-extending narrow elements.
    pub fn load_u_at(&mut self, array: &str, elem: ElemType, offset: u32) -> NodeId {
        self.push(Node::Load {
            array: array.to_string(),
            elem,
            signed: false,
            offset,
            wide: false,
            perm: None,
        })
    }

    /// Loads an array through a blocked permutation.
    pub fn load_perm(&mut self, array: &str, elem: ElemType, kind: PermKind) -> NodeId {
        self.push(Node::Load {
            array: array.to_string(),
            elem,
            signed: true,
            offset: 0,
            wide: false,
            perm: Some(kind),
        })
    }

    /// A periodic integer constant vector.
    pub fn constv(&mut self, elem: ElemType, pattern: impl Into<Vec<i64>>) -> NodeId {
        self.push(Node::ConstVecI {
            elem,
            pattern: pattern.into(),
        })
    }

    /// A periodic `f32` constant vector.
    pub fn constf(&mut self, pattern: impl Into<Vec<f32>>) -> NodeId {
        self.push(Node::ConstVecF {
            pattern: pattern.into(),
        })
    }

    /// An element-wise binary op.
    pub fn bin(&mut self, op: VAluOp, a: NodeId, b: NodeId) -> NodeId {
        self.push(Node::Bin { op, a, b })
    }

    /// An element-wise op against an immediate.
    pub fn bin_imm(&mut self, op: VAluOp, a: NodeId, imm: i32) -> NodeId {
        self.push(Node::BinImm { op, a, imm })
    }

    /// A register permutation (fissioned to memory in the scalar form).
    pub fn perm(&mut self, kind: PermKind, a: NodeId) -> NodeId {
        self.push(Node::Perm { kind, a })
    }

    /// A reduction into `out[0]`.
    pub fn reduce(&mut self, op: RedOp, a: NodeId, out: &str, init: ReduceInit) {
        self.push(Node::Reduce {
            op,
            a,
            out: out.to_string(),
            init,
        });
    }

    /// Stores a value to an array.
    pub fn store(&mut self, array: &str, value: NodeId) {
        self.store_at(array, value, 0);
    }

    /// Stores a value to `array[i + offset]`.
    pub fn store_at(&mut self, array: &str, value: NodeId, offset: u32) {
        self.push(Node::Store {
            array: array.to_string(),
            value,
            offset,
            wide: false,
            perm: None,
        });
    }

    /// Stores a value through a blocked permutation.
    pub fn store_perm(&mut self, array: &str, value: NodeId, kind: PermKind) {
        self.push(Node::Store {
            array: array.to_string(),
            value,
            offset: 0,
            wide: false,
            perm: Some(kind),
        });
    }

    /// Validates and produces the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Invalid`] describing the first structural
    /// problem.
    pub fn build(self) -> Result<Kernel, CompileError> {
        let k = Kernel {
            name: self.name,
            trip: self.trip,
            nodes: self.nodes,
        };
        k.validate()?;
        Ok(k)
    }
}

// ---------------------------------------------------------------------------
// Data environment
// ---------------------------------------------------------------------------

/// Contents of one array. Integer arrays store canonical *bit patterns* in
/// `[0, 2^bits)` so that gold evaluation and simulated memory agree exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrayData {
    /// Integer elements (canonical unsigned bit patterns).
    Int(Vec<i64>),
    /// `f32` elements.
    F32(Vec<f32>),
}

impl ArrayData {
    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Int(v) => v.len(),
            ArrayData::F32(v) => v.len(),
        }
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Named arrays with element types — the memory image kernels operate on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataEnv {
    /// Arrays by name.
    pub arrays: BTreeMap<String, (ElemType, ArrayData)>,
}

impl DataEnv {
    /// Looks up an array.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&(ElemType, ArrayData)> {
        self.arrays.get(name)
    }

    /// Masks a value to an element type's canonical bit pattern.
    #[must_use]
    pub fn canon(elem: ElemType, value: i64) -> i64 {
        let bits = elem.bytes() * 8;
        if bits >= 64 {
            value
        } else {
            value & ((1i64 << bits) - 1)
        }
    }
}

/// Fluent construction of a [`DataEnv`].
#[derive(Clone, Debug, Default)]
pub struct ArrayBuilder {
    env: DataEnv,
}

impl ArrayBuilder {
    /// Starts an empty environment.
    #[must_use]
    pub fn new() -> ArrayBuilder {
        ArrayBuilder::default()
    }

    /// Adds an integer array (values canonicalised to the element width).
    #[must_use]
    pub fn int(mut self, name: &str, elem: ElemType, values: impl Into<Vec<i64>>) -> ArrayBuilder {
        assert!(!elem.is_float(), "use .f32() for float arrays");
        let values: Vec<i64> = values
            .into()
            .into_iter()
            .map(|v| DataEnv::canon(elem, v))
            .collect();
        self.env
            .arrays
            .insert(name.to_string(), (elem, ArrayData::Int(values)));
        self
    }

    /// Adds an `f32` array.
    #[must_use]
    pub fn f32(mut self, name: &str, values: impl Into<Vec<f32>>) -> ArrayBuilder {
        self.env.arrays.insert(
            name.to_string(),
            (ElemType::F32, ArrayData::F32(values.into())),
        );
        self
    }

    /// Adds a zero-filled array.
    #[must_use]
    pub fn zeroed(self, name: &str, elem: ElemType, len: usize) -> ArrayBuilder {
        if elem.is_float() {
            self.f32(name, vec![0.0; len])
        } else {
            self.int(name, elem, vec![0; len])
        }
    }

    /// Finishes the environment.
    #[must_use]
    pub fn build(self) -> DataEnv {
        self.env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_kernel() {
        let mut k = KernelBuilder::new("k", 32);
        let a = k.load("A", ElemType::I32);
        let b = k.bin_imm(VAluOp::Add, a, 5);
        k.store("B", b);
        let kernel = k.build().unwrap();
        assert_eq!(kernel.nodes().len(), 3);
        assert_eq!(kernel.elem_of(NodeId(1)), Some(ElemType::I32));
        assert_eq!(kernel.inputs(), vec!["A"]);
        assert_eq!(kernel.outputs(), vec!["B"]);
    }

    #[test]
    fn trip_must_be_aligned_to_max_width() {
        let mut k = KernelBuilder::new("k", 24); // not a multiple of 16
        let a = k.load("A", ElemType::I32);
        k.store("B", a);
        assert!(matches!(k.build(), Err(CompileError::Invalid { .. })));
    }

    #[test]
    fn effectless_kernel_rejected() {
        let mut k = KernelBuilder::new("k", 16);
        let a = k.load("A", ElemType::I32);
        let _ = k.bin_imm(VAluOp::Add, a, 1);
        assert!(k.build().is_err());
    }

    #[test]
    fn mixed_float_int_rejected() {
        let mut k = KernelBuilder::new("k", 16);
        let a = k.load("A", ElemType::I32);
        let b = k.load("B", ElemType::F32);
        let c = k.bin(VAluOp::Add, a, b);
        k.store("C", c);
        assert!(k.build().is_err());
    }

    #[test]
    fn sat_on_wide_elements_rejected() {
        let mut k = KernelBuilder::new("k", 16);
        let a = k.load("A", ElemType::I32);
        let b = k.bin_imm(VAluOp::SatAdd, a, 1);
        k.store("B", b);
        assert!(k.build().is_err());
    }

    #[test]
    fn big_immediate_rejected() {
        let mut k = KernelBuilder::new("k", 16);
        let a = k.load("A", ElemType::I32);
        let b = k.bin_imm(VAluOp::Add, a, 4096);
        k.store("B", b);
        assert!(k.build().is_err());
    }

    #[test]
    fn perm_block_must_divide_trip() {
        let mut k = KernelBuilder::new("k", 16);
        let a = k.load_perm("A", ElemType::I32, PermKind::Bfly { block: 32 });
        k.store("B", a);
        assert!(k.build().is_err());
    }

    #[test]
    fn canonicalisation_masks_to_width() {
        assert_eq!(DataEnv::canon(ElemType::I8, -1), 255);
        assert_eq!(DataEnv::canon(ElemType::I16, -2), 65534);
        assert_eq!(DataEnv::canon(ElemType::I32, -1), 0xFFFF_FFFF);
        let env = ArrayBuilder::new()
            .int("a", ElemType::I8, vec![-1, 300])
            .build();
        let (_, data) = env.get("a").unwrap();
        assert_eq!(*data, ArrayData::Int(vec![255, 44]));
    }
}
