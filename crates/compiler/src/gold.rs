//! Reference ("gold") evaluation of kernel semantics, directly in Rust.
//!
//! Differential tests pin every code generator — and the dynamically
//! translated microcode — to this evaluator. It shares the lane semantics
//! with the simulator through [`VAluOp::specialize`] (whose lane function
//! is [`VAluOp::eval_lane`]) and `RedOp::eval_*`, so the three executables
//! and the reference cannot drift apart.
//!
//! A kernel is first resolved into a `Plan`: array names become slots,
//! every check that can fail is made once, constant vectors are computed,
//! permutations become index tables, and each value node gets a lane
//! buffer. Evaluating the plan then cannot fail, and [`run_gold`] builds one
//! plan per kernel and evaluates it once per repetition, reusing its
//! buffers.

use liquid_simd_isa::{ElemType, LaneLoop, PermKind, RedOp, VAluOp};

use crate::error::CompileError;
use crate::ir::{ArrayData, DataEnv, Kernel, Node, NodeId, ReduceInit};

fn invalid(kernel: &Kernel, reason: impl Into<String>) -> CompileError {
    CompileError::Invalid {
        kernel: kernel.name().to_string(),
        reason: reason.into(),
    }
}

fn gold(kernel: &Kernel, node: usize, reason: impl Into<String>) -> CompileError {
    CompileError::Gold {
        kernel: kernel.name().to_string(),
        node,
        reason: reason.into(),
    }
}

/// How a load turns a stored integer's canonical bit pattern into a
/// 32-bit lane.
#[derive(Clone, Copy)]
enum Widen {
    /// The low 32 bits, unchanged (unsigned, 32-bit and wide loads).
    Bits,
    /// Sign-extends the low 8 bits.
    Sext8,
    /// Sign-extends the low 16 bits.
    Sext16,
}

impl Widen {
    fn of(elem: ElemType, signed: bool) -> Widen {
        match elem {
            ElemType::I8 if signed => Widen::Sext8,
            ElemType::I16 if signed => Widen::Sext16,
            _ => Widen::Bits,
        }
    }

    fn apply(self, bits: i64) -> u32 {
        match self {
            Widen::Bits => bits as u32,
            Widen::Sext8 => bits as i8 as u32,
            Widen::Sext16 => bits as i16 as u32,
        }
    }
}

/// The array elements one access touches, in lane order.
enum Index {
    /// `array[offset + lane]`.
    Offset(usize),
    /// `array[table[lane]]` (a permuted access).
    Table(Vec<usize>),
}

impl Index {
    fn new(offset: usize, perm: Option<PermKind>, trip: usize) -> Index {
        match perm {
            None => Index::Offset(offset),
            Some(kind) => Index::Table((0..trip).map(|i| offset + permuted(kind, i)).collect()),
        }
    }
}

/// The lane a blocked permutation reads for lane `i`.
fn permuted(kind: PermKind, i: usize) -> usize {
    let b = kind.block() as usize;
    i - i % b + kind.source_index(i)
}

/// Writes `f(src[index[lane]])` to every lane of `out`.
fn gather<T: Copy>(out: &mut [u32], src: &[T], index: &Index, f: impl Fn(T) -> u32) {
    match index {
        Index::Offset(off) => {
            for (o, &x) in out.iter_mut().zip(&src[*off..]) {
                *o = f(x);
            }
        }
        Index::Table(table) => {
            for (o, &i) in out.iter_mut().zip(table) {
                *o = f(src[i]);
            }
        }
    }
}

/// Writes `f(lanes[lane])` to `dst[index[lane]]` for every lane.
fn scatter<T>(dst: &mut [T], lanes: &[u32], index: &Index, f: impl Fn(u32) -> T) {
    match index {
        Index::Offset(off) => {
            for (d, &lane) in dst[*off..].iter_mut().zip(lanes) {
                *d = f(lane);
            }
        }
        Index::Table(table) => {
            for (&i, &lane) in table.iter().zip(lanes) {
                dst[i] = f(lane);
            }
        }
    }
}

/// The second operand of an element-wise op: a node (`T` is its index
/// in a [`Step`], its lanes in a loop) or an immediate.
enum Rhs<T> {
    Lanes(T),
    Imm(u32),
}

/// The lane loop of an element-wise op, run through
/// [`VAluOp::specialize`].
struct Elementwise<'v> {
    out: &'v mut [u32],
    a: &'v [u32],
    b: Rhs<&'v [u32]>,
}

impl LaneLoop for Elementwise<'_> {
    type Output = ();

    fn run(self, lane: impl Fn(u32, u32) -> u32) {
        match self.b {
            Rhs::Lanes(b) => {
                for ((o, &x), &y) in self.out.iter_mut().zip(self.a).zip(b) {
                    *o = lane(x, y);
                }
            }
            Rhs::Imm(y) => {
                for (o, &x) in self.out.iter_mut().zip(self.a) {
                    *o = lane(x, y);
                }
            }
        }
    }
}

/// One node's work in a [`Plan`], with arrays resolved to slots (positions
/// in the environment's name order) and operands to node indices.
enum Step {
    Load {
        slot: usize,
        index: Index,
        widen: Widen,
        dst: usize,
    },
    Elementwise {
        op: VAluOp,
        elem: ElemType,
        a: usize,
        b: Rhs<usize>,
        dst: usize,
    },
    Perm {
        index: Index,
        a: usize,
        dst: usize,
    },
    Reduce {
        op: RedOp,
        a: usize,
        init: ReduceInit,
        slot: usize,
    },
    Store {
        slot: usize,
        index: Index,
        elem: ElemType,
        value: usize,
    },
}

/// A kernel resolved against one environment's array names, types and
/// lengths, ready to evaluate any number of times.
struct Plan {
    steps: Vec<Step>,
    /// One lane buffer per node: written by its step each evaluation, or
    /// once at build time for constants; empty for stores and reductions.
    lanes: Vec<Vec<u32>>,
}

/// The lanes a node reads: the earlier node `a`, which must have produced
/// a value. A dangling or not-yet-evaluated reference is a typed error.
fn operand(
    kernel: &Kernel,
    evaluated: &[bool],
    node: usize,
    a: NodeId,
) -> Result<usize, CompileError> {
    let a = a.0 as usize;
    if evaluated.get(a).copied().unwrap_or(false) {
        Ok(a)
    } else {
        Err(gold(kernel, node, format!("operand %{a} is not evaluated")))
    }
}

/// Resolves an operand's element type, with a typed error for value-less
/// nodes (stores/reductions produce no value to type).
fn operand_elem(kernel: &Kernel, node: usize, a: NodeId) -> Result<ElemType, CompileError> {
    kernel.elem_of(a).ok_or_else(|| {
        gold(
            kernel,
            node,
            format!("operand %{} has no element type", a.0),
        )
    })
}

/// Resolves an array name to its slot and declaration.
fn array<'e>(
    kernel: &Kernel,
    env: &'e DataEnv,
    name: &str,
) -> Result<(usize, &'e (ElemType, ArrayData)), CompileError> {
    env.arrays
        .iter()
        .enumerate()
        .find(|(_, (n, _))| *n == name)
        .map(|(slot, (_, decl))| (slot, decl))
        .ok_or_else(|| invalid(kernel, format!("missing array `{name}`")))
}

/// Checks that `array[offset..offset + trip]` exists.
fn check_len(
    kernel: &Kernel,
    name: &str,
    data: &ArrayData,
    trip: usize,
    off: usize,
) -> Result<(), CompileError> {
    if data.len() < trip + off {
        return Err(invalid(
            kernel,
            format!(
                "array `{name}` has {} < {} elements",
                data.len(),
                trip + off
            ),
        ));
    }
    Ok(())
}

impl Plan {
    /// Resolves `kernel` against `env`, making every check evaluation
    /// needs, in node order, so the first failing node reports its error.
    #[allow(clippy::too_many_lines)]
    fn build(kernel: &Kernel, env: &DataEnv) -> Result<Plan, CompileError> {
        let trip = kernel.trip() as usize;
        let nodes = kernel.nodes();
        let mut steps = Vec::with_capacity(nodes.len());
        let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        let mut evaluated = vec![false; nodes.len()];
        // Evaluation is whole-vector, SSA style, while the scalar loop runs
        // every node per element, so a kernel sees its own stores only for
        // earlier elements. The two agree because kernels load an array
        // before storing it and never reread stored elements; an array this
        // kernel has stored must not be loaded afterwards.
        let mut stored: Vec<&str> = Vec::new();

        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Load {
                    array: name,
                    elem,
                    signed,
                    offset,
                    wide,
                    perm,
                } => {
                    if stored.contains(&name.as_str()) {
                        return Err(invalid(
                            kernel,
                            format!("array `{name}` loaded after being stored in the same kernel"),
                        ));
                    }
                    let (slot, (decl_elem, data)) = array(kernel, env, name)?;
                    let storage_ok = if *wide {
                        decl_elem.is_float() == elem.is_float() && decl_elem.bytes() == 4
                    } else {
                        decl_elem == elem
                    };
                    if !storage_ok {
                        return Err(invalid(
                            kernel,
                            format!("array `{name}` is {decl_elem}, kernel loads {elem}"),
                        ));
                    }
                    let off = *offset as usize;
                    check_len(kernel, name, data, trip, off)?;
                    steps.push(Step::Load {
                        slot,
                        index: Index::new(off, *perm, trip),
                        // Wide reloads recover the exact 32-bit lane.
                        widen: if *wide {
                            Widen::Bits
                        } else {
                            Widen::of(*elem, *signed)
                        },
                        dst: i,
                    });
                }
                Node::ConstVecI { elem, pattern } => {
                    let widen = Widen::of(*elem, true);
                    lanes[i] = (0..trip)
                        .map(|idx| widen.apply(DataEnv::canon(*elem, pattern[idx % pattern.len()])))
                        .collect();
                }
                Node::ConstVecF { pattern } => {
                    lanes[i] = (0..trip)
                        .map(|idx| pattern[idx % pattern.len()].to_bits())
                        .collect();
                }
                Node::Bin { op, a, b } => {
                    let (ia, ib) = (
                        operand(kernel, &evaluated, i, *a)?,
                        operand(kernel, &evaluated, i, *b)?,
                    );
                    steps.push(Step::Elementwise {
                        op: *op,
                        elem: operand_elem(kernel, i, *a)?,
                        a: ia,
                        b: Rhs::Lanes(ib),
                        dst: i,
                    });
                }
                Node::BinImm { op, a, imm } => {
                    let ia = operand(kernel, &evaluated, i, *a)?;
                    steps.push(Step::Elementwise {
                        op: *op,
                        elem: operand_elem(kernel, i, *a)?,
                        a: ia,
                        b: Rhs::Imm(*imm as u32),
                        dst: i,
                    });
                }
                Node::Perm { kind, a } => {
                    let a = operand(kernel, &evaluated, i, *a)?;
                    let index = Index::new(0, Some(*kind), trip);
                    steps.push(Step::Perm { index, a, dst: i });
                }
                Node::Reduce { op, a, out, init } => {
                    let ia = operand(kernel, &evaluated, i, *a)?;
                    let float = kernel.is_float(*a);
                    match (float, *init) {
                        (true, ReduceInit::F32(_)) | (false, ReduceInit::Int(_)) => {}
                        (true, ReduceInit::Int(_)) => {
                            return Err(invalid(kernel, "fp reduction needs an f32 init"))
                        }
                        (false, ReduceInit::F32(_)) => {
                            return Err(invalid(kernel, "int reduction needs an int init"))
                        }
                    }
                    let (slot, (decl_elem, data)) = array(kernel, env, out)?;
                    let fits = matches!(
                        (init, data, decl_elem),
                        (ReduceInit::Int(_), ArrayData::Int(_), ElemType::I32)
                            | (ReduceInit::F32(_), ArrayData::F32(_), ElemType::F32)
                    );
                    if !fits {
                        return Err(invalid(
                            kernel,
                            format!("reduction output `{out}` must be i32/f32 matching the value"),
                        ));
                    }
                    if data.is_empty() {
                        return Err(invalid(kernel, format!("array `{out}` is empty")));
                    }
                    steps.push(Step::Reduce {
                        op: *op,
                        a: ia,
                        init: *init,
                        slot,
                    });
                }
                Node::Store {
                    array: name,
                    value,
                    offset,
                    wide,
                    perm,
                } => {
                    let iv = operand(kernel, &evaluated, i, *value)?;
                    let elem = operand_elem(kernel, i, *value)?;
                    let store_elem = if *wide {
                        if elem.is_float() {
                            ElemType::F32
                        } else {
                            ElemType::I32
                        }
                    } else {
                        elem
                    };
                    let (slot, (decl_elem, data)) = array(kernel, env, name)?;
                    if *decl_elem != store_elem {
                        return Err(invalid(
                            kernel,
                            format!("array `{name}` is {decl_elem}, kernel stores {store_elem}"),
                        ));
                    }
                    let off = *offset as usize;
                    check_len(kernel, name, data, trip, off)?;
                    steps.push(Step::Store {
                        slot,
                        index: Index::new(off, *perm, trip),
                        elem: store_elem,
                        value: iv,
                    });
                    if !stored.contains(&name.as_str()) {
                        stored.push(name);
                    }
                }
            }
            evaluated[i] = !matches!(node, Node::Reduce { .. } | Node::Store { .. });
            if evaluated[i] && lanes[i].is_empty() {
                lanes[i] = vec![0; trip];
            }
        }
        Ok(Plan { steps, lanes })
    }

    /// Evaluates the plan once against `arrays`, the values of the
    /// environment it was built from, in name order.
    fn eval(&mut self, arrays: &mut [&mut (ElemType, ArrayData)]) {
        for step in &self.steps {
            match step {
                Step::Load {
                    slot,
                    index,
                    widen,
                    dst,
                } => {
                    let out = &mut self.lanes[*dst];
                    match (&arrays[*slot].1, *widen) {
                        (ArrayData::Int(v), Widen::Bits) => gather(out, v, index, |x| x as u32),
                        (ArrayData::Int(v), Widen::Sext8) => {
                            gather(out, v, index, |x| Widen::Sext8.apply(x));
                        }
                        (ArrayData::Int(v), Widen::Sext16) => {
                            gather(out, v, index, |x| Widen::Sext16.apply(x));
                        }
                        (ArrayData::F32(v), _) => gather(out, v, index, f32::to_bits),
                    }
                }
                Step::Elementwise {
                    op,
                    elem,
                    a,
                    b,
                    dst,
                } => {
                    let (done, rest) = self.lanes.split_at_mut(*dst);
                    let b = match *b {
                        Rhs::Lanes(b) => Rhs::Lanes(&done[b][..]),
                        Rhs::Imm(imm) => Rhs::Imm(imm),
                    };
                    let out = &mut rest[0];
                    op.specialize(
                        *elem,
                        Elementwise {
                            out,
                            a: &done[*a],
                            b,
                        },
                    );
                }
                Step::Perm { index, a, dst } => {
                    let (done, rest) = self.lanes.split_at_mut(*dst);
                    gather(&mut rest[0], &done[*a], index, |x| x);
                }
                Step::Reduce { op, a, init, slot } => {
                    let lanes = &self.lanes[*a];
                    // The plan checked that the output's type matches `init`.
                    match (*init, &mut arrays[*slot].1) {
                        (ReduceInit::Int(init), ArrayData::Int(arr)) => {
                            let acc = lanes.iter().fold(init, |acc, &l| op.eval_i(acc, l as i32));
                            arr[0] = i64::from(acc as u32);
                        }
                        (ReduceInit::F32(init), ArrayData::F32(arr)) => {
                            arr[0] = lanes
                                .iter()
                                .fold(init, |acc, &l| op.eval_f(acc, f32::from_bits(l)));
                        }
                        _ => {}
                    }
                }
                Step::Store {
                    slot,
                    index,
                    elem,
                    value,
                } => {
                    let lanes = &self.lanes[*value];
                    match &mut arrays[*slot].1 {
                        ArrayData::Int(v) => {
                            scatter(v, lanes, index, |lane| {
                                DataEnv::canon(*elem, i64::from(lane))
                            });
                        }
                        ArrayData::F32(v) => scatter(v, lanes, index, f32::from_bits),
                    }
                }
            }
        }
    }
}

/// Evaluates one kernel against the environment, mutating stored arrays.
///
/// # Errors
///
/// Returns [`CompileError::Invalid`] for missing/mistyped/undersized arrays
/// and [`CompileError::Gold`] for malformed dataflow (a node referencing an
/// unevaluated or untyped value) — evaluation never panics, so fuzz-built
/// IR surfaces a diagnostic instead of crashing the driver. Every check
/// runs before any array is written, so on error `env` is unchanged.
pub fn eval_kernel(kernel: &Kernel, env: &mut DataEnv) -> Result<(), CompileError> {
    let mut plan = Plan::build(kernel, env)?;
    plan.eval(&mut env.arrays.values_mut().collect::<Vec<_>>());
    Ok(())
}

/// Runs a whole workload (all kernels, `reps` times) and returns the final
/// environment. Each kernel is planned once and its plan evaluated `reps`
/// times.
///
/// # Errors
///
/// Propagates the first evaluation error.
pub fn run_gold(workload: &crate::driver::Workload) -> Result<DataEnv, CompileError> {
    let mut env = workload.data.clone();
    if workload.reps == 0 {
        return Ok(env);
    }
    let mut plans = workload
        .kernels
        .iter()
        .map(|k| Plan::build(k, &env))
        .collect::<Result<Vec<_>, _>>()?;
    let mut arrays: Vec<_> = env.arrays.values_mut().collect();
    for _ in 0..workload.reps {
        for plan in &mut plans {
            plan.eval(&mut arrays);
        }
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ArrayBuilder, KernelBuilder};

    #[test]
    fn elementwise_and_reduction() {
        let mut kb = KernelBuilder::new("k", 16);
        let a = kb.load("A", ElemType::I32);
        let b = kb.bin_imm(VAluOp::Mul, a, 3);
        kb.store("B", b);
        kb.reduce(RedOp::Sum, b, "out", ReduceInit::Int(0));
        let k = kb.build().unwrap();
        let mut env = ArrayBuilder::new()
            .int("A", ElemType::I32, (1..=16).collect::<Vec<i64>>())
            .zeroed("B", ElemType::I32, 16)
            .zeroed("out", ElemType::I32, 1)
            .build();
        eval_kernel(&k, &mut env).unwrap();
        let (_, ArrayData::Int(b)) = env.get("B").unwrap() else {
            panic!("array `B` must hold integers after evaluation")
        };
        assert_eq!(b[0], 3);
        assert_eq!(b[15], 48);
        let (_, ArrayData::Int(out)) = env.get("out").unwrap() else {
            panic!("reduction output `out` must hold integers")
        };
        assert_eq!(out[0], 3 * (16 * 17 / 2));
    }

    #[test]
    fn saturation_and_narrow_width() {
        let mut kb = KernelBuilder::new("k", 16);
        let a = kb.load_u("A", ElemType::I8);
        let b = kb.bin_imm(VAluOp::SatAdd, a, 100);
        kb.store("B", b);
        let k = kb.build().unwrap();
        let mut env = ArrayBuilder::new()
            .int("A", ElemType::I8, vec![200; 16])
            .zeroed("B", ElemType::I8, 16)
            .build();
        eval_kernel(&k, &mut env).unwrap();
        let (_, ArrayData::Int(b)) = env.get("B").unwrap() else {
            panic!("array `B` must hold integers after evaluation")
        };
        assert_eq!(b[0], 255); // clamped
    }

    #[test]
    fn load_and_store_permutations_are_inverse() {
        // A load-side permutation `k` cancels against a store-side `k`:
        // the store scatters with exactly the indices the load gathered.
        let kind = PermKind::Rot { block: 4, amt: 1 };
        let mut kb = KernelBuilder::new("k", 16);
        let a = kb.load_perm("A", ElemType::I32, kind);
        kb.store_perm("B", a, kind);
        let k = kb.build().unwrap();
        let data: Vec<i64> = (0..16).collect();
        let mut env = ArrayBuilder::new()
            .int("A", ElemType::I32, data.clone())
            .zeroed("B", ElemType::I32, 16)
            .build();
        eval_kernel(&k, &mut env).unwrap();
        let (_, ArrayData::Int(b)) = env.get("B").unwrap() else {
            panic!("array `B` must hold integers after evaluation")
        };
        assert_eq!(*b, data, "perm then inverse-perm is identity");
    }

    #[test]
    fn an_unevaluated_operand_is_the_same_error_at_every_rep_count() {
        // Node 1 reads node 2, which only comes later. A second rep must
        // not find node 2's lanes left over from the first.
        let store = |value| Node::Store {
            array: "B".into(),
            value: NodeId(value),
            offset: 0,
            wide: false,
            perm: None,
        };
        let load = Node::Load {
            array: "A".into(),
            elem: ElemType::I32,
            signed: true,
            offset: 0,
            wide: false,
            perm: None,
        };
        let add = |a, imm| Node::BinImm {
            op: VAluOp::Add,
            a: NodeId(a),
            imm,
        };
        let forward = Node::Bin {
            op: VAluOp::Add,
            a: NodeId(0),
            b: NodeId(2),
        };
        let k = Kernel::unvalidated("k", 16, vec![load.clone(), forward, add(0, 1), store(1)]);
        let env = ArrayBuilder::new()
            .int("A", ElemType::I32, vec![1; 16])
            .zeroed("B", ElemType::I32, 16)
            .build();
        let want = CompileError::Gold {
            kernel: "k".into(),
            node: 1,
            reason: "operand %2 is not evaluated".into(),
        };
        assert_eq!(eval_kernel(&k, &mut env.clone()), Err(want.clone()));
        for reps in [1, 2, 3] {
            let w = crate::driver::Workload::new("w", vec![k.clone()], env.clone(), reps);
            assert_eq!(run_gold(&w), Err(want.clone()), "reps {reps}");
        }
        // So is an operand that is a store, which has no lanes.
        let k = Kernel::unvalidated("k", 16, vec![load, store(0), add(1, 1)]);
        let w = crate::driver::Workload::new("w", vec![k], env, 2);
        assert_eq!(
            run_gold(&w),
            Err(CompileError::Gold {
                kernel: "k".into(),
                node: 2,
                reason: "operand %1 is not evaluated".into(),
            })
        );
    }

    #[test]
    fn load_after_store_is_rejected_at_build() {
        let mut kb = KernelBuilder::new("k", 16);
        let a = kb.load("A", ElemType::I32);
        kb.store("A", a);
        let a2 = kb.load("A", ElemType::I32);
        kb.store("B", a2);
        assert!(kb.build().is_err(), "IR validation catches the hazard");
    }

    #[test]
    fn in_place_permuted_update_is_rejected_at_build() {
        let mut kb = KernelBuilder::new("k", 16);
        let a = kb.load_perm("A", ElemType::I32, PermKind::Bfly { block: 4 });
        kb.store("A", a);
        assert!(kb.build().is_err());
    }
}
