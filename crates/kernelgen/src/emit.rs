//! Emitters: instantiate one `(spec, trip, unroll, data_seed)` point
//! into either a [`Workload`] (translatable idioms — vector IR from
//! which the driver derives the full triple: liquid scalarized loop,
//! native vector build, gold reference) or a scalar assembly source
//! plus the abort tag the translator must hit (untranslatable idioms).

use liquid_simd_compiler::{ArrayBuilder, KernelBuilder, ReduceInit, Workload};
use liquid_simd_isa::{ElemType, VAluOp};

use crate::rng::XorShift64;
use crate::spec::{FamilySpec, Idiom};

/// What a variant lowers to.
#[derive(Clone)]
pub enum Payload {
    /// Translatable idiom: a full vector-IR workload.
    Kernel(Box<Workload>),
    /// Untranslatable idiom: scalarized assembly the translator must
    /// abort on with exactly `expected_tag`.
    Asm {
        /// Assembly source (`.data` + `.text`, `bl.v`-outlined loop).
        src: String,
        /// Stable abort tag this shape pins.
        expected_tag: &'static str,
    },
}

fn int_hi(elem: ElemType) -> i64 {
    match elem {
        ElemType::I8 => 100,
        ElemType::I16 => 1000,
        ElemType::I32 => 100_000,
        ElemType::F32 => 0,
    }
}

fn ivalues(rng: &mut XorShift64, elem: ElemType, len: usize) -> Vec<i64> {
    let hi = int_hi(elem);
    (0..len).map(|_| rng.range_i64(-hi, hi)).collect()
}

fn fvalues(rng: &mut XorShift64, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.range_f32(-8.0, 8.0)).collect()
}

/// Immediate for a constant-operand op, in a range that keeps the op
/// meaningful (shift counts small, multipliers gentle) and inside the
/// VALU immediate field.
fn imm_for(op: VAluOp, rng: &mut XorShift64) -> i32 {
    let v = match op {
        VAluOp::Mul => rng.range_i64(2, 5),
        VAluOp::And | VAluOp::Orr | VAluOp::Eor => rng.range_i64(0, 255),
        VAluOp::SatAdd | VAluOp::SatSub | VAluOp::SSatAdd | VAluOp::SSatSub => {
            rng.range_i64(1, 100)
        }
        VAluOp::Lsl | VAluOp::Lsr | VAluOp::Asr => rng.range_i64(1, 4),
        _ => rng.range_i64(-100, 100),
    };
    v as i32
}

fn fconst_for(op: VAluOp, rng: &mut XorShift64) -> f32 {
    match op {
        VAluOp::Mul => rng.range_f32(0.5, 1.5),
        _ => rng.range_f32(-4.0, 4.0),
    }
}

type Node = liquid_simd_compiler::NodeId;

/// Apply one constant-operand op to `v`.
fn const_op(
    k: &mut KernelBuilder,
    elem: ElemType,
    op: VAluOp,
    v: Node,
    rng: &mut XorShift64,
) -> Node {
    if elem == ElemType::F32 {
        let c = k.constf(vec![fconst_for(op, rng)]);
        k.bin(op, v, c)
    } else {
        k.bin_imm(op, v, imm_for(op, rng))
    }
}

/// Apply the post-chain: `ops` repeated `unroll` times, fresh
/// constants each repetition (so unroll factors change the dataflow,
/// not just duplicate it).
fn chain(
    k: &mut KernelBuilder,
    elem: ElemType,
    ops: &[VAluOp],
    unroll: u32,
    v: Node,
    rng: &mut XorShift64,
) -> Node {
    let mut v = v;
    for _ in 0..unroll {
        for &op in ops {
            v = const_op(k, elem, op, v, rng);
        }
    }
    v
}

fn reduce_init(elem: ElemType) -> ReduceInit {
    if elem == ElemType::F32 {
        ReduceInit::F32(0.0)
    } else {
        ReduceInit::Int(0)
    }
}

/// Shifting by a data value is undefined-ish; combine with `Add`
/// instead and let the shift run in the constant chain.
fn combine_op(op: VAluOp) -> VAluOp {
    match op {
        VAluOp::Lsl | VAluOp::Lsr | VAluOp::Asr => VAluOp::Add,
        other => other,
    }
}

fn finish(k: &mut KernelBuilder, spec: &FamilySpec, v: Node) {
    k.store("out", v);
    if let Some(r) = spec.reduce {
        k.reduce(r, v, "racc", reduce_init(spec.elem));
    }
}

fn build_data(
    spec: &FamilySpec,
    rng: &mut XorShift64,
    inputs: &[(&str, usize)],
    trip: u32,
) -> liquid_simd_compiler::DataEnv {
    let mut b = ArrayBuilder::new();
    for &(name, len) in inputs {
        if spec.elem == ElemType::F32 {
            b = b.f32(name, fvalues(rng, len));
        } else {
            b = b.int(name, spec.elem, ivalues(rng, spec.elem, len));
        }
    }
    b = b.zeroed("out", spec.elem, trip as usize);
    if spec.reduce.is_some() {
        let racc_elem = if spec.elem == ElemType::F32 {
            ElemType::F32
        } else {
            ElemType::I32
        };
        b = b.zeroed("racc", racc_elem, 1);
    }
    b.build()
}

fn emit_kernel(
    spec: &FamilySpec,
    name: &str,
    trip: u32,
    unroll: u32,
    rng: &mut XorShift64,
) -> Result<Workload, String> {
    let elem = spec.elem;
    let mut k = KernelBuilder::new(name, trip);
    let (v, inputs): (Node, Vec<(&str, usize)>) = match spec.idiom {
        Idiom::Map => {
            let a = k.load("in0", elem);
            let b = k.load("in1", elem);
            let v = k.bin(combine_op(spec.ops[0]), a, b);
            let v = chain(&mut k, elem, &spec.ops[1..], unroll, v, rng);
            // A leading shift op still participates, as a constant op.
            let v = if combine_op(spec.ops[0]) != spec.ops[0] {
                const_op(&mut k, elem, spec.ops[0], v, rng)
            } else {
                v
            };
            (v, vec![("in0", trip as usize), ("in1", trip as usize)])
        }
        Idiom::Stencil { taps } => {
            let mut acc: Option<Node> = None;
            for t in 0..taps {
                let x = k.load_at("in0", elem, t);
                let p = const_op(&mut k, elem, VAluOp::Mul, x, rng);
                acc = Some(match acc {
                    None => p,
                    Some(a) => k.bin(VAluOp::Add, a, p),
                });
            }
            let v = chain(
                &mut k,
                elem,
                &spec.ops,
                unroll,
                acc.expect("taps >= 2"),
                rng,
            );
            (v, vec![("in0", (trip + taps - 1) as usize)])
        }
        Idiom::Dot => {
            let a = k.load("in0", elem);
            let b = k.load("in1", elem);
            let v = k.bin(VAluOp::Mul, a, b);
            let v = chain(&mut k, elem, &spec.ops, unroll, v, rng);
            (v, vec![("in0", trip as usize), ("in1", trip as usize)])
        }
        Idiom::Permute { kind } => {
            let a = k.load_perm("in0", elem, kind);
            let b = k.load("in1", elem);
            let v = k.bin(combine_op(spec.ops[0]), a, b);
            let v = chain(&mut k, elem, &spec.ops[1..], unroll, v, rng);
            (v, vec![("in0", trip as usize), ("in1", trip as usize)])
        }
        _ => unreachable!("emit_kernel is only called for translatable idioms"),
    };
    finish(&mut k, spec, v);
    let kernel = k.build().map_err(|e| format!("{name}: {e:?}"))?;
    let data = build_data(spec, rng, &inputs, trip);
    let w = Workload::new(name, vec![kernel], data, spec.reps);
    w.validate().map_err(|e| format!("{name}: {e:?}"))?;
    Ok(w)
}

fn data_line(name: &str, values: &[i64]) -> String {
    let vals: Vec<String> = values.iter().map(i64::to_string).collect();
    format!(".i32 {name}: {}", vals.join(", "))
}

/// A random input `A` of `a_len` words and a zeroed output `B` of
/// `b_len` words.
fn a_to_b(rng: &mut XorShift64, a_len: usize, b_len: usize) -> Vec<String> {
    vec![
        data_line("A", &ivalues(rng, ElemType::I32, a_len)),
        data_line("B", &vec![0; b_len]),
    ]
}

/// One indented line per instruction.
fn code<S: AsRef<str>>(instrs: &[S]) -> String {
    instrs
        .iter()
        .map(|i| format!("    {}\n", i.as_ref()))
        .collect()
}

/// The loop most regions share: `r0` counts from 0 by `step` while it
/// is below `bound`, and `setup` runs once before the loop.
fn counted_loop(setup: &str, body: &str, step: usize, bound: usize) -> String {
    format!(
        "    mov r0, #0\n{setup}top:\n{body}    add r0, r0, #{step}\n    cmp r0, #{bound}\n    \
         blt top\n    ret\n"
    )
}

/// The gather body shared by `gather` and `wide-offset`:
/// `B[i] = A[i + off[i]]`.
const GATHER_BODY: [&str; 4] = [
    "ldw r1, [off + r0]",
    "add r1, r0, r1",
    "ldw r2, [A + r1]",
    "stw [B + r0], r2",
];

fn emit_asm(idiom: Idiom, trip: u32, rng: &mut XorShift64) -> String {
    let t = trip as usize;
    let (data, body) = match idiom {
        Idiom::Strided { stride } => {
            let n = t * stride as usize;
            let body = code(&["ldw r1, [A + r0]", "add r1, r1, #3", "stw [B + r0], r1"]);
            (
                a_to_b(rng, n, n),
                counted_loop("", &body, stride as usize, n),
            )
        }
        Idiom::Histogram => {
            // Bucket index is idx[i]+1 (the +1 launders the load's
            // value tracker, forcing the runtime-indexed classification
            // rather than a CAM lookup).
            let idx: Vec<i64> = (0..t).map(|_| rng.range_i64(-1, 14)).collect();
            let body = code(&[
                "ldw r1, [idx + r0]",
                "add r1, r1, #1",
                "ldw r2, [H + r1]",
                "add r2, r2, #1",
                "stw [H + r1], r2",
            ]);
            let data = vec![data_line("idx", &idx), data_line("H", &[0; 16])];
            (data, counted_loop("", &body, 1, t))
        }
        Idiom::IndexGather => {
            // The index is the loaded value itself: a permutation of
            // each 16-element block, so the scalar run stays in bounds.
            let idx: Vec<i64> = (0..t as i64)
                .map(|i| (i & !15) | ((i ^ rng.range_i64(1, 3)) & 15))
                .collect();
            let body = code(&["ldw r1, [idx + r0]", "ldw r2, [A + r1]", "stw [B + r0], r2"]);
            let mut data = vec![data_line("idx", &idx)];
            data.extend(a_to_b(rng, t, t));
            (data, counted_loop("", &body, 1, t))
        }
        Idiom::Scatter => {
            let splat = rng.range_i64(1, 100);
            let body = code(&["ldw r1, [A + r0]", "add r1, r1, #1", "stw [B + r0], r2"]);
            let setup = code(&[format!("mov r2, #{splat}")]);
            (a_to_b(rng, t, t), counted_loop(&setup, &body, 1, t))
        }
        Idiom::Gather { offsets } => {
            let off: Vec<i64> = (0..t).map(|i| i64::from(offsets[i % 16])).collect();
            let mut data = vec![data_line("off", &off)];
            data.extend(a_to_b(rng, t, t));
            (data, counted_loop("", &code(&GATHER_BODY), 1, t))
        }
        Idiom::CondAlu => {
            // `addge` adds zero either way; it is there purely because
            // the partial decoder only accepts unconditional data
            // processing inside the body.
            let body = code(&[
                "ldw r1, [A + r0]",
                "add r1, r1, #3",
                "addge r1, r1, #0",
                "stw [B + r0], r1",
            ]);
            (a_to_b(rng, t, t), counted_loop("", &body, 1, t))
        }
        Idiom::NestedCall => {
            let data = vec![data_line("A", &ivalues(rng, ElemType::I32, t))];
            let body = format!(
                "{}top:\n{}helper:\n{}",
                code(&["mov r13, r14", "mov r0, #0"]),
                code(&[
                    "bl helper",
                    "stw [A + r0], r1",
                    "add r0, r0, #1",
                    format!("cmp r0, #{trip}").as_str(),
                    "blt top",
                    "mov r14, r13",
                    "ret",
                ]),
                code(&["ldw r1, [A + r0]", "add r1, r1, #1", "ret"]),
            );
            (data, body)
        }
        Idiom::NoLoop => {
            let data = vec![data_line("A", &ivalues(rng, ElemType::I32, t))];
            let splat = rng.range_i64(1, 100);
            (
                data,
                code(&[
                    format!("mov r1, #{splat}").as_str(),
                    "add r1, r1, #7",
                    "ret",
                ]),
            )
        }
        Idiom::Oversized { adds } => {
            // Single-uop adds past the microcode-buffer budget on their
            // own, before the loads/stores even count.
            let data = vec![data_line("A", &ivalues(rng, ElemType::I32, t))];
            let mut body = vec!["ldw r1, [A + r0]"];
            body.extend(std::iter::repeat_n("add r1, r1, #1", adds as usize));
            body.push("stw [A + r0], r1");
            (data, counted_loop("", &code(&body), 1, t))
        }
        Idiom::TripSkew => {
            // The loop runs trip+1 iterations; the trip is even, so
            // trip+1 is odd and divides no SIMD width.
            let bound = t + 1;
            let data = vec![data_line("A", &ivalues(rng, ElemType::I32, bound))];
            let body = code(&["ldw r1, [A + r0]", "add r1, r1, #1", "stw [A + r0], r1"]);
            (data, counted_loop("", &body, 1, bound))
        }
        Idiom::BoundDrift => {
            // The induction compare claims 2*trip iterations; the r2
            // counter exits after trip. The bound the translator
            // records disagrees with the trip it observes.
            let body = format!(
                "{}top:\n{}",
                code(&["mov r2, #0", "mov r0, #0"]),
                code(&[
                    "ldw r1, [A + r0]",
                    "add r1, r1, #1",
                    "stw [B + r0], r1",
                    "add r0, r0, #1",
                    format!("cmp r0, #{}", 2 * t).as_str(),
                    "add r2, r2, #1",
                    format!("cmp r2, #{trip}").as_str(),
                    "blt top",
                    "ret",
                ]),
            );
            (a_to_b(rng, t, t), body)
        }
        Idiom::WideOffset { offset } => {
            // One offset beyond the 12-bit value-tracker range; the
            // gather target is sized so the scalar reference stays in
            // bounds.
            let wide = offset as usize;
            let off: Vec<i64> = (0..t)
                .map(|i| if i == 1 { i64::from(offset) } else { 0 })
                .collect();
            let mut data = vec![data_line("off", &off)];
            data.extend(a_to_b(rng, t + wide + 4, t));
            (data, counted_loop("", &code(&GATHER_BODY), 1, t))
        }
        Idiom::ManyLive => {
            // 13 int + 4 fp loads = 17 live vector values, one more
            // than the hardware register file (r14/r15 stay clear for
            // the link register).
            let mut data: Vec<String> = (0..13)
                .map(|i| data_line(&format!("A{i}"), &ivalues(rng, ElemType::I32, t)))
                .collect();
            for i in 0..4 {
                let v: Vec<String> = (0..t)
                    .map(|_| format!("{:?}", (rng.range_i64(-400, 400) as f32) / 100.0))
                    .collect();
                data.push(format!(".f32 F{i}: {}", v.join(", ")));
            }
            data.push(data_line("B", &vec![0; t]));
            let mut body: Vec<String> = (0..13)
                .map(|i| format!("ldw r{}, [A{i} + r0]", i + 1))
                .collect();
            body.extend((0..4).map(|i| format!("ldf f{i}, [F{i} + r0]")));
            body.push("stw [B + r0], r1".to_string());
            (data, counted_loop("", &code(&body), 1, t))
        }
        Idiom::Map | Idiom::Stencil { .. } | Idiom::Dot | Idiom::Permute { .. } => {
            unreachable!("emit_asm is only called for untranslatable idioms")
        }
    };
    format!(
        ".data\n{}\n.text\nmain:\n    bl.v body\n    halt\nbody:\n{body}",
        data.join("\n")
    )
}

/// Renders an untranslatable idiom at `trip` as a scalar program whose
/// `main` `bl.v`-calls the region once, plus the abort tag the
/// translator must report. This is the one emitter of untranslatable
/// regions: corpus variants and `conform`'s illegal cases both come
/// from here.
pub fn emit_region(
    idiom: Idiom,
    trip: u32,
    data_seed: u64,
) -> Result<(String, &'static str), String> {
    let tag = idiom
        .expected_abort()
        .ok_or_else(|| format!("idiom {} is translatable", idiom.keyword()))?;
    idiom.check(trip)?;
    Ok((emit_asm(idiom, trip, &mut XorShift64::new(data_seed)), tag))
}

/// Instantiate one grid point of a family.
pub fn emit(
    spec: &FamilySpec,
    name: &str,
    trip: u32,
    unroll: u32,
    data_seed: u64,
) -> Result<Payload, String> {
    if spec.idiom.is_translatable() {
        let mut rng = XorShift64::new(data_seed);
        Ok(Payload::Kernel(Box::new(emit_kernel(
            spec, name, trip, unroll, &mut rng,
        )?)))
    } else {
        let (src, expected_tag) = emit_region(spec.idiom, trip, data_seed)?;
        Ok(Payload::Asm { src, expected_tag })
    }
}
