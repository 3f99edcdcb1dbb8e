//! One digest over the final gold environment of every workload the repo
//! evaluates, so a change to the reference evaluator can prove it moved
//! no output bit.
//!
//! It covers `run_gold` (all kernels, all repetitions) of:
//! - the fifteen suite workloads;
//! - every translatable kernelgen corpus variant (`workloads::generated`);
//! - the legal `conform` cases that `generate_case(0xC0FFEE, 0..256)`
//!   draws, plus the saturating and reduction sweeps;
//! - an edge-lane workload that applies every valid (op, element type)
//!   pair to every pair of edge values (0, ±1, the integer bounds, and
//!   `f32` NaN, ±inf and -0.0), vector by vector and, for integers,
//!   vector by immediate.
//!
//! Each array contributes its name, element type and every element's raw
//! bits, so `-0.0` counts. Every `f32` NaN hashes as one value: Rust
//! leaves the sign and payload of a NaN result unspecified, so they may
//! differ between targets and code shapes without any semantic change.
//! A change that is meant
//! to move a gold output updates the pinned digest in the same commit and
//! says why.

use liquid_simd_repro::compiler::gold::run_gold;
use liquid_simd_repro::compiler::{ArrayBuilder, ArrayData, KernelBuilder, Workload};
use liquid_simd_repro::conform::gen::{generate_case, CaseSpec, LegalSpec};
use liquid_simd_repro::isa::{ElemType, VAluOp};
use liquid_simd_repro::serve::fnv1a;

const PINNED: u64 = 0x10e0_8a13_cbee_1cf0;

fn workloads() -> Vec<Workload> {
    let mut all = liquid_simd_repro::workloads::all();
    all.extend(liquid_simd_repro::workloads::generated());
    let mut legal: Vec<LegalSpec> = (0..256)
        .filter_map(|i| match generate_case(0xC0FFEE, i) {
            CaseSpec::Legal(spec) => Some(spec),
            CaseSpec::Illegal(_) => None,
        })
        .collect();
    legal.push(LegalSpec::sweep_sat());
    legal.push(LegalSpec::sweep_red());
    all.extend(
        legal
            .iter()
            .map(|s| s.to_workload().expect("legal case builds")),
    );
    all.push(edge_lanes());
    all
}

/// Sixteen edge values per element type. `x` crosses them with `y`
/// (`trip` 256), so each op sees every ordered pair.
fn edge_lanes() -> Workload {
    const EDGES_I: [i64; 16] = [0, 1, -1, 2, -2, 7, 31, 32, 33, 100, 0x55, -0x56, 0, 0, 0, 0];
    let edges_f: [f32; 16] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MIN_POSITIVE,
        1e-40,
        f32::MAX,
        f32::MIN,
        0.5,
        3.0,
        -2.5,
        f32::EPSILON,
    ];
    let trip = 256;
    let mut data = ArrayBuilder::new();
    let mut kernels = Vec::new();
    for elem in ElemType::ALL {
        let (x, y) = (format!("x.{elem}"), format!("y.{elem}"));
        if elem.is_float() {
            let xs: Vec<f32> = (0..trip).map(|i| edges_f[i / 16]).collect();
            let ys: Vec<f32> = (0..trip).map(|i| edges_f[i % 16]).collect();
            data = data.f32(&x, xs).f32(&y, ys);
        } else {
            let bits = elem.bytes() * 8;
            let (min, max) = (-(1i64 << (bits - 1)), (1i64 << (bits - 1)) - 1);
            let mut edges = EDGES_I;
            edges[12..].copy_from_slice(&[min, max, min + 1, max - 1]);
            let xs: Vec<i64> = (0..trip).map(|i| edges[i / 16]).collect();
            let ys: Vec<i64> = (0..trip).map(|i| edges[i % 16]).collect();
            data = data.int(&x, elem, xs).int(&y, elem, ys);
        }
        for op in VAluOp::ALL.into_iter().filter(|op| op.valid_for(elem)) {
            let out = format!("{op}.{elem}");
            let mut kb = KernelBuilder::new(&out, trip as u32);
            let a = kb.load(&x, elem);
            let b = kb.load_u(&y, elem);
            let r = kb.bin(op, a, b);
            kb.store(&out, r);
            kernels.push(kb.build().expect("valid pair builds"));
            data = data.zeroed(&out, elem, trip);
            if !elem.is_float() {
                let out = format!("{op}.{elem}.imm");
                let mut kb = KernelBuilder::new(&out, trip as u32);
                let a = kb.load(&x, elem);
                let r = kb.bin_imm(op, a, -3);
                let s = kb.bin_imm(op, r, 255);
                kb.store(&out, s);
                kernels.push(kb.build().expect("valid pair builds"));
                data = data.zeroed(&out, elem, trip);
            }
        }
    }
    Workload::new("edge-lanes", kernels, data.build(), 2)
}

fn gold_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    for w in workloads() {
        let env = run_gold(&w).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        bytes.extend_from_slice(w.name.as_bytes());
        bytes.push(b'\n');
        for (name, (elem, data)) in &env.arrays {
            bytes.extend_from_slice(format!("{name} {elem}\n").as_bytes());
            match data {
                ArrayData::Int(v) => v.iter().for_each(|x| bytes.extend(x.to_le_bytes())),
                ArrayData::F32(v) => v.iter().for_each(|x| {
                    let bits = if x.is_nan() { f32::NAN } else { *x }.to_bits();
                    bytes.extend(bits.to_le_bytes());
                }),
            }
        }
    }
    bytes
}

#[test]
fn gold_outputs_match_the_pinned_digest() {
    let digest = fnv1a(&gold_bytes());
    assert_eq!(
        digest, PINNED,
        "gold outputs changed: digest {digest:#018x}, pinned {PINNED:#018x}"
    );
}
