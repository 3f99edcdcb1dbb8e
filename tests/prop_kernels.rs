//! Property-based differential testing: randomly generated kernels must
//! produce identical results through every pipeline (plain scalar, Liquid
//! untranslated, Liquid dynamically translated, built-in ISA support,
//! native SIMD) at every supported accelerator width.
//!
//! Inputs come from the in-repo xorshift generator (no registry deps);
//! every case is reproducible from its printed seed. The default run keeps
//! the case count small enough for tier-1; build with `--features fuzz`
//! for a deeper sweep.

use liquid_simd_repro::compiler::{
    ArrayBuilder, DataEnv, Kernel, KernelBuilder, ReduceInit, Workload,
};
use liquid_simd_repro::facade::verify_workload;
use liquid_simd_repro::isa::{ElemType, PermKind, RedOp, VAluOp};
use liquid_simd_repro::workloads::util::XorShift64;

const TRIP: u32 = 32;

const CASES: u64 = if cfg!(feature = "fuzz") { 256 } else { 48 };

/// `true` with probability `p`.
fn chance(rng: &mut XorShift64, p: f64) -> bool {
    rng.next_f64() < p
}

/// Builds a random but valid kernel + data environment from a seed.
fn random_workload(seed: u64) -> Workload {
    let mut rng = XorShift64::new(seed);
    let elem = [ElemType::I8, ElemType::I16, ElemType::I32, ElemType::F32][rng.range_usize(0, 4)];
    let float = elem == ElemType::F32;

    let mut k = KernelBuilder::new("prop", TRIP);
    let mut data = ArrayBuilder::new();
    let mut values = Vec::new();

    // 1-3 input arrays.
    let inputs = rng.range_usize(1, 4);
    for i in 0..inputs {
        let name = format!("in{i}");
        let perm = if chance(&mut rng, 0.3) {
            let block = [2u8, 4, 8, 16][rng.range_usize(0, 4)];
            Some(match rng.range_usize(0, 3) {
                0 => PermKind::Bfly { block },
                1 => PermKind::Rev { block },
                _ => PermKind::Rot {
                    block,
                    amt: rng.range_i64(1, i64::from(block)) as u8,
                },
            })
        } else {
            None
        };
        let id = match perm {
            Some(p) => k.load_perm(&name, elem, p),
            None if chance(&mut rng, 0.5) && !float => k.load_u(&name, elem),
            None => k.load(&name, elem),
        };
        values.push(id);
        data = if float {
            let v: Vec<f32> = (0..TRIP).map(|_| rng.range_f32(-8.0, 8.0)).collect();
            data.f32(&name, v)
        } else {
            let hi = match elem {
                ElemType::I8 => 127,
                ElemType::I16 => 2000,
                _ => 100_000,
            };
            let v: Vec<i64> = (0..TRIP).map(|_| rng.range_i64(-hi, hi)).collect();
            data.int(&name, elem, v)
        };
    }

    // A chain of 2-8 random ops.
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
    for _ in 0..rng.range_usize(2, 9) {
        let a = values[rng.range_usize(0, values.len())];
        let op = if float {
            fp_ops[rng.range_usize(0, fp_ops.len())]
        } else if matches!(elem, ElemType::I8 | ElemType::I16) && chance(&mut rng, 0.25) {
            sat_ops[rng.range_usize(0, sat_ops.len())]
        } else {
            int_ops[rng.range_usize(0, int_ops.len())]
        };
        let id = match rng.range_usize(0, 3) {
            0 if !float => k.bin_imm(op, a, rng.range_i64(-100, 100) as i32),
            1 => {
                let pattern_len = [1usize, 2, 4][rng.range_usize(0, 3)];
                let c = if float {
                    let pat: Vec<f32> =
                        (0..pattern_len).map(|_| rng.range_f32(-2.0, 2.0)).collect();
                    k.constf(pat)
                } else {
                    let pat: Vec<i64> = (0..pattern_len).map(|_| rng.range_i64(-60, 60)).collect();
                    k.constv(elem, pat)
                };
                k.bin(op, a, c)
            }
            _ => {
                let b = values[rng.range_usize(0, values.len())];
                k.bin(op, a, b)
            }
        };
        values.push(id);
    }

    // Occasionally a mid-dataflow permutation (forces fission).
    if chance(&mut rng, 0.3) {
        let a = *values.last().unwrap();
        let id = k.perm(PermKind::Bfly { block: 4 }, a);
        values.push(id);
    }

    // Outputs: always a store, sometimes a reduction.
    let out_val = *values.last().unwrap();
    k.store("out", out_val);
    data = data.zeroed("out", elem, TRIP as usize);
    if chance(&mut rng, 0.5) {
        let red = [RedOp::Min, RedOp::Max, RedOp::Sum][rng.range_usize(0, 3)];
        let target = values[rng.range_usize(0, values.len())];
        if float {
            k.reduce(red, target, "racc", ReduceInit::F32(0.0));
        } else {
            k.reduce(red, target, "racc", ReduceInit::Int(0));
        }
        data = data.zeroed("racc", if float { ElemType::F32 } else { ElemType::I32 }, 1);
    }

    let kernel: Kernel = k
        .build()
        .expect("generated kernel is valid by construction");
    let env: DataEnv = data.build();
    Workload::new(&format!("prop_{seed}"), vec![kernel], env, 2)
}

/// The heavyweight end-to-end property: all pipelines agree with gold.
#[test]
fn random_kernels_verify_everywhere() {
    for case in 0..CASES {
        let seed = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5;
        verify_workload(&random_workload(seed))
            .unwrap_or_else(|e| panic!("case {case} (seed {seed}): {e}"));
    }
}
