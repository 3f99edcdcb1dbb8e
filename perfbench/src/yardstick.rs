//! A fixed reference job that measures how fast the host runs right now.
//!
//! On a shared VM the same code's on-CPU time drifts by ±15 % from
//! minute to minute, with no steal or run-queue wait to show for it (the
//! core's frequency and its neighbours change under the guest). The
//! yardstick is a small register-machine interpreter running a fixed
//! program: branchy dispatch and scattered memory traffic like the
//! simulator's. It belongs to the benchmark, not the program, so no
//! change to the program moves it. Scaling a job's CPU time by
//! `NOMINAL_S / yardstick CPU time`, with the slices interleaved into
//! the job, cancels most of the host's drift and keeps the program's.
//! Variants with a 4 KiB or a 2 MiB footprint tracked the two batch
//! workloads no better than this 256 KiB one.

use crate::clock::thread_cpu_ns;

/// Yardstick slice CPU seconds on the reference host (a 2-vCPU x86-64
/// VM), so normalised times read as that host's seconds.
pub const NOMINAL_S: f64 = 0.005;

/// Interpreted instructions per slice.
const STEPS: u64 = 1_000_000;

/// 256 KiB of scattered loads and stores: the simulator's per-run state
/// lives in the same cache levels.
const MEM_WORDS: usize = 1 << 15;

#[derive(Clone, Copy)]
enum Op {
    Load(usize, usize),
    Store(usize, usize),
    Add(usize, usize, usize),
    Xor(usize, usize, usize),
    Shr(usize, usize, u32),
    Mul(usize, usize, usize),
    BranchOdd(usize, usize),
}

const PROGRAM: [Op; 12] = [
    Op::Mul(1, 1, 7),
    Op::Add(1, 1, 6),
    Op::Shr(2, 1, 17),
    Op::Load(3, 2),
    Op::Xor(4, 3, 1),
    Op::Store(2, 4),
    Op::Add(5, 5, 3),
    Op::BranchOdd(4, 9),
    Op::Xor(5, 5, 4),
    Op::Shr(0, 5, 3),
    Op::Load(0, 0),
    Op::Add(5, 5, 0),
];

/// Runs the reference program for `steps` instructions; returns a
/// checksum so the work cannot be optimised away.
fn interpret(steps: u64) -> u64 {
    let mut mem = vec![0u64; MEM_WORDS];
    let mut r = [0u64; 8];
    r[1] = 0x2545_F491_4F6C_DD1D;
    r[6] = 0x9E37_79B9_7F4A_7C15;
    r[7] = 0xD129_0C2F_5A31_0B27;
    let mask = MEM_WORDS as u64 - 1;
    let mut pc = 0;
    for _ in 0..steps {
        match std::hint::black_box(PROGRAM[pc]) {
            Op::Load(d, a) => r[d] = mem[(r[a] & mask) as usize],
            Op::Store(a, s) => mem[(r[a] & mask) as usize] = r[s],
            Op::Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
            Op::Xor(d, a, b) => r[d] = r[a] ^ r[b],
            Op::Shr(d, a, n) => r[d] = r[a] >> n,
            Op::Mul(d, a, b) => r[d] = r[a].wrapping_mul(r[b]),
            Op::BranchOdd(s, t) => {
                if r[s] & 1 == 1 {
                    pc = t;
                    continue;
                }
            }
        }
        pc = (pc + 1) % PROGRAM.len();
    }
    r[5] ^ mem[(r[1] & mask) as usize]
}

/// The yardstick slices run during one measured interval.
#[derive(Clone, Debug, Default)]
pub struct Slices(Vec<f64>);

impl Slices {
    /// One slice, run now.
    #[must_use]
    pub fn one() -> Slices {
        let mut s = Slices::default();
        s.run();
        s
    }

    /// Runs one slice and records its thread-CPU seconds.
    pub fn run(&mut self) {
        let t0 = thread_cpu_ns();
        std::hint::black_box(interpret(STEPS));
        self.0
            .push(thread_cpu_ns().saturating_sub(t0) as f64 * 1e-9);
    }

    /// Whether no slice has run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// CPU seconds spent in slices.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean slice CPU seconds.
    ///
    /// # Panics
    ///
    /// Panics if no slice has run.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        assert!(!self.is_empty(), "no yardstick slice was run");
        self.total_s() / self.0.len() as f64
    }

    /// Slices run so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The factor that converts this interval's CPU seconds to reference
    /// host seconds.
    #[must_use]
    pub fn factor(&self) -> f64 {
        NOMINAL_S / self.mean_s()
    }

    /// The factor for work done between slice `before - 1` and slice
    /// `before`: from those two slices where they exist, else from all.
    #[must_use]
    pub fn factor_between(&self, before: usize) -> f64 {
        let near: Vec<f64> = [before.checked_sub(1), Some(before)]
            .into_iter()
            .flatten()
            .filter_map(|i| self.0.get(i).copied())
            .collect();
        if near.is_empty() {
            return self.factor();
        }
        NOMINAL_S * near.len() as f64 / near.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_program_is_deterministic() {
        assert_eq!(interpret(10_000), interpret(10_000));
        assert_ne!(interpret(10_000), interpret(20_000));
    }

    #[test]
    fn slices_yield_a_positive_factor() {
        let mut s = Slices::one();
        s.run();
        assert!(s.total_s() > 0.0 && s.factor() > 0.0);
        assert!((s.mean_s() * 2.0 - s.total_s()).abs() < 1e-12);
    }

    #[test]
    fn local_factors_use_the_flanking_slices() {
        let s = Slices(vec![0.005, 0.010, 0.0025]);
        assert!((s.factor_between(0) - 1.0).abs() < 1e-12);
        assert!((s.factor_between(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.factor_between(3) - 2.0).abs() < 1e-12);
        assert!((s.factor_between(9) - s.factor()).abs() < 1e-12);
    }
}
