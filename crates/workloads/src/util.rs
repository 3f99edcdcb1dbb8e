//! Deterministic synthetic input generation.
//!
//! Inputs are produced by an in-repo xorshift64* generator rather than an
//! external RNG crate, so the workspace resolves with no registry access
//! and every benchmark input is bit-stable across toolchains.

/// A small, fast, deterministic PRNG (xorshift64*). Not cryptographic —
/// it only feeds synthetic benchmark inputs and property tests.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is remapped (xorshift has a zero
    /// fixed point).
    #[must_use]
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add((self.next_u64() % span) as i64)
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next_f64() as f32) * (hi - lo)
    }

    /// A fair coin: the low bit of the next raw value.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range_usize(0, items.len())]
    }
}

/// A deterministic `f32` vector in `[lo, hi)`.
pub fn fvec(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| rng.range_f32(lo, hi)).collect()
}

/// A deterministic integer vector in `[lo, hi)` (canonicalised later by
/// the array builder).
pub fn ivec(seed: u64, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| rng.range_i64(lo, hi)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let a = fvec(7, 100, -1.0, 1.0);
        let b = fvec(7, 100, -1.0, 1.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (-1.0..1.0).contains(&x)));
        let c = ivec(9, 100, -50, 50);
        let d = ivec(9, 100, -50, 50);
        assert_eq!(c, d);
        assert!(c.iter().all(|&x| (-50..50).contains(&x)));
        assert_ne!(ivec(1, 10, 0, 100), ivec(2, 10, 0, 100));
    }

    #[test]
    fn zero_seed_is_usable() {
        let v = ivec(0, 16, 0, 10);
        assert!(v.iter().any(|&x| x != v[0]));
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = XorShift64::new(42);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
