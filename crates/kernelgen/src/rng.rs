//! The generator's private xorshift64* PRNG.
//!
//! This is not a copy of `workloads::util::XorShift64`: it shifts by
//! 13/7/17 where that one shifts by 12/25/27, and its ranges are
//! inclusive. Every `bench/families/` variant's data comes from this
//! stream, so switching generators would re-seed the whole corpus (and
//! `workloads` depends on this crate for `generated()`, so this crate
//! cannot depend on it).

/// Deterministic 64-bit PRNG (xorshift64*), seed 0 remapped.
pub struct XorShift64(u64);

impl XorShift64 {
    pub fn new(seed: u64) -> XorShift64 {
        // State must be non-zero; remap 0 to an arbitrary odd constant.
        XorShift64(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit as f32
    }
}

/// Per-variant seed decorrelation: the same mixer the conformance
/// generator uses, so nearby variant indices get unrelated streams.
pub fn mix(seed: u64, index: u64) -> u64 {
    (seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0xA5A5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped() {
        let mut a = XorShift64::new(0);
        let mut b = XorShift64::new(0x9E37_79B9_7F4A_7C15);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_are_inclusive_and_bounded() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            let v = r.range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            let f = r.range_f32(0.5, 1.5);
            assert!((0.5..1.5).contains(&f));
        }
    }
}
