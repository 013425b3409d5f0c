//! Seeded xorshift64* PRNG: every random choice the harness makes (kill
//! offsets, op mixes, sizes) flows from one seed, so a failing run
//! replays bit-identically from its printed `--seed`.

/// xorshift64* — tiny, fast, and plenty for fuzzing choices.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeded generator (a zero seed is remapped to a fixed non-zero
    /// constant — xorshift has a zero fixed point).
    pub fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = XorShift::new(0);
        assert_ne!(z.next_u64(), 0);
    }
}
