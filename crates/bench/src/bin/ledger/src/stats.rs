//! Order statistics and the ledger's own latency histogram.
//!
//! The allocator's `telemetry::Histogram` has log2 buckets, which report
//! the fast path as "p50 = p99 = 63 ns". Latency here goes through
//! [`LinHist`]: every power-of-two range is cut into 32 linear sub-bins
//! (≤ 3.1 % relative width), values below 32 are exact, and percentiles
//! interpolate inside the bin so a reported p99 is a continuous quantity
//! rather than a bin edge.

/// Median of `v` (0.0 for an empty slice, so a skipped phase prints as 0).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) computes them — the benchmark contract's
/// spread is defined on that function, so `--repeat` must agree with it.
/// Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the contract's spread.
pub fn rel_iqr(v: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Exact bins for `0..SUB`, then 32 sub-bins for each exponent 5..=63.
const BINS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Histogram of `u64` samples (nanoseconds) with linear sub-bins.
#[derive(Clone)]
pub struct LinHist {
    bins: Vec<u64>,
    count: u64,
    max: u64,
    sum: u64,
}

impl Default for LinHist {
    fn default() -> Self {
        LinHist {
            bins: vec![0; BINS],
            count: 0,
            max: 0,
            sum: 0,
        }
    }
}

impl LinHist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
        SUB + (e - SUB_BITS) as usize * SUB + sub
    }

    /// `(lowest value, width)` of bin `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let shift = ((i - SUB) / SUB) as u32;
        (((SUB + (i - SUB) % SUB) as u64) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.bins[Self::index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum += v;
    }

    pub fn merge(&mut self, other: &LinHist) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q` quantile (`0.0..=1.0`), interpolated linearly inside its
    /// bin and never above the largest sample. 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            if n > 0 && (below + n) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                let inside = ((rank - below as f64) / n as f64).clamp(0.0, 1.0);
                return (lo as f64 + inside * width as f64).min(self.max as f64);
            }
            below += n;
        }
        self.max as f64
    }

    /// Sum of all samples whose bin starts at or above `floor`, as a share
    /// of the sum of all samples (bin midpoints stand in for the samples).
    pub fn mass_share_above(&self, floor: f64) -> f64 {
        let (mut above, mut total) = (0.0, 0.0);
        for (i, &n) in self.bins.iter().enumerate().filter(|(_, &n)| n > 0) {
            let (lo, width) = Self::bounds(i);
            let mass = (lo as f64 + (width - 1) as f64 / 2.0) * n as f64;
            total += mass;
            if lo as f64 >= floor {
                above += mass;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            above / total
        }
    }
}

/// xorshift64* — the ledger's only random source, so `--seed` fixes every
/// generated input.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`: every worker and phase gets its own
    /// lane so teams under comparison replay identical inputs.
    pub fn new(seed: u64, lane: u64) -> Rng {
        // splitmix64 of the pair: adjacent seeds must not give correlated
        // streams, and the xorshift state must never be zero.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((rel_iqr(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_are_contiguous_and_within_three_percent() {
        let mut next = 0u64;
        for i in 0..BINS - 1 {
            let (lo, width) = LinHist::bounds(i);
            assert_eq!(
                lo,
                next,
                "bin {i} must start where bin {} ended",
                i.max(1) - 1
            );
            assert_eq!(LinHist::index(lo), i);
            assert_eq!(LinHist::index(lo + width - 1), i);
            assert!(lo < 32 || width as f64 / lo as f64 <= 1.0 / 32.0);
            next = lo + width;
        }
        assert_eq!(LinHist::index(u64::MAX), BINS - 1);
    }

    #[test]
    fn histogram_percentiles_interpolate_and_respect_max() {
        let mut h = LinHist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        for (q, want) in [(0.5, 500.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.032, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.quantile(1.0), 1000.0);
        let mut other = LinHist::default();
        other.record(5000);
        h.merge(&other);
        assert_eq!((h.count(), h.max(), h.sum()), (1001, 5000, 500_500 + 5000));
        assert_eq!(LinHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn mass_share_counts_only_the_slow_tail() {
        let mut h = LinHist::default();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(910);
        }
        // 10 × 910 of 10 000 total, within bin resolution.
        assert!((h.mass_share_above(40.0) - 0.91).abs() < 0.01);
        assert_eq!(h.mass_share_above(1e9), 0.0);
    }

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_per_lane() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next()
        })
        .take(4)
        .collect();
        let mut again = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == again.next()));
        assert_ne!(a[0], Rng::new(7, 2).next());
        assert_ne!(a[0], Rng::new(8, 1).next());
        let u = Rng::new(1, 0).unit();
        assert!((0.0..1.0).contains(&u));
    }
}
