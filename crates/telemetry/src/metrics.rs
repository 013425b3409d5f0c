//! Metric primitives: counters, gauges, log2 histograms.
//!
//! A [`Counter`] has one write, [`Counter::add`], and one read,
//! [`Counter::get`]. The write returns nothing — a running total would
//! have to read every shard, which is exactly the cross-thread traffic
//! sharding exists to avoid.
//!
//! A counter can be written two ways, and a site picks by what it holds:
//!
//! * **Per thread** — a site that runs with a thread-owned structure in
//!   hand (the allocator's cache fill and flush, which hold the thread's
//!   cache set) counts into that thread's [`LocalBlock`]: one slot per
//!   counter on lines no other thread writes, bumped with a relaxed load
//!   and a relaxed store. The owner is the only writer, so the count is
//!   exact without a read-modify-write instruction.
//! * **Shared** — a site with nothing thread-owned in hand (recovery,
//!   shrink, large allocations, frontier growth) calls [`Counter::add`]:
//!   a `lock`-prefixed add on one of 8 padded shards. Those sites are
//!   cold; ≈ 9 ns next to a persist or a page commit is not seen.
//!
//! A read ([`Counter::get`]) is the shards plus, for a counter that has
//! a slot, what retired blocks left behind and every live block's slot,
//! taken under the registry's block lock so a block folding itself away
//! is never seen twice or not at all. Anyone may read at any time; reads
//! take a lock and touch every writer's line, so keep them off hot paths.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shards per counter/histogram-total. Increments on different shards
/// never contend on a cache line; 8 covers typical thread pools without
/// bloating per-metric memory (8 × 64 B per counter).
const SHARDS: usize = 8;

/// A cache-line-padded atomic so neighboring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PadCell(AtomicU64);

/// The calling thread's stable shard index. Tokens are handed out by a
/// process-wide counter on first use, so thread pools spread across
/// shards round-robin.
#[inline]
fn my_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Counter slots in a [`LocalBlock`]: four cache lines, enough for every
/// counter one registry hands a slot to (the heap has 24).
const LOCAL_SLOTS: usize = 32;

/// One thread's counts, read by anyone, written by its owner alone.
#[repr(align(64))]
struct Slots([AtomicU64; LOCAL_SLOTS]);

/// What a registry, its slotted counters and its blocks share: the live
/// blocks and the totals of the retired ones, under one lock so a read
/// sees every block exactly once, live or folded.
#[derive(Default)]
pub(crate) struct LocalSet(Mutex<LocalSetInner>);

#[derive(Default)]
struct LocalSetInner {
    live: Vec<Arc<Slots>>,
    folded: [u64; LOCAL_SLOTS],
}

impl LocalSet {
    fn lock(&self) -> std::sync::MutexGuard<'_, LocalSetInner> {
        // Nothing done under this lock can panic part-way, so a poisoned
        // guard (a reader's caller unwinding) still holds valid totals —
        // and `LocalBlock::drop` must not panic.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Everything ever counted into `slot`: retired blocks plus live ones.
    fn total(&self, slot: usize) -> u64 {
        let set = self.lock();
        set.live
            .iter()
            .fold(set.folded[slot], |sum, b| sum.wrapping_add(b.0[slot].load(Ordering::Relaxed)))
    }

    /// A fresh zeroed block, enlisted. Cold: once per (thread, registry).
    pub(crate) fn block(self: &Arc<LocalSet>) -> LocalBlock {
        let slots = Arc::new(Slots(std::array::from_fn(|_| AtomicU64::new(0))));
        self.lock().live.push(slots.clone());
        LocalBlock { slots, set: self.clone() }
    }
}

/// One thread's private block of counter slots, handed out by
/// [`crate::Registry::local_block`]: slot `i` belongs to the counter
/// [`crate::Registry::slotted_counter`] gave slot `i`. A bump
/// ([`LocalBlock::add`]) takes `&mut self` — the single writer is the
/// type's contract, not a convention — and is a relaxed load and store
/// on the block's own line. Dropping the block folds its counts into the
/// registry's retired totals and delists it, in one step under the lock
/// readers take, so no exit path of the owner can lose or double a
/// count.
pub struct LocalBlock {
    slots: Arc<Slots>,
    set: Arc<LocalSet>,
}

impl LocalBlock {
    /// Add `n` to `slot`.
    #[inline]
    pub fn add(&mut self, slot: usize, n: u64) {
        let cell = &self.slots.0[slot];
        cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }
}

impl Drop for LocalBlock {
    fn drop(&mut self) {
        let mut set = self.set.lock();
        for (total, cell) in set.folded.iter_mut().zip(&self.slots.0) {
            *total = total.wrapping_add(cell.load(Ordering::Relaxed));
        }
        set.live.retain(|b| !Arc::ptr_eq(b, &self.slots));
    }
}

#[derive(Default)]
struct CounterInner {
    shards: [PadCell; SHARDS],
    /// The slot this counter owns in every [`LocalBlock`] of its
    /// registry, if it was registered with one.
    local: Option<(usize, Arc<LocalSet>)>,
}

/// A monotonic counter. [`Counter::add`] is the shared write: one relaxed
/// `fetch_add` on the calling thread's cache-line-padded shard — no CAS,
/// and no cross-thread cache-line traffic unless two live threads drew
/// the same shard (tokens are round-robin `% 8`) or a reader is summing.
/// A counter registered with a slot is also written through each
/// thread's [`LocalBlock`] (see the module docs for which site uses
/// which). Reads are exact — every part only ever grows — and pull every
/// writer's line: keep them off hot paths. Cheaply cloneable; clones
/// share state.
#[derive(Clone, Default)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// A counter that owns `slot` in every block of `set`.
    pub(crate) fn with_slot(slot: usize, set: Arc<LocalSet>) -> Counter {
        assert!(slot < LOCAL_SLOTS, "a registry hands out at most {LOCAL_SLOTS} counter slots");
        Counter(Arc::new(CounterInner { shards: Default::default(), local: Some((slot, set)) }))
    }

    /// This counter's [`LocalBlock`] slot, if it has one.
    pub fn slot(&self) -> Option<usize> {
        self.0.local.as_ref().map(|(slot, _)| *slot)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.shards[my_shard()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total: the shards, plus this counter's slot in every
    /// thread block, live or retired.
    pub fn get(&self) -> u64 {
        let shared: u64 = self.0.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        match &self.0.local {
            Some((slot, set)) => shared + set.total(*slot),
            None => shared,
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A point-in-time signed value (footprint, queue depth, thread count).
/// Plain store/load — gauges are set, not accumulated.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Bucket count: one per power of two of a `u64` value, plus bucket 0 for
/// the value zero.
const BUCKETS: usize = 65;

/// The bucket holding `v`: 0 for 0, else `floor(log2 v) + 1`, so bucket
/// `b ≥ 1` covers `[2^(b-1), 2^b)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper edge of bucket `b` (the value percentile readout
/// reports for a hit in that bucket).
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum: [PadCell; SHARDS],
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: Default::default(),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, …) with p50/p99/p999 readout. A record
/// is two relaxed `fetch_add`s (bucket count, sum shard) — no
/// CAS. The log2 buckets bound any percentile's error to one octave,
/// which is the right resolution for tail-latency regression tracking
/// (a p999 regression worth chasing is a bucket jump, not a few percent).
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum[my_shard()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Record the nanoseconds elapsed since `t0`.
    #[inline]
    pub fn observe_since(&self, t0: Instant) {
        self.observe(t0.elapsed().as_nanos() as u64);
    }

    /// Time a closure and record its duration in nanoseconds.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.observe_since(t0);
        r
    }

    /// A coherent point-in-time copy. Concurrent observes may land in
    /// either side of the snapshot; totals are re-derived from the bucket
    /// copy so `count` always equals the sum of bucket counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> =
            self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        let sum = self.0.sum.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        HistSnapshot { buckets, count, sum }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram(count={}, p50={}, p99={})", s.count, s.p50(), s.p99())
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Per-bucket hit counts; bucket `b ≥ 1` covers `[2^(b-1), 2^b)`.
    pub buckets: Vec<u64>,
    /// Total samples (sum of `buckets`).
    pub count: u64,
    /// Sum of all sample values (mean = `sum / count`).
    pub sum: u64,
}

impl HistSnapshot {
    /// The value at quantile `q ∈ [0, 1]`, reported as the inclusive
    /// upper edge of the bucket containing that rank (error bounded by
    /// one octave). 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(inclusive upper edge, count)` pairs, in
    /// ascending order — the exporter form.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_upper(b), n))
            .collect()
    }

    /// A compact JSON object with count/mean/percentiles — the
    /// `latency_ns` object the bench JSONs embed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"max_bucket\": {}}}",
            self.count,
            self.mean(),
            self.p50(),
            self.p99(),
            self.p999(),
            self.percentile(1.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lies within its bucket's range.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 123_456_789] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b));
            if b > 0 {
                assert!(v > bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn histogram_percentiles_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        // Log2 buckets report the bucket's upper edge: the true
        // percentile is within one octave below the report.
        for (q, truth) in [(0.5, 500u64), (0.99, 990), (0.999, 999)] {
            let est = s.percentile(q);
            assert!(
                est >= truth && est < truth * 2,
                "q={q}: estimate {est} not within an octave above {truth}"
            );
        }
        assert_eq!(s.percentile(1.0), 1023, "max lands in the [512, 1024) bucket");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles_point_mass_and_zero() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().percentile(0.5), 0, "empty histogram reads 0");
        for _ in 0..100 {
            h.observe(0);
        }
        h.observe(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.percentile(1.0), (1 << 21) - 1);
        assert_eq!(s.nonzero_buckets().len(), 2);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let c = Counter::new();
        const THREADS: u64 = 8;
        const PER: u64 = 50_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..PER {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER, "sharded counter must lose no increments");
    }

    #[test]
    fn counter_atomicu64_surface() {
        let c = Counter::new();
        // The write half is bump-only: unlike `AtomicU64::fetch_add` it
        // must not hand back a total.
        let () = c.add(5);
        let () = c.add(2);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn gauge_sets_and_reads() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(42);
        assert_eq!(g.get(), 42);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn concurrent_histogram_counts_are_exact() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..25_000u64 {
                        h.observe(t * 1000 + i % 1000);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 100_000);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
    }
}
