//! Latency model for persistence instructions.
//!
//! On real hardware a `clwb` + `sfence` pair costs on the order of 100 ns
//! when the line must travel to an Optane DIMM (Izraelevitz et al., "Basic
//! Performance Measurements of the Intel Optane DC Persistent Memory
//! Module"). In our simulation the pool's memory is ordinary DRAM, so the
//! cost of persistence would otherwise be invisible and allocators that
//! flush eagerly (Makalu, PMDK) would not pay their real-world price. The
//! [`FlushModel`] injects that cost as a calibrated busy-wait.
//!
//! ## What a modeled nanosecond costs
//!
//! One, to within a clock read. [`FlushModel::spin`] waits on the time
//! stamp counter, with the tick rate and the cost of one counter read
//! measured once per process against [`Instant`] ([`Clock`]) and that
//! read cost taken off the target, so a wait of `T` takes between `T`
//! and `T` plus one read. Checked on a 2-core 2.1 GHz Xeon KVM guest
//! (10 000 calls each, release build): `spin(20)` takes 29–34 ns and
//! `spin(80)` 84–85 ns, call included, so the 100 ns Optane persist
//! costs ≈ 115 ns. The loop this replaced read `Instant` (≈ 38 ns a
//! read there) and executed `pause` (≈ 67 ns) between reads: 80 and
//! 147 ns for the same two targets, a persist charged 2.3 × what the
//! model says — which flatters exactly the allocator that persists
//! least (the ledger's traced `restart` reads `nvm.persist_line_ns −
//! nvm.persist_line_free_ns` 214–222 → 117–132 ns). The release-build test
//! `spin_charges_what_it_says` holds the mean of `spin(80)` to [80, 125] ns.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Latency charged for flush and fence events, in nanoseconds.
///
/// `FlushModel::default()` charges nothing (appropriate for unit tests and
/// crash-semantics testing, where wall-clock cost is irrelevant).
/// [`FlushModel::optane`] charges costs representative of an Optane DIMM
/// and is used by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushModel {
    /// Cost of the first `clwb` of a contiguous run of cache lines.
    pub flush_ns: u64,
    /// Cost of each *additional* adjacent line in the same run: CLWB
    /// pipelining hides most of the per-line latency, but write-back is
    /// ultimately bandwidth-bound, so long runs (whole-pool flushes,
    /// large-object persists) must not be free.
    pub pipelined_line_ns: u64,
    /// Cost of an `sfence` that must wait for outstanding write-backs.
    pub fence_ns: u64,
}

/// The spin loop's clock: the time stamp counter, calibrated once.
struct Clock {
    /// Counter ticks per nanosecond, as a 16.16 fixed-point multiplier.
    ticks_per_ns_q16: u64,
    /// Ticks one counter read takes: the loop's last read lands that
    /// long after the deadline was really met, so it comes off the target.
    read_ticks: u64,
}

#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

impl Clock {
    /// Measure the counter against [`Instant`]: the median of five
    /// ≈ 20 µs windows (an `Instant` read is tens of nanoseconds, so each
    /// rate is good to a few parts in a thousand, and a window this
    /// thread was preempted in — which would stretch every later charge
    /// of the process — is outvoted). `None` — spin on `Instant` itself —
    /// when the rate is not that of a plausible CPU (0.5–10 GHz): a
    /// counter that is emulated, stopped or rescaled under this process.
    fn calibrate() -> Option<Clock> {
        const READS: u64 = 200;
        let mut rates = [0u64; 5];
        for rate in &mut rates {
            let (t0, c0) = (Instant::now(), ticks());
            while t0.elapsed() < Duration::from_micros(20) {}
            let (ns, dc) = (t0.elapsed().as_nanos() as u64, ticks().wrapping_sub(c0));
            *rate = (dc << 16) / ns;
        }
        rates.sort_unstable();
        let ticks_per_ns_q16 = rates[rates.len() / 2];
        // A preempted batch of reads only ever looks slower: keep the best.
        let read_batch = |_| {
            let r0 = ticks();
            for _ in 0..READS {
                std::hint::black_box(ticks());
            }
            ticks().wrapping_sub(r0) / (READS + 1)
        };
        let read_ticks = (0..5).map(read_batch).min()?;
        let plausible = (1 << 15..=10 << 16).contains(&ticks_per_ns_q16);
        plausible.then_some(Clock { ticks_per_ns_q16, read_ticks })
    }
}

impl FlushModel {
    /// A model with zero cost; persistence bookkeeping only.
    pub const fn free() -> Self {
        FlushModel { flush_ns: 0, pipelined_line_ns: 0, fence_ns: 0 }
    }

    /// Latency representative of a fenced write-back to an Optane DIMM.
    ///
    /// `clwb` itself retires quickly (the write-back is asynchronous), so
    /// most of the cost lands on the fence that waits for it. The split
    /// here (20 ns for the first line + 2 ns per pipelined follower +
    /// 80 ns per fence) reproduces the ~100 ns cost of a typical one-line
    /// persist, lets adjacent-line runs pipeline, and keeps long runs
    /// bandwidth-bound (2 ns/64 B ≈ 30 GB/s), matching published Optane
    /// microbenchmarks.
    pub const fn optane() -> Self {
        FlushModel { flush_ns: 20, pipelined_line_ns: 2, fence_ns: 80 }
    }

    /// Busy-wait for `ns` nanoseconds (see the module docs for how close
    /// it comes). No `pause` in the loop: on the CPUs this runs on one
    /// `pause` outlasts the shorter charges. A thread moved between cores
    /// whose counters disagree ends its wait early, never late:
    /// the elapsed count wraps to a huge value.
    #[inline]
    pub(crate) fn spin(ns: u64) {
        static CLOCK: OnceLock<Option<Clock>> = OnceLock::new();
        if ns == 0 {
            return;
        }
        match CLOCK.get_or_init(Clock::calibrate) {
            Some(clock) => {
                let wait = ((ns * clock.ticks_per_ns_q16) >> 16).saturating_sub(clock.read_ticks);
                let start = ticks();
                while ticks().wrapping_sub(start) < wait {}
            }
            None => {
                let target = Duration::from_nanos(ns);
                let start = Instant::now();
                while start.elapsed() < target {}
            }
        }
    }

    /// Charge the cost of flushing one **contiguous run** of `lines`
    /// cache lines.
    ///
    /// Real `clwb`s of adjacent lines pipeline: the instructions retire
    /// back-to-back and their write-backs overlap, so a run of N adjacent
    /// lines costs one full line latency plus a small bandwidth-bound
    /// per-follower term — not N independent round trips. A single
    /// `flush` call always covers one contiguous range, so the charge is
    /// `flush_ns + (lines-1) * pipelined_line_ns`; the following fence
    /// still charges its full drain cost. Returns the nanoseconds charged
    /// so the pool can account them ([`crate::PmemStats`] `modeled_ns`).
    #[inline]
    pub(crate) fn charge_flush_run(&self, lines: usize) -> u64 {
        if lines == 0 {
            return 0;
        }
        let ns = self.flush_ns + self.pipelined_line_ns * (lines - 1) as u64;
        if ns != 0 {
            Self::spin(ns);
        }
        ns
    }

    /// Charge the cost of one fence. Returns the nanoseconds charged.
    #[inline]
    pub(crate) fn charge_fence(&self) -> u64 {
        if self.fence_ns != 0 {
            Self::spin(self.fence_ns);
        }
        self.fence_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_free() {
        assert_eq!(FlushModel::default(), FlushModel::free());
    }

    #[test]
    fn spin_is_monotone() {
        let t0 = Instant::now();
        FlushModel::spin(0);
        let zero = t0.elapsed();
        let t1 = Instant::now();
        FlushModel::spin(200_000); // 200us: measurable
        let some = t1.elapsed();
        assert!(some >= Duration::from_micros(150), "spin too short: {some:?}");
        assert!(zero < Duration::from_micros(150));
    }

    /// The model's whole point is that a charged nanosecond is a
    /// nanosecond; only an optimized build's loop is the one benchmarks
    /// run, so the bound is checked there.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing bound holds for the release build's loop")]
    fn spin_charges_what_it_says() {
        const N: u32 = 10_000;
        FlushModel::spin(1); // calibrate outside the timed loops
        let mean_ns = |ns: u64| {
            // The best of a few batches: another process on the core
            // only ever adds time.
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..N {
                        FlushModel::spin(std::hint::black_box(ns));
                    }
                    t0.elapsed().as_nanos() as f64 / N as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (free, eighty) = (mean_ns(0), mean_ns(80));
        assert!(free < 5.0, "spin(0) must cost nothing: {free:.1} ns");
        assert!((80.0..=125.0).contains(&eighty), "spin(80) takes {eighty:.1} ns");
    }

    #[test]
    fn optane_charges_more_than_free() {
        let m = FlushModel::optane();
        assert!(m.flush_ns > 0 && m.fence_ns > 0);
    }
}
