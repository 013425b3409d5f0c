//! # nvm — simulated byte-addressable persistent memory
//!
//! This crate is the hardware substrate for the Ralloc reproduction. The
//! paper (Cai et al., *Understanding and Optimizing Persistent Memory
//! Allocation*, 2020) runs on Intel Optane DIMMs exposed through DAX
//! `mmap`; we do not have that hardware, so this crate provides the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! * [`PmemPool`] — a large, cache-line-aligned region of byte-addressable
//!   memory with explicit [`PmemPool::flush`] (`clwb`) and
//!   [`PmemPool::fence`] (`sfence`) operations.
//! * **Direct mode** — flush/fence are compiler fences plus an optional
//!   calibrated delay ([`FlushModel`]) that models the latency of a fenced
//!   write-back to Optane. Used for performance experiments.
//! * **Tracked mode** — the pool keeps a *shadow persistent image*; a cache
//!   line reaches the shadow only when it has been explicitly flushed *and*
//!   fenced (the strict pmemcheck/Yat model). [`PmemPool::crash`] replaces
//!   the volatile image with the shadow, simulating a power failure in
//!   which every non-written-back line is lost (never torn);
//!   [`PmemPool::crash_image`] reads that image, under any
//!   [`CrashStyle`], without causing the failure. Used for crash-recovery
//!   testing.
//! * [`CrashInjector`] — fires (a panic, or a `SIGKILL`) at a chosen
//!   persistence event (flush, fence, commit or decommit). On a tracked
//!   pool the fire also freezes the crash image, so a crash point is one
//!   power failure however many threads keep running; `crashtest`'s
//!   driver sweeps every event of a run with it.
//!
//! [`PmemPool::map_file`] stands in for a DAX file system segment: the
//! pool *is* a `MAP_SHARED` file, so every store reaches the page cache
//! and survives the death of the process with no save step. A simulated
//! pool's way out is [`PmemPool::persistent_image`], the shadow image
//! (what real NVM would contain after a power failure).
//!
//! ## Memory model caveats (documented deviations)
//!
//! * A fence applies **all** pending flushes, not only the fencing
//!   thread's. This is slightly more optimistic than `sfence` (which only
//!   orders the issuing CPU's write-backs), but it never persists a line
//!   that was not flushed, which is the property recoverability depends on.
//! * Real caches may write back dirty lines spontaneously (eviction), so a
//!   crash can persist *more* than what was flushed. [`CrashStyle::RandomEviction`]
//!   models this for adversarial testing.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod crash;
mod flush;
mod pool;
mod stats;
pub mod sys;

pub use crash::{CrashInjector, CrashPoint};
pub use flush::FlushModel;
pub use pool::{CrashStyle, Mode, PmemPool, PoolGuard};
pub use stats::PmemStats;

/// Cache line size assumed throughout: flush granularity, descriptor
/// padding, and the unit of atomicity for crash simulation (writes-back at
/// cache-line granularity are never torn; see paper §2.1).
pub const CACHE_LINE: usize = 64;

/// Round `n` down to a cache-line boundary.
#[inline]
pub const fn line_down(n: usize) -> usize {
    n & !(CACHE_LINE - 1)
}

/// Round `n` up to a cache-line boundary.
#[inline]
pub const fn line_up(n: usize) -> usize {
    (n + CACHE_LINE - 1) & !(CACHE_LINE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounding() {
        assert_eq!(line_down(0), 0);
        assert_eq!(line_down(63), 0);
        assert_eq!(line_down(64), 64);
        assert_eq!(line_down(127), 64);
        assert_eq!(line_up(0), 0);
        assert_eq!(line_up(1), 64);
        assert_eq!(line_up(64), 64);
        assert_eq!(line_up(65), 128);
    }
}
