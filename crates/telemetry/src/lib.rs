//! # telemetry — the unified observability layer
//!
//! Every measurement claim this repository makes — zero-flush fast paths,
//! one-CAS fills, millisecond recovery — is only as good as the
//! instrumentation behind it. This crate is that instrumentation, shared
//! by the allocator core, the persistence substrate, the benches, and the
//! examples:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free metric
//!   primitives. Counters are sharded over cache-line-padded relaxed
//!   atomics (no CAS, no contention between threads on different shards),
//!   and a site that holds something thread-owned counts into that
//!   thread's [`LocalBlock`] instead (a plain add on its own line);
//!   histograms are log2-bucketed with p50/p99/p999 readout.
//! * [`Registry`] — metrics registered by static name, so exporters can
//!   enumerate them without the owning struct's cooperation. One registry
//!   per heap (plus one per pmem pool): independent heaps never share
//!   counters.
//! * [`EventKind`] — the persistence-protocol event schema (grow
//!   commit/publish, shrink unpublish/decommit, recovery phases, root
//!   publish, open/close). Its one recorder is the pool's crash-surviving
//!   flight ring in the allocator core.
//! * [`export`] — a JSON snapshot over any set of registries.
//! * [`SamplerHandle`] — a background thread appending periodic snapshots
//!   to a JSONL file: the time series a soak run produces as its proof
//!   artifact. The heap's sampler writes one `telemetry_snapshot()` object
//!   per line, so a line and a snapshot share one schema.
//! * [`json`] — a minimal JSON parser so exporter round-trips can be
//!   asserted without external dependencies.
//!
//! ## Synchronization contract
//!
//! No metric write path performs a compare-and-swap: counters and
//! histograms use relaxed `fetch_add` on a per-thread shard, a
//! [`LocalBlock`] bump is a relaxed load and store by the block's one
//! writer, and gauges use plain stores. The only locks live in
//! registration (once per metric, once per thread block made or retired),
//! in reads of a slotted counter, and in the sampler's file writer — the
//! allocator meets one only when a thread's cache set is made or ends.
//! CI's "Telemetry performs no CAS" step holds this crate to that: it
//! fails if the sources name a compare-and-swap.
//!
//! The crate holds no `unsafe` code.

#![forbid(unsafe_code)]

mod event;
mod metrics;
mod registry;
mod sampler;

pub mod export;
pub mod json;

pub use event::EventKind;
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, LocalBlock};
pub use registry::{Metric, Registry};
pub use sampler::SamplerHandle;

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the process's telemetry clock origin (the
/// first call to this function). Flight-record and sampler `t_ms` fields
/// share this origin, so traces from different subsystems of one process
/// order correctly against each other.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// [`now_ns`] in milliseconds (sampler time-series resolution).
pub fn now_ms() -> u64 {
    now_ns() / 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_shared() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert!(now_ms() <= now_ns() / 1_000_000 + 1);
    }

    #[test]
    fn metric_and_journal_writes_perform_zero_cas() {
        // A storm of concurrent counter increments and histogram
        // observations loses nothing. (That the writes are CAS-free is a
        // property of the source, which CI greps.)
        let reg = Registry::new();
        let c = reg.counter("storm_counter");
        let h = reg.histogram("storm_hist");
        std::thread::scope(|s| {
            for t in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.add(1);
                        h.observe(i + t);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.snapshot().count, 40_000);
    }
}
