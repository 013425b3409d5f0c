//! Persistence-operation counters.
//!
//! One of the paper's headline claims is that Ralloc "pays almost nothing
//! for persistence during normal operation": the typical `malloc` issues
//! *zero* flushes. These counters let tests and the ablation benchmarks
//! verify that claim quantitatively (flushes-per-operation for each
//! allocator) instead of inferring it from wall-clock time alone.
//!
//! The counters live in a [`telemetry::Registry`] (one per pool), so the
//! JSON snapshot and the soak sampler read them by name
//! (`flush_lines`, `flush_calls`, `fences`, `modeled_ns`) alongside the
//! heap's metrics. [`PmemStats`] is a thin typed view over that registry:
//! its snapshot API is unchanged, and writes go to sharded lock-free
//! counters (see [`telemetry::Counter`]). They stay on the shared write:
//! a flush or fence has no thread-owned structure in hand to hold a
//! [`telemetry::LocalBlock`], and next to a modeled charge of 20 ns or
//! more a `lock`-prefixed add does not show.

use telemetry::{Counter, Registry};

/// Monotonic counters of persistence activity on a pool. A view over the
/// pool's metric [`Registry`] — see module docs.
pub struct PmemStats {
    registry: Registry,
    flush_lines: Counter,
    flush_calls: Counter,
    fences: Counter,
    modeled_ns: Counter,
}

impl Default for PmemStats {
    fn default() -> Self {
        let registry = Registry::new();
        PmemStats {
            flush_lines: registry.counter("flush_lines"),
            flush_calls: registry.counter("flush_calls"),
            fences: registry.counter("fences"),
            modeled_ns: registry.counter("modeled_ns"),
            registry,
        }
    }
}

impl std::fmt::Debug for PmemStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemStats")
            .field("flush_lines", &self.flush_lines.get())
            .field("flush_calls", &self.flush_calls.get())
            .field("fences", &self.fences.get())
            .field("modeled_ns", &self.modeled_ns.get())
            .finish()
    }
}

/// A point-in-time copy of [`PmemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmemStatsSnapshot {
    /// Total cache lines flushed.
    pub flush_lines: u64,
    /// Total flush calls. Each call covers one contiguous line run, and
    /// the latency model charges per *run*, not per line (CLWB
    /// pipelining), so this is also the number of flush charges.
    pub flush_calls: u64,
    /// Total fences issued.
    pub fences: u64,
    /// Total nanoseconds the [`crate::FlushModel`] charged (flushes +
    /// fences). Lets tests assert charging policy without timing races.
    pub modeled_ns: u64,
}

impl PmemStats {
    pub(crate) fn record_flush(&self, lines: usize, charged_ns: u64) {
        self.flush_lines.add(lines as u64);
        self.flush_calls.inc();
        self.modeled_ns.add(charged_ns);
    }

    pub(crate) fn record_fence(&self, charged_ns: u64) {
        self.fences.inc();
        self.modeled_ns.add(charged_ns);
    }

    /// The pool's metric registry, for exporters (`pmem` scope in
    /// [`telemetry::export::to_json`] dumps).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Read all counters.
    pub fn snapshot(&self) -> PmemStatsSnapshot {
        PmemStatsSnapshot {
            flush_lines: self.flush_lines.get(),
            flush_calls: self.flush_calls.get(),
            fences: self.fences.get(),
            modeled_ns: self.modeled_ns.get(),
        }
    }

    /// Total cache lines flushed so far.
    pub fn flush_lines(&self) -> u64 {
        self.flush_lines.get()
    }

    /// Total fences so far.
    pub fn fences(&self) -> u64 {
        self.fences.get()
    }
}

impl PmemStatsSnapshot {
    /// Difference of two snapshots (self - earlier).
    pub fn since(&self, earlier: &PmemStatsSnapshot) -> PmemStatsSnapshot {
        PmemStatsSnapshot {
            flush_lines: self.flush_lines - earlier.flush_lines,
            flush_calls: self.flush_calls - earlier.flush_calls,
            fences: self.fences - earlier.fences,
            modeled_ns: self.modeled_ns - earlier.modeled_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = PmemStats::default();
        s.record_flush(3, 20);
        s.record_flush(1, 20);
        s.record_fence(80);
        let snap = s.snapshot();
        assert_eq!(snap.flush_lines, 4);
        assert_eq!(snap.flush_calls, 2);
        assert_eq!(snap.fences, 1);
        assert_eq!(snap.modeled_ns, 120);
    }

    #[test]
    fn snapshot_since() {
        let s = PmemStats::default();
        s.record_flush(2, 20);
        let a = s.snapshot();
        s.record_flush(5, 20);
        s.record_fence(80);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.flush_lines, 5);
        assert_eq!(d.flush_calls, 1);
        assert_eq!(d.fences, 1);
        assert_eq!(d.modeled_ns, 100);
    }

    #[test]
    fn registry_enumerates_the_counters() {
        let s = PmemStats::default();
        s.record_flush(3, 20);
        assert_eq!(s.registry().counter_value("flush_lines"), Some(3));
        assert_eq!(s.registry().counter_value("flush_calls"), Some(1));
        assert_eq!(s.registry().counter_value("fences"), Some(0));
    }
}
