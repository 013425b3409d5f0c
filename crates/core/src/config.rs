//! Heap configuration: what a caller may choose, and which value wins.
//!
//! The one decision this module owns is **precedence**: every `RALLOC_*`
//! override the core reads is applied in [`RallocConfig::with_env`] (the
//! environment beats the field, the field beats the default), so the rest
//! of the crate reads plain fields of an already-resolved config.
//!
//! `pub(crate)` surface: [`RallocConfig::with_env`], [`ShrinkPolicy::parse`],
//! `at_close`/`at_recovery`, [`JOURNAL_CAP`].

use std::sync::Arc;

use nvm::{CrashInjector, FlushModel, Mode};

use crate::flight::FlightLevel;
use crate::shard;

/// When the heap releases its fully-free committed tail back to the OS
/// (the shrink half of the reserve/commit model). Shrink is only legal at
/// quiescent points — `used` never decreases online — so the two hooks
/// are clean [`crate::Ralloc::close`] and the end of recovery. Env override:
/// `RALLOC_SHRINK=off|close|recovery|both`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShrinkPolicy {
    /// Never shrink automatically (PR-4 monotone-frontier behavior).
    /// [`crate::Ralloc::shrink`] still works when called explicitly.
    Off,
    /// Shrink on clean close only.
    Close,
    /// Shrink at the end of recovery only.
    Recovery,
    /// Shrink at both quiescent points (the default).
    Both,
}

impl ShrinkPolicy {
    #[inline]
    pub(crate) fn at_close(self) -> bool {
        matches!(self, ShrinkPolicy::Close | ShrinkPolicy::Both)
    }

    #[inline]
    pub(crate) fn at_recovery(self) -> bool {
        matches!(self, ShrinkPolicy::Recovery | ShrinkPolicy::Both)
    }

    /// Parse an `RALLOC_SHRINK` value (pure, separately testable — unit
    /// tests must not mutate the process environment).
    pub(crate) fn parse(raw: &str) -> Option<ShrinkPolicy> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(ShrinkPolicy::Off),
            "close" => Some(ShrinkPolicy::Close),
            "recovery" => Some(ShrinkPolicy::Recovery),
            "both" | "on" | "1" => Some(ShrinkPolicy::Both),
            _ => None,
        }
    }
}

/// Configuration for creating or opening a heap.
#[derive(Clone)]
pub struct RallocConfig {
    /// Persistence simulation mode of the underlying pool.
    pub mode: Mode,
    /// Latency charged per flush/fence (benchmarks use
    /// [`FlushModel::optane`]).
    pub flush_model: FlushModel,
    /// Optional crash-point injector shared with the test harness.
    pub injector: Option<Arc<CrashInjector>>,
    /// LRMalloc mode: skip every flush and fence. This is exactly how the
    /// paper produced its LRMalloc baseline ("Ralloc without flush and
    /// fence", §6.1). A transient heap cannot be recovered.
    pub transient: bool,
    /// Partial-list shards per size class (see [`crate::shard`]). Clamped
    /// to `1..=MAX_SHARDS` at heap construction; the `RALLOC_SHARDS`
    /// environment variable overrides it (benchmarks sweep shard counts
    /// through one binary that way). Shards are transient metadata, so the
    /// same pool image can be reopened under any shard count.
    pub partial_shards: usize,
    /// Makalu-style churn policy (paper §6.3): when a full cache bin
    /// overflows, return only the *older* half to the heap instead of the
    /// whole bin. Halves the flush batch size but keeps recently-freed
    /// blocks cached, damping the refill/flush oscillation that inflates
    /// the footprint under churn.
    pub flush_half: bool,
    /// Superblock-region bytes committed at creation. `None` (default)
    /// commits the full reserved capacity upfront — the historical
    /// one-fixed-pool behavior. A smaller value makes the heap start
    /// small and grow its committed frontier on demand (cold path only).
    /// Env override: `RALLOC_INIT_CAP` (bytes, `K`/`M`/`G` suffixes ok).
    pub initial_capacity: Option<usize>,
    /// Ceiling on the superblock-region capacity: the *reserved* virtual
    /// span, fixed for the heap's life (geometry is computed from it
    /// once). `None` reserves exactly the `create` capacity argument.
    /// Env override: `RALLOC_MAX_CAP`.
    pub max_capacity: Option<usize>,
    /// When the committed frontier shrinks back (release of the trailing
    /// fully-free superblock run at quiescent points). Env override:
    /// `RALLOC_SHRINK=off|close|recovery|both`.
    pub shrink_policy: ShrinkPolicy,
    /// What the persistent flight recorder writes into the pool's
    /// crash-surviving event ring (see [`crate::flight`]). Forced to
    /// [`FlightLevel::Off`] on transient heaps (nothing persists there
    /// by definition). Env override: `RALLOC_FLIGHT=off|proto|all`.
    pub flight_level: FlightLevel,
}

impl Default for RallocConfig {
    fn default() -> Self {
        RallocConfig {
            mode: Mode::Direct,
            flush_model: FlushModel::default(),
            injector: None,
            transient: false,
            partial_shards: DEFAULT_SHARDS,
            flush_half: false,
            initial_capacity: None,
            max_capacity: None,
            shrink_policy: ShrinkPolicy::Both,
            flight_level: FlightLevel::Proto,
        }
    }
}

/// Default shard count: enough to spread the slow paths of a typical
/// thread pool without bloating the probe ring for single-thread runs.
pub const DEFAULT_SHARDS: usize = 4;

/// Event-journal capacity (events). 4096 covers minutes of slow-path
/// traffic — the journal records protocol phases, not per-malloc events.
pub(crate) const JOURNAL_CAP: usize = 4096;

impl RallocConfig {
    /// Config for crash-semantics testing: tracked pool, free flushes.
    pub fn tracked() -> Self {
        RallocConfig { mode: Mode::Tracked, ..Default::default() }
    }

    /// Config for the LRMalloc baseline.
    pub fn transient() -> Self {
        RallocConfig { transient: true, ..Default::default() }
    }

    /// This config with every environment override applied — the values
    /// the heap actually runs under. Idempotent.
    pub(crate) fn with_env(&self) -> RallocConfig {
        let var = |name: &str| std::env::var(name).ok();
        RallocConfig {
            partial_shards: shard::effective_shards(self.partial_shards) as usize,
            initial_capacity: shard::env_size("RALLOC_INIT_CAP").or(self.initial_capacity),
            max_capacity: shard::env_size("RALLOC_MAX_CAP").or(self.max_capacity),
            shrink_policy: var("RALLOC_SHRINK")
                .and_then(|v| ShrinkPolicy::parse(&v))
                .unwrap_or(self.shrink_policy),
            // Transient heaps persist nothing, so their recorder is off.
            flight_level: if self.transient {
                FlightLevel::Off
            } else {
                var("RALLOC_FLIGHT")
                    .and_then(|v| FlightLevel::parse(&v))
                    .unwrap_or(self.flight_level)
            },
            ..self.clone()
        }
    }
}
