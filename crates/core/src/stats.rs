//! Slow-path counters: the heap's named view of its metric registry.
//!
//! The one decision this module owns is the **metric names**: every
//! [`SlowStats`] field is a [`telemetry::Counter`] registered under its
//! field name, so exporters, the sampler and the ledger enumerate the
//! same counters through the [`Registry`] without going through this
//! struct. The fast path counts nothing.
//!
//! Who writes where is decided by what the site holds. A fill or a flush
//! runs with the thread's cache set in hand and counts into the
//! [`ThreadStats`] block that lives in it: one [`Slot`] per field name, a
//! relaxed load and store on a line only that thread writes (a fill's
//! four bumps as `lock`-prefixed adds on four of the heap's lines cost
//! more than the list pop and anchor CAS they counted). An event with
//! no flush in it and no cache set in hand (large allocations, frontier
//! growth and shrink) bumps the shared [`Counter`]: cold, and not seen
//! next to a persist. A read sums both kinds and is exact at any moment,
//! from any thread ([`telemetry::LocalBlock`]).
//!
//! `pub(crate)` surface: [`SlowStats::registered`], [`ThreadStats`],
//! [`Slot`].

use telemetry::{Counter, LocalBlock, Registry};

/// Declares [`SlowStats`] and [`Slot`]: one [`Counter`] per listed name,
/// registered under exactly that name, and one block slot of that name —
/// a field, its metric and its slot cannot drift apart.
macro_rules! slow_stats {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Slow-path event counters (diagnostics; the fast path counts nothing).
        ///
        /// The fill/flush pairs make the batching observable: `cache_fills` /
        /// `cache_fill_blocks` say how many refills ran and how many blocks they
        /// moved in bulk; `fill_anchor_cas` says how many anchor CASes that cost
        /// (one per superblock reserved, *not* one per block). Symmetrically for
        /// flushes. [`SlowStats::avg_fill_batch`] and
        /// [`SlowStats::avg_flush_batch`] report the amortization factor.
        ///
        /// Every field is registered by its field name in the heap's metric
        /// registry (see [`crate::Ralloc::telemetry`]). A field is bumped with
        /// `add` (which returns nothing) and read with `get`.
        #[derive(Debug, Default)]
        pub struct SlowStats {
            $($(#[$doc])* pub $name: Counter,)*
        }

        /// A counter's place in every [`ThreadStats`] block, named as its
        /// [`SlowStats`] field.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        pub(crate) enum Slot {
            $($name,)*
        }

        impl SlowStats {
            /// Build the stats with every counter registered in `reg`, so
            /// the registry and this struct are two views of the same
            /// counters, each owning the block slot of its name.
            pub(crate) fn registered(reg: &Registry) -> SlowStats {
                let stats = SlowStats {
                    $($name: reg.slotted_counter(stringify!($name)),)*
                };
                $(assert_eq!(
                    stats.$name.slot(),
                    Some(Slot::$name as usize),
                    "slots go out in field order on a registry of the heap's own",
                );)*
                stats
            }
        }
    };
}

/// One thread's block of slow-path counts for one heap; it lives in the
/// thread's cache set ([`crate::tcache::HeapTls`]) and folds itself into
/// the heap's totals when that is dropped, however it is dropped.
pub(crate) struct ThreadStats(LocalBlock);

impl ThreadStats {
    pub(crate) fn new(reg: &Registry) -> ThreadStats {
        ThreadStats(reg.local_block())
    }

    /// Count `n` events of `slot`'s kind: a relaxed load and store on
    /// this thread's own line.
    #[inline]
    pub(crate) fn add(&mut self, slot: Slot, n: u64) {
        self.0.add(slot as usize, n);
    }
}

slow_stats! {
    /// Thread-cache refills from a partial or fresh superblock.
    cache_fills,
    /// Blocks moved into bins by those refills.
    cache_fill_blocks,
    /// Cache flushes back to superblocks: an overflow's oldest
    /// superblock population, or a whole bin drained at thread exit or
    /// `close`.
    cache_flushes,
    /// Blocks returned by those flushes.
    cache_flushes_blocks,
    /// Successful anchor CASes performed by fills (batch reservations).
    fill_anchor_cas,
    /// Successful anchor CASes performed by flushes (batch returns).
    flush_anchor_cas,
    /// Superblocks carved by expanding `used`.
    sb_carved,
    /// Committed-prefix growths (cold path: each one is a pool commit and
    /// one flight record).
    heap_grows,
    /// Committed-prefix shrinks that released at least one superblock
    /// (quiescent points only: clean close, end of recovery, explicit
    /// [`crate::Ralloc::shrink`]).
    heap_shrinks,
    /// Superblocks released back to the OS by those shrinks.
    sb_released,
    /// Large allocations served.
    large_allocs,
    /// Fills served by popping the calling thread's *home* shard.
    partial_pops_home,
    /// Fills served by stealing from a neighbor shard (home was empty).
    partial_steals,
    /// FULL→PARTIAL transitions enlisting a superblock on the pusher's
    /// home shard.
    partial_shard_pushes,
    /// Blocks a flush classified as *remote* (superblock last filled by a
    /// thread of another shard than the freeing thread's).
    remote_free_blocks,
    /// Anchor CASes spent returning remote groups, one per group, so
    /// `remote_anchor_cas / remote_free_blocks` is the remote-free CAS
    /// cost per block.
    remote_anchor_cas,
}

impl SlowStats {
    /// Average blocks obtained per cache fill (0.0 before the first fill).
    pub fn avg_fill_batch(&self) -> f64 {
        let fills = self.cache_fills.get();
        if fills == 0 {
            return 0.0;
        }
        self.cache_fill_blocks.get() as f64 / fills as f64
    }

    /// Average blocks returned per cache flush (0.0 before the first).
    pub fn avg_flush_batch(&self) -> f64 {
        let flushes = self.cache_flushes.get();
        if flushes == 0 {
            return 0.0;
        }
        self.cache_flushes_blocks.get() as f64 / flushes as f64
    }
}
