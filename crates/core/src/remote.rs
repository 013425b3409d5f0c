//! Bounded MPSC remote-free rings: the wait-free producer half of the
//! deferred remote-free protocol (mimalloc-style, adapted to Ralloc's
//! sharded heap).
//!
//! A thread freeing blocks whose superblock it does not *own* (the
//! superblock's recorded owner — the home shard of the thread whose fill
//! last claimed it, [`crate::descriptor::Desc::owner`] — is not the
//! freeing thread's home shard) used to pay one anchor CAS per touched
//! superblock group at flush time — the producer/consumer bleeding cost
//! the `flush_blocks_grouped` escalation machinery exists for. With the
//! rings, the freeing thread instead parks the group (one
//! superblock-coherent [`RemoteBatch`]) on the owning shard's ring, so
//! the blocks travel back to the thread that will allocate them again;
//! a thread freeing its own blocks never comes here at all:
//!
//! * **Producer (any thread, wait-free, zero CAS)**: one relaxed
//!   `fetch_add` claims a slot ticket, one `swap` publishes the batch
//!   pointer. No compare-exchange, no retry loop — the push cannot lose
//!   a race, so its cost is two uncontended RMWs regardless of how many
//!   threads bleed into the same shard.
//! * **Overflow (ring lapped)**: the publishing `swap` returns the batch
//!   the slot still held — the producer now owns *that* batch and must
//!   return it through the direct grouped-CAS path. Nothing is ever
//!   dropped; a full ring degrades to exactly the pre-ring protocol.
//! * **Owner drain (zero CAS per block)**: fills `swap(0)` each slot and
//!   move the claimed batches straight into the filling thread's cache
//!   bin, stopping the sweep as soon as the bin is full — unclaimed
//!   batches stay parked for the next fill, so a small bin never forces
//!   claimed-but-homeless batches back through the anchor. Because every
//!   claim is a `swap`, concurrent drainers (the pre-carve steal drain)
//!   split the ring safely: each batch is claimed exactly once.
//!
//! The `pushed`/`drained` counters gate the drain probe: a fill whose
//! home ring shows no pending batches skips the slot scan entirely, so
//! the single-threaded fast path pays two relaxed loads per fill.
//!
//! **Rings are volatile by design.** They live in DRAM beside the thread
//! caches and are never flushed: a crash loses only in-flight remote
//! frees, whose blocks are unreachable from the persistent roots and are
//! therefore reclaimed by recovery's reachability sweep — the same
//! argument that covers cache bins. Clean close and explicit shrink
//! drain the rings back to their superblocks first
//! (`HeapInner::drain_rings_to_heap`); crash simulation and recovery
//! discard them (`HeapInner::discard_rings`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One superblock-coherent batch of remotely-freed block addresses. The
/// batch owns its blocks from the moment the flusher partitions them
/// until a drainer (or displacing producer) returns them — the anchor
/// still counts them as allocated, so the superblock can never reach
/// EMPTY (and thus never be retired or re-typed) while any of its blocks
/// sit in a ring.
pub(crate) struct RemoteBatch {
    /// Superblock index every block in the batch belongs to.
    pub sb: u32,
    /// Absolute block addresses, all inside `sb`.
    pub blocks: Vec<usize>,
}

/// One shard's bounded MPSC ring of [`RemoteBatch`] pointers. Slots hold
/// `Box::into_raw` pointers (0 = empty); every non-zero word is owned by
/// exactly one party — the slot until a `swap` claims it, the claimant
/// after. Cache-line aligned: rings sit back to back in one slice, and
/// one shard's `tail`/`pushed`/`drained` traffic must not land on its
/// neighbor's line.
#[repr(align(64))]
pub(crate) struct RemoteRing {
    slots: Box<[AtomicUsize]>,
    mask: usize,
    /// Producer slot-claim ticket (monotonic; slot = ticket & mask).
    tail: AtomicU64,
    /// Batches pushed. Bumped *before* the publishing swap, so a drain
    /// probe that reads `pushed == drained` can have missed only batches
    /// whose push had not yet started.
    pushed: AtomicU64,
    /// Batches that left the ring (drained or displaced).
    drained: AtomicU64,
    /// Highest in-flight batch count ever observed by a push (a gauge
    /// for capacity tuning: a high-water near the slot count means the
    /// ring is displacing and its capacity is the bottleneck).
    high_water: AtomicU64,
}

impl RemoteRing {
    /// A ring with at least `cap` slots (rounded up to a power of two).
    pub fn new(cap: usize) -> RemoteRing {
        let cap = cap.max(2).next_power_of_two();
        RemoteRing {
            slots: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap - 1,
            tail: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Slot count (diagnostics).
    #[allow(dead_code)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Cheap drain gate: false only when every started push has been
    /// matched by a drain. May transiently report pending for a batch
    /// another drainer is about to claim — the slot scan then finds
    /// nothing, which is correct.
    #[inline]
    pub fn maybe_pending(&self) -> bool {
        self.pushed.load(Ordering::Acquire) != self.drained.load(Ordering::Acquire)
    }

    /// Batches currently in flight (pushed, not yet drained). Racy by
    /// nature — a telemetry read, not a synchronization primitive.
    pub fn occupancy(&self) -> u64 {
        self.pushed
            .load(Ordering::Acquire)
            .saturating_sub(self.drained.load(Ordering::Acquire))
    }

    /// Highest occupancy any push has observed over the ring's lifetime.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }

    /// Producer push: one relaxed `fetch_add` + one `swap`, zero CAS,
    /// wait-free. When the ring has lapped an undrained slot, the
    /// displaced batch is returned and the **caller owns it**: it must
    /// be flushed through the direct anchor-CAS path so no block is ever
    /// lost to overflow.
    pub fn push(&self, batch: Box<RemoteBatch>) -> Option<Box<RemoteBatch>> {
        debug_assert!(!batch.blocks.is_empty());
        let pushed = self.pushed.fetch_add(1, Ordering::Release) + 1;
        // High-water from the producer side only: one relaxed read plus a
        // fetch_max that loses nothing the fast path depends on.
        let occ = pushed.saturating_sub(self.drained.load(Ordering::Relaxed));
        self.high_water.fetch_max(occ, Ordering::Relaxed);
        let t = self.tail.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t as usize) & self.mask];
        let prev = slot.swap(Box::into_raw(batch) as usize, Ordering::AcqRel);
        if prev == 0 {
            return None;
        }
        // The displaced batch left the ring through us, not a drainer.
        self.drained.fetch_add(1, Ordering::Release);
        // SAFETY: non-zero slot words are exclusively `Box::into_raw`
        // pointers published by `push`; the swap above transferred this
        // one to us and zero other parties can observe it again.
        Some(unsafe { Box::from_raw(prev as *mut RemoteBatch) })
    }

    /// Claim published batches and hand each to `f` until `f` returns
    /// `false` (or the sweep completes). Each slot is claimed with a
    /// `swap(0)`, so concurrent drainers partition the ring without
    /// coordination and every batch is seen exactly once; batches past
    /// an early stop simply stay parked for the next drain. Returns the
    /// number of batches claimed.
    pub fn drain(&self, mut f: impl FnMut(Box<RemoteBatch>) -> bool) -> usize {
        let mut claimed = 0usize;
        let mut keep_going = true;
        for slot in self.slots.iter() {
            if !keep_going {
                break;
            }
            // Cheap empty-slot skip before the RMW.
            if slot.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let p = slot.swap(0, Ordering::AcqRel);
            if p != 0 {
                claimed += 1;
                // SAFETY: see `push` — the swap made us the unique owner.
                keep_going = f(unsafe { Box::from_raw(p as *mut RemoteBatch) });
            }
        }
        if claimed > 0 {
            self.drained.fetch_add(claimed as u64, Ordering::Release);
        }
        claimed
    }
}

impl Drop for RemoteRing {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let p = *slot.get_mut();
            if p != 0 {
                // SAFETY: exclusive access (`&mut self`); the word is a
                // unique `Box::into_raw` pointer nothing else can claim.
                drop(unsafe { Box::from_raw(p as *mut RemoteBatch) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(sb: u32, blocks: &[usize]) -> Box<RemoteBatch> {
        Box::new(RemoteBatch { sb, blocks: blocks.to_vec() })
    }

    #[test]
    fn push_then_drain_roundtrips_batches() {
        let ring = RemoteRing::new(8);
        assert!(!ring.maybe_pending());
        assert!(ring.push(batch(3, &[16, 32])).is_none());
        assert!(ring.push(batch(7, &[64])).is_none());
        assert!(ring.maybe_pending());
        let mut got: Vec<(u32, usize)> = Vec::new();
        let n = ring.drain(|b| {
            got.push((b.sb, b.blocks.len()));
            true
        });
        assert_eq!(n, 2);
        got.sort_unstable();
        assert_eq!(got, vec![(3, 2), (7, 1)]);
        assert!(!ring.maybe_pending());
        assert_eq!(ring.drain(|_| -> bool { panic!("ring must be empty") }), 0);
    }

    #[test]
    fn occupancy_and_high_water_track_traffic() {
        let ring = RemoteRing::new(8);
        assert_eq!((ring.occupancy(), ring.high_water()), (0, 0));
        let _ = ring.push(batch(0, &[8]));
        let _ = ring.push(batch(1, &[8]));
        assert_eq!((ring.occupancy(), ring.high_water()), (2, 2));
        ring.drain(|_| true);
        // Occupancy falls with the drain; the high-water mark does not.
        assert_eq!((ring.occupancy(), ring.high_water()), (0, 2));
        let _ = ring.push(batch(2, &[8]));
        assert_eq!((ring.occupancy(), ring.high_water()), (1, 2));
    }

    #[test]
    fn high_water_saturates_at_capacity_under_displacement() {
        let ring = RemoteRing::new(2);
        for sb in 0..6u32 {
            let _ = ring.push(batch(sb, &[8]));
        }
        // Displacement returns a batch per lapped push, so in-flight
        // never exceeds capacity + 1 (the instant between the push
        // count bump and the displacing swap).
        assert!(ring.high_water() <= ring.capacity() as u64 + 1);
        assert_eq!(ring.occupancy(), 2);
    }

    #[test]
    fn adjacent_rings_share_no_cache_line() {
        assert_eq!(std::mem::align_of::<RemoteRing>(), 64);
        assert_eq!(std::mem::size_of::<RemoteRing>() % 64, 0);
    }

    #[test]
    fn capacity_rounds_up_and_floors() {
        assert_eq!(RemoteRing::new(0).capacity(), 2);
        assert_eq!(RemoteRing::new(5).capacity(), 8);
        assert_eq!(RemoteRing::new(64).capacity(), 64);
    }

    #[test]
    fn overflow_returns_the_displaced_batch_losing_nothing() {
        let ring = RemoteRing::new(2);
        let mut out: Vec<u32> = Vec::new();
        for sb in 0..5u32 {
            if let Some(displaced) = ring.push(batch(sb, &[8])) {
                out.push(displaced.sb);
            }
        }
        // Slots hold the 2 newest batches; the 3 oldest were displaced
        // back to the pushers in FIFO-lap order.
        assert_eq!(out, vec![0, 1, 2]);
        ring.drain(|b| {
            out.push(b.sb);
            true
        });
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 2, 3, 4], "every batch accounted for");
        assert!(!ring.maybe_pending());
    }

    #[test]
    fn pending_gate_tracks_displacement() {
        let ring = RemoteRing::new(2);
        for sb in 0..6u32 {
            let _ = ring.push(batch(sb, &[8]));
        }
        // 6 pushed, 4 displaced: exactly 2 remain pending.
        assert!(ring.maybe_pending());
        assert_eq!(ring.drain(|_| true), 2);
        assert!(!ring.maybe_pending());
    }

    #[test]
    fn early_stop_leaves_the_rest_parked() {
        let ring = RemoteRing::new(8);
        for sb in 0..4u32 {
            assert!(ring.push(batch(sb, &[8])).is_none());
        }
        // Stop after two: the other two stay claimed by nobody.
        let mut got = 0;
        let n = ring.drain(|_| {
            got += 1;
            got < 2
        });
        assert_eq!((n, got), (2, 2));
        assert!(ring.maybe_pending(), "two batches must still be parked");
        assert_eq!(ring.drain(|_| true), 2, "a later drain claims the remainder");
        assert!(!ring.maybe_pending());
    }

    #[test]
    fn concurrent_producers_and_drainers_lose_no_blocks() {
        let ring = RemoteRing::new(16);
        let producers = 8usize;
        let per = 200usize;
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..producers)
                .map(|t| {
                    let ring = &ring;
                    s.spawn(move || {
                        // Displaced batches come back to the producer;
                        // count their blocks as "returned the slow way".
                        let mut returned = 0usize;
                        for i in 0..per {
                            let b = batch((t * per + i) as u32, &[t * per + i]);
                            if let Some(d) = ring.push(b) {
                                returned += d.blocks.len();
                            }
                        }
                        returned
                    })
                })
                .collect();
            // One concurrent drainer racing the producers.
            let drainer = s.spawn(|| {
                let mut drained = 0usize;
                for _ in 0..2000 {
                    ring.drain(|b| {
                        drained += b.blocks.len();
                        true
                    });
                    std::hint::spin_loop();
                }
                drained
            });
            let mut sum: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            sum += drainer.join().unwrap();
            sum
        });
        // Whatever is still parked drains now; the grand total must be
        // every block ever pushed, each exactly once.
        let mut rest = 0usize;
        ring.drain(|b| {
            rest += b.blocks.len();
            true
        });
        assert_eq!(total + rest, producers * per);
        assert!(!ring.maybe_pending());
    }

    #[test]
    fn drop_frees_parked_batches() {
        // Leak-checked only under sanitizers/miri, but must not crash;
        // the Drop impl walks the slots and boxes each leftover back.
        let ring = RemoteRing::new(4);
        for sb in 0..3u32 {
            assert!(ring.push(batch(sb, &[8, 16])).is_none());
        }
        drop(ring);
    }
}
