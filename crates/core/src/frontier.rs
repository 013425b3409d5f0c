//! The committed frontier: how the heap grows online and shrinks at
//! quiescent points without a crash ever observing a persisted `used`
//! superblock outside the image.
//!
//! The heap has one frontier, the pool's committed prefix
//! ([`nvm::PmemPool::committed_len`]), and persists no word for it: the
//! prefix is what backs an image (the file length, or what a crash image
//! holds), so after any crash it is read back from the image itself.
//! The descriptor array lies wholly under it. The one decision this
//! module owns is the **order** of a move against the persisted `used`:
//!
//! * **Grow** (online, cold path): commit the new prefix, one
//!   [`nvm::CrashInjector`] event; only then may a carve's `used` CAS +
//!   persist cover the new space. A crash before the commit leaves the
//!   old prefix and the old `used`; after it, a larger prefix with `used`
//!   behind it (committed space nobody uses, which the next shrink gives
//!   back).
//! * **Shrink** (quiescent points only): persist the lowered `used`, then
//!   decommit the tail. A crash between the two leaves the durable
//!   `used` already under the still-committed tail. The trailing run it
//!   releases is read from anchors alone: a superblock is free when it
//!   reads EMPTY, and every superblock of a live large span reads FULL.
//!
//! So at every crash point the prefix covers the durable `used`, which
//! is all [`Geometry::check_image`](crate::layout::Geometry::check_image)
//! asks of an image. `pub(crate)` surface on [`HeapInner`]: `grow`,
//! `shrink_quiesced`, `lower_to`.

use std::ops::Range;
use std::sync::atomic::Ordering;

use telemetry::EventKind;

use crate::anchor::SbState;
use crate::descriptor::Desc;
use crate::heap::HeapInner;
use crate::layout::USED_SB_OFF;
use crate::lists::DescList;
use crate::shard::SHARDS;
use crate::size_class::{NUM_CLASSES, SB_SIZE};

impl HeapInner {
    /// Commit enough of the pool for `need_sb` superblocks, doubling the
    /// coverage per step (O(log n) grows; clamped to the request floor and
    /// the reserved ceiling). Returns false only when `need_sb` exceeds
    /// the reserved capacity (the heap's hard OOM). Carve calls this
    /// before its `used` CAS, never after.
    #[cold]
    pub(crate) fn grow(&self, need_sb: usize) -> bool {
        let geo = &self.geo;
        if need_sb > geo.max_sb {
            return false;
        }
        let cur_sb = self.committed_sb();
        if cur_sb < need_sb {
            let target = geo.len_for_sb((cur_sb * 2).max(need_sb).min(geo.max_sb));
            self.pool.commit(target);
            self.emit(EventKind::GrowCommit, target as u64, 0);
            self.slow.heap_grows.add(1);
        }
        true
    }

    /// Release the trailing run of fully-free superblocks: unlink their
    /// descriptors, lower `used`, then decommit the tail. Returns the
    /// number of superblocks released.
    ///
    /// **Quiescent-point only** — the caller guarantees no concurrent
    /// heap operation (clean close or an explicit [`crate::Ralloc::shrink`]
    /// under the same contract): `used` never decreases online, and the
    /// list surgery below is not lock-free. Recovery decides its live
    /// prefix from the marks instead and shares steps 2–3
    /// ([`HeapInner::lower_to`]).
    ///
    /// Crash-recoverable ordering:
    /// 1. unlink the released descriptors from the free/partial lists
    ///    (transient state: a crash here just means a dirty rebuild);
    /// 2. lower the persisted `used` word, flush + fence it — it must be
    ///    durable before the prefix may drop;
    /// 3. decommit the pool's tail.
    ///
    /// A crash after 2 leaves the prefix above `used` (committed space
    /// nobody uses, never dangling state), which the next shrink or
    /// recovery gives back.
    pub(crate) fn shrink_quiesced(&self) -> usize {
        let (pool, geo) = (&self.pool, &self.geo);
        let used = self.used_sb();
        // Every superblock of a live span reads FULL (`malloc_large`
        // stores it into each, recovery's sweep too), so the anchors
        // alone say which trailing superblocks are free.
        let mut new_used = used;
        while new_used > 0
            && Desc::new(pool, geo, (new_used - 1) as u32).anchor(Ordering::Acquire).state == SbState::Empty
        {
            new_used -= 1;
        }
        // Step 1: unlink every released descriptor. They sit on the free
        // list or (lazily retired) on a partial shard; filtering a list
        // and republishing the survivors preserves their order.
        if new_used < used {
            let keep = |idx: &u32| (*idx as usize) < new_used;
            let partials = (1..NUM_CLASSES as u32)
                .flat_map(|class| (0..SHARDS).map(move |s| DescList::partial_shard(geo, class, s)));
            for list in std::iter::once(DescList::free_list(geo)).chain(partials) {
                let all = list.collect(pool, geo);
                if !all.iter().all(keep) {
                    let kept: Vec<u32> = all.into_iter().filter(keep).collect();
                    list.publish(pool, geo, &kept);
                }
            }
        }
        let (released, pages) = self.lower_to(new_used);
        pool.discard(pages);
        released
    }

    /// Steps 2–3 of [`HeapInner::shrink_quiesced`], shared with recovery:
    /// make `keep` the durable `used`, then bring the committed prefix
    /// down onto it. The release covers the freed trailing run *and* the
    /// committed-but-never-carved overshoot of the doubling policy.
    /// Returns the superblocks released and the pool tail whose pages the
    /// caller still gives back ([`nvm::PmemPool::discard`], or
    /// [`nvm::PmemPool::discard_behind`] in recovery). The caller
    /// guarantees that every superblock from `keep` on is free, and
    /// leaves none of them listed. Each step's flight record is durable by
    /// the time the step is: `shrink_unpublish` rides `used`'s fence, and
    /// `shrink_decommit` gets one of its own before the decommit.
    ///
    /// The descriptors from `keep` on are left as they are: stale, and
    /// dead. Nothing reads a descriptor at or past `used` (recovery, the
    /// checker and `rinspect` read the census of `0..used`); a stale large
    /// head below `used` whose span passes it is refused by
    /// [`Census::take`](crate::descriptor::Census::take); and a carve
    /// that takes the superblock back persists its `set_size` (a fill's,
    /// or every descriptor of a large span) before any of its blocks is
    /// handed out. A crash between that
    /// carve's `used` persist and its `set_size` leaves a stale identity
    /// under `used` that no root reaches, which recovery sweeps as free.
    pub(crate) fn lower_to(&self, keep: usize) -> (usize, Range<usize>) {
        let target = self.geo.len_for_sb(keep);
        let before = self.pool.committed_len();
        if keep == self.used_sb() && before <= target {
            return (0, 0..0);
        }
        // Step 2: the lowered `used` becomes durable first, its record
        // with it.
        // SAFETY: metadata word, quiescent.
        unsafe { self.pool.atomic_u64(USED_SB_OFF) }.store(keep as u64, Ordering::Release);
        self.emit(EventKind::ShrinkUnpublish, target as u64, keep as u64);
        self.persist(USED_SB_OFF, 8);
        // Step 3: the prefix comes down onto it, its record durable first.
        let (mut released, mut pages) = (0, 0..0);
        if before > target {
            self.emit(EventKind::ShrinkDecommit, (before - target) as u64, target as u64);
            if !self.transient {
                self.pool.fence();
            }
            pages = self.pool.decommit(target);
            released = (before - target) / SB_SIZE;
        }
        self.slow.heap_shrinks.add(1);
        self.slow.sb_released.add(released as u64);
        (released, pages)
    }
}
