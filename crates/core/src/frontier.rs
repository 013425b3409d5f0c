//! The committed-frontier protocol: how a region of the heap grows online
//! and shrinks at quiescent points without a crash ever observing a
//! persisted `used` superblock outside a persisted frontier.
//!
//! The one decision this module owns is the **persist order** of a
//! frontier move. A [`Frontier`] is a value; the heap holds two
//! (superblocks, descriptors) running the same code independently, and
//! nothing else commits, decommits or releases pool space or writes a
//! frontier word. Public surface: [`Frontier::pair`] and what an
//! inspector or a test needs to read a frontier ([`Frontier::len_for_sb`],
//! [`Frontier::sb_of`], [`Frontier::check`]); the protocol itself and
//! [`HeapInner::shrink_quiesced`] are `pub(crate)`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use nvm::PmemPool;
use telemetry::{Counter, EventKind};

use crate::anchor::SbState;
use crate::descriptor::{Desc, DescKind};
use crate::heap::HeapInner;
use crate::layout::{
    Geometry, COMMITTED_LEN_OFF, DESC_COMMITTED_LEN_OFF, DESC_SIZE, USED_SB_OFF,
};
use crate::lists::DescList;
use crate::shard::SHARDS;
use crate::size_class::{NUM_CLASSES, SB_SIZE};
use crate::stats::SlowStats;

/// One growable region's committed frontier.
///
/// The superblock frontier ends the pool, so it moves the pool's
/// committed prefix; the descriptor frontier is accounting over bytes
/// that prefix always backs (it never drops below the superblock array).
///
/// **Grow** (online, cold path), per step: commit the pool prefix if this
/// frontier is its tail (pure mapping state, no durable effect) →
/// `fetch_max` the persisted word → flush + fence it → publish `safe`,
/// releasing carvers into the space.
/// A crash after the commit loses nothing; after the fence, recovery sees
/// a larger frontier with `used` still behind it (extra committed space,
/// never dangling state); only after the publish can a `used` bump
/// covering the new space be persisted — behind the already-durable
/// frontier.
///
/// **Shrink** (quiescent points only) is the mirror image: unpublish →
/// `fetch_min` the word → flush + fence → decommit the pool's tail (or
/// zero the released descriptors in place), and runs only after
/// the lowered `used` is itself durable (see
/// [`HeapInner::shrink_quiesced`]). A crash between the fence and the
/// decommit leaves the durable word below still-mapped space, which
/// reopen heals upward from the image.
pub struct Frontier {
    /// What the frontier bounds, for messages.
    pub name: &'static str,
    /// Header offset of the persisted frontier word (bytes, absolute).
    pub word_off: usize,
    /// Byte offset of the region's unit 0, bytes per superblock covered,
    /// and the largest legal frontier (the region's end).
    base: usize,
    unit: usize,
    end: usize,
    max_sb: usize,
    /// True for the region that ends the pool: its steps move the pool's
    /// committed prefix, and what an image backs of it is the image's own
    /// length, so its word heals upward on adoption. An interior region
    /// lies wholly under that prefix and is backed to exactly its word.
    tail: bool,
    /// Event kinds of the commit, publish and decommit steps.
    on_commit: EventKind,
    on_publish: EventKind,
    on_decommit: EventKind,
    /// This frontier's grow counter.
    grows: fn(&SlowStats) -> &Counter,
    /// The frontier (bytes) that is both committed in the pool *and*
    /// whose word has been flushed and fenced. Carving reads this, never
    /// the raw pool frontier, so a persisted `used` can never outrun a
    /// persisted frontier.
    safe: AtomicU64,
}

impl Frontier {
    /// The heap's two frontiers, `[superblocks, descriptors]`, unpublished.
    /// Carve consults them in this order.
    pub fn pair(geo: &Geometry) -> [Frontier; 2] {
        let sb = Frontier {
            name: "superblock",
            word_off: COMMITTED_LEN_OFF,
            base: geo.sb_off,
            unit: SB_SIZE,
            end: geo.pool_len,
            max_sb: geo.max_sb,
            tail: true,
            on_commit: EventKind::GrowCommit,
            on_publish: EventKind::GrowPublish,
            on_decommit: EventKind::ShrinkDecommit,
            grows: |s| &s.heap_grows,
            safe: AtomicU64::new(0),
        };
        let desc = Frontier {
            name: "descriptor",
            word_off: DESC_COMMITTED_LEN_OFF,
            base: geo.desc_off,
            unit: DESC_SIZE,
            end: geo.sb_off,
            max_sb: geo.max_sb,
            tail: false,
            on_commit: EventKind::GrowDescCommit,
            on_publish: EventKind::GrowDescPublish,
            on_decommit: EventKind::ShrinkDescDecommit,
            grows: |s| &s.desc_grows,
            safe: AtomicU64::new(0),
        };
        [sb, desc]
    }

    /// The published frontier in bytes.
    #[inline]
    pub(crate) fn published(&self) -> usize {
        self.safe.load(Ordering::Acquire) as usize
    }

    /// Superblocks fully covered by a frontier of `len` bytes (clamped to
    /// capacity; a partially covered unit does not count).
    #[inline]
    pub fn sb_of(&self, len: usize) -> usize {
        (len.saturating_sub(self.base) / self.unit).min(self.max_sb)
    }

    /// Superblocks the heap may carve without growing this frontier.
    #[inline]
    pub(crate) fn covered_sb(&self) -> usize {
        self.sb_of(self.published())
    }

    /// The frontier (bytes) that covers the first `sbs` superblocks.
    #[inline]
    pub fn len_for_sb(&self, sbs: usize) -> usize {
        debug_assert!(sbs <= self.max_sb);
        self.base + sbs * self.unit
    }

    fn word<'a>(&self, pool: &'a PmemPool) -> &'a AtomicU64 {
        // SAFETY: 8-aligned header word in the always-committed metadata
        // region, only ever accessed atomically while shared.
        unsafe { pool.atomic_u64(self.word_off) }
    }

    /// Fresh heap: write the word for an initial frontier of `len` bytes
    /// and publish it. The caller persists the header.
    pub(crate) fn init(&self, pool: &PmemPool, len: usize) {
        self.word(pool).store(len as u64, Ordering::Release);
        self.safe.store(len as u64, Ordering::Release);
    }

    /// Check a persisted frontier `word` against the `len` bytes an image
    /// actually has and its `used` superblock count; `Ok` carries what
    /// the image backs of this region. Plain values, so an open can
    /// decide from header words read before anything is mapped.
    ///
    /// The word must lie inside its region and inside the image itself: a
    /// frontier past the end of the file means the file was truncated (or
    /// the word corrupted), and opening it would fabricate zeroed
    /// "committed" space where user data used to be. It must also cover
    /// every `used` superblock, which the protocol guarantees at every
    /// crash point (grow fences the word before `used` may rise past it;
    /// shrink lowers `used` first). The tail region's image may
    /// legitimately extend *past* the word: a crash image captures the
    /// volatile frontier, the word records the last *fenced* one.
    pub fn check(&self, word: usize, len: usize, used: usize) -> Result<usize, String> {
        let name = self.name;
        if word < self.base || word > self.end {
            return Err(format!("{name} frontier {word} outside [{}, {}]", self.base, self.end));
        }
        let backed = if self.tail { len } else { word };
        if word > backed {
            return Err(format!(
                "{name} frontier {word} exceeds the image ({backed} bytes): truncated"
            ));
        }
        if used > self.sb_of(word) {
            return Err(format!(
                "used {used} superblocks but the {name} frontier {word} covers only {}",
                self.sb_of(word)
            ));
        }
        Ok(backed)
    }

    /// [`Frontier::check`] of the word in `pool` against its committed
    /// prefix.
    pub(crate) fn check_word(&self, pool: &PmemPool, used: usize) -> Result<usize, String> {
        self.check(self.word(pool).load(Ordering::Acquire) as usize, pool.committed_len(), used)
    }

    /// Adopted image: refuse it unless [`Frontier::check_word`] passes —
    /// rather than silently lose data — then publish what the image
    /// backs, healing the word upward (and persisting it) when the image
    /// extends past it: file content is durable by definition. Both open
    /// paths have run the same check on the header before the pool
    /// existed, so this one fails only on a caller that skipped it.
    pub(crate) fn adopt_word(&self, pool: &PmemPool, used: usize, transient: bool) {
        let backed = self
            .check_word(pool, used)
            .unwrap_or_else(|why| panic!("refusing a corrupt or truncated heap image: {why}"));
        let healed = self.word(pool).fetch_max(backed as u64, Ordering::AcqRel) < backed as u64;
        if healed && !transient {
            pool.persist(self.word_off, 8);
        }
        self.safe.store(backed as u64, Ordering::Release);
    }

    /// Refresh the published frontier from the durable word (recovery
    /// entry). After a crash the word holds the last fenced value, which
    /// is always >= the published frontier, and an eviction-style crash
    /// may even have persisted a *larger* word than was ever published —
    /// both are valid committed space.
    pub(crate) fn reload(&self, pool: &PmemPool) {
        self.safe.fetch_max(self.word(pool).load(Ordering::Acquire), Ordering::AcqRel);
    }

    /// Grow the frontier to cover at least `need_sb` superblocks,
    /// doubling the coverage per step (O(log n) grows; clamped to the
    /// request floor and the reserved ceiling). Returns false only when
    /// `need_sb` exceeds the reserved capacity (the heap's hard OOM).
    #[cold]
    pub(crate) fn grow(&self, heap: &HeapInner, need_sb: usize) -> bool {
        if need_sb > self.max_sb {
            return false;
        }
        loop {
            let cur_sb = self.covered_sb();
            if cur_sb >= need_sb {
                return true;
            }
            let target = self.len_for_sb((cur_sb * 2).max(need_sb).min(self.max_sb));
            if self.tail {
                heap.pool.commit(target);
            }
            let target = target as u64;
            self.word(&heap.pool).fetch_max(target, Ordering::AcqRel);
            heap.persist(self.word_off, 8);
            heap.emit(self.on_commit, target, 0);
            self.safe.fetch_max(target, Ordering::AcqRel);
            heap.emit(self.on_publish, target, 0);
            (self.grows)(&heap.slow).add(1);
        }
    }

    /// Lower the frontier to cover exactly `sbs` superblocks and release
    /// what it covered beyond them: the pool's tail, or descriptors zeroed
    /// in place. A frontier already there has nothing to release. Returns
    /// the bytes released and the pool range whose pages are still to be
    /// discarded ([`PmemPool::decommit_deferred`]; empty unless this is the
    /// tail). Quiescent callers only, and only once a `used <= sbs` is
    /// durable.
    fn shrink_to(&self, heap: &HeapInner, sbs: usize) -> (usize, Range<usize>) {
        let (target, before) = (self.len_for_sb(sbs), self.published());
        if target >= before {
            return (0, 0..0);
        }
        // Unpublish first (vacuous under quiescence, but keeps the
        // published frontier and the durable word in lockstep).
        self.safe.store(target as u64, Ordering::Release);
        self.word(&heap.pool).fetch_min(target as u64, Ordering::AcqRel);
        heap.persist(self.word_off, 8);
        let pages = if self.tail {
            heap.pool.decommit_deferred(target)
        } else {
            heap.pool.release(target, before);
            0..0
        };
        heap.emit(self.on_decommit, (before - target) as u64, target as u64);
        (before - target, pages)
    }
}

impl HeapInner {
    /// Release the trailing run of fully-free superblocks: unlink their
    /// descriptors, lower `used`, then lower every frontier onto it and
    /// decommit the tails. Returns the number of superblocks released.
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
    ///    durable before any frontier word may drop, so no crash can
    ///    observe a frontier below a persisted `used` superblock;
    /// 3. per frontier, [`Frontier::shrink_to`]: unpublish → `fetch_min`
    ///    word → flush + fence → decommit (superblocks) or release
    ///    (descriptors).
    ///
    /// A crash after 2 leaves used' < frontier (extra committed space,
    /// never dangling state); a crash inside 3 leaves one frontier on
    /// `used` and the other still above it, or a durable word below a
    /// still-mapped tail — recovery's own shrink finishes the former,
    /// reopen heals the latter. In every interleaving each durable
    /// frontier covers every durably-`used` superblock.
    pub(crate) fn shrink_quiesced(&self) -> usize {
        let (pool, geo) = (&self.pool, &self.geo);
        let used = self.used_sb();
        // Interior superblocks of *live* large allocations carry stale
        // recycled anchors (only the head's anchor is maintained online),
        // so "anchor == EMPTY" alone cannot prove a superblock free:
        // claim live spans first, exactly like recovery and the checker.
        let mut claimed = vec![false; used];
        for i in 0..used {
            let d = Desc::new(pool, geo, i as u32);
            if let DescKind::LargeHead { span } = d.classify(used) {
                if d.anchor(Ordering::Acquire).state == SbState::Full {
                    for k in 0..span {
                        claimed[i + k] = true;
                    }
                }
            }
        }
        let mut new_used = used;
        while new_used > 0 && !claimed[new_used - 1] {
            let d = Desc::new(pool, geo, (new_used - 1) as u32);
            if d.anchor(Ordering::Acquire).state != SbState::Empty {
                break;
            }
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
                    list.thread(pool, geo, &kept);
                    list.publish(pool, geo, [kept.as_slice()]);
                }
            }
        }
        let (released, pages) = self.lower_to(new_used);
        pool.discard(pages);
        released
    }

    /// Steps 2–3 of [`HeapInner::shrink_quiesced`], shared with recovery:
    /// make `keep` the durable `used`, then bring each frontier down onto
    /// it. The release covers the freed trailing run *and* the
    /// committed-but-never-carved overshoot of the doubling policy, so
    /// each frontier lands exactly on `keep`; "nothing to release" is
    /// decided per frontier, since a crash between the two leaves one of
    /// them already there. Returns the superblocks the superblock frontier
    /// released and the pool tail whose pages the caller still discards
    /// ([`nvm::PmemPool::discard`]). The caller guarantees that every
    /// superblock from `keep` on is free, and leaves none of them listed.
    pub(crate) fn lower_to(&self, keep: usize) -> (usize, Range<usize>) {
        if keep == self.used_sb() && self.frontiers.iter().all(|f| f.published() <= f.len_for_sb(keep)) {
            return (0, 0..0);
        }
        // Step 2: the lowered `used` becomes durable first.
        // SAFETY: metadata word, quiescent.
        unsafe { self.pool.atomic_u64(USED_SB_OFF) }.store(keep as u64, Ordering::Release);
        self.persist(USED_SB_OFF, 8);
        let target = self.sb_frontier().len_for_sb(keep);
        self.emit(EventKind::ShrinkUnpublish, target as u64, keep as u64);
        // Step 3: each frontier comes down as its own protocol instance,
        // mirroring the independent grow.
        let [(sb_bytes, pages), _] = self.frontiers.each_ref().map(|f| f.shrink_to(self, keep));
        let released = sb_bytes / SB_SIZE;
        self.slow.heap_shrinks.add(1);
        self.slow.sb_released.add(released as u64);
        (released, pages)
    }
}
