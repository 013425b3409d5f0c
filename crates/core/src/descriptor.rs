//! Descriptor accessors (paper §4.2).
//!
//! A descriptor is 32 bytes of state padded to a 64-byte cache line:
//!
//! ```text
//! +0   anchor        AtomicU64   (transient: reconstructed by recovery)
//! +8   next_free     AtomicU64   (transient: superblock free-list link)
//! +16  next_partial  AtomicU64   (transient: partial-list link)
//! +24  block_size    u64         (PERSISTED at superblock (re)use)
//! +32  size_class    u32  \  one (PERSISTED at superblock (re)use)
//! +36  max_count     u32  /  u64 (transient cache of SB_SIZE/block_size)
//! +40  owner         AtomicU64   (transient: home shard of the last filler)
//! +48  ..64          padding
//! ```
//!
//! `size_class`/`block_size` are the only fields flushed online; they make
//! every block's size recoverable, which is what lets every other piece of
//! metadata be rebuilt offline (paper §4, innovation 1). List links store
//! descriptor *indices* (offset-based, remap-safe), not addresses.

use std::sync::atomic::{AtomicU64, Ordering};

use nvm::PmemPool;

use crate::anchor::Anchor;
use crate::layout::Geometry;
use crate::shard::SHARDS;
use crate::size_class::{is_small_class, CLASS_CONTINUATION, SB_SIZE};

const ANCHOR_OFF: usize = 0;
const NEXT_FREE_OFF: usize = 8;
const NEXT_PARTIAL_OFF: usize = 16;
const BLOCK_SIZE_OFF: usize = 24;
const CLASS_WORD_OFF: usize = 32;
const OWNER_OFF: usize = 40;

/// A borrowed view of descriptor `idx` within a heap pool.
#[derive(Clone, Copy)]
pub struct Desc<'a> {
    pool: &'a PmemPool,
    /// Byte offset of the descriptor in the pool.
    off: usize,
    /// Descriptor (= superblock) index.
    pub idx: u32,
}

impl<'a> Desc<'a> {
    /// View descriptor `idx`.
    #[inline]
    pub fn new(pool: &'a PmemPool, geo: &Geometry, idx: u32) -> Desc<'a> {
        Desc { pool, off: geo.desc(idx as usize), idx }
    }

    /// The anchor word.
    #[inline]
    pub fn anchor_word(&self) -> &'a AtomicU64 {
        // SAFETY: in-bounds, 8-aligned by layout.
        unsafe { self.pool.atomic_u64(self.off + ANCHOR_OFF) }
    }

    /// Load the unpacked anchor.
    #[inline]
    pub fn anchor(&self, order: Ordering) -> Anchor {
        Anchor::unpack(self.anchor_word().load(order))
    }

    /// Store the anchor (used only when the superblock is owned
    /// exclusively: fresh carve, cache fill after reservation, recovery).
    #[inline]
    pub fn set_anchor(&self, a: Anchor, order: Ordering) {
        self.anchor_word().store(a.pack(), order)
    }

    /// CAS the anchor.
    #[inline]
    pub fn cas_anchor(&self, current: Anchor, new: Anchor) -> Result<(), Anchor> {
        self.anchor_word()
            .compare_exchange(current.pack(), new.pack(), Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(Anchor::unpack)
    }

    /// Superblock free-list link (descriptor index + 1; 0 = end).
    #[inline]
    pub fn next_free(&self) -> &'a AtomicU64 {
        // SAFETY: in-bounds, 8-aligned.
        unsafe { self.pool.atomic_u64(self.off + NEXT_FREE_OFF) }
    }

    /// Partial-list link (descriptor index + 1; 0 = end).
    #[inline]
    pub fn next_partial(&self) -> &'a AtomicU64 {
        // SAFETY: in-bounds, 8-aligned.
        unsafe { self.pool.atomic_u64(self.off + NEXT_PARTIAL_OFF) }
    }

    /// This superblock's owning shard: the home shard of the thread whose
    /// fill last claimed it (a rebuild stamps its placement). A statistic
    /// only — a flush from another shard counts its group as remote (see
    /// [`crate::flush`]) and nothing is routed by it — read racily and,
    /// in a crash image, possibly garbage, hence the reduction.
    #[inline]
    pub fn owner(&self) -> u32 {
        // SAFETY: in-bounds, 8-aligned.
        let raw = unsafe { self.pool.atomic_u64(self.off + OWNER_OFF) }.load(Ordering::Relaxed) as u32;
        raw % SHARDS
    }

    /// Record `shard` as this superblock's owner.
    #[inline]
    pub fn set_owner(&self, shard: u32) {
        // SAFETY: in-bounds, 8-aligned.
        unsafe { self.pool.atomic_u64(self.off + OWNER_OFF) }.store(shard as u64, Ordering::Relaxed)
    }

    /// Block size currently persisted for this superblock. For class 0
    /// this is the byte size of the whole large allocation.
    #[inline]
    pub fn block_size(&self) -> u64 {
        // Reads race only with `set_size`, which happens strictly before
        // the superblock is published; an atomic relaxed load keeps the
        // access well-defined.
        // SAFETY: in-bounds, 8-aligned.
        unsafe { self.pool.atomic_u64(self.off + BLOCK_SIZE_OFF) }.load(Ordering::Relaxed)
    }

    /// Size class currently persisted for this superblock.
    #[inline]
    pub fn size_class(&self) -> u32 {
        let w = // SAFETY: in-bounds, 8-aligned.
            unsafe { self.pool.atomic_u64(self.off + CLASS_WORD_OFF) }.load(Ordering::Relaxed);
        w as u32
    }

    /// Transient cached blocks-per-superblock.
    #[inline]
    pub fn max_count(&self) -> u32 {
        let w = // SAFETY: in-bounds, 8-aligned.
            unsafe { self.pool.atomic_u64(self.off + CLASS_WORD_OFF) }.load(Ordering::Relaxed);
        (w >> 32) as u32
    }

    /// Set and persist the size identity of this superblock. Must happen
    /// before any block of the superblock can be observed by another
    /// thread or by a post-crash trace — this is the one flush+fence on
    /// the (slow) allocation path (paper §4, innovation 1).
    ///
    /// When `transient` (LRMalloc mode) the flush/fence is skipped.
    pub fn set_size(&self, class: u32, block_size: u64, max_count: u32, transient: bool) {
        // SAFETY: in-bounds, 8-aligned; exclusive ownership during init.
        unsafe {
            self.pool
                .atomic_u64(self.off + BLOCK_SIZE_OFF)
                .store(block_size, Ordering::Relaxed);
            self.pool
                .atomic_u64(self.off + CLASS_WORD_OFF)
                .store((class as u64) | ((max_count as u64) << 32), Ordering::Release);
        }
        if !transient {
            self.pool.flush(self.off + BLOCK_SIZE_OFF, 16);
            self.pool.fence();
        }
    }

    /// Validate the persisted size identity, as recovery must: a crash may
    /// leave garbage classes in descriptors that were carved but never
    /// initialized. Returns the interpretation recovery should use.
    pub fn classify(&self, used_sb: usize) -> DescKind {
        let class = self.size_class();
        let bs = self.block_size();
        if class == CLASS_CONTINUATION {
            return DescKind::Continuation;
        }
        if class == 0 {
            // Large head: size must be positive and fit in the used region.
            let span = (bs as usize).div_ceil(SB_SIZE);
            if bs > 0 && span > 0 && (self.idx as usize) + span <= used_sb {
                return DescKind::LargeHead { span };
            }
            return DescKind::Invalid;
        }
        if is_small_class(class) && bs == crate::size_class::class_block_size(class) as u64 {
            DescKind::Small { class }
        } else {
            DescKind::Invalid
        }
    }
}

/// Recovery-time interpretation of a descriptor's persisted fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescKind {
    /// A superblock of small blocks of the given class.
    Small { class: u32 },
    /// First superblock of a large allocation spanning `span` superblocks.
    LargeHead { span: usize },
    /// Interior superblock of some (possibly stale) large allocation.
    Continuation,
    /// Garbage (carved but never initialized, or torn): treat as free.
    Invalid,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::SbState;
    use nvm::Mode;

    fn test_pool() -> (PmemPool, Geometry) {
        let len = Geometry::pool_len_for_capacity(1 << 20);
        let pool = PmemPool::new(len, Mode::Direct);
        let geo = Geometry::from_pool_len(pool.len());
        (pool, geo)
    }

    #[test]
    fn anchor_roundtrip_through_desc() {
        let (pool, geo) = test_pool();
        let d = Desc::new(&pool, &geo, 3);
        let a = Anchor { avail: 7, count: 100, state: SbState::Partial };
        d.set_anchor(a, Ordering::Release);
        assert_eq!(d.anchor(Ordering::Acquire), a);
    }

    #[test]
    fn cas_anchor_succeeds_and_fails() {
        let (pool, geo) = test_pool();
        let d = Desc::new(&pool, &geo, 0);
        let a0 = d.anchor(Ordering::Acquire);
        let a1 = Anchor { avail: 1, count: 2, state: SbState::Partial };
        d.cas_anchor(a0, a1).unwrap();
        let err = d.cas_anchor(a0, a1).unwrap_err();
        assert_eq!(err, a1);
    }

    #[test]
    fn set_size_persists_and_reads_back() {
        let (pool, geo) = test_pool();
        let d = Desc::new(&pool, &geo, 5);
        d.set_size(8, 64, 1024, false);
        assert_eq!(d.size_class(), 8);
        assert_eq!(d.block_size(), 64);
        assert_eq!(d.max_count(), 1024);
        assert!(pool.stats().snapshot().fences >= 1);
    }

    #[test]
    fn transient_mode_skips_flush() {
        let (pool, geo) = test_pool();
        let before = pool.stats().snapshot();
        Desc::new(&pool, &geo, 1).set_size(2, 16, 4096, true);
        let after = pool.stats().snapshot();
        assert_eq!(after.fences, before.fences);
        assert_eq!(after.flush_calls, before.flush_calls);
    }

    #[test]
    fn classify_validates() {
        let (pool, geo) = test_pool();
        let used = 10usize;
        // Valid small.
        let d = Desc::new(&pool, &geo, 0);
        d.set_size(1, 8, 8192, true);
        assert_eq!(d.classify(used), DescKind::Small { class: 1 });
        // Small class with wrong size -> invalid.
        let d = Desc::new(&pool, &geo, 1);
        d.set_size(1, 16, 4096, true);
        assert_eq!(d.classify(used), DescKind::Invalid);
        // Zeroed descriptor -> class 0 with size 0 -> invalid.
        let d = Desc::new(&pool, &geo, 2);
        assert_eq!(d.classify(used), DescKind::Invalid);
        // Large head spanning 2 superblocks.
        let d = Desc::new(&pool, &geo, 3);
        d.set_size(0, (SB_SIZE + 10) as u64, 0, true);
        assert_eq!(d.classify(used), DescKind::LargeHead { span: 2 });
        // Large head overflowing the used region -> invalid.
        let d = Desc::new(&pool, &geo, 9);
        d.set_size(0, (SB_SIZE * 4) as u64, 0, true);
        assert_eq!(d.classify(used), DescKind::Invalid);
        // Continuation sentinel.
        let d = Desc::new(&pool, &geo, 4);
        d.set_size(CLASS_CONTINUATION, 0, 0, true);
        assert_eq!(d.classify(used), DescKind::Continuation);
    }
}
