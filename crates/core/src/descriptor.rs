//! Descriptor accessors (paper §4.2).
//!
//! A descriptor is 32 bytes of state padded to a 64-byte cache line:
//!
//! ```text
//! +0   anchor        AtomicU64   (transient: reconstructed by recovery)
//! +8   next_free     AtomicLink  (transient: superblock free-list link)
//! +16  next_partial  AtomicLink  (transient: partial-list link)
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
//!
//! The [`Census`] is the one decoder of that identity: a small class
//! with its own block size, a large head (class 0, the byte size) whose
//! span fits under `used`, a continuation, or nothing. Outside it, only
//! the online paths read the two fields: `free` / `usable_size`, and the
//! fill and flush under them, all on a superblock they know is live. Which
//! large spans are live is [`Census::claim`]'s one rule; recovery, the
//! checker and `rinspect stats` differ only in the heads they pass it.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use nvm::PmemPool;
use pptr::AtomicLink;

use crate::anchor::Anchor;
use crate::layout::{Geometry, DESC_SIZE};
use crate::shard::SHARDS;
use crate::size_class::{
    class_block_size, class_max_count, is_small_class, CLASS_CONTINUATION, SB_SIZE,
};

/// Offset of a descriptor's (transient) anchor word.
pub const ANCHOR_OFF: usize = 0;
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

    /// The word at `field` (one of the offsets above).
    #[inline]
    fn word(&self, field: usize) -> &'a AtomicU64 {
        // SAFETY: the descriptor lies in bounds and every field is an
        // 8-aligned word, only ever accessed atomically.
        unsafe { self.pool.atomic_u64(self.off + field) }
    }

    /// The anchor word.
    #[inline]
    pub fn anchor_word(&self) -> &'a AtomicU64 {
        self.word(ANCHOR_OFF)
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

    /// Superblock free-list link (no target = end).
    #[inline]
    pub fn next_free(&self) -> &'a AtomicLink<30> {
        AtomicLink::from_ref(self.word(NEXT_FREE_OFF))
    }

    /// Partial-list link (no target = end).
    #[inline]
    pub fn next_partial(&self) -> &'a AtomicLink<30> {
        AtomicLink::from_ref(self.word(NEXT_PARTIAL_OFF))
    }

    /// This superblock's owning shard: the home shard of the thread whose
    /// fill last claimed it (a rebuild stamps its placement). A statistic
    /// only — a flush from another shard counts its group as remote (see
    /// [`crate::flush`]) and nothing is routed by it — read racily and,
    /// in a crash image, possibly garbage, hence the reduction.
    #[inline]
    pub fn owner(&self) -> u32 {
        self.word(OWNER_OFF).load(Ordering::Relaxed) as u32 % SHARDS
    }

    /// Record `shard` as this superblock's owner.
    #[inline]
    pub fn set_owner(&self, shard: u32) {
        self.word(OWNER_OFF).store(shard as u64, Ordering::Relaxed)
    }

    /// Block size currently persisted for this superblock. For class 0
    /// this is the byte size of the whole large allocation.
    #[inline]
    pub fn block_size(&self) -> u64 {
        // Reads race only with `set_size`, which happens strictly before
        // the superblock is published; an atomic relaxed load keeps the
        // access well-defined.
        self.word(BLOCK_SIZE_OFF).load(Ordering::Relaxed)
    }

    /// Size class currently persisted for this superblock.
    #[inline]
    pub fn size_class(&self) -> u32 {
        self.word(CLASS_WORD_OFF).load(Ordering::Relaxed) as u32
    }

    /// Transient cached blocks-per-superblock.
    #[inline]
    pub fn max_count(&self) -> u32 {
        (self.word(CLASS_WORD_OFF).load(Ordering::Relaxed) >> 32) as u32
    }

    /// Store the size identity of this superblock, owned exclusively. It
    /// persists nothing: the claim that stores it flushes it and fences
    /// once before any block of the superblock can be observed by another
    /// thread or by a post-crash trace (`HeapInner::claim`).
    pub fn set_size(&self, class: u32, block_size: u64, max_count: u32) {
        self.word(BLOCK_SIZE_OFF).store(block_size, Ordering::Relaxed);
        self.word(CLASS_WORD_OFF).store((class as u64) | ((max_count as u64) << 32), Ordering::Release);
    }

    /// Flush the identities of this descriptor and the `span - 1` after
    /// it: adjacent lines, one flush call, durable at the next fence.
    pub fn flush_size(&self, span: usize) {
        self.pool.flush(self.off + BLOCK_SIZE_OFF, (span - 1) * DESC_SIZE + 16);
    }
}

/// One superblock as the [`Census`] decodes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Holds no block recovery may keep: never initialized, torn, or a
    /// large head whose span passes `used`.
    Empty,
    /// Interior of a (possibly stale) large block.
    Continuation,
    /// Head of a large block of `bytes` bytes over `span` superblocks;
    /// its mark is bit `bit`.
    Large { bit: usize, span: u32, bytes: u64 },
    /// `blocks` blocks of `size` bytes (small `class`), marked at bits
    /// `bit..bit + blocks`; `recip` is ⌈2³² / size⌉.
    Small { class: u8, bit: usize, blocks: u32, size: u32, recip: u32 },
}

/// One pass over descriptors `0..used`: every superblock's [`Slot`], with
/// a bit range per superblock that can hold a block in one flat mark
/// bitmap of `bits` bits. This is the only decoder of a descriptor's
/// persisted identity; recovery, the checker and `rinspect` read it, and
/// [`Census::claim`] is their one rule for which large spans are live.
pub struct Census {
    pub slots: Vec<Slot>,
    pub(crate) bits: usize,
    /// Absolute address of superblock 0.
    pub(crate) sb_base: usize,
}

/// What [`Census::claim`] decided.
pub struct Claim {
    /// Per superblock: inside a claimed span, head or interior.
    pub claimed: Vec<bool>,
    /// The claimed spans, ascending and disjoint.
    pub spans: Vec<Range<usize>>,
    /// Bytes of the claimed large blocks.
    pub bytes: u64,
    /// Heads `live` accepted whose interior is not all continuations.
    pub phantoms: Vec<usize>,
}

impl Census {
    /// Decode descriptors `0..used`. A crash may leave garbage in a
    /// descriptor that was carved but never initialized, so a small class
    /// counts only with its own block size, and a large head only with a
    /// positive size whose span fits under `used`.
    pub fn take(pool: &PmemPool, geo: &Geometry, used: usize) -> Census {
        let mut bits = 0;
        let slots = (0..used)
            .map(|i| {
                let d = Desc::new(pool, geo, i as u32);
                let (class, bytes) = (d.size_class(), d.block_size());
                let span = (bytes as usize).div_ceil(SB_SIZE);
                let (slot, n) = match class {
                    CLASS_CONTINUATION => (Slot::Continuation, 0),
                    0 if span > 0 && i + span <= used => (Slot::Large { bit: bits, span: span as u32, bytes }, 1),
                    c if is_small_class(c) && bytes == class_block_size(c) as u64 => {
                        let (size, blocks) = (class_block_size(c), class_max_count(c));
                        let recip = (1u64 << 32).div_ceil(size as u64) as u32;
                        (Slot::Small { class: c as u8, bit: bits, blocks, size, recip }, blocks)
                    }
                    _ => (Slot::Empty, 0),
                };
                bits += n as usize;
                slot
            })
            .collect();
        Census { slots, bits, sb_base: pool.base() as usize + geo.sb(0) }
    }

    /// Every large head, ascending.
    pub fn heads(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| matches!(s, Slot::Large { .. }).then_some(i))
    }

    /// Mark bits of the superblocks below `sb`: where the first bit at or
    /// past it is.
    pub(crate) fn bits_below(&self, sb: usize) -> usize {
        let bit = |slot: &Slot| match *slot {
            Slot::Small { bit, .. } | Slot::Large { bit, .. } => Some(bit),
            _ => None,
        };
        self.slots[sb..].iter().find_map(bit).unwrap_or(self.bits)
    }

    /// The one rule for which large spans are live: of the large `heads`
    /// (ascending), claim each whose whole interior is continuations and
    /// report every other as a phantom. A head inside a claimed span is not
    /// a continuation, so the spans are disjoint. Recovery passes the heads
    /// its trace marked; the checker and `rinspect`, the [`Census::heads`]
    /// that read FULL.
    pub fn claim(&self, heads: impl IntoIterator<Item = usize>) -> Claim {
        let claimed = vec![false; self.slots.len()];
        let mut out = Claim { claimed, spans: Vec::new(), bytes: 0, phantoms: Vec::new() };
        for head in heads {
            let Slot::Large { span, bytes, .. } = self.slots[head] else { continue };
            let span = head..head + span as usize;
            if self.slots[head + 1..span.end].iter().all(|s| *s == Slot::Continuation) {
                out.claimed[span.clone()].fill(true);
                out.spans.push(span);
                out.bytes += bytes;
            } else {
                out.phantoms.push(head);
            }
        }
        out
    }
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
        let pool = PmemPool::new(Geometry::pool_len_for_capacity(1 << 20), Mode::Tracked);
        let geo = Geometry::from_pool_len(pool.len());
        let identity = |i: u32| geo.desc(i as usize) + BLOCK_SIZE_OFF;
        for i in 5..8 {
            Desc::new(&pool, &geo, i).set_size(8, 64, 1024);
        }
        let d = Desc::new(&pool, &geo, 5);
        assert_eq!((d.size_class(), d.block_size(), d.max_count()), (8, 64, 1024));
        let before = pool.stats().snapshot();
        d.flush_size(3);
        assert!(!pool.is_durable(identity(5), 16), "durable before the fence");
        pool.fence();
        assert!((5..8).all(|i| pool.is_durable(identity(i), 16)), "a span's identities");
        let after = pool.stats().snapshot();
        assert_eq!((after.flush_calls - before.flush_calls, after.fences - before.fences), (1, 1));
    }

    /// `set_size` alone flushes nothing (a transient heap's claims rely on it).
    #[test]
    fn transient_mode_skips_flush() {
        let (pool, geo) = test_pool();
        let before = pool.stats().snapshot();
        Desc::new(&pool, &geo, 1).set_size(2, 16, 4096);
        let after = pool.stats().snapshot();
        assert_eq!(after.fences, before.fences);
        assert_eq!(after.flush_calls, before.flush_calls);
    }

    #[test]
    fn classify_validates() {
        let (pool, geo) = test_pool();
        let used = 10usize;
        // Valid small.
        Desc::new(&pool, &geo, 0).set_size(1, 8, 8192);
        // Small class with wrong size -> invalid.
        Desc::new(&pool, &geo, 1).set_size(1, 16, 4096);
        // Descriptor 2 stays zeroed -> class 0 with size 0 -> invalid.
        // Large head spanning 2 superblocks.
        Desc::new(&pool, &geo, 3).set_size(0, (SB_SIZE + 10) as u64, 0);
        // Large head overflowing the used region -> invalid.
        Desc::new(&pool, &geo, 9).set_size(0, (SB_SIZE * 4) as u64, 0);
        // Continuation sentinel.
        Desc::new(&pool, &geo, 4).set_size(CLASS_CONTINUATION, 0, 0);
        let slots = Census::take(&pool, &geo, used).slots;
        assert!(matches!(slots[0], Slot::Small { class: 1, .. }));
        assert_eq!(slots[1], Slot::Empty);
        assert_eq!(slots[2], Slot::Empty);
        assert!(matches!(slots[3], Slot::Large { span: 2, .. }));
        assert_eq!(slots[9], Slot::Empty);
        assert_eq!(slots[4], Slot::Continuation);
    }

    #[test]
    fn claim_takes_live_heads_over_continuations_only() {
        let (pool, geo) = test_pool();
        let large = |idx: u32, span: usize| {
            Desc::new(&pool, &geo, idx).set_size(0, (span * SB_SIZE) as u64, 0);
            for k in 1..span as u32 {
                Desc::new(&pool, &geo, idx + k).set_size(CLASS_CONTINUATION, 0, 0);
            }
        };
        large(0, 3); // live
        large(3, 3); // live, but a fill re-typed its last superblock
        Desc::new(&pool, &geo, 5).set_size(8, 64, 1024);
        large(6, 2); // not accepted
        let census = Census::take(&pool, &geo, 8);
        assert_eq!(census.heads().collect::<Vec<_>>(), [0, 3, 6]);
        let claim = census.claim(census.heads().filter(|&head| head != 6));
        assert_eq!((claim.spans.len(), claim.spans[0].clone()), (1, 0..3));
        assert_eq!(claim.phantoms, [3]);
        assert_eq!(claim.bytes, 3 * SB_SIZE as u64);
        assert_eq!(claim.claimed, [true, true, true, false, false, false, false, false]);
    }
}
