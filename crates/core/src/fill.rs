//! Cache fill: where a thread's empty bin gets its next batch of blocks.
//!
//! The one decision this module owns is the **source order** of a fill,
//! the paper's Fill (§4.4) plus the steal: home shard's partial list →
//! free list → the other shards' partial lists in ring order → carve.
//! Whatever the fill claims goes to the bin whole: a partial superblock's
//! entire free chain, or a free or fresh superblock's entire population.
//! An already-carved free superblock comes before a neighbor's partial
//! one: it costs no `used` and keeps threads from trading superblocks.
//! The fill stamps whatever it claims with its home shard
//! ([`Desc::set_owner`]), the word a flush tells a remote free by.
//! `carve` is the only place `used` rises, growing the committed prefix
//! first when it is in the way ([`crate::frontier`]).
//!
//! An EMPTY superblock left on a partial list (a flush took it
//! PARTIAL→EMPTY) is retired to the free list when a fill of its own class
//! pops it, as in the paper and LRMalloc; a fill of another class does
//! not look for it and carves instead. Recovery's sweep moves whatever is
//! still parked to the free list, and a shrink releases it when it lies
//! in the trailing free run.
//!
//! A fill stores into no block it claims: a fresh superblock's addresses
//! are computed, and its memory is backed by the first store into its
//! 2 MiB chunk, which 32 superblocks share (the pool maps simulated NVM
//! with huge pages, [`nvm::sys::Reservation::map`]).
//!
//! A fill holds the thread's cache set, so everything it counts goes to
//! that set's [`ThreadStats`]. `carve` also serves large allocations,
//! which hold none: it counts nothing itself and each caller counts what
//! it got, its own way.
//!
//! `pub(crate)` surface on [`HeapInner`]: `fill_bin`, `carve`; plus
//! [`prefetch_read`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::anchor::{Anchor, SbState};
use crate::descriptor::Desc;
use crate::heap::HeapInner;
use crate::layout::USED_SB_OFF;
use crate::lists::DescList;
use crate::shard::{current_home_shard, neighbors};
use crate::size_class::{cache_capacity, class_block_size, class_max_count, is_small_class};
use crate::stats::{Slot, ThreadStats};
use crate::tcache::CacheBin;

/// Best-effort read prefetch of the cache line at `addr`. The fill and
/// flush slow paths walk/link free chains whose next element is a
/// dependent load; issuing the prefetch as soon as an address is known
/// hides most of that latency on large batches.
#[inline(always)]
pub(crate) fn prefetch_read(addr: usize) {
    // SAFETY: prefetch is a hint; any address is permitted.
    unsafe {
        core::arch::x86_64::_mm_prefetch(addr as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
}

impl HeapInner {
    /// Expand the used prefix of the superblock region by `n` superblocks
    /// (paper §4.3): CAS `used` upward, then flush+fence it. The pool's
    /// committed prefix must cover the superblocks before `used` may;
    /// when it is in the way, grow it first (cold path). `None` only at
    /// the reserved-capacity ceiling. The caller counts `sb_carved`, a
    /// carve's only record (it emits no event).
    pub(crate) fn carve(&self, n: usize) -> Option<u32> {
        // SAFETY: metadata offset, 8-aligned.
        let used = unsafe { self.pool.atomic_u64(USED_SB_OFF) };
        loop {
            let u = used.load(Ordering::Acquire);
            let need = u as usize + n;
            if need > self.committed_sb() {
                if !self.grow(need) {
                    return None; // out of reserved space
                }
                continue;
            }
            if used
                .compare_exchange(u, u + n as u64, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.persist(USED_SB_OFF, 8);
                return Some(u as u32);
            }
        }
    }

    /// Account one served fill of `n` blocks.
    #[inline]
    fn filled(stats: &mut ThreadStats, n: u64) {
        stats.add(Slot::cache_fills, 1);
        stats.add(Slot::cache_fill_blocks, n);
    }

    /// Refill a cache bin for `class` (paper §4.4, LRMalloc's Fill), from
    /// the first of four places that has a superblock: the home shard's
    /// partial list, the free list, the other shards' partial lists in
    /// ring order (the steal), a carve. A partial superblock's entire free
    /// chain is claimed by one Partial→Full anchor CAS; a free or fresh
    /// superblock is owned outright (plain anchor store) and its entire
    /// population goes to the bin (which holds at least that many:
    /// [`cache_capacity`]). So a fill synchronizes once, whatever its
    /// batch. A superblock popped EMPTY off a partial list is retired to
    /// the free list (paper §4.4's lazy retirement) and the fill goes on.
    pub(crate) fn fill_bin(&self, class: u32, bin: &mut CacheBin, stats: &mut ThreadStats) -> bool {
        debug_assert!(is_small_class(class));
        debug_assert_eq!(bin.len(), 0, "fill into a non-empty bin");
        bin.ensure_capacity(cache_capacity(class) as usize);
        let home = current_home_shard();
        let free = DescList::free_list(&self.geo);
        let partial = |s| DescList::partial_shard(&self.geo, class, s).pop(&self.pool, &self.geo);
        let bsize = class_block_size(class) as usize;
        let mc = class_max_count(class);
        loop {
            // `from` is the counter of a partial-list pop; a free or
            // fresh superblock has none.
            let found = partial(home)
                .map(|i| (i, Some(Slot::partial_pops_home)))
                .or_else(|| free.pop(&self.pool, &self.geo).map(|i| (i, None)))
                .or_else(|| neighbors(home).find_map(partial).map(|i| (i, Some(Slot::partial_steals))))
                .or_else(|| self.carve(1).inspect(|_| stats.add(Slot::sb_carved, 1)).map(|i| (i, None)));
            let Some((idx, from)) = found else {
                return false; // out of persistent space
            };
            let d = Desc::new(&self.pool, &self.geo, idx);
            let Some(from) = from else {
                // A free or fresh superblock. The one flush+fence of the
                // allocation slow path: persist its size identity before
                // any of its blocks can be handed out (paper §4,
                // innovation 1). A recycled superblock that already
                // carries the identical persisted identity (same class
                // round-tripping through the free list) skips the
                // provably redundant flush.
                d.set_owner(home);
                let unchanged = d.size_class() == class && d.block_size() == bsize as u64;
                d.set_size(class, bsize as u64, mc, self.transient || unchanged);
                // We own it outright, so a plain anchor store publishes
                // it FULL.
                d.set_anchor(Anchor::full(mc), Ordering::Release);
                let sb_addr = self.addr_of(self.geo.sb(idx as usize));
                for i in (0..mc).rev() {
                    bin.push(sb_addr + i as usize * bsize);
                }
                Self::filled(stats, mc as u64);
                return true;
            };
            // A partial superblock: reserve every free block with one CAS
            // (count=0, avail parked at max_count, state FULL).
            let mut a = d.anchor(Ordering::Acquire);
            while a.state != SbState::Empty {
                debug_assert_eq!(a.state, SbState::Partial);
                match d.cas_anchor(a, Anchor::full(mc)) {
                    Ok(()) => break,
                    Err(cur) => a = cur,
                }
            }
            if a.state == SbState::Empty {
                // Lazy retirement: no fill was served, so it counts
                // toward neither home pops nor steals.
                free.push(&self.pool, &self.geo, idx);
                continue;
            }
            d.set_owner(home);
            stats.add(from, 1);
            stats.add(Slot::fill_anchor_cas, 1);
            // We own the a.count-block chain headed at a.avail; carve it
            // into the bin locally, no further synchronization. The walk
            // is clamped to the superblock's population, which the bin's
            // capacity is at least: `a.count` can only exceed it if a user
            // double-free inflated the anchor, and the containment then
            // must be a bounded leak, never a write past the bin's slot
            // array.
            let take = a.count.min(mc);
            debug_assert_eq!(take, a.count, "anchor count exceeds superblock population");
            let sb_addr = self.addr_of(self.geo.sb(idx as usize));
            let mut blk = a.avail;
            for _ in 0..take {
                debug_assert!(blk < mc);
                let addr = sb_addr + blk as usize * bsize;
                // Free-block link: the block's first word holds the next
                // free block's index (bounded walk: the final link word
                // is never dereferenced).
                // SAFETY: addr is a free block we exclusively own.
                blk = unsafe { (*(addr as *const AtomicU64)).load(Ordering::Relaxed) } as u32;
                // The walk is a dependent pointer chase; start pulling the
                // next link word in while this block is pushed.
                if blk < mc {
                    prefetch_read(sb_addr + blk as usize * bsize);
                }
                bin.push(addr);
            }
            Self::filled(stats, take as u64);
            return true;
        }
    }
}
