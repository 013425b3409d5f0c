//! Cache fill: where a thread's empty bin gets its next batch of blocks.
//!
//! The one decision this module owns is the **source order** of a fill —
//! home shard's partial superblock → free list → steal a neighbor shard's
//! partial → scavenge → carve. Whatever the fill claims goes to the bin
//! whole: a partial superblock's entire free chain, or a fresh
//! superblock's entire population (the paper's Fill, §4.4). An
//! already-carved empty superblock comes before a neighbor's partial
//! one: it costs no `used` (stealing still precedes carving) and keeps
//! threads from trading superblocks. The fill stamps whatever it claims
//! with its home shard ([`Desc::set_owner`]), the word a flush tells a
//! remote free by. `carve` is the only place `used` rises, growing the
//! committed prefix first when it is in the way ([`crate::frontier`]).
//!
//! A fill stores into no block it claims: a fresh superblock's addresses
//! are computed, and its memory is backed by the first store into its
//! 2 MiB chunk, which 32 superblocks share (the pool maps simulated NVM
//! with huge pages, [`nvm::sys::Reservation::map`]).
//!
//! A fill holds the thread's cache set, so everything it counts goes to
//! that set's [`ThreadStats`]. `carve` and `scavenge` also serve large
//! allocations, which hold none: they count nothing themselves and each
//! caller counts what it got, its own way.
//!
//! `pub(crate)` surface on [`HeapInner`]: `fill_bin`, `carve`, `scavenge`;
//! plus [`prefetch_read`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::anchor::{Anchor, SbState};
use crate::descriptor::Desc;
use crate::heap::HeapInner;
use crate::layout::USED_SB_OFF;
use crate::lists::DescList;
use crate::shard::{current_home_shard, ShardedPartial, SHARDS};
use crate::size_class::{
    cache_capacity, class_block_size, class_max_count, is_small_class, NUM_CLASSES,
};
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

    /// Refill a cache bin for `class` (paper §4.4, LRMalloc's Fill):
    /// first from a partial superblock, else from a free/fresh superblock
    /// whose entire block population goes to the bin (which holds at
    /// least that many: [`cache_capacity`]). Either way the
    /// whole batch is reserved with at most **one** anchor CAS — a
    /// partial superblock's entire free chain is claimed by a single
    /// Partial→Full transition, and a fresh superblock is owned outright
    /// (plain anchor store) — so the slow path's synchronization is
    /// amortized over every block of the batch.
    pub(crate) fn fill_bin(&self, class: u32, bin: &mut CacheBin, stats: &mut ThreadStats) -> bool {
        debug_assert!(is_small_class(class));
        debug_assert_eq!(bin.len(), 0, "fill into a non-empty bin");
        bin.ensure_capacity(cache_capacity(class) as usize);
        let partial = ShardedPartial::new(class);
        let home = current_home_shard();
        let free = DescList::free_list(&self.geo);
        let bsize = class_block_size(class) as usize;
        let mc = class_max_count(class);
        loop {
            let mut claim = partial.pop(&self.pool, &self.geo, home);
            let fresh = if claim.is_none() { free.pop(&self.pool, &self.geo) } else { None };
            let stolen = claim.is_none() && fresh.is_none();
            if stolen {
                claim = partial.steal(&self.pool, &self.geo, home);
            }
            if let Some(idx) = claim {
                let d = Desc::new(&self.pool, &self.geo, idx);
                let mut a = d.anchor(Ordering::Acquire);
                let mut retired = false;
                loop {
                    if a.state == SbState::Empty {
                        // Fully-free superblock found on a partial list:
                        // retire it now (paper §4.4's lazy retirement).
                        free.push(&self.pool, &self.geo, idx);
                        retired = true;
                        break;
                    }
                    debug_assert_eq!(a.state, SbState::Partial);
                    // Reserve every free block with one CAS: count=0,
                    // avail parked at max_count, state FULL.
                    match d.cas_anchor(a, Anchor::full(mc)) {
                        Ok(()) => break,
                        Err(cur) => a = cur,
                    }
                }
                if retired {
                    // Lazily-retired EMPTY pop: no fill was served, so it
                    // counts toward neither home pops nor steals.
                    continue;
                }
                d.set_owner(home);
                stats.add(if stolen { Slot::partial_steals } else { Slot::partial_pops_home }, 1);
                stats.add(Slot::fill_anchor_cas, 1);
                // We own the a.count-block chain headed at a.avail; carve
                // it into the bin locally, no further synchronization.
                // The walk is clamped to the superblock's population,
                // which the bin's capacity is at least: `a.count` can
                // only exceed it if a user double-free inflated the
                // anchor, and the containment then must be a bounded leak,
                // never a write past the bin's slot array.
                let take = a.count.min(mc);
                debug_assert_eq!(take, a.count, "anchor count exceeds superblock population");
                let sb_addr = self.addr_of(self.geo.sb(idx as usize));
                let mut blk = a.avail;
                for _ in 0..take {
                    debug_assert!(blk < mc);
                    let addr = sb_addr + blk as usize * bsize;
                    // Free-block link: the block's first word holds the
                    // next free block's index (bounded walk: the final
                    // link word is never dereferenced).
                    // SAFETY: addr is a free block we exclusively own.
                    blk = unsafe { (*(addr as *const AtomicU64)).load(Ordering::Relaxed) } as u32;
                    // The walk is a dependent pointer chase; start pulling
                    // the next link word in while this block is pushed.
                    if blk < mc {
                        prefetch_read(sb_addr + blk as usize * bsize);
                    }
                    bin.push(addr);
                }
                Self::filled(stats, take as u64);
                return true;
            }
            // No partial superblock anywhere: take the free one, scavenge an
            // empty one stranded on another class's partial list, or carve.
            let scavenged = || self.scavenge().inspect(|_| stats.add(Slot::sb_scavenged, 1));
            let idx = match fresh.or_else(scavenged) {
                Some(i) => i,
                // A failed scavenge raced with every concurrent scan and
                // flush: while scans hold popped descriptors they are
                // invisible (the scavenge-invisibility window), and a
                // flush may have retired a superblock to the free list
                // after our first pop missed it. One re-check converts
                // those races into reuse instead of a permanent carve.
                None => match free.pop(&self.pool, &self.geo) {
                    Some(i) => {
                        stats.add(Slot::free_recheck_hits, 1);
                        i
                    }
                    None => match self.carve(1) {
                        Some(i) => {
                            stats.add(Slot::sb_carved, 1);
                            i
                        }
                        None => return false, // out of persistent space
                    },
                },
            };
            let d = Desc::new(&self.pool, &self.geo, idx);
            d.set_owner(home);
            // The one flush+fence of the allocation slow path: persist the
            // superblock's size identity before any of its blocks can be
            // handed out (paper §4, innovation 1). If a recycled
            // superblock already carries the identical persisted identity
            // (same class round-tripping through the free list), the
            // flush is provably redundant and skipped.
            let unchanged = d.size_class() == class && d.block_size() == bsize as u64;
            d.set_size(class, bsize as u64, mc, self.transient || unchanged);
            // The whole fresh population goes to the bin (LRMalloc's
            // Fill): we own the superblock outright, so a plain anchor
            // store publishes it FULL.
            d.set_anchor(Anchor::full(mc), Ordering::Release);
            let sb_addr = self.addr_of(self.geo.sb(idx as usize));
            for i in (0..mc).rev() {
                bin.push(sb_addr + i as usize * bsize);
            }
            Self::filled(stats, mc as u64);
            return true;
        }
    }

    /// Reclaim one fully-empty superblock parked on some class's partial
    /// list. Lazy retirement (paper §4.4) leaves PARTIAL→EMPTY
    /// superblocks enlisted until their own class pops them again; under
    /// shifting class mix that reservoir can strand megabytes while other
    /// classes carve fresh space. This runs only when the free list is
    /// exhausted, scans each class's partial list a bounded number of
    /// pops, re-enlists everything still partial, and hands one empty
    /// superblock to the caller (who re-types it with `set_size`, exactly
    /// like a free-list pop — the same ownership rules apply: a popped
    /// descriptor is off-list and EMPTY means no live blocks can be
    /// concurrently freed into it). The caller counts `sb_scavenged`.
    ///
    /// While a scan holds popped descriptors they are invisible to
    /// concurrent fills of their class, which may carve instead; the
    /// small per-class bound keeps that window to a few descriptors for
    /// a few instructions, trading at worst one transient extra carve
    /// for the (permanent) carve that skipping scavenging would cost.
    pub(crate) fn scavenge(&self) -> Option<u32> {
        const POPS_PER_SHARD: usize = 4;
        for class in 1..NUM_CLASSES as u32 {
            for s in 0..SHARDS {
                let list = DescList::partial_shard(&self.geo, class, s);
                let mut repush: [u32; POPS_PER_SHARD] = [0; POPS_PER_SHARD];
                let mut repush_n = 0;
                let mut found = None;
                while repush_n < POPS_PER_SHARD {
                    let Some(idx) = list.pop(&self.pool, &self.geo) else { break };
                    let d = Desc::new(&self.pool, &self.geo, idx);
                    if d.anchor(Ordering::Acquire).state == SbState::Empty {
                        found = Some(idx);
                        break;
                    }
                    repush[repush_n] = idx;
                    repush_n += 1;
                }
                for &idx in &repush[..repush_n] {
                    list.push(&self.pool, &self.geo, idx);
                }
                if found.is_some() {
                    return found;
                }
            }
        }
        None
    }
}
