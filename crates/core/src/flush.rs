//! Cache flush: how freed blocks travel from a thread's bin back to their
//! superblocks.
//!
//! There is one route (the paper's Flush, §4.4): blocks are partitioned
//! by superblock and each group goes back with **one** anchor CAS
//! (`push_batch`) — 1/N of a CAS per block for a group of N, whichever
//! thread filled the superblock; a batch inside its first block's
//! superblock, the usual whole-bin flush, is one group as it stands. A
//! returned block is visible to every
//! fill the moment that CAS lands. An overflowing bin returns its oldest
//! superblock population and keeps the rest ([`HeapInner::free_overflow`]);
//! exit and `close` drain whole bins.
//!
//! A group is *remote* when its superblock's owner — the home shard of
//! the thread whose fill last claimed it ([`Desc::owner`]) — is not the
//! freeing thread's. That is a statistic (`remote_free_blocks`,
//! `remote_anchor_cas`), not a route: the owner word is read racily, may
//! be stale or meaningless (a crash image),
//! and decides nothing. The FULL→PARTIAL transition enlists the
//! superblock on the *freeing* thread's home shard, FULL→EMPTY puts it on
//! the free list, and PARTIAL→EMPTY leaves it where it is listed: the
//! next fill of its class that pops it retires it ([`crate::fill`]).
//!
//! Every function here counts into the [`ThreadStats`] of the cache set
//! it works for ([`crate::stats`]).
//!
//! `pub(crate)` surface on [`HeapInner`]: `return_blocks`,
//! `free_overflow`, `drain_tls`, `push_batch`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::anchor::{Anchor, SbState};
use crate::descriptor::Desc;
use crate::fill::prefetch_read;
use crate::heap::HeapInner;
use crate::lists::DescList;
use crate::shard::current_home_shard;
use crate::size_class::{cache_capacity, class_max_count, SB_SIZE};
use crate::stats::{Slot, ThreadStats};
use crate::tcache::{CacheBin, HeapTls};

impl HeapInner {
    /// Return a batch of same-superblock blocks to that superblock's
    /// internal free list with a **single** anchor CAS, handling the
    /// FULL→PARTIAL and →EMPTY transitions (paper §4.4). The batch is
    /// pre-linked into a local chain (we own every block until the CAS
    /// publishes it), then spliced ahead of the current free-list head.
    ///
    /// A batch that is the superblock's whole population is not linked
    /// at all: it takes the superblock FULL→EMPTY in one step, and an
    /// EMPTY superblock's chain is never walked — whoever takes it off
    /// the free list (a fill, a large block, recovery) rebuilds it, shrink only
    /// reads the anchor, and [`crate::checker`] holds EMPTY to
    /// `count == max_count` alone.
    pub(crate) fn push_batch(
        &self,
        sb: usize,
        blocks: &[usize],
        home: u32,
        stats: &mut ThreadStats,
    ) {
        debug_assert!(!blocks.is_empty());
        let d = Desc::new(&self.pool, &self.geo, sb as u32);
        let mc = d.max_count();
        let bsize = d.block_size() as usize;
        let sb_addr = self.addr_of(self.geo.sb(sb));
        let block_idx = |addr: usize| {
            debug_assert_eq!((addr - sb_addr) % bsize, 0, "misaligned block in batch");
            let blk = ((addr - sb_addr) / bsize) as u32;
            debug_assert!(blk < mc);
            blk
        };
        let n = blocks.len() as u32;
        let whole = n == mc;
        if !whole {
            // Pre-link the interior of the chain: block i's first word
            // points at block i+1's index. Unlike the fill walk the
            // addresses are all known up front, so pull block i+2's line
            // in while linking i.
            for (i, w) in blocks.windows(2).enumerate() {
                if let Some(&ahead) = blocks.get(i + 2) {
                    prefetch_read(ahead);
                }
                // SAFETY: we own every freed block until the CAS publishes them.
                unsafe {
                    (*(w[0] as *const AtomicU64)).store(block_idx(w[1]) as u64, Ordering::Relaxed)
                };
            }
        }
        let head = block_idx(blocks[0]);
        let tail = blocks[blocks.len() - 1];
        loop {
            let a = d.anchor(Ordering::Acquire);
            // Link the chain's tail to the current head. `a.avail` may be
            // the max_count sentinel; walks are bounded by count, so the
            // stale link is never followed.
            if !whole {
                // SAFETY: the tail block is still ours until the CAS.
                unsafe { (*(tail as *const AtomicU64)).store(a.avail as u64, Ordering::Release) };
            }
            let count = a.count + n;
            debug_assert!(count <= mc);
            let new = Anchor {
                avail: head,
                count,
                state: if count == mc { SbState::Empty } else { SbState::Partial },
            };
            if d.cas_anchor(a, new).is_ok() {
                stats.add(Slot::flush_anchor_cas, 1);
                if a.state == SbState::Full {
                    // FULL superblocks are on no list; the thread that
                    // makes the transition enlists the descriptor — onto
                    // its own home shard, so a thread's flushed
                    // superblocks are the ones its next fill pops.
                    if new.state == SbState::Empty {
                        DescList::free_list(&self.geo).push(&self.pool, &self.geo, sb as u32);
                    } else {
                        let shard = DescList::partial_shard(&self.geo, d.size_class(), home);
                        shard.push(&self.pool, &self.geo, sb as u32);
                        stats.add(Slot::partial_shard_pushes, 1);
                    }
                }
                // PARTIAL→EMPTY keeps the descriptor on its partial list;
                // it is retired when its class's next fill pops it (lazy,
                // paper §4.4).
                return;
            }
        }
    }

    /// Return one superblock-coherent group: one anchor CAS via
    /// [`HeapInner::push_batch`], counted as remote when another shard's
    /// thread last filled the superblock (see the module docs).
    fn return_group(&self, sb: usize, blocks: &[usize], home: u32, stats: &mut ThreadStats) {
        if Desc::new(&self.pool, &self.geo, sb as u32).owner() != home {
            stats.add(Slot::remote_free_blocks, blocks.len() as u64);
            stats.add(Slot::remote_anchor_cas, 1);
        }
        self.push_batch(sb, blocks, home, stats);
    }

    /// Return an arbitrary batch of blocks, grouping them by superblock
    /// (LRMalloc's Flush). Reorders `blocks` in place while partitioning
    /// and allocates nothing: a flush runs inside `free`, and a
    /// `#[global_allocator]` built on this heap must not re-enter itself.
    ///
    /// Each group goes back through [`HeapInner::return_group`].
    ///
    /// Most bins hold one superblock's run, which one range test per block
    /// tells: it goes back as it stands. The others mostly hold two
    /// superblocks, so their partition starts with a linear scan that moves
    /// one superblock's blocks to the front per pass. A batch that spans
    /// more superblocks than that scan takes on — a 16-slot bin of 4-block
    /// superblocks usually does — sorts the rest by address: a superblock is
    /// a contiguous address range, so sorted blocks arrive grouped, one run
    /// per superblock.
    pub(crate) fn return_blocks(&self, blocks: &mut [usize], stats: &mut ThreadStats) {
        /// Superblocks the linear scan takes before the rest is sorted:
        /// its worst case is then `MAX_LINEAR_GROUPS`·n comparisons.
        const MAX_LINEAR_GROUPS: usize = 8;
        let base = self.pool.base() as usize;
        let sb_of =
            |addr: usize| self.geo.sb_index_of(addr - base).expect("flush_blocks: foreign address");
        // One TLS lookup + hash for the whole batch, not per superblock.
        let home = current_home_shard();
        let Some(&first) = blocks.first() else { return };
        let sb = sb_of(first);
        let lo = self.addr_of(self.geo.sb(sb));
        if blocks.iter().all(|&addr| addr.wrapping_sub(lo) < SB_SIZE) {
            return self.return_group(sb, blocks, home, stats);
        }
        let mut rest = blocks;
        for _ in 0..MAX_LINEAR_GROUPS {
            let Some(&first) = rest.first() else { return };
            let sb = sb_of(first);
            // Partition: move every block of this superblock into
            // rest[..end].
            let mut end = 1;
            for j in 1..rest.len() {
                if sb_of(rest[j]) == sb {
                    rest.swap(end, j);
                    end += 1;
                }
            }
            let (group, tail) = rest.split_at_mut(end);
            self.return_group(sb, group, home, stats);
            rest = tail;
        }
        rest.sort_unstable();
        for group in rest.chunk_by(|&a, &b| sb_of(a) == sb_of(b)) {
            self.return_group(sb_of(group[0]), group, home, stats);
        }
    }

    /// Hand the oldest `n` blocks of a bin back to the heap and drop them
    /// from the bin. The older blocks sit at the bottom of the LIFO array,
    /// so a partial flush returns the slice most likely to complete
    /// superblocks and keeps the newest cached.
    fn flush_oldest(&self, bin: &mut CacheBin, n: usize, stats: &mut ThreadStats) {
        if n == 0 {
            return;
        }
        stats.add(Slot::cache_flushes, 1);
        stats.add(Slot::cache_flushes_blocks, n as u64);
        self.return_blocks(&mut bin.blocks_mut()[..n], stats);
        bin.drain_front(n);
    }

    /// Free-path overflow: size a never-used bin, or flush a full one's
    /// oldest superblock population — the whole bin for every class of
    /// ≤ 4 096 B, the oldest 4–12 of a bigger class's 16, as tcmalloc
    /// releases one transfer batch.
    #[cold]
    pub(crate) fn free_overflow(&self, class: u32, bin: &mut CacheBin, stats: &mut ThreadStats) {
        if bin.capacity() == 0 {
            return bin.ensure_capacity(cache_capacity(class) as usize);
        }
        self.flush_oldest(bin, class_max_count(class) as usize, stats);
    }

    /// Drain every class bin of a TLS entry back to its superblocks
    /// (thread exit and `close`; paper §4.4: "all of the blocks in the
    /// cache are pushed back").
    pub(crate) fn drain_tls(&self, entry: &mut HeapTls) {
        let HeapTls { bins, stats, .. } = entry;
        for bin in bins.iter_mut() {
            self.flush_oldest(bin, bin.len() as usize, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The one-run batch: a batch inside its first block's superblock goes
    //! back whole, and a block one past that superblock's end is another
    //! superblock's.

    use std::sync::atomic::Ordering;

    use crate::anchor::{Anchor, SbState};
    use crate::descriptor::Desc;
    use crate::heap::HeapInner;
    use crate::size_class::class_max_count;
    use crate::stats::ThreadStats;
    use crate::{Ralloc, RallocConfig};

    impl HeapInner {
        /// [`HeapInner::return_blocks`] for a test that hands blocks back
        /// by hand, counted through a block of its own.
        pub(crate) fn flush_blocks(&self, blocks: &mut [usize]) {
            self.return_blocks(blocks, &mut ThreadStats::new(&self.telemetry));
        }
    }

    /// Every 64 B block of the first `n` superblocks, by superblock, all
    /// allocated (so every superblock is FULL and the bin is empty).
    fn full_superblocks(heap: &Ralloc, n: usize) -> Vec<Vec<usize>> {
        let mc = class_max_count(8) as usize;
        let mut got: Vec<usize> = (0..n * mc).map(|_| heap.malloc(64) as usize).collect();
        got.sort_unstable();
        let want = (0..n * mc).map(|i| heap.region_base() + i / mc * crate::SB_SIZE + i % mc * 64);
        assert!(got.iter().copied().eq(want), "the first {n} superblocks serve the 64 B class");
        got.chunks(mc).map(<[usize]>::to_vec).collect()
    }

    fn anchor(heap: &Ralloc, sb: usize) -> Anchor {
        Desc::new(&heap.inner.pool, &heap.inner.geo, sb as u32).anchor(Ordering::Acquire)
    }

    fn flush_cas(heap: &Ralloc) -> u64 {
        heap.slow_stats().flush_anchor_cas.get()
    }

    #[test]
    fn a_batch_ending_on_the_next_superblocks_first_block_lands_on_both_anchors() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let sbs = full_superblocks(&heap, 2);
        let mut batch: Vec<usize> = sbs[0][..10].iter().copied().chain([sbs[1][0]]).collect();
        heap.inner.flush_blocks(&mut batch);
        assert_eq!((anchor(&heap, 0).count, anchor(&heap, 0).state), (10, SbState::Partial));
        assert_eq!((anchor(&heap, 1).count, anchor(&heap, 1).state), (1, SbState::Partial));
        assert_eq!(flush_cas(&heap), 2, "two superblocks, two anchor CASes");
    }

    #[test]
    fn a_batch_starting_at_a_superblocks_last_block_lands_on_both_anchors() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let sbs = full_superblocks(&heap, 2);
        let mut batch = vec![*sbs[0].last().unwrap(), sbs[1][0]];
        heap.inner.flush_blocks(&mut batch);
        assert_eq!((anchor(&heap, 0).count, anchor(&heap, 0).state), (1, SbState::Partial));
        assert_eq!((anchor(&heap, 1).count, anchor(&heap, 1).state), (1, SbState::Partial));
        assert_eq!(flush_cas(&heap), 2, "two superblocks, two anchor CASes");
    }

    #[test]
    fn a_whole_population_costs_one_anchor_cas() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8);
        let sbs = full_superblocks(&heap, 3);
        // Alone, newest first as a bin holds it.
        let mut batch: Vec<usize> = sbs[0].iter().rev().copied().collect();
        heap.inner.flush_blocks(&mut batch);
        assert_eq!((anchor(&heap, 0).count, anchor(&heap, 0).state), (mc, SbState::Empty));
        assert_eq!(flush_cas(&heap), 1, "one population, one anchor CAS");
        // With the next superblock's first block behind it: the
        // population still goes back in one CAS, the stray in its own.
        let mut batch: Vec<usize> = sbs[1].iter().copied().chain([sbs[2][0]]).collect();
        heap.inner.flush_blocks(&mut batch);
        assert_eq!((anchor(&heap, 1).count, anchor(&heap, 1).state), (mc, SbState::Empty));
        assert_eq!((anchor(&heap, 2).count, anchor(&heap, 2).state), (1, SbState::Partial));
        assert_eq!(flush_cas(&heap), 3, "one CAS per superblock");
    }
}
