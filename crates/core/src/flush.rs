//! Cache flush: how freed blocks travel from a thread's bin back to their
//! superblocks.
//!
//! The one decision this module owns is the **route** of a returned
//! group: blocks are partitioned by superblock, and each group either
//! pays one anchor CAS (`push_batch`) or — when another shard owns its
//! superblock and the remote-free rings are on — rides that shard's
//! wait-free ring until the owner's next fill drains it. The owner is
//! the home shard of the thread whose fill last claimed the superblock
//! ([`Desc::owner`]): a thread freeing what it allocated never leaves
//! its shard, and a consumer's frees return to the producer.
//!
//! The owner word is read racily and may be stale or meaningless
//! (another run's shard count, a crash image). Any value is a correct
//! route: reduced `% shards` it names a live ring or the caller's own
//! shard, a direct push is the classic anchor CAS, and a ringed block
//! stays counted as *allocated* in its anchor — its superblock cannot
//! empty, retire or be re-typed — until a drain (that ring's owner, a
//! pre-carve sweep, close, shrink) returns it through the same CAS. A
//! wrong owner costs locality, never a block.
//! `pub(crate)` surface on [`HeapInner`]: `flush_blocks`, `flush_bin`,
//! `free_overflow`, `drain_tls`, `push_batch` and the ring drains.

use std::sync::atomic::{AtomicU64, Ordering};

use telemetry::EventKind;

use crate::anchor::{Anchor, SbState};
use crate::descriptor::Desc;
use crate::fill::prefetch_read;
use crate::heap::HeapInner;
use crate::lists::DescList;
use crate::remote::{RemoteBatch, RemoteRing};
use crate::size_class::{cache_capacity, class_max_count, is_small_class};
use crate::tcache::{CacheBin, HeapTls};

impl HeapInner {
    /// Return a batch of same-superblock blocks to that superblock's
    /// internal free list with a **single** anchor CAS, handling the
    /// FULL→PARTIAL and →EMPTY transitions (paper §4.4). The batch is
    /// pre-linked into a local chain (we own every block until the CAS
    /// publishes it), then spliced ahead of the current free-list head.
    pub(crate) fn push_batch(&self, sb: usize, blocks: &[usize], home: u32) {
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
        // Pre-link the interior of the chain: block i's first word points
        // at block i+1's index. Unlike the fill walk the addresses are all
        // known up front, so pull block i+2's line in while linking i.
        // SAFETY: we own every freed block until the CAS publishes them.
        for (i, w) in blocks.windows(2).enumerate() {
            if let Some(&ahead) = blocks.get(i + 2) {
                prefetch_read(ahead);
            }
            unsafe { (*(w[0] as *const AtomicU64)).store(block_idx(w[1]) as u64, Ordering::Relaxed) };
        }
        let head = block_idx(blocks[0]);
        let tail = blocks[blocks.len() - 1];
        let n = blocks.len() as u32;
        loop {
            let a = d.anchor(Ordering::Acquire);
            // Link the chain's tail to the current head. `a.avail` may be
            // the max_count sentinel; walks are bounded by count, so the
            // stale link is never followed.
            // SAFETY: the tail block is still ours until the CAS.
            unsafe { (*(tail as *const AtomicU64)).store(a.avail as u64, Ordering::Release) };
            let count = a.count + n;
            debug_assert!(count <= mc);
            let new = Anchor {
                avail: head,
                count,
                state: if count == mc { SbState::Empty } else { SbState::Partial },
            };
            if d.cas_anchor(a, new).is_ok() {
                self.slow.flush_anchor_cas.fetch_add(1, Ordering::Relaxed);
                if a.state == SbState::Full {
                    // FULL superblocks are on no list; the thread that
                    // makes the transition enlists the descriptor — onto
                    // its own home shard, so a thread's flushed
                    // superblocks are the ones its next fill pops.
                    if new.state == SbState::Empty {
                        DescList::free_list(&self.geo).push(&self.pool, &self.geo, sb as u32);
                    } else {
                        self.partial(d.size_class()).push(&self.pool, &self.geo, sb as u32, home);
                        self.slow.partial_shard_pushes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // PARTIAL→EMPTY keeps the descriptor on its partial list;
                // it is retired when next popped (lazy, paper §4.4).
                return;
            }
        }
    }

    /// The remote-free ring of `(class, shard)`. Callers must have
    /// checked `self.rings.is_some()`.
    #[inline]
    fn ring(&self, class: u32, shard: u32) -> &RemoteRing {
        let rings = self.rings.as_ref().expect("remote rings disabled");
        &rings[class as usize * self.shards as usize + shard as usize]
    }

    /// Producer side of the remote-free protocol: park one
    /// superblock-coherent group on the owning shard's ring (wait-free,
    /// zero CAS). A displaced batch — the ring lapped an undrained slot —
    /// becomes ours and is returned through the direct grouped-CAS path,
    /// so overflow degrades to the pre-ring protocol instead of losing
    /// blocks; the event is journaled and flight-recorded (proto level)
    /// so a post-mortem timeline shows the pool was running degraded.
    fn remote_push(&self, sb: usize, owner: u32, blocks: &[usize], home: u32) {
        let class = Desc::new(&self.pool, &self.geo, sb as u32).size_class();
        debug_assert!(is_small_class(class));
        self.slow.remote_ring_pushes.fetch_add(1, Ordering::Relaxed);
        self.slow.remote_ring_push_blocks.fetch_add(blocks.len() as u64, Ordering::Relaxed);
        let batch = Box::new(RemoteBatch { sb: sb as u32, blocks: blocks.to_vec() });
        if let Some(displaced) = self.ring(class, owner).push(batch) {
            self.slow.remote_ring_overflows.fetch_add(1, Ordering::Relaxed);
            self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
            let n = displaced.blocks.len() as u64;
            self.emit(EventKind::RemoteRingOverflow, displaced.sb as u64, n);
            self.push_batch(displaced.sb as usize, &displaced.blocks, home);
        }
    }

    /// Consumer side: drain the `(class, shard)` ring into `bin` (zero
    /// anchor CAS per block), stopping the sweep once the bin holds what
    /// a fill may keep: its capacity, or the churn policy's retention
    /// bound (every other thread's free of a shared superblock lands on
    /// its one owner's ring; an unbounded drain would privatize them all
    /// while the superblock sits FULL and its class carves). Unclaimed
    /// batches stay parked for the next fill; only a claimed batch that
    /// *straddles* the remaining room pays the one-CAS direct return for
    /// its overhang. Returns true when the bin received a block.
    pub(crate) fn drain_remote(&self, class: u32, shard: u32, bin: &mut CacheBin, home: u32) -> bool {
        let ring = self.ring(class, shard);
        if !ring.maybe_pending() {
            return false;
        }
        let cap = bin.capacity().min(self.fill_retain(class_max_count(class)) as usize);
        if bin.len() as usize >= cap {
            return false;
        }
        let mut taken = 0u64;
        let mut batches = 0u64;
        ring.drain(|batch| {
            batches += 1;
            let room = cap - bin.len() as usize;
            let take = batch.blocks.len().min(room);
            for &addr in &batch.blocks[..take] {
                bin.push(addr);
            }
            taken += take as u64;
            if take < batch.blocks.len() {
                self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
                self.push_batch(batch.sb as usize, &batch.blocks[take..], home);
            }
            (bin.len() as usize) < cap
        });
        if batches > 0 {
            self.slow.remote_ring_drain_batches.fetch_add(batches, Ordering::Relaxed);
            self.slow.remote_ring_drain_blocks.fetch_add(taken, Ordering::Relaxed);
            self.slow.remote_drain_batch.observe(taken);
        }
        taken > 0
    }

    /// Drain shards' rings of `class` into `bin` (the pre-carve steal
    /// sweep), starting from a rotating shard so early-stopping drains
    /// skim every ring fairly instead of starving the back of the scan
    /// order. Returns true when the bin received any block.
    pub(crate) fn steal_drain_rings(&self, class: u32, bin: &mut CacheBin, home: u32) -> bool {
        let start = (self.ring_cursor.fetch_add(1, Ordering::Relaxed) % self.shards as u64) as u32;
        let mut got = false;
        for i in 0..self.shards {
            got |= self.drain_remote(class, (start + i) % self.shards, bin, home);
            if bin.len() as usize == bin.capacity() {
                break;
            }
        }
        got
    }

    /// Return every ring-parked batch to its superblock (quiescent
    /// points: clean close and explicit shrink — cached blocks must land
    /// where the frontier scan and the persisted image can see them).
    pub(crate) fn drain_rings_to_heap(&self) {
        let Some(rings) = &self.rings else { return };
        let home = self.home_shard();
        for ring in rings.iter() {
            ring.drain(|batch| {
                self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
                self.push_batch(batch.sb as usize, &batch.blocks, home);
                true
            });
        }
    }

    /// Forget every ring-parked batch without flushing (crash simulation
    /// and recovery): rings are volatile by design — in-flight remote
    /// frees die with DRAM and the recovery sweep reclaims their blocks
    /// by reachability, exactly like discarded cache bins.
    pub(crate) fn discard_rings(&self) {
        let Some(rings) = &self.rings else { return };
        for ring in rings.iter() {
            ring.drain(|batch| {
                drop(batch);
                true
            });
        }
    }

    /// Return one superblock-coherent group, routed by the superblock's
    /// owning shard (its last filler's home; see the module docs): a
    /// **local** group (owner == `home`, or rings disabled) pays the
    /// classic one anchor CAS via [`HeapInner::push_batch`]; a **remote**
    /// group rides the owning shard's MPSC ring instead — a wait-free
    /// zero-CAS push, reclaimed in bulk by the owner's next fill. Returns
    /// true when the group took the direct anchor-CAS path.
    fn return_group(&self, sb: usize, blocks: &[usize], home: u32) -> bool {
        let owner = Desc::new(&self.pool, &self.geo, sb as u32).owner(self.shards);
        if owner != home {
            self.slow.remote_free_blocks.fetch_add(blocks.len() as u64, Ordering::Relaxed);
            if self.rings.is_some() {
                self.remote_push(sb, owner, blocks, home);
                return false;
            }
            self.slow.remote_anchor_cas.fetch_add(1, Ordering::Relaxed);
        }
        self.push_batch(sb, blocks, home);
        true
    }

    /// Return an arbitrary batch of blocks, grouping them by superblock
    /// (LRMalloc's Flush). Reorders `blocks` in place while partitioning.
    ///
    /// Each group goes back through [`HeapInner::return_group`].
    ///
    /// The partition starts with the in-place, allocation-free linear
    /// scan — bins overwhelmingly hold blocks of one or two superblocks,
    /// so it normally finishes in a pass or two. Only when the batch
    /// turns out to span *many* directly-pushed superblocks does the
    /// remainder escalate to a small open-addressing group table,
    /// bounding the whole partition at O(n)
    /// ([`crate::SlowStats::flush_partition_probes`] observes the table's
    /// work). With rings on, the heavy producer/consumer bleed that used
    /// to force the escalation is absorbed by ring pushes — remote
    /// groups do not count toward the escalation threshold — so the
    /// table is effectively demoted to the ring-off/fallback path.
    pub(crate) fn flush_blocks(&self, blocks: &mut [usize]) {
        /// Distinct directly-pushed superblocks the linear scan handles
        /// before the rest of the batch escalates to the table: the
        /// scan's worst case is then `MAX_LINEAR_GROUPS`·n, and typical
        /// bins never escalate.
        const MAX_LINEAR_GROUPS: usize = 8;
        let base = self.pool.base() as usize;
        // One TLS lookup + hash for the whole batch, not per superblock.
        let home = self.home_shard();
        let mut i = 0;
        let mut groups = 0;
        while i < blocks.len() {
            if groups == MAX_LINEAR_GROUPS {
                return self.flush_blocks_grouped(&blocks[i..], home);
            }
            let sb = self
                .geo
                .sb_index_of(blocks[i] - base)
                .expect("flush_blocks: foreign address");
            // Partition: move every block of this superblock into
            // blocks[i..end].
            let mut end = i + 1;
            for j in i + 1..blocks.len() {
                if self.geo.sb_index_of(blocks[j] - base) == Some(sb) {
                    blocks.swap(end, j);
                    end += 1;
                }
            }
            // Ring-routed groups do not count toward the escalation bound.
            if self.return_group(sb, &blocks[i..end], home) {
                groups += 1;
            }
            i = end;
        }
    }

    /// Table-based batch partition (the linear scan's escalation path):
    /// one pass to chain blocks per superblock through an open-addressing
    /// group table, one pass to hand each chain to
    /// [`HeapInner::push_batch`]. O(n) expected — the table is sized at
    /// 2× the batch so probe runs stay short.
    fn flush_blocks_grouped(&self, blocks: &[usize], home: u32) {
        const EMPTY: u32 = u32::MAX;
        let base = self.pool.base() as usize;
        let n = blocks.len();
        let cap = (2 * n).next_power_of_two();
        let mask = cap - 1;
        // slot -> group index; group = (superblock, chain head into `next`).
        let mut slots: Vec<u32> = vec![EMPTY; cap];
        let mut groups: Vec<(usize, u32)> = Vec::new();
        let mut next: Vec<u32> = vec![EMPTY; n];
        let mut probes = 0u64;
        for (i, &addr) in blocks.iter().enumerate() {
            let sb = self
                .geo
                .sb_index_of(addr - base)
                .expect("flush_blocks: foreign address");
            let mut h =
                ((sb as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
            loop {
                probes += 1;
                match slots[h] {
                    EMPTY => {
                        slots[h] = groups.len() as u32;
                        groups.push((sb, i as u32));
                        break;
                    }
                    g if groups[g as usize].0 == sb => {
                        next[i] = groups[g as usize].1;
                        groups[g as usize].1 = i as u32;
                        break;
                    }
                    _ => h = (h + 1) & mask,
                }
            }
        }
        self.slow.flush_partition_probes.fetch_add(probes, Ordering::Relaxed);
        let mut scratch: Vec<usize> = Vec::with_capacity(n);
        for &(sb, head) in &groups {
            scratch.clear();
            let mut i = head;
            while i != EMPTY {
                scratch.push(blocks[i as usize]);
                i = next[i as usize];
            }
            // Chains are built newest-first; restore batch order so the
            // pre-linked free chain matches the linear partition's.
            scratch.reverse();
            // Remote groups in an escalated batch still ride the rings.
            self.return_group(sb, &scratch, home);
        }
    }

    /// Hand the oldest `n` blocks of a bin back to the heap (the caller
    /// then drops them from the bin). The older blocks sit at the bottom
    /// of the LIFO array, so a partial flush returns the slice most
    /// likely to complete superblocks.
    fn flush_oldest(&self, bin: &mut CacheBin, n: usize) {
        if n == 0 {
            return;
        }
        self.slow.cache_flushes.fetch_add(1, Ordering::Relaxed);
        self.slow.cache_flushes_blocks.fetch_add(n as u64, Ordering::Relaxed);
        self.emit(EventKind::Flush, n as u64, 0);
        self.flush_blocks(&mut bin.blocks_mut()[..n]);
    }

    /// Flush an entire cache bin back to the heap (paper §4.4: "all of
    /// the blocks in the cache are pushed back").
    pub(crate) fn flush_bin(&self, bin: &mut CacheBin) {
        self.flush_oldest(bin, bin.len() as usize);
        bin.clear();
    }

    /// Free-path overflow: size a never-used bin, or flush a full one —
    /// whole by default; under [`crate::RallocConfig::flush_half`] only
    /// the *older* half (Makalu's return-half policy, §6.3), keeping the
    /// recently-freed half cached.
    #[cold]
    pub(crate) fn free_overflow(&self, class: u32, bin: &mut CacheBin) {
        if bin.capacity() == 0 {
            bin.ensure_capacity(cache_capacity(class) as usize);
        } else if self.flush_half {
            let half = (bin.len() as usize).div_ceil(2);
            self.slow.half_flushes.fetch_add(1, Ordering::Relaxed);
            self.flush_oldest(bin, half);
            bin.drain_front(half);
        } else {
            self.flush_bin(bin);
        }
    }

    /// Drain every class bin of a TLS entry. At thread exit (`park`)
    /// non-empty bins are parked for adoption by future threads, up to
    /// the per-class retention bound; at close, and past the bound,
    /// they flush back to their superblocks.
    pub(crate) fn drain_tls(&self, entry: &mut HeapTls, park: bool) {
        for (class, bin) in entry.bins.iter_mut().enumerate() {
            if park && class != 0 && self.park_bin(class as u32, bin) {
                continue;
            }
            self.flush_bin(bin);
        }
    }
}
