//! Lock-free LIFO lists of descriptors (Treiber stacks, paper §4.2).
//!
//! The superblock free list and the per-size-class partial lists are all
//! instances of the same structure: a stack whose head lives in the
//! metadata region as a [`Link<30>`] word (34-bit ABA counter + descriptor
//! index) and whose links are per-descriptor `Link<30>` words with tag 0
//! (`next_free` or `next_partial`). Everything is index-based, hence
//! position-independent; everything is transient, hence never flushed —
//! recovery rebuilds the lists from scratch (paper §4.5, steps 8–9).
//!
//! A link to a descriptor at or past `used` ends a list: a pop finds it
//! empty, and a walk stops on it without following it. No live list
//! holds one, since every listed superblock was carved first and `used`
//! never falls while a list is in use; so a link past `used` is a
//! flipped bit in an image, and it must not send a `malloc` or the
//! checker into uncarved (possibly unmapped) descriptors.

use std::sync::atomic::Ordering;

use nvm::PmemPool;
use pptr::{AtomicLink, Link};

use crate::descriptor::Desc;
use crate::layout::{Geometry, USED_SB_OFF};

/// Which per-descriptor link field a list threads through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkField {
    /// `next_free`: the superblock free list.
    Free,
    /// `next_partial`: a size class's partial list.
    Partial,
}

/// A Treiber stack of descriptors with its head at `head_off` in the pool.
#[derive(Debug, Clone, Copy)]
pub struct DescList {
    head_off: usize,
    link: LinkField,
}

impl DescList {
    /// The superblock free list of a heap.
    pub fn free_list(geo: &Geometry) -> DescList {
        let _ = geo;
        DescList { head_off: crate::layout::FREE_LIST_OFF, link: LinkField::Free }
    }

    /// The partial list for shard `shard` of `class`. Shard placement
    /// policy (which shard a thread pushes to or steals from) lives in
    /// [`crate::shard`]; this is just the raw per-shard stack.
    pub fn partial_shard(geo: &Geometry, class: u32, shard: u32) -> DescList {
        DescList { head_off: geo.partial_head(class, shard), link: LinkField::Partial }
    }

    #[inline]
    fn head<'a>(&self, pool: &'a PmemPool) -> &'a AtomicLink<30> {
        // SAFETY: metadata offsets are in bounds and 8-aligned.
        AtomicLink::from_ref(unsafe { pool.atomic_u64(self.head_off) })
    }

    /// True when `idx` was carved: below the `used` word. Read after the
    /// link that named it: that link's writer had seen the carve's `used`
    /// CAS, and the link's store / load pair carries that to this load,
    /// so a listed descriptor always passes.
    #[inline]
    fn carved(pool: &PmemPool, idx: u32) -> bool {
        // SAFETY: a header word, in bounds and 8-aligned.
        (idx as u64) < unsafe { pool.atomic_u64(USED_SB_OFF) }.load(Ordering::Acquire)
    }

    #[inline]
    fn link_of<'a>(&self, d: &Desc<'a>) -> &'a AtomicLink<30> {
        match self.link {
            LinkField::Free => d.next_free(),
            LinkField::Partial => d.next_partial(),
        }
    }

    /// Push descriptor `idx`.
    pub fn push(&self, pool: &PmemPool, geo: &Geometry, idx: u32) {
        let head = self.head(pool);
        let desc = Desc::new(pool, geo, idx);
        let link = self.link_of(&desc);
        loop {
            let h = head.load();
            // Our descriptor is unlisted, so we own its link word.
            link.store(Link::new(h.target(), 0));
            if head.compare_exchange(h, h.advance(Some(idx as u64))).is_ok() {
                return;
            }
        }
    }

    /// Pop the most recently pushed descriptor, if any (none when the
    /// head links past `used`).
    pub fn pop(&self, pool: &PmemPool, geo: &Geometry) -> Option<u32> {
        let head = self.head(pool);
        loop {
            let h = head.load();
            let idx = h.target().map(|i| i as u32).filter(|&i| Self::carved(pool, i))?;
            let next = self.link_of(&Desc::new(pool, geo, idx)).load();
            if head.compare_exchange(h, h.advance(next.target())).is_ok() {
                return Some(idx);
            }
        }
    }

    /// Make the list exactly `chain`: each element is linked to the next
    /// (the last to nothing) and the head takes the first in one plain
    /// store that keeps its ABA counter. Offline only (recovery, a
    /// quiescent shrink), on descriptors nothing else is linking: no
    /// operation is in flight for the counter to protect, and publishing
    /// the same chain again leaves every byte as it was.
    pub fn publish(&self, pool: &PmemPool, geo: &Geometry, chain: &[u32]) {
        for (at, &idx) in chain.iter().enumerate() {
            let next = chain.get(at + 1).map(|&n| n as u64);
            self.link_of(&Desc::new(pool, geo, idx)).store(Link::new(next, 0));
        }
        let head = self.head(pool);
        head.store(Link::new(chain.first().map(|&i| i as u64), head.load().tag()));
    }

    /// Snapshot the list contents (offline use: diagnostics, tests). A
    /// link past `used` is the last element, not followed.
    pub fn collect(&self, pool: &PmemPool, geo: &Geometry) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.head(pool).load().target();
        while let Some(idx) = cur.map(|i| i as u32) {
            out.push(idx);
            if !Self::carved(pool, idx) {
                break;
            }
            cur = self.link_of(&Desc::new(pool, geo, idx)).load().target();
            if out.len() > geo.max_sb {
                // Diagnose rather than loop forever: name the first
                // revisited descriptor, since a cycle here means a link
                // word was overwritten while the list was live.
                let mut seen = std::collections::HashSet::new();
                let first_dup = out.iter().find(|&&i| !seen.insert(i)).copied();
                panic!(
                    "descriptor list cycle detected: head_word={:#x} len={} first_dup={:?}",
                    self.head(pool).load().0,
                    out.len(),
                    first_dup,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::Mode;

    fn test_heap() -> (PmemPool, Geometry) {
        let len = Geometry::pool_len_for_capacity(64 << 20);
        let pool = PmemPool::new(len, Mode::Direct);
        let geo = Geometry::from_pool_len(pool.len());
        set_used(&pool, geo.max_sb);
        (pool, geo)
    }

    fn set_used(pool: &PmemPool, used: usize) {
        // SAFETY: a header word, in bounds and 8-aligned.
        unsafe { pool.write_u64(USED_SB_OFF, used as u64) };
    }

    #[test]
    fn lifo_order() {
        let (pool, geo) = test_heap();
        let l = DescList::free_list(&geo);
        assert_eq!(l.pop(&pool, &geo), None);
        l.push(&pool, &geo, 1);
        l.push(&pool, &geo, 2);
        l.push(&pool, &geo, 3);
        assert_eq!(l.collect(&pool, &geo), vec![3, 2, 1]);
        assert_eq!(l.pop(&pool, &geo), Some(3));
        assert_eq!(l.pop(&pool, &geo), Some(2));
        assert_eq!(l.pop(&pool, &geo), Some(1));
        assert_eq!(l.pop(&pool, &geo), None);
    }

    #[test]
    fn descriptor_zero_is_representable() {
        // Index 0 must be distinguishable from "empty" (hence idx+1
        // encodings everywhere).
        let (pool, geo) = test_heap();
        let l = DescList::free_list(&geo);
        l.push(&pool, &geo, 0);
        assert_eq!(l.pop(&pool, &geo), Some(0));
        assert_eq!(l.pop(&pool, &geo), None);
    }

    #[test]
    fn a_link_past_used_ends_the_list() {
        let (pool, geo) = test_heap();
        let l = DescList::free_list(&geo);
        l.push(&pool, &geo, 3);
        l.push(&pool, &geo, 9);
        l.push(&pool, &geo, 2);
        set_used(&pool, 9);
        // The walk keeps 9 but does not follow it; a pop takes 2, then
        // finds the list empty at 9, and leaves it there.
        assert_eq!(l.collect(&pool, &geo), vec![2, 9]);
        assert_eq!(l.pop(&pool, &geo), Some(2));
        assert_eq!(l.pop(&pool, &geo), None);
        assert_eq!(l.collect(&pool, &geo), vec![9]);
        set_used(&pool, 10);
        assert_eq!(l.pop(&pool, &geo), Some(9));
        assert_eq!(l.pop(&pool, &geo), Some(3));
    }

    #[test]
    fn free_and_partial_lists_are_independent() {
        let (pool, geo) = test_heap();
        let free = DescList::free_list(&geo);
        let p1 = DescList::partial_shard(&geo, 1, 0);
        let p2 = DescList::partial_shard(&geo, 2, 0);
        let p1s = DescList::partial_shard(&geo, 1, 3);
        free.push(&pool, &geo, 10);
        p1.push(&pool, &geo, 11);
        p2.push(&pool, &geo, 12);
        p1s.push(&pool, &geo, 13);
        assert_eq!(free.pop(&pool, &geo), Some(10));
        assert_eq!(p1.pop(&pool, &geo), Some(11));
        assert_eq!(p2.pop(&pool, &geo), Some(12));
        assert_eq!(p1s.pop(&pool, &geo), Some(13));
        assert_eq!(p1.pop(&pool, &geo), None, "shards of one class are independent");
    }

    #[test]
    fn splice_publishes_chain_in_one_cas() {
        // A whole chain becomes the list in one head write: the
        // elements come out in chain order and no CAS loop bumps the counter.
        let (pool, geo) = test_heap();
        let l = DescList::partial_shard(&geo, 3, 1);
        let head = l.head(&pool);
        let c0 = head.load().tag();
        let chain: &[u32] = &[5, 6, 7];
        l.publish(&pool, &geo, chain);
        assert_eq!(head.load().tag(), c0, "publishing a chain is one plain store");
        assert_eq!(l.collect(&pool, &geo), vec![5, 6, 7]);
        let word = head.load();
        l.publish(&pool, &geo, chain);
        assert_eq!(head.load(), word, "publishing again changes nothing");
        assert_eq!(l.pop(&pool, &geo), Some(5), "the published list is live for pops");
        assert_eq!(l.collect(&pool, &geo), vec![6, 7]);
    }

    #[test]
    fn reset_empties() {
        // Publishing no chain is the offline reset: the list is empty and
        // keeps its ABA counter.
        let (pool, geo) = test_heap();
        let l = DescList::partial_shard(&geo, 5, 2);
        l.push(&pool, &geo, 7);
        l.push(&pool, &geo, 8);
        let c0 = l.head(&pool).load().tag();
        l.publish(&pool, &geo, &[]);
        assert_eq!(l.pop(&pool, &geo), None, "publishing no chain empties the list");
        assert_eq!(l.head(&pool).load().tag(), c0, "an empty publish keeps the counter");
    }

    #[test]
    fn aba_counter_advances() {
        let (pool, geo) = test_heap();
        let l = DescList::free_list(&geo);
        let c0 = l.head(&pool).load().tag();
        l.push(&pool, &geo, 4);
        l.pop(&pool, &geo);
        l.push(&pool, &geo, 4);
        let c1 = l.head(&pool).load().tag();
        assert_eq!(c1, c0 + 3, "every successful CAS bumps the counter");
    }

    #[test]
    fn concurrent_push_pop_preserves_elements() {
        let (pool, geo) = test_heap();
        let l = DescList::free_list(&geo);
        let n_threads = 8u32;
        let per = 64u32;
        // Each thread pushes a disjoint range, then everyone pops.
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let pool = &pool;
                let geo = &geo;
                s.spawn(move || {
                    for i in 0..per {
                        l.push(pool, geo, t * per + i);
                    }
                });
            }
        });
        let mut seen = vec![false; (n_threads * per) as usize];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let pool = &pool;
                    let geo = &geo;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(idx) = l.pop(pool, geo) {
                            got.push(idx);
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                for idx in h.join().unwrap() {
                    assert!(!seen[idx as usize], "popped twice: {idx}");
                    seen[idx as usize] = true;
                }
            }
        });
        assert!(seen.iter().all(|&b| b), "lost elements");
    }
}
