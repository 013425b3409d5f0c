//! Offline heap-invariant checker.
//!
//! A quiescent Ralloc heap must satisfy a precise set of structural
//! invariants (the state recovery promises to re-establish, §4.5, and
//! that normal operation preserves, Theorems 5.1–5.2). The checker walks
//! every descriptor, list, and block free chain and verifies:
//!
//! 1. **Geometry**: header magic/length/capacity are self-consistent.
//! 2. **Descriptor sanity**: every carved descriptor decodes, through
//!    the same [`Census`] recovery takes, as a small class, part of a
//!    live large span, or free space that reads EMPTY.
//! 3. **Anchor consistency**: a PARTIAL superblock's `count` free blocks
//!    are actually chained from `avail`, all indices in range, no cycles,
//!    no duplicates; an EMPTY one has `count == max_count` (see below).
//! 4. **List membership**: every EMPTY superblock reachable from the free
//!    list, every PARTIAL one from exactly one partial list of its own
//!    class, no descriptor on two lists, counters monotone. A link to a
//!    descriptor at or past `used` ends its list ([`DescList::collect`])
//!    and is reported as an uncarved member.
//! 5. **Span integrity**: the live spans are [`Census::claim`]'s over
//!    FULL heads, recovery's own rule with "anchor is FULL" for "head is
//!    marked". A FULL head whose interior is not all `CONTINUATION`s is a
//!    phantom, and every superblock of a live span reads FULL, which is
//!    all a shrink reads.
//!
//! An EMPTY superblock's chain is not an invariant, so it is not walked.
//! A flush that returns a whole population takes the superblock
//! FULL→EMPTY without linking a single block
//! ([`crate::heap::HeapInner`]'s `push_batch`), leaving whatever words
//! the blocks last held. That is sound because nothing ever walks an
//! EMPTY chain: a fill or a large block takes the superblock off the free
//! list (a fill that pops one EMPTY off its class's partial list retires
//! it there first), re-types it and hands out all `max_count` blocks by
//! index; recovery relinks every unmarked block from the mark bits; and
//! shrink reads only the anchor's state. All `count == max_count` says is "every
//! block is free", and for that the count alone is the whole truth.
//!
//! The checker is used by the crash-recovery test suite after every
//! simulated crash + recovery, turning "recovery completed" into
//! "recovery re-established the full allocator invariant".

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use crate::anchor::SbState;
use crate::descriptor::{Census, Desc, Slot};
use crate::heap::Ralloc;
use crate::lists::DescList;
use crate::shard::SHARDS;
use crate::size_class::NUM_CLASSES;

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub rule: &'static str,
    /// Human-readable details.
    pub detail: String,
}

/// Summary of a heap check.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Superblocks inspected.
    pub superblocks: usize,
    /// Free blocks found on superblock-internal chains.
    pub free_blocks: u64,
    /// Superblocks on the global free list.
    pub free_list_len: usize,
    /// Descriptors on partial lists, per class.
    pub partial_list_len: usize,
    /// All violations found (empty = heap is consistent).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True if no invariant was violated.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, rule: &'static str, detail: String) {
        self.violations.push(Violation { rule, detail });
    }
}

/// Check every structural invariant of a **quiescent** heap.
///
/// Must not run concurrently with allocation, deallocation, or recovery;
/// results would be spurious. (Thread caches are invisible to the
/// checker: cached blocks look allocated, which is exactly how the
/// allocator itself accounts for them.)
pub fn check_heap(heap: &Ralloc) -> CheckReport {
    let inner = &heap.inner;
    let pool = &inner.pool;
    let geo = &inner.geo;
    let used = inner.used_sb();
    let mut report = CheckReport { superblocks: used, ..Default::default() };

    // Rule 1: geometry, including the committed prefix.
    // SAFETY: header words.
    unsafe {
        if pool.read_u64(crate::layout::MAGIC_OFF) != crate::layout::MAGIC {
            report.violate("geometry", "bad magic".into());
        }
        if pool.read_u64(crate::layout::POOL_LEN_OFF) != pool.len() as u64 {
            report.violate("geometry", "pool length mismatch".into());
        }
        if pool.read_u64(crate::layout::MAX_SB_OFF) != geo.max_sb as u64 {
            report.violate("geometry", "capacity mismatch".into());
        }
    }
    if used > geo.max_sb {
        report.violate("geometry", format!("used {used} exceeds capacity {}", geo.max_sb));
    }
    // The committed prefix must cover every carved superblock (a grow
    // commits before any `used` bump relies on it).
    if let Err(why) = geo.check_image(pool.committed_len(), used) {
        report.violate("geometry", why);
    }

    // Collect list membership first.
    let free_list: Vec<u32> = DescList::free_list(geo).collect(pool, geo);
    report.free_list_len = free_list.len();
    let mut on_free: HashSet<u32> = HashSet::new();
    for idx in &free_list {
        if !on_free.insert(*idx) {
            report.violate("list-membership", format!("descriptor {idx} twice on free list"));
        }
        if *idx as usize >= used {
            report.violate("list-membership", format!("free list holds uncarved desc {idx}"));
        }
    }
    let mut on_partial: HashSet<u32> = HashSet::new();
    let mut partial_class: Vec<(u32, u32)> = Vec::new();
    for class in 1..NUM_CLASSES as u32 {
        for shard in 0..SHARDS {
            for idx in DescList::partial_shard(geo, class, shard).collect(pool, geo) {
                if !on_partial.insert(idx) {
                    report.violate(
                        "list-membership",
                        format!("descriptor {idx} on more than one partial list/shard"),
                    );
                }
                if on_free.contains(&idx) {
                    report.violate(
                        "list-membership",
                        format!("descriptor {idx} on both free and partial lists"),
                    );
                }
                // Descriptors past `used` must be absent from every list:
                // after a shrink lowers `used`, the released trailing run
                // is unlinked before the lowered word is persisted.
                if idx as usize >= used {
                    report.violate(
                        "list-membership",
                        format!("partial list holds uncarved/released desc {idx} (used {used})"),
                    );
                }
                partial_class.push((idx, class));
            }
        }
    }
    report.partial_list_len = on_partial.len();
    let census = Census::take(pool, geo, used);
    for (idx, class) in &partial_class {
        match census.slots.get(*idx as usize) {
            Some(Slot::Small { class: c, .. }) if *c as u32 == *class => {}
            Some(slot) => report.violate(
                "list-membership",
                format!("desc {idx} on partial list of class {class} but decodes as {slot:?}"),
            ),
            None => {} // past `used`: reported above
        }
    }

    // Rule 5: the live spans are the census's claim over FULL heads. A
    // FULL head it refuses is a phantom, and every superblock of a live
    // span must read FULL, since a shrink reads anchors alone.
    let anchor = |i: usize| Desc::new(pool, geo, i as u32).anchor(Ordering::Relaxed);
    let claim = census.claim(census.heads().filter(|&head| anchor(head).state == SbState::Full));
    for head in &claim.phantoms {
        report.violate(
            "span-integrity",
            format!("FULL large head {head} spans a superblock that is not a continuation"),
        );
    }
    for i in claim.spans.iter().flat_map(|s| s.clone()) {
        let state = anchor(i).state;
        if state != SbState::Full {
            report.violate("span-integrity", format!("desc {i} of a live large span reads {state:?}"));
        }
    }

    // Rules 2-4 per descriptor.
    for (i, slot) in census.slots.iter().enumerate() {
        let a = anchor(i);
        if on_free.contains(&(i as u32)) && a.state != SbState::Empty {
            report.violate("list-membership", format!("desc {i} on free list with state {:?}", a.state));
        }
        if claim.claimed[i] {
            continue; // validated via its span above
        }
        let Slot::Small { blocks: mc, size, .. } = *slot else {
            // No small class and no live span: only free space may be
            // here (a stale identity, a freed span, garbage).
            if a.state != SbState::Empty {
                report.violate("descriptor", format!("desc {i} holds no live block but reads {:?}", a.state));
            }
            continue;
        };
        if a.count > mc {
            report.violate("anchor", format!("desc {i}: count {} > max {mc}", a.count));
            continue;
        }
        match a.state {
            SbState::Full => {
                if a.count != 0 {
                    report.violate("anchor", format!("desc {i}: FULL but count {}", a.count));
                }
            }
            SbState::Empty => {
                // Enlisted or pending lazy retirement, every block is
                // free: count must be mc.
                if a.count != mc {
                    report.violate("anchor", format!("desc {i}: EMPTY but count {}/{mc}", a.count));
                }
            }
            SbState::Partial => {
                if a.count == 0 || a.count == mc {
                    report.violate("anchor", format!("desc {i}: PARTIAL with count {}/{mc}", a.count));
                }
            }
        }
        // Rule 3: walk a PARTIAL chain; EMPTY is its count (see the
        // module docs).
        if a.state == SbState::Empty {
            report.free_blocks += a.count as u64;
            continue;
        }
        let sb_addr = pool.base() as usize + geo.sb(i);
        let mut seen = HashSet::new();
        let mut blk = a.avail;
        for step in 0..a.count {
            if blk >= mc {
                report.violate("free-chain", format!("desc {i}: chain index {blk} out of range at step {step}"));
                break;
            }
            if !seen.insert(blk) {
                report.violate("free-chain", format!("desc {i}: chain revisits block {blk} (cycle)"));
                break;
            }
            report.free_blocks += 1;
            let at = sb_addr + blk as usize * size as usize;
            // SAFETY: free-block first word, quiescent heap.
            blk = unsafe { std::ptr::read(at as *const u64) as u32 };
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::{class_max_count, size_class_of};
    use crate::RallocConfig;

    #[test]
    fn fresh_heap_is_consistent() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.superblocks, 0);
    }

    #[test]
    fn active_heap_is_consistent() {
        let heap = Ralloc::create(16 << 20, RallocConfig::default());
        let mut held = Vec::new();
        for i in 0..5_000usize {
            held.push(heap.malloc(8 + (i % 40) * 8));
        }
        for p in held.drain(..).step_by(2) {
            heap.free(p);
        }
        let big = heap.malloc(300_000);
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert!(r.superblocks > 0);
        heap.free(big);
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
    }

    #[test]
    fn consistent_after_crash_and_recovery() {
        let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
        for i in 0..3_000usize {
            let p = heap.malloc(8 + (i % 40) * 8);
            if i % 3 == 0 {
                heap.free(p);
            }
        }
        heap.crash_simulated();
        heap.recover();
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
        // Everything is free again (nothing was rooted).
        assert_eq!(r.free_list_len + r.partial_list_len, r.superblocks);
    }

    #[test]
    fn checker_detects_corruption() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let p = heap.malloc(64);
        heap.free(p);
        // Corrupt descriptor 0's anchor behind the allocator's back:
        // an impossible free count for any class.
        let geo = heap.geometry();
        let bogus = crate::anchor::Anchor {
            avail: 0,
            count: 60_000,
            state: crate::anchor::SbState::Partial,
        };
        // SAFETY: test-only sabotage of descriptor 0's anchor word.
        unsafe {
            heap.pool().atomic_u64(geo.desc(0)).store(bogus.pack(), Ordering::Relaxed);
        }
        let r = check_heap(&heap);
        assert!(!r.is_consistent(), "checker must flag the sabotage");
        assert!(r.violations.iter().any(|v| v.rule == "anchor"), "{:?}", r.violations);
    }

    #[test]
    fn free_block_accounting_adds_up() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        // One full superblock of 64 B blocks, half freed back.
        let ptrs: Vec<_> = (0..1024).map(|_| heap.malloc(64)).collect();
        for p in ptrs.iter().take(512) {
            heap.free(*p);
        }
        // Spill the thread cache so the frees are globally visible.
        drop(heap.clone());
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
        // 512 blocks live in the thread cache or on chains; the checker
        // cannot see caches, so free_blocks <= 512.
        assert!(r.free_blocks <= 512);
    }

    /// One 64 B superblock (class 8) with `keep` blocks still allocated
    /// and the rest returned in one flush; the bin is left empty.
    fn one_superblock_with(heap: &Ralloc, keep: usize) -> (u32, Vec<usize>) {
        let mc = class_max_count(8) as usize;
        let mut ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        let off = ptrs[0] - heap.pool().base() as usize;
        let sb = heap.geometry().sb_index_of(off).unwrap() as u32;
        // Stale words where links would be: a walk from any block of a
        // never-linked chain runs out of range at once.
        for &p in &ptrs {
            // SAFETY: an allocated 64-byte block.
            unsafe { std::ptr::write(p as *mut u64, u64::MAX) };
        }
        heap.inner.flush_blocks(&mut ptrs[keep..]);
        (sb, ptrs)
    }

    #[test]
    fn unlinked_full_to_empty_superblock_is_consistent_reusable_and_recoverable() {
        let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
        let mc = class_max_count(8);
        let (sb, mut ptrs) = one_superblock_with(&heap, 0);
        let d = Desc::new(heap.pool(), &heap.geometry(), sb);
        let a = d.anchor(Ordering::Acquire);
        assert_eq!((a.state, a.count), (SbState::Empty, mc));
        // SAFETY: reading a free block's first word on a quiescent heap.
        let link = unsafe { std::ptr::read(ptrs[a.avail as usize] as *const u64) };
        assert_eq!(link, u64::MAX, "a whole-population flush links nothing");
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.free_blocks, mc as u64);
        // Reuse off the free list, as another class: every block comes
        // out once, in bounds, and nothing is carved.
        let mc128 = class_max_count(size_class_of(128).unwrap()) as usize;
        let mut again: Vec<usize> = (0..mc128).map(|_| heap.malloc(128) as usize).collect();
        assert_eq!(heap.used_superblocks(), 1, "the EMPTY superblock was bypassed");
        again.sort_unstable();
        again.dedup();
        assert_eq!(again.len(), mc128);
        ptrs.sort_unstable();
        assert!(again[0] >= ptrs[0] && again[mc128 - 1] < ptrs[0] + crate::SB_SIZE);
        // Back to EMPTY unlinked, then a crash: recovery rebuilds the
        // chain from the marks and never reads the stale one.
        for &p in &again {
            // SAFETY: an allocated 128-byte block.
            unsafe { std::ptr::write(p as *mut u64, u64::MAX) };
        }
        heap.inner.flush_blocks(&mut again);
        assert_eq!(d.anchor(Ordering::Acquire).state, SbState::Empty);
        heap.crash_simulated();
        heap.recover();
        let r = check_heap(&heap);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert!(!heap.malloc(64).is_null());
        assert!(check_heap(&heap).is_consistent());
    }

    #[test]
    fn empty_anchor_short_of_max_count_is_rejected() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let (sb, _ptrs) = one_superblock_with(&heap, 0);
        let d = Desc::new(heap.pool(), &heap.geometry(), sb);
        let a = d.anchor(Ordering::Acquire);
        d.set_anchor(crate::anchor::Anchor { count: a.count - 1, ..a }, Ordering::Release);
        let r = check_heap(&heap);
        assert!(r.violations.iter().any(|v| v.rule == "anchor"), "{:?}", r.violations);
    }

    #[test]
    fn partial_anchor_with_a_broken_chain_is_rejected() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let (sb, ptrs) = one_superblock_with(&heap, 1);
        let d = Desc::new(heap.pool(), &heap.geometry(), sb);
        let a = d.anchor(Ordering::Acquire);
        assert_eq!(a.state, SbState::Partial);
        assert!(check_heap(&heap).is_consistent(), "a partial flush links its chain");
        // Break the chain's first link behind the allocator's back.
        // SAFETY: test-only sabotage of a free block's link word.
        unsafe { std::ptr::write(ptrs[a.avail as usize] as *mut u64, u64::MAX) };
        let r = check_heap(&heap);
        assert!(r.violations.iter().any(|v| v.rule == "free-chain"), "{:?}", r.violations);
    }

    /// A live 3-superblock span and the descriptor of its last superblock.
    fn live_span(heap: &Ralloc) -> Desc<'_> {
        let (p, geo) = (heap.malloc(3 * crate::SB_SIZE), heap.geometry());
        let sb = geo.sb_index_of(p as usize - heap.pool().base() as usize).unwrap();
        assert!(check_heap(heap).is_consistent(), "{:?}", check_heap(heap).violations);
        Desc::new(heap.pool(), &geo, sb as u32 + 2)
    }

    #[test]
    fn a_full_head_over_a_retyped_superblock_is_a_phantom() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        // Behind the allocator's back, a fill's identity lands inside.
        live_span(&heap).set_size(8, 64, class_max_count(8), true);
        let r = check_heap(&heap);
        assert!(r.violations.iter().any(|v| v.rule == "span-integrity"), "{:?}", r.violations);
    }

    #[test]
    fn a_live_span_superblock_that_is_not_full_is_rejected() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let d = live_span(&heap);
        d.set_anchor(crate::anchor::Anchor { avail: 0, count: 0, state: SbState::Empty }, Ordering::Release);
        let r = check_heap(&heap);
        assert!(r.violations.iter().any(|v| v.rule == "span-integrity"), "{:?}", r.violations);
    }
}
