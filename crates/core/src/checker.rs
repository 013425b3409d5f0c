//! Offline heap-invariant checker.
//!
//! A quiescent Ralloc heap must satisfy a precise set of structural
//! invariants (the state recovery promises to re-establish, §4.5, and
//! that normal operation preserves, Theorems 5.1–5.2). The checker walks
//! every descriptor, list, and block free chain and verifies:
//!
//! 1. **Geometry**: header magic/length/capacity are self-consistent.
//! 2. **Descriptor sanity**: every carved descriptor classifies as a
//!    valid small class, large head, continuation, or free superblock.
//! 3. **Anchor consistency**: a PARTIAL superblock's `count` free blocks
//!    are actually chained from `avail`, all indices in range, no cycles,
//!    no duplicates; an EMPTY one has `count == max_count` (see below).
//! 4. **List membership**: every EMPTY superblock reachable from the free
//!    list, every PARTIAL one from exactly one partial list of its own
//!    class, no descriptor on two lists, counters monotone.
//! 5. **Span integrity**: live large blocks own contiguous
//!    `CONTINUATION`-tagged spans that never overlap other spans.
//!
//! An EMPTY superblock's chain is not an invariant, so it is not walked.
//! A flush that returns a whole population takes the superblock
//! FULL→EMPTY without linking a single block
//! ([`crate::heap::HeapInner`]'s `push_batch`), leaving whatever words
//! the blocks last held. That is sound because nothing ever walks an
//! EMPTY chain: a fill or scavenge that takes the superblock (off the
//! free list, or lazily retired off a partial list) re-types it and
//! hands out or relinks all `max_count` blocks by index, recovery
//! relinks every unmarked block from the mark bits, and shrink reads
//! only the anchor's state. All `count == max_count` says is "every
//! block is free", and for that the count alone is the whole truth.
//!
//! The checker is used by the crash-recovery test suite after every
//! simulated crash + recovery, turning "recovery completed" into
//! "recovery re-established the full allocator invariant".

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use crate::anchor::SbState;
use crate::descriptor::{Desc, DescKind};
use crate::heap::Ralloc;
use crate::lists::DescList;
use crate::shard::SHARDS;
use crate::size_class::{class_max_count, NUM_CLASSES};

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
    for (idx, class) in &partial_class {
        let d = Desc::new(pool, geo, *idx);
        if d.size_class() != *class {
            report.violate(
                "list-membership",
                format!("desc {idx} on partial list of class {class} but has class {}", d.size_class()),
            );
        }
    }

    // Rule 5 precompute: spans claimed by live large heads.
    let mut claimed = vec![false; used];
    for i in 0..used {
        let d = Desc::new(pool, geo, i as u32);
        if let DescKind::LargeHead { span } = d.classify(used) {
            if d.anchor(Ordering::Relaxed).state == SbState::Full && !on_free.contains(&(i as u32))
            {
                for k in 0..span {
                    if claimed[i + k] {
                        report.violate(
                            "span-integrity",
                            format!("superblock {} claimed by two live large spans", i + k),
                        );
                    }
                    claimed[i + k] = true;
                }
                for k in 1..span {
                    let dk = Desc::new(pool, geo, (i + k) as u32);
                    if dk.classify(used) != DescKind::Continuation {
                        report.violate(
                            "span-integrity",
                            format!(
                                "live large head {i} spans {span} but desc {} is {:?}",
                                i + k,
                                dk.classify(used)
                            ),
                        );
                    }
                }
            }
        }
    }

    // Rules 2-4 per descriptor.
    for i in 0..used as u32 {
        if claimed[i as usize] {
            continue; // validated via its span above
        }
        let d = Desc::new(pool, geo, i);
        let listed_free = on_free.contains(&i);
        match d.classify(used) {
            DescKind::Small { class } => {
                let mc = class_max_count(class);
                let a = d.anchor(Ordering::Relaxed);
                if listed_free && a.state != SbState::Empty {
                    report.violate(
                        "list-membership",
                        format!("desc {i} on free list with state {:?}", a.state),
                    );
                }
                if a.count > mc {
                    report.violate("anchor", format!("desc {i}: count {} > max {mc}", a.count));
                    continue;
                }
                match a.state {
                    SbState::Full => {
                        if a.count != 0 {
                            report.violate(
                                "anchor",
                                format!("desc {i}: FULL but count {}", a.count),
                            );
                        }
                    }
                    SbState::Empty => {
                        // Enlisted or pending lazy retirement, every
                        // block is free: count must be mc.
                        if a.count != mc {
                            report.violate(
                                "anchor",
                                format!("desc {i}: EMPTY but count {}/{mc}", a.count),
                            );
                        }
                    }
                    SbState::Partial => {
                        if a.count == 0 || a.count == mc {
                            report.violate(
                                "anchor",
                                format!("desc {i}: PARTIAL with count {}/{mc}", a.count),
                            );
                        }
                    }
                }
                // Rule 3: walk a PARTIAL chain; EMPTY is its count (see
                // the module docs).
                if a.state == SbState::Empty {
                    report.free_blocks += a.count as u64;
                    continue;
                }
                let sb_addr = pool.base() as usize + geo.sb(i as usize);
                let bsize = d.block_size() as usize;
                let mut seen = HashSet::new();
                let mut blk = a.avail;
                for step in 0..a.count {
                    if blk >= mc {
                        report.violate(
                            "free-chain",
                            format!("desc {i}: chain index {blk} out of range at step {step}"),
                        );
                        break;
                    }
                    if !seen.insert(blk) {
                        report.violate(
                            "free-chain",
                            format!("desc {i}: chain revisits block {blk} (cycle)"),
                        );
                        break;
                    }
                    report.free_blocks += 1;
                    // SAFETY: free-block first word, quiescent heap.
                    blk = unsafe {
                        std::ptr::read((sb_addr + blk as usize * bsize) as *const u64) as u32
                    };
                }
            }
            DescKind::LargeHead { .. } => {
                // Unclaimed large head: must be retired (free list) or
                // stale-free; never PARTIAL.
                let a = d.anchor(Ordering::Relaxed);
                if a.state == SbState::Partial {
                    report.violate("descriptor", format!("large head {i} in PARTIAL state"));
                }
            }
            DescKind::Continuation | DescKind::Invalid => {
                // Acceptable only as free superblocks (stale identity).
                if on_partial.contains(&i) {
                    report.violate(
                        "descriptor",
                        format!("stale/continuation desc {i} on a partial list"),
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::size_class_of;
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
}
