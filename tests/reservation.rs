//! What a heap costs before it is used: `Ralloc::create` reserves address
//! space and maps the committed prefix, and touches neither — so its time
//! and the memory it takes follow the bytes used, not the bytes reserved.
//!
//! A small-class superblock is the exception: the fill that carves it
//! backs its pages at once, since its whole population goes to a bin.
//!
//! The time limits sit two orders of magnitude above what a create takes
//! (≈ 0.5 ms here) and far below what zeroing the same span took
//! (≈ 0.25 s per 512 MiB): they separate the two designs, not two runs.

use std::time::{Duration, Instant};

use ralloc::{Ralloc, RallocConfig, SB_SIZE};

const MIB: usize = 1 << 20;

fn growable(initial: usize, max: usize) -> RallocConfig {
    RallocConfig {
        initial_capacity: Some(initial),
        max_capacity: Some(max),
        ..RallocConfig::default()
    }
}

/// Resident set size of this process, from `/proc/self/statm`.
#[cfg(target_os = "linux")]
fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm.split(' ').nth(1).and_then(|f| f.parse().ok()).expect("statm rss");
    pages * nvm::sys::PAGE
}

#[cfg(target_os = "linux")]
#[test]
fn create_costs_what_is_committed_not_what_is_reserved() {
    let rss_before = resident_bytes();
    let t0 = Instant::now();
    let heap = Ralloc::create(4 * MIB, growable(4 * MIB, 4096 * MIB));
    let took = t0.elapsed();
    let grew = resident_bytes().saturating_sub(rss_before);
    assert!(heap.pool().len() >= 4096 * MIB, "4 GiB must be reserved");
    assert!(heap.pool().committed_len() < 16 * MIB, "only the initial capacity is committed");
    assert!(took < Duration::from_millis(50), "create took {took:?}");
    assert!(grew < 32 * MIB, "create grew the resident set by {grew} bytes");
    // The reservation is real: the heap can grow into it.
    let p = heap.malloc(32 * MIB);
    assert!(!p.is_null());
    heap.free(p);
}

#[cfg(target_os = "linux")]
#[test]
fn shrink_takes_no_memory_for_blocks_nobody_stored_to() {
    let heap = Ralloc::create(4 * MIB, growable(4 * MIB, 512 * MIB));
    // One block per superblock, 32 MiB in all, handed out and never written.
    let blocks: Vec<_> = (0..512).map(|_| heap.malloc(ralloc::SB_SIZE / 2 + 1)).collect();
    assert!(blocks.iter().all(|p| !p.is_null()));
    blocks.into_iter().for_each(|p| heap.free(p));
    let rss_before = resident_bytes();
    assert!(heap.shrink() >= 500, "the freed superblocks must be released");
    let grew = resident_bytes().saturating_sub(rss_before);
    assert!(grew < 4 * MIB, "releasing untouched pages grew the resident set by {grew} bytes");
}

#[test]
fn four_large_heaps_alive_at_once_create_quickly() {
    let t0 = Instant::now();
    let heaps: Vec<Ralloc> =
        (0..4).map(|_| Ralloc::create(4 * MIB, growable(4 * MIB, 512 * MIB))).collect();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(200), "four creates took {took:?}");
    for heap in &heaps {
        let p = heap.malloc(64);
        assert!(!p.is_null());
        heap.free(p);
    }
}

/// Residency of each page of `[p, p + len)`. Not an RSS delta: the tests
/// of this binary run in parallel and share the process's resident set.
fn resident(p: *const u8, len: usize) -> Vec<bool> {
    nvm::sys::mincore(p, len).expect("mincore")
}

#[test]
fn a_carved_small_superblock_is_backed_and_a_large_block_waits_for_stores() {
    let heap = Ralloc::create(4 * MIB, growable(4 * MIB, 512 * MIB));
    let (geo, base) = (heap.geometry(), heap.pool().base());
    let p = heap.malloc(4096);
    assert!(!p.is_null());
    assert_eq!(heap.used_superblocks(), 1, "the first malloc carves");
    let sb = geo.sb_index_of(p as usize - base as usize).expect("a block in the superblock region");
    let pages = resident(base.wrapping_add(geo.sb(sb)), SB_SIZE);
    assert_eq!(pages.len(), 16);
    assert!(pages.iter().all(|&r| r), "pages of a carved superblock not resident: {pages:?}");

    let span = 4 * SB_SIZE;
    let big = heap.malloc(span);
    assert!(!big.is_null());
    assert!(resident(big, span).iter().all(|&r| !r), "a large block was backed before a store");
    // SAFETY: the block is ours and `span` bytes long.
    unsafe { big.add(SB_SIZE).write(1) };
    assert!(resident(big.wrapping_add(SB_SIZE), 1)[0], "the stored-to page is not resident");
    heap.free(big);
    heap.free(p);
}
