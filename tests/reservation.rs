//! What a heap costs before it is used: `Ralloc::create` reserves address
//! space and maps the committed prefix, and touches neither — so its time
//! and the memory it takes follow the bytes used, not the bytes reserved.
//!
//! The time limits sit two orders of magnitude above what a create takes
//! (≈ 0.5 ms here) and far below what zeroing the same span took
//! (≈ 0.25 s per 512 MiB): they separate the two designs, not two runs.

use std::time::{Duration, Instant};

use ralloc::{Ralloc, RallocConfig};

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
