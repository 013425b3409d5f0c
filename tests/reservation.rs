//! What a heap costs before it is used: `Ralloc::create` reserves address
//! space and maps the committed prefix, and touches neither — so its time
//! and the memory it takes follow the bytes used, not the bytes reserved.
//!
//! A simulated pool is backed a 2 MiB chunk at a time where the host has
//! transparent huge pages: the first store into a chunk backs all of it,
//! and a chunk no store reached costs nothing (the RSS tests also need
//! `transparent_hugepage/use_zero_page` = 1, so that reading such a chunk
//! maps the huge zero page).
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

/// Held by every test here: the first store into a heap backs a 2 MiB
/// page, so a test running alongside would show in an RSS delta.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
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
    let _serial = one_at_a_time();
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
    let _serial = one_at_a_time();
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
    let _serial = one_at_a_time();
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

/// Whether advised anonymous memory gets huge pages on this host.
fn huge_pages_on() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| !mode.contains("[never]"))
}

#[test]
fn a_large_block_waits_for_stores_and_one_store_backs_its_chunk() {
    const CHUNK: usize = nvm::sys::HUGE_PAGE;
    let _serial = one_at_a_time();
    let heap = Ralloc::create(4 * MIB, growable(4 * MIB, 512 * MIB));
    let small = heap.malloc(4096);
    assert!(!small.is_null());
    // Eight MiB cover three whole chunks whatever the block's offset, and
    // no store (the header's, the small block's) reaches one of them.
    let big = heap.malloc(8 * MIB);
    assert!(!big.is_null());
    let lo = (big as usize).next_multiple_of(CHUNK) as *mut u8;
    assert!(resident(lo, 3 * CHUNK).iter().all(|&r| !r), "a large block was backed before a store");

    let pages = CHUNK / nvm::sys::PAGE;
    // SAFETY: the block is ours and covers the three chunks from `lo`.
    unsafe { lo.add(CHUNK + 5 * nvm::sys::PAGE + 7).write(1) };
    let pages_of = resident(lo, 3 * CHUNK);
    let (before, rest) = pages_of.split_at(pages);
    let (chunk, after) = rest.split_at(pages);
    assert!(before.iter().chain(after).all(|&r| !r), "a store backed a chunk beside its own");
    if huge_pages_on() {
        assert!(chunk.iter().all(|&r| r), "one store did not back its whole chunk");
    } else {
        let backed: Vec<_> = (0..pages).filter(|&p| chunk[p]).collect();
        assert_eq!(backed, [5], "transparent huge pages are off: one store backs its page");
    }
    heap.free(big);
    heap.free(small);
}
