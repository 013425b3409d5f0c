//! Cooperative crash sweep through the frontier protocols.
//!
//! The heap's one frontier is the pool's committed prefix: a grow
//! commits (one injector event) before a carve's `used` CAS + persist
//! covers the new space, and a shrink persists the lowered `used` before
//! it decommits. Recoverability must hold for a crash at *any*
//! persistence event of either, and of a carve that re-types a
//! descriptor a shrink left stale past `used`. This sweep arms a
//! [`ralloc::CrashInjector`] at every event of a window that crosses
//! several grows, an explicit shrink and a re-grow over the stale
//! descriptors, simulates the power failure under the strict model and
//! under eviction, recovers, and does exact root-survival accounting
//! against the recovered heap.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

use crashtest::{sweep, STYLES};
use nvm::CrashInjector;
use ralloc::{check_heap, Mode, Ralloc, RallocConfig};

const SENTINEL_WORDS: usize = 8;
const ROOT_SMALL: usize = 0;
const ROOT_LARGE: usize = 1;
const ROOT_REGROW: usize = 2;

fn victim_cfg(injector: Arc<CrashInjector>) -> RallocConfig {
    RallocConfig {
        mode: Mode::Tracked,
        // One committed superblock out of many reserved: the window
        // below must cross the grow path repeatedly.
        initial_capacity: Some(1),
        injector: Some(injector),
        ..RallocConfig::default()
    }
}

/// Write a recognizable pattern and persist it (user data is persisted
/// by the user; the allocator only guarantees its own metadata).
fn plant(heap: &Ralloc, p: *mut u8, tag: u64) {
    let pool = heap.pool();
    let off = p as usize - pool.base() as usize;
    for w in 0..SENTINEL_WORDS {
        // SAFETY: block is at least SENTINEL_WORDS * 8 bytes, exclusively ours.
        unsafe { std::ptr::write((p as *mut u64).add(w), tag ^ w as u64) };
    }
    pool.persist(off, SENTINEL_WORDS * 8);
}

fn assert_planted(p: *const u64, tag: u64, what: &str) {
    for w in 0..SENTINEL_WORDS {
        // SAFETY: recovered root points at a live block of the planted size.
        let got = unsafe { std::ptr::read(p.add(w)) };
        assert_eq!(got, tag ^ w as u64, "{what}: word {w} corrupted after recovery");
    }
}

/// The crash window: grows the frontier several times (large
/// allocations double `used` past the initial single superblock again
/// and again), roots two survivors, frees the ballast and shrinks back
/// down, then re-grows over the descriptors the shrink left stale and
/// roots a third survivor there. Returns `used` right after the shrink.
fn window(heap: &Ralloc) -> usize {
    let small = heap.malloc(SENTINEL_WORDS * 8);
    assert!(!small.is_null());
    plant(heap, small, 0xA11CE);
    heap.set_root_raw(ROOT_SMALL, small);

    let mut ballast = Vec::new();
    for i in 0..8 {
        // ~1 superblock each: `used` climbs 1 -> ~9, crossing several
        // doublings of the committed prefix.
        let p = heap.malloc(60_000);
        assert!(!p.is_null());
        if i == 3 {
            plant(heap, p, 0xB16B10C);
            heap.set_root_raw(ROOT_LARGE, p);
        } else {
            ballast.push(p);
        }
    }
    for p in ballast {
        heap.free(p);
    }
    // Quiescent shrink: trailing free superblocks released, the lowered
    // `used` persisted, the tail decommitted. Their descriptors stay
    // stale (large heads and continuations).
    heap.shrink();
    let shrunk = heap.used_superblocks();

    // Re-grow: each large block carves past the lowered `used` and
    // re-types a stale descriptor, and a fill of a class nobody used yet
    // pops a freed ballast superblock off the free list and re-types it.
    for i in 0..3 {
        let p = heap.malloc(60_000);
        assert!(!p.is_null());
        if i == 1 {
            plant(heap, p, 0x5EC0D);
            heap.set_root_raw(ROOT_REGROW, p);
        }
    }
    assert!(!heap.malloc(1024).is_null());
    shrunk
}

/// Recover a crashed heap and do the exact survival accounting: roots
/// that were durably set must come back with every planted word intact,
/// the invariant checker must pass, and the heap must still allocate.
fn recover_and_account(heap: Ralloc, budget: u64) {
    assert!(heap.is_dirty(), "budget {budget}: a crashed image must demand recovery");
    heap.recover();

    let small = heap.get_root_raw(ROOT_SMALL) as *const u64;
    if !small.is_null() {
        assert_planted(small, 0xA11CE, "small root");
    }
    let large = heap.get_root_raw(ROOT_LARGE) as *const u64;
    if !large.is_null() {
        assert_planted(large, 0xB16B10C, "large root");
    }
    let regrown = heap.get_root_raw(ROOT_REGROW) as *const u64;
    if !regrown.is_null() {
        assert_planted(regrown, 0x5EC0D, "re-grown root");
    }

    let report = check_heap(&heap);
    assert!(report.is_consistent(), "budget {budget}: invariants violated: {report:?}");

    // Recovery ends with its own shrink. Whichever step of the victim's
    // grow or shrink the crash interrupted, the committed prefix must land
    // exactly on the recovered `used`.
    let used = heap.used_superblocks();
    assert_eq!(
        heap.pool().committed_len(),
        heap.geometry().len_for_sb(used),
        "budget {budget}: committed prefix left above used ({used})"
    );

    // The recovered heap keeps working, including across a fresh grow.
    for _ in 0..4 {
        let p = heap.malloc(60_000);
        assert!(!p.is_null(), "budget {budget}: recovered heap cannot allocate");
    }
}

#[test]
fn crash_sweep_covers_both_region_frontier_protocols() {
    // One victim per budget, crashed at each event in turn; each style's
    // image is recovered and accounted.
    let shrunk = Cell::new(0);
    let window = |heap: &Ralloc, arm: &dyn Fn()| {
        arm();
        shrunk.set(window(heap));
    };
    let build = |inj| Ralloc::create(32 << 20, victim_cfg(inj));
    let (events, heap) = sweep(&STYLES[..2], build, window, |_, heap, budget, _| recover_and_account(heap, budget));
    assert_eq!(events, 81, "the window's persistence events");
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "the run that completed violated invariants: {report:?}");
    // The run that completed exercised every per-region protocol event.
    assert!(heap.used_superblocks() > shrunk.get(), "the re-grow never carved past the shrink");
    let seen: HashSet<&str> = heap.flight_timeline().events.iter().map(|e| e.kind_name()).collect();
    for kind in ["grow_commit", "shrink_unpublish", "shrink_decommit"] {
        assert!(seen.contains(kind), "window never crossed {kind}: {seen:?}");
    }
}
