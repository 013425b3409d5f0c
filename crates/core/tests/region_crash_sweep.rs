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
//! descriptors, simulates the power failure, recovers, and does exact
//! root-survival accounting against the recovered heap.

use std::sync::Arc;

use nvm::{CrashInjector, CrashPoint};
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

/// Recover a crash image and do the exact survival accounting: roots
/// that were durably set must come back with every planted word intact,
/// the invariant checker must pass, and the heap must still allocate.
fn recover_and_account(image: &[u8], budget: u64) {
    let (heap, dirty) = Ralloc::from_image(image, RallocConfig::default());
    assert!(dirty, "budget {budget}: a crashed image must demand recovery");
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
    // Control run: learn the window's event count and prove the window
    // actually exercises every per-region protocol event kind.
    let inj = CrashInjector::new();
    let heap = Ralloc::create(32 << 20, victim_cfg(inj.clone()));
    let e0 = inj.observed();
    let shrunk = window(&heap);
    let events = inj.observed() - e0;
    assert!(events > 0, "window produced no persistence events");
    assert!(heap.used_superblocks() > shrunk, "the re-grow never carved past the shrink");

    let seen: std::collections::HashSet<&'static str> =
        heap.flight_timeline().events.iter().map(|e| e.kind_name()).collect();
    for kind in ["grow_commit", "shrink_unpublish", "shrink_decommit"] {
        assert!(seen.contains(kind), "window never crossed {kind}: {seen:?}");
    }
    drop(heap);

    // The sweep: one victim per budget, crash at event `b`, recover,
    // account. Budget == events means the injector never fires (clean
    // control through the same code path).
    for b in 0..=events {
        let inj = CrashInjector::new();
        let heap = Ralloc::create(32 << 20, victim_cfg(inj.clone()));
        inj.arm(b);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            window(&heap);
        }));
        inj.disarm();
        match r {
            Ok(()) => {
                // Ran clean (budget past the window's end): nothing to
                // recover; the heap must simply still be consistent.
                let report = check_heap(&heap);
                assert!(report.is_consistent(), "budget {b}: clean run violated invariants: {report:?}");
            }
            Err(payload) => {
                assert!(CrashPoint::is(&*payload), "budget {b}: non-injected panic");
                heap.pool().crash();
                let image = heap.pool().persistent_image();
                drop(heap);
                recover_and_account(&image, b);
            }
        }
    }
}
