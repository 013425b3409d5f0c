//! Cooperative crash sweep through the per-region frontier protocols.
//!
//! v5 gives the descriptor and superblock regions independent persisted
//! frontier words, each driven by its own instance of the grow protocol
//! (commit → CAS-max word → flush+fence → publish) and of the shrink
//! mirror. Recoverability must hold for a crash at *any* persistence
//! event inside either protocol, in every interleaving of the two. This
//! sweep arms a [`ralloc::CrashInjector`] at every event of a window
//! that crosses several grows of both regions plus an explicit shrink,
//! simulates the power failure, recovers, and does exact root-survival
//! accounting against the recovered heap.

use std::sync::Arc;

use nvm::{CrashInjector, CrashPoint};
use ralloc::frontier::Frontier;
use ralloc::{check_heap, Mode, Ralloc, RallocConfig};

const SENTINEL_WORDS: usize = 8;
const ROOT_SMALL: usize = 0;
const ROOT_LARGE: usize = 1;

fn victim_cfg(injector: Arc<CrashInjector>) -> RallocConfig {
    RallocConfig {
        mode: Mode::Tracked,
        // One committed superblock out of many reserved: the window
        // below must cross the grow path repeatedly, for both regions.
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

/// The crash window: grows both region frontiers several times (large
/// allocations double `used` past the initial single superblock again
/// and again, and every carve demands descriptor coverage too), roots
/// two survivors, then frees the ballast and shrinks both frontiers
/// back down.
fn window(heap: &Ralloc) {
    let small = heap.malloc(SENTINEL_WORDS * 8);
    assert!(!small.is_null());
    plant(heap, small, 0xA11CE);
    heap.set_root_raw(ROOT_SMALL, small);

    let mut ballast = Vec::new();
    for i in 0..8 {
        // ~1 superblock each: `used` climbs 1 -> ~9, crossing several
        // doublings of both the superblock and descriptor frontiers.
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
    // Quiescent shrink: trailing free superblocks released, both
    // frontier words CAS-min'd and persisted, both regions decommitted.
    heap.shrink();
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

    let report = check_heap(&heap);
    assert!(report.is_consistent(), "budget {budget}: invariants violated: {report:?}");

    // Recovery ends with its own shrink. Whichever step of the victim's
    // shrink the crash interrupted — including the one between the two
    // regions' decommits, which leaves the superblock frontier already on
    // `used` and only the descriptor frontier above it — both durable
    // frontiers must land exactly on the recovered `used`.
    let used = heap.used_superblocks();
    let [sb, desc] = Frontier::pair(&heap.geometry());
    // SAFETY: header words of a quiescent heap.
    let (sb_word, desc_word) = unsafe {
        (heap.pool().read_u64(sb.word_off) as usize, heap.pool().read_u64(desc.word_off) as usize)
    };
    assert_eq!(
        sb_word,
        sb.len_for_sb(used),
        "budget {budget}: superblock frontier left above used ({used})"
    );
    assert_eq!(
        desc_word,
        desc.len_for_sb(used),
        "budget {budget}: descriptor frontier left above used ({used})"
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
    window(&heap);
    let events = inj.observed() - e0;
    assert!(events > 0, "window produced no persistence events");

    #[cfg(not(feature = "telemetry-off"))]
    {
        let seen: std::collections::HashSet<&'static str> =
            heap.flight_timeline().events.iter().map(|e| e.kind_name()).collect();
        for kind in [
            "grow_commit",
            "grow_publish",
            "grow_desc_commit",
            "grow_desc_publish",
            "shrink_decommit",
            "shrink_desc_decommit",
        ] {
            assert!(seen.contains(kind), "window never crossed {kind}: {seen:?}");
        }
    }
    drop(heap);

    // The sweep: one victim per budget, crash at event `b`, recover,
    // account. Budget == events means the injector never fires (clean
    // control through the same code path).
    for b in 0..=events {
        let inj = CrashInjector::new();
        let heap = Ralloc::create(32 << 20, victim_cfg(inj.clone()));
        inj.arm(b);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| window(&heap)));
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
