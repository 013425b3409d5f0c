//! The reserve/commit capacity model, end to end: a heap that starts
//! small must grow transparently under load, survive a crash injected at
//! every step of the grow protocol, refuse corrupt (truncated *and*
//! oversized) images, return null only at the *reserved* ceiling, and
//! reopen grown images — clean or dirty — with the grown frontier intact.
//!
//! Since the frontier became bidirectional, the same file also sweeps a
//! crash through every event of the *shrink* protocol (persist the
//! lowered `used` → decommit), drives grow→shrink→grow
//! oscillation, and round-trips shrunken images through clean and dirty
//! reopens.

use crashtest::{sweep, STYLES};
use nvm::{CrashStyle, Mode};
use ralloc::{check_heap, Pptr, Ralloc, RallocConfig, Trace, Tracer, SB_SIZE};

#[repr(C)]
struct Node {
    value: u64,
    next: Pptr<Node>,
}

unsafe impl Trace for Node {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_pptr(&self.next);
    }
}

/// Build an n-node rooted list with application-side persistence, the way
/// the recovery tests do.
fn build_list(heap: &Ralloc, root: usize, n: usize) {
    let mut head: *mut Node = std::ptr::null_mut();
    for i in 0..n as u64 {
        let p = heap.malloc(std::mem::size_of::<Node>()) as *mut Node;
        assert!(!p.is_null());
        // SAFETY: fresh block.
        unsafe {
            (*p).value = i;
            (*p).next.set(head);
        }
        let off = p as usize - heap.pool().base() as usize;
        heap.pool().persist(off, std::mem::size_of::<Node>());
        head = p;
    }
    heap.set_root::<Node>(root, head);
}

fn list_len(heap: &Ralloc, root: usize) -> usize {
    let mut n = 0;
    let mut cur = heap.get_root::<Node>(root);
    while !cur.is_null() {
        n += 1;
        // SAFETY: recovered list node.
        cur = unsafe { (*cur).next.as_ptr() };
    }
    n
}

/// The PR's acceptance workload: a heap committed at 4 MiB serves 64 MiB
/// of live allocations with zero null returns, growing as it goes.
#[test]
fn heap_committed_at_4mib_serves_64mib_live() {
    let heap = Ralloc::create(
        4 << 20,
        RallocConfig {
            initial_capacity: Some(4 << 20),
            max_capacity: Some(128 << 20),
            ..Default::default()
        },
    );
    assert!(
        heap.committed_superblocks() * SB_SIZE <= 4 << 20,
        "heap must start at its initial commitment"
    );
    let block = 4096usize;
    let target = 64 << 20;
    let mut held: Vec<*mut u8> = Vec::with_capacity(target / block);
    for i in 0..target / block {
        let p = heap.malloc(block);
        assert!(!p.is_null(), "null at live size {} with room reserved", i * block);
        // Tag each block so growth never hands out aliased memory.
        // SAFETY: fresh block of `block` bytes.
        unsafe { std::ptr::write(p as *mut u64, i as u64) };
        held.push(p);
    }
    let grows = heap.slow_stats().heap_grows.get();
    assert!(grows >= 4, "4 MiB -> 64+ MiB under doubling needs >= 4 grows, saw {grows}");
    for (i, &p) in held.iter().enumerate() {
        // SAFETY: live block.
        assert_eq!(unsafe { std::ptr::read(p as *const u64) }, i as u64, "block aliased");
    }
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
    for p in held {
        heap.free(p);
    }
    assert!(check_heap(&heap).is_consistent());
}

/// Growth is observable but cheap: cold-path only, one commit per grow,
/// and the number of grows is logarithmic in the final size.
#[test]
fn growth_is_logarithmic_and_cold_path() {
    let heap = Ralloc::create(
        1 << 20,
        RallocConfig {
            initial_capacity: Some(1 << 20),
            max_capacity: Some(64 << 20),
            ..Default::default()
        },
    );
    // Derive expectations from the observed initial frontier.
    let initial_sb = heap.committed_superblocks().max(1) as f64;
    let mut held = Vec::new();
    while heap.used_superblocks() < heap.max_superblocks() / 2 {
        let p = heap.malloc(SB_SIZE - 64);
        assert!(!p.is_null());
        held.push(p);
    }
    let grows = heap.slow_stats().heap_grows.get();
    let final_sb = heap.committed_superblocks() as f64;
    let bound = (final_sb / initial_sb).log2().ceil() as u64 + 2;
    assert!(
        grows <= bound,
        "doubling must give O(log n) grows: {grows} grows to {final_sb} sbs (bound {bound})"
    );
    for p in held {
        heap.free(p);
    }
}

/// Crash injected at *every* persistence event of a growth-heavy run:
/// whatever the interleaving, recovery must re-establish the full heap
/// invariant, keep all (and only) the rooted blocks, and leave the heap
/// serviceable. This sweep necessarily hits every step of the grow
/// protocol — the commit and the `used` bump's flush and fence — because
/// each is a counted event.
#[test]
fn crash_sweep_through_grow_protocol_recovers() {
    let cfg = || RallocConfig {
        initial_capacity: Some(1 << 20),
        max_capacity: Some(8 << 20),
        ..RallocConfig::tracked()
    };
    // One large (superblock-carving) allocation per root, each rooted
    // immediately: persisted roots let us count exactly which
    // allocations must survive.
    let workload = |heap: &Ralloc, upto: usize| {
        for i in 0..upto {
            let p = heap.malloc(SB_SIZE / 2 + 1);
            if p.is_null() {
                break;
            }
            heap.set_root_raw(i, p);
        }
    };
    // Three times the 16-superblock initial commitment, plus 8: at least
    // two doublings.
    let rounds = 56;
    let build = || Ralloc::create(1 << 20, cfg());
    let run = |heap: &Ralloc, arm: &dyn Fn()| {
        arm();
        workload(heap, rounds)
    };
    let (total_events, heap) = sweep(&STYLES[..2], build, run, |_, (heap, _), budget, style| {
        let stats = heap.recover();
        // Exactly the persisted roots survive, one superblock each.
        let rooted = (0..rounds).filter(|&i| !heap.get_root_raw(i).is_null()).count();
        assert_eq!(
            stats.reachable_blocks as usize, rooted,
            "{style:?} budget {budget}: recovery must keep all and only rooted blocks"
        );
        let report = check_heap(&heap);
        assert!(
            report.is_consistent(),
            "{style:?} budget {budget}: invariants violated after grow-crash: {:?}",
            report.violations
        );
        // The heap keeps functioning — including further growth.
        for _ in 0..8 {
            let p = heap.malloc(SB_SIZE / 2 + 1);
            assert!(!p.is_null(), "{style:?} budget {budget}: heap broken after recovery");
        }
        assert!(check_heap(&heap).is_consistent());
    });
    assert!(heap.slow_stats().heap_grows.get() >= 2, "workload must actually grow the heap");
    // Each allocation carves one superblock: `used` and the identity
    // flushed, one fence.
    assert_eq!(total_events, 340, "56 grow-crossing allocations' persistence events");
}

/// OOM at the reserved ceiling: null, no corruption, and frees make the
/// heap serviceable again.
#[test]
fn oom_at_reserved_ceiling_is_clean() {
    let heap = Ralloc::create(
        1 << 20,
        RallocConfig {
            initial_capacity: Some(1 << 20),
            max_capacity: Some(4 << 20),
            ..Default::default()
        },
    );
    let mut held = Vec::new();
    loop {
        let p = heap.malloc(4096);
        if p.is_null() {
            break;
        }
        held.push(p);
    }
    assert!(
        held.len() * 4096 >= 3 << 20,
        "ceiling hit suspiciously early: {} blocks",
        held.len()
    );
    assert_eq!(heap.committed_superblocks(), heap.max_superblocks());
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "OOM corrupted state: {:?}", report.violations);
    // Null again (stable), then frees restore service.
    assert!(heap.malloc(4096).is_null());
    for p in held.drain(..) {
        heap.free(p);
    }
    let p = heap.malloc(4096);
    assert!(!p.is_null(), "heap must serve again after frees");
    heap.free(p);
    assert!(check_heap(&heap).is_consistent());
}

/// A clean close/reopen round-trips the grown frontier through the file:
/// the saved file holds only the committed prefix, the header re-reserves
/// the full span, and the reopened heap neither regrows what it has nor
/// loses the room it had left.
#[test]
fn clean_reopen_of_grown_image_sees_grown_frontier() {
    let dir = std::env::temp_dir().join(format!("ralloc-grow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("grown.heap");
    std::fs::remove_file(&file).ok();
    let cfg = || RallocConfig {
        initial_capacity: Some(1 << 20),
        max_capacity: Some(32 << 20),
        ..RallocConfig::default()
    };
    let (grown_sb, max_sb, nodes) = {
        let (heap, dirty) = Ralloc::open_file(&file, 1 << 20, cfg()).unwrap();
        assert!(!dirty);
        // Enough nodes to outgrow whatever the initial frontier is
        // (env overrides included) by a comfortable margin.
        let nodes =
            (heap.committed_superblocks() + 16) * (SB_SIZE / std::mem::size_of::<Node>());
        build_list(&heap, 3, nodes);
        assert!(heap.slow_stats().heap_grows.get() >= 1);
        heap.close().unwrap();
        (heap.committed_superblocks(), heap.max_superblocks(), nodes)
    };
    // The file is the committed prefix, not the reservation.
    let file_len = std::fs::metadata(&file).unwrap().len() as usize;
    assert!(
        file_len < max_sb * SB_SIZE && file_len >= grown_sb * SB_SIZE,
        "file ({file_len} B) must cover the frontier ({grown_sb} sbs), not the reserve"
    );
    let (heap, dirty) = Ralloc::open_file(&file, 1 << 20, cfg()).unwrap();
    assert!(!dirty, "clean close must reopen clean");
    assert_eq!(heap.committed_superblocks(), grown_sb, "grown frontier survives reopen");
    assert_eq!(heap.max_superblocks(), max_sb, "reservation survives reopen");
    assert_eq!(list_len(&heap, 3), nodes, "grown data survives reopen");
    // And the heap can keep growing from where it left off.
    let mut held = Vec::new();
    for _ in 0..grown_sb + 8 {
        let p = heap.malloc(SB_SIZE - 64);
        assert!(!p.is_null());
        held.push(p);
    }
    assert!(heap.committed_superblocks() > grown_sb);
    assert!(check_heap(&heap).is_consistent());
    std::fs::remove_dir_all(&dir).ok();
}

/// A *dirty* grown image (crash image remapped at a new base) recovers
/// with the grown frontier and all rooted data.
#[test]
fn dirty_reopen_of_grown_image_recovers() {
    let cfg = RallocConfig {
        initial_capacity: Some(1 << 20),
        max_capacity: Some(32 << 20),
        ..RallocConfig::tracked()
    };
    let heap = Ralloc::create(1 << 20, cfg.clone());
    let nodes = (heap.committed_superblocks() + 16) * (SB_SIZE / std::mem::size_of::<Node>());
    build_list(&heap, 0, nodes);
    assert!(heap.slow_stats().heap_grows.get() >= 1);
    let used = heap.used_superblocks();
    let max_sb = heap.max_superblocks();
    let image = heap.pool().persistent_image();
    drop(heap);
    let (heap2, dirty) = Ralloc::from_image(&image, cfg);
    assert!(dirty);
    assert_eq!(heap2.max_superblocks(), max_sb);
    let _ = heap2.get_root::<Node>(0);
    let stats = heap2.recover();
    assert_eq!(stats.reachable_blocks as usize, nodes);
    assert_eq!(list_len(&heap2, 0), nodes);
    assert!(heap2.committed_superblocks() >= used, "frontier must cover the used prefix");
    assert!(check_heap(&heap2).is_consistent());
}

/// An image cut short of the superblocks its `used` claims is a
/// truncated (data-losing) image and must be refused, not opened — and so
/// must one whose `used` lies past the superblocks the image covers, or
/// whose `max_sb` disagrees with its reserved span. `from_image` panics
/// (it has no `Result`); `open_file` returns `InvalidData` naming the
/// path and the reason, decided before the file is mapped, so the file is
/// left byte for byte as it was.
#[test]
fn truncated_image_with_frontier_beyond_file_is_refused() {
    use ralloc::layout::{MAX_SB_OFF, USED_SB_OFF};
    let heap = Ralloc::create(
        1 << 20,
        RallocConfig {
            initial_capacity: Some(1 << 20),
            max_capacity: Some(16 << 20),
            ..RallocConfig::tracked()
        },
    );
    // Grow well past the initial commitment.
    let mut held = Vec::new();
    for _ in 0..64 {
        let p = heap.malloc(SB_SIZE / 2 + 1);
        assert!(!p.is_null());
        held.push(p);
    }
    let image = heap.pool().persistent_image();
    let word = |off: usize| u64::from_ne_bytes(image[off..off + 8].try_into().unwrap());
    let with_word = |off: usize, value: u64| {
        let mut bytes = image.clone();
        bytes[off..off + 8].copy_from_slice(&value.to_ne_bytes());
        bytes
    };
    let covered = (image.len() - heap.geometry().sb_off) / SB_SIZE;
    let rows: [(&str, Vec<u8>, &str); 3] = [
        // Lop off the tail: `used` now lies past the end.
        ("truncated", image[..2 << 20].to_vec(), "exceeds the image"),
        ("used-past-frontier", with_word(USED_SB_OFF, covered as u64 + 1), "covers only"),
        ("max-sb", with_word(MAX_SB_OFF, word(MAX_SB_OFF) + 1), "geometry mismatch"),
    ];
    let dir = std::env::temp_dir().join(format!("ralloc-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes, why) in rows {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Ralloc::from_image(&bytes, RallocConfig::tracked())
        }));
        let msg = *r.expect_err("a corrupt image must be refused").downcast::<String>().unwrap();
        assert!(msg.contains(why), "{name} via from_image: {msg}");

        let file = dir.join(format!("{name}.heap"));
        std::fs::write(&file, &bytes).unwrap();
        let err = Ralloc::open_file(&file, 1 << 20, RallocConfig::default())
            .expect_err("a corrupt file must be refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        let msg = err.to_string();
        assert!(msg.contains(why), "{name} via open_file: {msg}");
        assert!(msg.contains(&format!("{name}.heap")), "{name}: no path in {msg}");
        let after = std::fs::read(&file).unwrap();
        assert_eq!(after.len(), bytes.len(), "{name}: a refused file changed length");
        assert!(after == bytes, "{name}: a refused file was modified");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The mirror-image corruption: an image *longer* than the reserved span
/// its own header records (foreign bytes appended, or a corrupt header).
/// The old header probe silently clamped the reservation up to the image
/// length; both the in-memory and the file path must refuse instead.
#[test]
fn oversized_image_beyond_header_reserve_is_refused() {
    let heap = Ralloc::create(1 << 20, RallocConfig::tracked());
    heap.close().unwrap();
    let mut image = heap.pool().persistent_image();
    // Pad to one page past the *reserved* span — anything shorter is
    // legally adopted (the image length is the frontier).
    image.resize(heap.pool().len() + 4096, 0xA5);
    let grown = image.clone();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Ralloc::from_image(&grown, RallocConfig::tracked())
    }));
    let msg = *r.expect_err("oversized image must be refused").downcast::<String>().unwrap();
    assert!(msg.contains("refusing a corrupt heap image"), "wrong refusal: {msg}");

    // Same corruption through the file path.
    let dir = std::env::temp_dir().join(format!("ralloc-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("oversized.heap");
    std::fs::write(&file, &image).unwrap();
    let err = Ralloc::open_file(&file, 1 << 20, RallocConfig::default())
        .expect_err("oversized file must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("refusing a corrupt heap image"), "wrong refusal: {msg}");
    assert!(msg.contains("oversized.heap"), "the refusal must name the path: {msg}");
    // A file is never simulated NVM, whatever it holds.
    let err = Ralloc::open_file(&file, 1 << 20, RallocConfig::tracked())
        .expect_err("a tracked config must be refused on the file path");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(std::fs::read(&file).unwrap() == image, "a refused file must be left untouched");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- shrink

/// Grow → shrink → grow oscillation: the frontier must follow the live
/// set down at quiescent points and climb back transparently, cycle after
/// cycle, with the full invariant holding at every stage.
#[test]
fn grow_shrink_grow_oscillation() {
    let heap = Ralloc::create(
        1 << 20,
        RallocConfig {
            initial_capacity: Some(1 << 20),
            max_capacity: Some(32 << 20),
            ..Default::default()
        },
    );
    let mut high_water = 0usize;
    for cycle in 0..3 {
        let mut held = Vec::new();
        for _ in 0..96 {
            let p = heap.malloc(SB_SIZE / 2 + 1); // large path: 1 sb each
            assert!(!p.is_null(), "cycle {cycle}: grow failed");
            held.push(p);
        }
        let grown = heap.committed_superblocks();
        assert!(grown >= 96, "cycle {cycle}: frontier did not grow");
        high_water = high_water.max(grown);
        for p in held {
            heap.free(p);
        }
        let released = heap.shrink();
        assert!(released >= 96, "cycle {cycle}: shrink released only {released}");
        assert_eq!(heap.used_superblocks(), 0, "cycle {cycle}: all blocks were freed");
        assert_eq!(
            heap.committed_superblocks(),
            0,
            "cycle {cycle}: empty heap must shrink to an empty frontier"
        );
        let report = check_heap(&heap);
        assert!(report.is_consistent(), "cycle {cycle}: {:?}", report.violations);
        // A shrunken heap serves immediately (regrow is transparent).
        // Large path on purpose: a small malloc would leave its freed
        // block in this thread's cache, pinning one superblock FULL
        // across the next cycle's shrink.
        let p = heap.malloc(SB_SIZE / 2 + 1);
        assert!(!p.is_null(), "cycle {cycle}: heap dead after shrink");
        heap.free(p);
        heap.shrink();
    }
    let s = heap.slow_stats();
    assert!(s.heap_shrinks.get() >= 3);
    assert!(s.sb_released.get() as usize >= 3 * 96);
}

/// Shrink must never release superblocks pinned by a *live* large block —
/// including its interior (continuation) superblocks, whose anchors are
/// stale recycled state.
#[test]
fn shrink_stops_at_live_large_span() {
    let heap = Ralloc::create(
        1 << 20,
        RallocConfig {
            initial_capacity: Some(1 << 20),
            max_capacity: Some(32 << 20),
            ..Default::default()
        },
    );
    // Leading garbage, then a live 3-superblock span, then garbage.
    let lead = heap.malloc(SB_SIZE / 2 + 1);
    let live = heap.malloc(3 * SB_SIZE - 64);
    let tail: Vec<_> = (0..8).map(|_| heap.malloc(SB_SIZE / 2 + 1)).collect();
    assert!(!lead.is_null() && !live.is_null());
    heap.free(lead);
    for p in tail {
        heap.free(p);
    }
    // SAFETY: live block.
    unsafe { std::ptr::write_bytes(live, 0xEE, 3 * SB_SIZE - 64) };
    let released = heap.shrink();
    assert!(released > 0, "trailing garbage must be released");
    let used = heap.used_superblocks();
    assert_eq!(heap.committed_superblocks(), used);
    assert!(used >= 4, "live span (and everything below it) must survive");
    // SAFETY: live block, still mapped.
    for off in [0usize, SB_SIZE, 2 * SB_SIZE, 3 * SB_SIZE - 65] {
        assert_eq!(unsafe { *live.add(off) }, 0xEE, "live large block corrupted by shrink");
    }
    assert!(check_heap(&heap).is_consistent());
    heap.free(live);
    assert!(heap.shrink() >= 3);
}

/// Crash injected at *every* persistence event of a free-then-close run:
/// the sweep necessarily hits each step of the shrink protocol (the
/// lowered `used` flush and fence, and the decommit itself, which is a
/// counted event), plus the surrounding close-path writes. Whatever the
/// interleaving, recovery must keep all and only the still-rooted blocks
/// and re-establish the full invariant, with the committed prefix
/// covering the persisted `used` at every budget. An image that reopens
/// clean is trusted as it is: it must hold the invariant and the kept
/// roots without recovery.
#[test]
fn crash_sweep_through_shrink_protocol_recovers() {
    let cfg = || RallocConfig {
        initial_capacity: Some(1 << 20),
        max_capacity: Some(8 << 20),
        ..RallocConfig::tracked()
    };
    let rounds = 48usize;
    // Phase A (not swept): grow a rooted large-block population.
    let setup = |heap: &Ralloc| {
        for i in 0..rounds {
            let p = heap.malloc(SB_SIZE / 2 + 1);
            assert!(!p.is_null());
            heap.set_root_raw(i, p);
        }
    };
    // Phase B (swept): unroot + free the top half, then close — the
    // close performs the shrink.
    let teardown = |heap: &Ralloc| {
        for i in rounds / 2..rounds {
            let p = heap.get_root_raw(i);
            heap.set_root_raw(i, std::ptr::null());
            heap.free(p);
        }
        heap.close().unwrap();
    };
    let build = || {
        let heap = Ralloc::create(1 << 20, cfg());
        setup(&heap);
        heap
    };
    let run = |heap: &Ralloc, arm: &dyn Fn()| {
        arm();
        teardown(heap)
    };
    // Two of STYLES, and every dirty line kept: the images that reopen clean.
    let keep_all = CrashStyle::RandomEviction { survive_permille: 1000, seed: 1 };
    let mut clean = 0;
    let (total_events, heap) = sweep(&[STYLES[0], STYLES[1], keep_all], build, run, |_, (heap, dirty), budget, style| {
        let rooted = (0..rounds).filter(|&i| !heap.get_root_raw(i).is_null()).count();
        assert!(
            (0..rounds / 2).all(|i| !heap.get_root_raw(i).is_null()),
            "{style:?} budget {budget}: a kept root was lost (have {rooted})"
        );
        if dirty {
            // Exact root-survival accounting: every root that was still
            // set at the crash survives (one superblock each), nothing else.
            let stats = heap.recover();
            assert_eq!(
                stats.reachable_blocks as usize, rooted,
                "{style:?} budget {budget}: recovery must keep all and only rooted blocks"
            );
        } else {
            // Only the last steps of a close leave the dirty word clear:
            // every unroot before it is durable.
            clean += 1;
            assert_eq!(rooted, rounds / 2, "{style:?} budget {budget}: a clean image kept a dropped root");
        }
        // Recovery and close both shrink: frontier == used.
        assert_eq!(
            heap.committed_superblocks(),
            heap.used_superblocks(),
            "{style:?} budget {budget}: the shrink must land frontier on used (reopened dirty: {dirty})"
        );
        let report = check_heap(&heap);
        assert!(
            report.is_consistent(),
            "{style:?} budget {budget}: invariants violated after shrink-crash: {:?}",
            report.violations
        );
        // The heap keeps functioning — including regrowth over the
        // decommitted (or never-recommitted) tail.
        for _ in 0..8 {
            let p = heap.malloc(SB_SIZE / 2 + 1);
            assert!(!p.is_null(), "{style:?} budget {budget}: heap broken after recovery");
        }
        assert!(check_heap(&heap).is_consistent());
    });
    assert_eq!(total_events, 83, "the teardown's persistence events");
    assert!(clean > 0, "no crash image reopened clean: the sweep checked only recoveries");
    assert!(heap.slow_stats().heap_shrinks.get() >= 1, "the teardown must actually shrink");
    assert_eq!(heap.committed_superblocks(), heap.used_superblocks());
}

/// A clean close of a heap whose live set collapsed writes a *shrunken*
/// image; reopening sees the shrunken frontier (not the in-run
/// high-water mark), all live data, and full room to regrow. The dirty
/// path (crash image of an explicitly shrunken heap) must equally
/// recover.
#[test]
fn shrunken_image_clean_and_dirty_reopen() {
    let dir = std::env::temp_dir().join(format!("ralloc-shrink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("shrunken.heap");
    std::fs::remove_file(&file).ok();
    let cfg = || RallocConfig {
        initial_capacity: Some(1 << 20),
        max_capacity: Some(32 << 20),
        ..RallocConfig::default()
    };
    let nodes = 2000usize;
    let (high_water, closed_sb, max_sb) = {
        let (heap, dirty) = Ralloc::open_file(&file, 1 << 20, cfg()).unwrap();
        assert!(!dirty);
        build_list(&heap, 5, nodes); // live set, packed low
        // Garbage spike far above the live set, then release it.
        let spike: Vec<_> = (0..64).map(|_| heap.malloc(SB_SIZE / 2 + 1)).collect();
        assert!(spike.iter().all(|p| !p.is_null()));
        let high_water = heap.committed_superblocks();
        for p in spike {
            heap.free(p);
        }
        heap.close().unwrap();
        (high_water, heap.committed_superblocks(), heap.max_superblocks())
    };
    assert!(
        closed_sb < high_water,
        "close must shrink below the high-water mark ({closed_sb} vs {high_water})"
    );
    let file_len = std::fs::metadata(&file).unwrap().len() as usize;
    assert!(
        file_len < high_water * SB_SIZE,
        "the saved file must be the shrunken prefix, not the high-water span"
    );
    // Clean reopen: shrunken frontier, live data, reservation intact.
    let (heap, dirty) = Ralloc::open_file(&file, 1 << 20, cfg()).unwrap();
    assert!(!dirty, "clean close must reopen clean");
    assert_eq!(heap.committed_superblocks(), closed_sb);
    assert_eq!(heap.max_superblocks(), max_sb, "reservation survives the shrink");
    assert_eq!(list_len(&heap, 5), nodes, "live data survives the shrink");
    let mut held = Vec::new();
    for _ in 0..closed_sb + 8 {
        let p = heap.malloc(SB_SIZE - 64);
        assert!(!p.is_null(), "shrunken heap must regrow");
        held.push(p);
    }
    assert!(heap.committed_superblocks() > closed_sb);
    assert!(check_heap(&heap).is_consistent());

    // Dirty path: explicit shrink, then a crash image at a new base.
    let cfg = || RallocConfig { mode: Mode::Tracked, ..cfg() };
    let heap2 = Ralloc::create(1 << 20, cfg());
    build_list(&heap2, 0, nodes);
    let spike: Vec<_> = (0..64).map(|_| heap2.malloc(SB_SIZE / 2 + 1)).collect();
    let hw2 = heap2.committed_superblocks();
    for p in spike {
        heap2.free(p);
    }
    assert!(heap2.shrink() > 0);
    assert!(heap2.committed_superblocks() < hw2);
    let image = heap2.pool().persistent_image();
    assert!(image.len() < hw2 * SB_SIZE, "crash image must be the shrunken prefix");
    drop(heap2);
    let (heap3, dirty) = Ralloc::from_image(&image, cfg());
    assert!(dirty);
    let _ = heap3.get_root::<Node>(0);
    let stats = heap3.recover();
    assert_eq!(stats.reachable_blocks as usize, nodes);
    assert_eq!(list_len(&heap3, 0), nodes);
    assert!(check_heap(&heap3).is_consistent());
    std::fs::remove_dir_all(&dir).ok();
}

/// The CI shrink-smoke workload, from a 2 MiB frontier: a
/// multi-threaded churn spike on top of a bounded live set, a clean
/// close, and a reopen whose committed frontier must sit below the
/// in-run high-water mark and within a doubling step of the live set.
#[test]
fn churn_workload_close_reopen_commits_near_live_set() {
    let dir = std::env::temp_dir().join(format!("ralloc-churnsmoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("churn.heap");
    std::fs::remove_file(&file).ok();
    let cfg = || RallocConfig {
        initial_capacity: Some(2 << 20),
        max_capacity: Some(64 << 20),
        ..Default::default()
    };
    let nodes = 1000usize;
    let (high_water, used_after_close, closed_sb) = {
        let (heap, dirty) = Ralloc::open_file(&file, 2 << 20, cfg()).unwrap();
        assert!(!dirty);
        build_list(&heap, 0, nodes); // live set first: packs low
        // Churn: worker threads allocate and free far more than the live
        // set, across many classes, then exit. Each is joined, so its
        // exit drain has flushed before `close` (a drain that starts after
        // `close` skips its flush; `scope` alone waits for the closures,
        // not for the thread-local destructors that drain).
        std::thread::scope(|s| {
            let mut workers = Vec::new();
            for t in 0..4 {
                let heap = heap.clone();
                workers.push(s.spawn(move || {
                    let mut held: Vec<*mut u8> = Vec::new();
                    let mut x = 0x9E3779B9u64.wrapping_mul(t + 1) | 1;
                    for _ in 0..30_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if held.len() > 500 || (!held.is_empty() && x.is_multiple_of(3)) {
                            let p = held.swap_remove(x as usize % held.len());
                            heap.free(p);
                        } else {
                            let p = heap.malloc(8 + (x as usize % 50) * 8);
                            assert!(!p.is_null());
                            held.push(p);
                        }
                    }
                    for p in held {
                        heap.free(p);
                    }
                }));
            }
            for w in workers {
                w.join().unwrap();
            }
        });
        let high_water = heap.committed_superblocks();
        heap.close().unwrap();
        (high_water, heap.used_superblocks(), heap.committed_superblocks())
    };
    let (heap, dirty) = Ralloc::open_file(&file, 2 << 20, cfg()).unwrap();
    assert!(!dirty);
    assert_eq!(
        heap.committed_superblocks(),
        closed_sb,
        "reopened committed_len must equal the shrunken frontier"
    );
    assert!(
        heap.committed_superblocks() < high_water,
        "reopened committed_len ({}) must drop below the in-run high-water mark ({high_water})",
        heap.committed_superblocks()
    );
    // Acceptance bound: committed ≤ live-set superblocks + one doubling
    // step. The live set is the rooted list plus bounded per-class
    // fragmentation pinned below it by the churn (at most a few partial
    // superblocks per active class — the churn spans ~19 classes).
    let live_sbs = (nodes * std::mem::size_of::<Node>()).div_ceil(SB_SIZE) + 19;
    assert!(
        heap.committed_superblocks() <= 2 * live_sbs,
        "reopened frontier {} exceeds live-set bound {live_sbs} + one doubling",
        heap.committed_superblocks()
    );
    assert_eq!(heap.used_superblocks(), used_after_close);
    assert_eq!(list_len(&heap, 0), nodes, "live set survives the churn + shrink");
    assert!(check_heap(&heap).is_consistent());
    std::fs::remove_dir_all(&dir).ok();
}

