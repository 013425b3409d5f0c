//! Recoverability (paper Theorem 5.4) under adversarial crash points.
//!
//! These tests drive the heap in Tracked mode, where only lines that were
//! explicitly flushed *and* fenced survive a simulated power failure, and
//! use the pool's `CrashInjector` to abort execution at persistence events
//! throughout an operation sequence. After each crash, recovery must
//! leave the heap in a state where all and only the root-reachable blocks
//! are allocated, and the heap must keep functioning.

use std::collections::HashSet;

use crashtest::{crash_at, sweep, Victim, STYLES};
use nvm::CrashStyle;
use pds::{NmTree, PStack};
use ralloc::descriptor::Desc;
use ralloc::{Pptr, Ralloc, RallocConfig, Trace, Tracer, SB_SIZE};

fn tracked() -> Ralloc {
    Ralloc::create(16 << 20, RallocConfig::tracked())
}

/// The stack sweeps' run: a stack, then 40 pushes crashed at each event.
fn stack_pushes(heap: &Ralloc, arm: &dyn Fn()) {
    let stack = PStack::create(heap, 0);
    arm();
    for i in 0..40 {
        stack.push(i);
    }
}

/// Attach the stack of a crash image (registering its filter), recover
/// the heap with `recover`, and check the durable prefix: the recovered
/// stack is some prefix of the pushes (buffered durable linearizability
/// allows the final unfenced push to be lost, never reordered or
/// corrupted), and allocating never touches it.
fn recover_pushed_prefix(heap: &Ralloc, recover: impl FnOnce(), crash: &str) {
    let stack = PStack::attach(heap, 0).expect("head cell persisted at create");
    recover();
    let vals = stack.snapshot();
    let n = vals.len() as u64;
    assert!(n <= 40, "{crash}: more elements than pushed");
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, n - 1 - i as u64, "{crash}: stack order corrupted");
    }
    for i in 0..200u64 {
        let p = heap.malloc(16);
        assert!(!p.is_null(), "{crash}: heap broken after recovery");
        // SAFETY: fresh 16-byte block.
        unsafe { std::ptr::write(p as *mut u64, i) };
    }
    assert_eq!(stack.snapshot(), vals, "{crash}: allocation after recovery corrupted the stack");
}

/// A crash at every persistence event of 40 pushes, each image
/// recovered by `recover` and checked for the durable prefix and a
/// consistent heap. Then the completed run, after 500 leaked blocks
/// (garbage a `RandomEviction` may persist), crashed under `style`: all
/// 40 fenced pushes come back in order.
fn stack_push_sweep(style: CrashStyle, recover: impl Fn(&Ralloc)) {
    let (events, done) = sweep(&[style], tracked, stack_pushes, |_, (heap, _), budget, style| {
        let crash = format!("{style:?} budget {budget}");
        recover_pushed_prefix(&heap, || recover(&heap), &crash);
        let report = ralloc::check_heap(&heap);
        assert!(report.is_consistent(), "{crash}: {:?}", report.violations);
    });
    assert_eq!(events, 163, "40 pushes' persistence events (one carve)");
    for _ in 0..500 {
        assert!(!done.malloc(48).is_null());
    }
    let (heap, _) = <Ralloc as Victim>::adopt(&done.pool().crash_image(style));
    let stack = PStack::attach(&heap, 0).expect("head cell persisted at create");
    recover(&heap);
    assert_eq!(stack.snapshot(), (0..40).rev().collect::<Vec<u64>>(), "{style:?}: a fenced push was lost");
    let report = ralloc::check_heap(&heap);
    assert!(report.is_consistent(), "{style:?} after the run: {:?}", report.violations);
}

#[test]
fn crash_point_sweep_during_stack_pushes() {
    stack_push_sweep(CrashStyle::StrictFlushOnly, |heap| _ = heap.recover());
}

/// The same crash points, recovered by three workers: the parallel mark
/// + sharded sweep meet the same durable-prefix contract.
#[test]
fn injected_crash_sweep_recovers_with_parallel_workers() {
    stack_push_sweep(CrashStyle::StrictFlushOnly, |heap| assert_eq!(heap.recover_parallel(3).threads, 3));
}

/// Real hardware may persist *more* than what was fenced (spontaneous
/// cache eviction); recovery must tolerate that too, at every crash
/// point.
#[test]
fn random_eviction_crash_is_also_recoverable() {
    stack_push_sweep(CrashStyle::RandomEviction { survive_permille: 500, seed: 7 }, |heap| _ = heap.recover());
}

#[test]
fn crash_point_sweep_during_tree_inserts() {
    let inserts = |heap: &Ralloc, arm: &dyn Fn()| {
        let tree = NmTree::create(heap, 0);
        arm();
        for i in 0..20 {
            tree.insert(i * 5, i);
        }
    };
    let (events, _) = sweep(&[CrashStyle::StrictFlushOnly], tracked, inserts, |_, (heap, _), budget, _| {
        let tree = NmTree::attach(&heap, 0).expect("sentinels persisted at create");
        heap.recover();
        // Durable subset: every surviving key is one we inserted with its
        // correct value; keys are unique and sorted.
        let keys = tree.keys();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "budget {budget}: duplicate or unsorted keys");
        }
        for &k in &keys {
            assert_eq!(k % 5, 0, "budget {budget}: phantom key {k}");
            assert_eq!(tree.get(k), Some(k / 5), "budget {budget}: wrong value for {k}");
        }
        // Tree still functional after recovery.
        assert!(tree.insert(1_000_003, 7));
        assert_eq!(tree.get(1_000_003), Some(7));
    });
    assert_eq!(events, 120, "20 inserts' persistence events");
}

#[test]
fn repeated_crashes_converge() {
    // Crash, recover, do more work, crash again — five generations.
    let heap = tracked();
    let _stack = PStack::create(&heap, 0);
    let mut expected = Vec::new();
    for generation in 0..5u64 {
        let stack = PStack::attach(&heap, 0).unwrap();
        for i in 0..50 {
            assert!(stack.push(generation * 100 + i));
            expected.push(generation * 100 + i);
        }
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(
            stats.reachable_blocks as usize,
            expected.len() + 1,
            "generation {generation}"
        );
    }
    let stack = PStack::attach(&heap, 0).unwrap();
    let mut vals = stack.snapshot();
    vals.reverse();
    assert_eq!(vals, expected);
}

/// What a recovery rebuilt: the durable `used`, the committed prefix (in
/// superblocks), and, as the heap reads them now, the header up to the
/// flight ring (whose records differ from one recovery to the next by
/// design) and the descriptors of the used superblocks. Recovery writes
/// back nothing it rebuilds, so only `used` is read from the durable
/// image, and it must equal the live one.
struct Recovered {
    used: u64,
    committed: usize,
    header: Vec<u8>,
    descriptors: Vec<u8>,
}

impl Recovered {
    fn of(heap: &Ralloc) -> Recovered {
        use ralloc::layout::{FLIGHT_OFF, USED_SB_OFF};
        let image = heap.pool().persistent_image();
        let used = u64::from_le_bytes(image[USED_SB_OFF..USED_SB_OFF + 8].try_into().unwrap());
        assert_eq!(used, heap.used_superblocks() as u64, "the lowered `used` is not durable");
        let descriptors = heap.geometry().desc(0)..heap.geometry().desc(heap.used_superblocks());
        // SAFETY: the metadata region and the used descriptors lie inside
        // the committed prefix, and the heap is quiescent.
        let live = unsafe { std::slice::from_raw_parts(heap.pool().base(), descriptors.end) };
        Recovered {
            used,
            committed: heap.committed_superblocks(),
            header: live[..FLIGHT_OFF].to_vec(),
            descriptors: live[descriptors].to_vec(),
        }
    }
}

/// The first byte at which `a` and `b` differ, if any.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    let differs = a.iter().zip(b).position(|(x, y)| x != y);
    differs.or((a.len() != b.len()).then_some(a.len().min(b.len())))
}

/// recover∘recover = recover: a second recovery of a recovered heap finds
/// nothing to shrink and leaves every durable byte of metadata as the
/// first left it, whatever the worker count.
#[test]
fn a_second_recovery_changes_nothing() {
    for workers in [1, 2] {
        let heap = tracked();
        let stack = PStack::create(&heap, 0);
        // Unrooted and rooted superblocks in turn, so recovery sweeps
        // more than 64 of them (the parallel sweep's threshold), then an
        // unrooted tail for its shrink.
        for r in 1..=80 {
            (0..16).for_each(|_| assert!(!heap.malloc(4096).is_null()));
            heap.set_root_raw(r, heap.malloc(ralloc::SB_SIZE / 2 + 1));
            assert!(stack.push(r as u64));
        }
        (0..20 * 16).for_each(|_| assert!(!heap.malloc(4096).is_null()));
        heap.crash_simulated();
        let first = heap.recover_parallel(workers);
        assert!(first.shrunk_superblocks > 0, "{workers} workers: the first recovery shrank nothing");
        assert!(heap.used_superblocks() > 64, "{workers} workers: {} used", heap.used_superblocks());
        let once = Recovered::of(&heap);
        let again = heap.recover_parallel(workers);
        assert_eq!(again.shrunk_superblocks, 0, "{workers} workers: the second recovery shrank");
        let twice = Recovered::of(&heap);
        assert_eq!((once.used, once.committed), (twice.used, twice.committed), "{workers} workers");
        let header = first_difference(&once.header, &twice.header);
        assert_eq!(header, None, "{workers} workers: first differing header byte");
        let descriptors = first_difference(&once.descriptors, &twice.descriptors);
        assert_eq!(descriptors, None, "{workers} workers: first differing descriptor byte");
        assert_eq!(stack.snapshot(), (1..=80).rev().collect::<Vec<u64>>());
    }
}

/// The crashed heap the R1 and crash-inside-recovery tests recover, built
/// the way `a_second_recovery_changes_nothing` builds its own: rooted and
/// unrooted superblocks in turn, more than 64 of them, then an unrooted
/// tail for the recovery's shrink. Stack values `80..=1` are rooted at 0.
fn populate_and_crash(heap: &Ralloc) {
    let stack = PStack::create(heap, 0);
    for r in 1..=80 {
        (0..16).for_each(|_| assert!(!heap.malloc(4096).is_null()));
        heap.set_root_raw(r, heap.malloc(ralloc::SB_SIZE / 2 + 1));
        assert!(stack.push(r as u64));
    }
    (0..20 * 16).for_each(|_| assert!(!heap.malloc(4096).is_null()));
    heap.crash_simulated();
}

/// Adopt a crash image, register the stack's filter as an application
/// would, and recover with `workers` workers.
fn recover_image(image: &[u8], workers: usize) -> (Ralloc, ralloc::RecoveryStats) {
    let (heap, dirty) = Ralloc::from_image(image, RallocConfig::tracked());
    assert!(dirty, "a crash image must demand recovery");
    PStack::attach(&heap, 0).expect("the stack head was persisted at create");
    let stats = heap.recover_parallel(workers);
    (heap, stats)
}

/// Every count a recovery reports (all of `RecoveryStats` but the worker
/// count and the times).
fn counts(s: &ralloc::RecoveryStats) -> [u64; 9] {
    [
        s.reachable_blocks,
        s.reachable_bytes,
        s.free_superblocks as u64,
        s.partial_superblocks as u64,
        s.full_superblocks as u64,
        s.rejected_large_phantoms as u64,
        s.conservative_words_scanned,
        s.conservative_candidates,
        s.shrunk_superblocks as u64,
    ]
}

/// The superblock index of `p`, a block of `heap`.
fn superblock_of(heap: &Ralloc, p: *const u8) -> usize {
    (p as usize - heap.pool().base() as usize - heap.geometry().sb(0)) / ralloc::SB_SIZE
}

/// R1: one crash image recovers to byte-identical metadata and equal
/// counts with 1 worker, with 2 and with 3 (more than a 2-CPU host has).
/// The image's last live block is root 80's one-superblock large block,
/// above every marked small block, so each recovery's `used` must cover
/// it.
#[test]
fn one_image_recovers_to_the_same_bytes_for_any_worker_count() {
    let heap = tracked();
    populate_and_crash(&heap);
    let image = heap.pool().persistent_image();
    let (one, s1) = recover_image(&image, 1);
    for workers in [2, 3] {
        let (many, s) = recover_image(&image, workers);
        assert_eq!((s1.threads, s.threads), (1, workers));
        assert!(many.used_superblocks() > 64, "{} used: the sweep ran on one worker", many.used_superblocks());
        let (a, b) = (Recovered::of(&one), Recovered::of(&many));
        assert_eq!((a.used, a.committed), (b.used, b.committed), "{workers} workers");
        assert_eq!(first_difference(&a.header, &b.header), None, "{workers} workers: first differing header byte");
        let descriptors = first_difference(&a.descriptors, &b.descriptors);
        assert_eq!(descriptors, None, "{workers} workers: first differing descriptor byte");
        assert_eq!(counts(&s1), counts(&s), "{workers} workers");
    }
    let last = superblock_of(&one, one.get_root_raw(80));
    assert_eq!(one.used_superblocks(), last + 1, "the live prefix ends after root 80's span");
}

/// Build a crash image whose live prefix ends with a rooted large span
/// above every rooted small block, unrooted 4 KiB blocks above it, and,
/// if `phantom`, a stale large head above those, rooted, whose interior
/// unrooted fills re-typed. Returns the image and the span's end.
fn a_large_span_above_the_small_marks(phantom: bool) -> (Vec<u8>, usize) {
    use ralloc::SB_SIZE;
    let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
    let small = heap.malloc(64);
    heap.set_root_raw(0, small);
    let span = heap.malloc(2 * SB_SIZE);
    // SAFETY: a fresh block of 2 superblocks.
    unsafe { std::ptr::write_bytes(span, 0x5A, 2 * SB_SIZE) };
    heap.pool().persist(span as usize - heap.pool().base() as usize, 2 * SB_SIZE);
    heap.set_root_raw(1, span);
    let end = superblock_of(&heap, span) + 2;
    assert!(superblock_of(&heap, small) < end - 2, "the small block is not below the span");
    (0..70 * 16).for_each(|_| assert!(!heap.malloc(4096).is_null()));
    if phantom {
        let stale = heap.malloc(4 * SB_SIZE);
        heap.free(stale);
        // The free list is LIFO: the fills re-type the interior first.
        for _ in 0..3 * SB_SIZE / 4096 {
            let p = heap.malloc(4096);
            assert!((1..4).contains(&(superblock_of(&heap, p) - superblock_of(&heap, stale))));
        }
        heap.set_root_raw(2, stale);
        assert_eq!(heap.used_superblocks(), superblock_of(&heap, stale) + 4);
    }
    (heap.pool().persistent_image(), end)
}

/// Recover `image` with 1, 2 and 3 workers; each must keep the large span
/// rooted at 1, which ends at superblock `end`, and release everything
/// past it.
fn recovers_to_the_span(image: &[u8], end: usize, phantoms: usize) {
    for workers in [1, 2, 3] {
        let (heap, dirty) = Ralloc::from_image(image, RallocConfig::tracked());
        assert!(dirty);
        let stats = heap.recover_parallel(workers);
        assert_eq!(heap.used_superblocks(), end, "{workers} workers: `used` is not the span's end");
        assert_eq!(stats.rejected_large_phantoms, phantoms, "{workers} workers");
        // The marked phantom head counts as reached, as every mark does.
        let reached = 2 + phantoms as u64;
        assert_eq!((stats.reachable_blocks, stats.full_superblocks), (reached, 2), "{workers} workers");
        let span = heap.get_root_raw(1);
        // SAFETY: the rooted block of 2 superblocks, kept by the recovery.
        let bytes = unsafe { std::slice::from_raw_parts(span, 2 * ralloc::SB_SIZE) };
        assert!(bytes.iter().all(|&b| b == 0x5A), "{workers} workers: the span changed");
        let report = ralloc::check_heap(&heap);
        assert!(report.is_consistent(), "{workers} workers: {:?}", report.violations);
    }
}

/// `keep` comes from the claimed spans as well as the small marks: a live
/// large span above the last marked small block ends the live prefix.
#[test]
fn a_live_large_span_above_the_small_marks_sets_the_live_prefix() {
    let (image, end) = a_large_span_above_the_small_marks(false);
    recovers_to_the_span(&image, end, 0);
}

/// A marked large head the claim rejects is not live: above every live
/// block it does not raise `keep`, and its superblocks are released with
/// the rest of the tail.
#[test]
fn a_rejected_phantom_above_every_live_block_is_released() {
    let (image, end) = a_large_span_above_the_small_marks(true);
    recovers_to_the_span(&image, end, 1);
}

/// Dead descriptors are dead (hostile input past the header): nothing
/// reads a descriptor at or past `used`, so flipping bytes of the eight
/// after it in a crash image changes nothing a recovery leaves behind,
/// for either worker count. Flipped bytes among the *used* descriptors
/// are hostile input proper: the inspector's check comes back with a
/// report or an error, never a fault. Seeded, so a failure replays.
#[test]
fn flipped_dead_descriptors_change_no_recovery() {
    use ralloc::layout::DESC_SIZE;
    let heap = tracked();
    populate_and_crash(&heap);
    let image = heap.pool().persistent_image();
    let (desc_off, used) = (heap.geometry().desc_off, heap.used_superblocks());
    assert!(used + 8 <= heap.max_superblocks(), "{used} used: no dead descriptors to flip");
    let reference = [1, 2].map(|w| {
        let (h, s) = recover_image(&image, w);
        (Recovered::of(&h), counts(&s))
    });
    let mut rng = 0x5EED_DE5C_0000_0001u64;
    let mut next = move |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let mut flip = |bytes: &mut [u8], from: usize, len: usize| {
        let at = from + next(len);
        bytes[at] ^= 1 + next(255) as u8;
    };
    for trial in 0..6 {
        let mut flipped = image.clone();
        (0..16).for_each(|_| flip(&mut flipped, desc_off + used * DESC_SIZE, 8 * DESC_SIZE));
        for (workers, (want, want_counts)) in [1, 2].into_iter().zip(&reference) {
            let what = format!("trial {trial}, {workers} workers");
            let (h, s) = recover_image(&flipped, workers);
            let got = Recovered::of(&h);
            assert_eq!((got.used, got.committed), (want.used, want.committed), "{what}");
            assert_eq!(first_difference(&got.header, &want.header), None, "{what}: header byte");
            let descriptors = first_difference(&got.descriptors, &want.descriptors);
            assert_eq!(descriptors, None, "{what}: descriptor byte");
            assert_eq!(&counts(&s), want_counts, "{what}");
        }
    }
    for trial in 0..12 {
        let mut flipped = image.clone();
        (0..4).for_each(|_| flip(&mut flipped, desc_off, used * DESC_SIZE));
        match rinspect::check(&flipped) {
            Ok(outcome) => assert!(outcome.recovered, "trial {trial}: a dirty image was not recovered"),
            Err(why) => assert!(!why.is_empty(), "trial {trial}: an empty refusal"),
        }
    }
}

/// A flipped high bit that sends a list head past `used` — bit 20 of the
/// free-list head word (byte 40) and of the 64 B class's home partial
/// shard — ends that list. A cleanly closed image is not recovered, so its
/// lists are trusted as they are: the checker (and the inspector) must
/// report a `list-membership` violation, and a `malloc` must fall through
/// the broken lists to a carve. Neither may fault.
#[test]
fn a_list_head_flipped_past_used_ends_the_list() {
    use ralloc::layout::FREE_LIST_OFF;
    use ralloc::shard::current_home_shard;
    use ralloc::size_class::size_class_of;
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let blocks: Vec<*mut u8> = (0..600).map(|_| heap.malloc(64)).collect();
    assert!(blocks.iter().all(|p| !p.is_null()));
    // Every other block back: the closing drain leaves PARTIAL superblocks
    // on this thread's home shard.
    blocks.iter().step_by(2).for_each(|&p| heap.free(p));
    heap.close().unwrap();
    let mut image = heap.pool().persistent_image();
    let used = heap.used_superblocks();
    let shard_head = heap.geometry().partial_head(size_class_of(64).unwrap(), current_home_shard());
    drop(heap);
    for off in [FREE_LIST_OFF, shard_head] {
        let word = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) ^ (1 << 20);
        image[off..off + 8].copy_from_slice(&word.to_le_bytes());
    }
    let membership = |report: &ralloc::CheckReport| {
        assert!(!report.violations.is_empty(), "a list head past `used` went unreported");
        for v in &report.violations {
            assert_eq!(v.rule, "list-membership", "{v:?}");
        }
    };
    let outcome = rinspect::check(&image).expect("a clean image is checked, not refused");
    assert!(!outcome.recovered, "a clean image is not recovered");
    membership(&outcome.report);
    let (heap, dirty) = Ralloc::from_image(&image, RallocConfig::default());
    assert!(!dirty);
    membership(&ralloc::check_heap(&heap));
    let p = heap.malloc(64);
    assert!(!p.is_null());
    assert_eq!(heap.used_superblocks(), used + 1, "the fill carves past both broken lists");
    heap.free(p);
    let more: Vec<*mut u8> = (0..600).map(|_| heap.malloc(64)).collect();
    assert!(more.iter().all(|p| !p.is_null()));
    more.into_iter().for_each(|p| heap.free(p));
    membership(&ralloc::check_heap(&heap));
}

/// A crash at any persistence event of one `recover_parallel(2)` — the
/// lowered `used`, the decommit, the flight records around the list
/// publish, the closing fence — leaves an image whose own recovery is
/// consistent, keeps every rooted block and ends exactly where an
/// uncrashed recovery of the original image does. The sweep
/// crashes inside every step: each step's flight record is the last one
/// the crashed recovery wrote at one crash point or more.
///
/// Each crash image's flight ring also ends at the last step that image
/// shows: the record from before recovery while `used` is not lowered,
/// `shrink_unpublish` or `shrink_decommit` once it is, and
/// `shrink_decommit` once the prefix is lowered too. The sweep reaches
/// all three.
#[test]
fn a_crash_inside_recovery_recovers_to_the_uncrashed_result() {
    let build = || {
        let heap = tracked();
        populate_and_crash(&heap);
        PStack::attach(&heap, 0).expect("the stack head was persisted at create");
        heap
    };
    let (used, committed, reference) = {
        let heap = build();
        let (used, committed) = (heap.used_superblocks(), heap.pool().committed_len());
        let (clean, stats) = recover_image(&heap.pool().persistent_image(), 2);
        (used, committed, (Recovered::of(&clean), stats.reachable_blocks))
    };
    let (mut last_records, mut last_durable) = (HashSet::new(), HashSet::new());
    let recover = |heap: &Ralloc, arm: &dyn Fn()| {
        arm();
        heap.recover_parallel(2);
    };
    let (events, uncrashed) = sweep(&[CrashStyle::StrictFlushOnly], build, recover, |crashed, (image, _), budget, style| {
        last_records.extend(crashed.flight_timeline().events.last().map(|e| e.kind_name()));
        let durable = image.preopen_flight().events.last().map_or("none", |e| e.kind_name());
        let shows: &[&str] = match (image.used_superblocks() < used, image.pool().committed_len() < committed) {
            (false, false) => &["root_publish"],
            (true, false) => &["shrink_unpublish", "shrink_decommit"],
            (true, true) => &["shrink_decommit"],
            (false, true) => panic!("budget {budget}: the prefix came down before `used`"),
        };
        assert!(shows.contains(&durable), "budget {budget}: the crash image's flight ring ends at {durable}");
        last_durable.insert(durable);
        let (again, stats) = recover_image(&crashed.pool().crash_image(style), 2);
        let report = ralloc::check_heap(&again);
        assert!(report.is_consistent(), "budget {budget}: {:?}", report.violations);
        let stack = PStack::attach(&again, 0).expect("stack head");
        assert_eq!(stack.snapshot(), (1..=80).rev().collect::<Vec<u64>>(), "budget {budget}");
        assert!((1..=80).all(|r| !again.get_root_raw(r).is_null()), "budget {budget}: a root was lost");
        assert_eq!(stats.reachable_blocks, reference.1, "budget {budget}");
        let got = Recovered::of(&again);
        let want = &reference.0;
        assert_eq!((got.used, got.committed), (want.used, want.committed), "budget {budget}");
        assert_eq!(first_difference(&got.header, &want.header), None, "budget {budget}: header byte");
        let descriptors = first_difference(&got.descriptors, &want.descriptors);
        assert_eq!(descriptors, None, "budget {budget}: descriptor byte");
    });
    println!("{events} crash points inside recover_parallel(2)");
    let seen: HashSet<&str> = uncrashed.flight_timeline().events.iter().map(|e| e.kind_name()).collect();
    for kind in ["shrink_unpublish", "shrink_decommit", "recovery_splice"] {
        assert!(seen.contains(kind), "the recovery never reached {kind}");
    }
    // The reconcile record; the shrink record, `used` and their fence;
    // the decommit's record, its fence and the decommit; the sweep and
    // splice records and the closing fence.
    assert_eq!(events, 10, "a 2-worker recovery's persistence events");
    for step in ["recovery_reconcile", "shrink_unpublish", "shrink_decommit", "recovery_sweep", "recovery_splice"] {
        assert!(last_records.contains(step), "no crash lands after {step}: {last_records:?}");
    }
    for step in ["root_publish", "shrink_unpublish", "shrink_decommit"] {
        assert!(last_durable.contains(step), "no crash image ends at {step}: {last_durable:?}");
    }
}

/// Recovery writes back nothing it rebuilds: across one recovery of a
/// tracked crash image, the durable header (but `used` and the flight
/// ring) and every descriptor byte stay as they were, while the heap reads
/// rebuilt anchors and lists, and the lowered `used` is durable.
#[test]
fn recovery_persists_nothing_it_rebuilds() {
    use ralloc::layout::{FLIGHT_OFF, USED_SB_OFF};
    let heap = tracked();
    populate_and_crash(&heap);
    PStack::attach(&heap, 0).expect("the stack head was persisted at create");
    let used = heap.used_superblocks();
    let descriptors = heap.geometry().desc(0)..heap.geometry().desc(used);
    let before = heap.pool().persistent_image();
    assert!(heap.recover_parallel(2).shrunk_superblocks > 0, "the recovery shrank nothing");
    let after = heap.pool().persistent_image();
    let header = |image: &[u8]| [image[..USED_SB_OFF].to_vec(), image[USED_SB_OFF + 8..FLIGHT_OFF].to_vec()].concat();
    assert_eq!(first_difference(&header(&before), &header(&after)), None, "a durable header byte changed");
    let descriptor = first_difference(&before[descriptors.clone()], &after[descriptors.clone()]);
    assert_eq!(descriptor, None, "a durable descriptor byte changed");
    let rebuilt = Recovered::of(&heap);
    assert!(rebuilt.used < used as u64, "`used` was not lowered");
    let kept = descriptors.start..heap.geometry().desc(rebuilt.used as usize);
    assert_ne!(rebuilt.descriptors, after[kept], "the recovery rebuilt no descriptor");
}

/// A crash right after a recovery loses everything the recovery rebuilt
/// but `used`, and the next recovery rebuilds it to the same bytes: for a
/// strict image and for two where half the rebuilt lines got evicted
/// durable, the same header and descriptors, the same counts (less the
/// free run the first recovery released), the same stack and a
/// consistent heap.
#[test]
fn a_crash_right_after_recovery_recovers_to_the_same_heap() {
    let heap = tracked();
    populate_and_crash(&heap);
    let used = heap.used_superblocks();
    let (first, s1) = recover_image(&heap.pool().persistent_image(), 2);
    let want = Recovered::of(&first);
    let stack = PStack::attach(&first, 0).expect("stack head").snapshot();
    assert_eq!(stack, (1..=80).rev().collect::<Vec<u64>>());
    // The crash image holds the lowered `used` and prefix, so the second
    // recovery has no free run past the live prefix to release.
    let mut want_counts = counts(&s1);
    want_counts[2] -= (used - first.used_superblocks()) as u64;
    want_counts[8] = 0;
    let strict = first.pool().persistent_image();
    let styles = [7, 11].map(|seed| CrashStyle::RandomEviction { survive_permille: 500, seed });
    for style in [CrashStyle::StrictFlushOnly].into_iter().chain(styles) {
        let image = first.pool().crash_image(style);
        assert!((style == CrashStyle::StrictFlushOnly) == (image == strict), "{style:?}: no rebuilt line survived");
        let (again, s) = recover_image(&image, 2);
        let got = Recovered::of(&again);
        assert_eq!((got.used, got.committed), (want.used, want.committed), "{style:?}");
        assert_eq!(first_difference(&got.header, &want.header), None, "{style:?}: header byte");
        assert_eq!(first_difference(&got.descriptors, &want.descriptors), None, "{style:?}: descriptor byte");
        assert_eq!(counts(&s), want_counts, "{style:?}");
        assert_eq!(PStack::attach(&again, 0).expect("stack head").snapshot(), stack, "{style:?}");
        let report = ralloc::check_heap(&again);
        assert!(report.is_consistent(), "{style:?}: {:?}", report.violations);
    }
}

/// Recovery's flushes do not grow with the heap: a recovery of a heap with
/// 1 MiB live and one with 64 MiB live, each with an unrooted tail to
/// release, flush the same few lines (its flight records and the lowered
/// `used`) and fence as often.
#[test]
fn recovery_flushes_a_constant_number_of_lines() {
    const MIB: usize = 1 << 20;
    let cost = |live: usize| {
        let heap = Ralloc::create((live + 8) * MIB, RallocConfig::default());
        for i in 0..live {
            let p = heap.malloc(MIB) as *const u64;
            assert!(!p.is_null());
            heap.set_root::<u64>(i, p);
        }
        assert!(!heap.malloc(MIB).is_null(), "the unrooted tail");
        let before = heap.pool().stats().snapshot();
        let stats = heap.recover_parallel(2);
        let spent = heap.pool().stats().snapshot().since(&before);
        assert_eq!(stats.reachable_bytes, (live * MIB) as u64, "{live} MiB live");
        assert!(stats.shrunk_superblocks >= MIB / SB_SIZE, "{live} MiB live: the tail was not released");
        (spent.flush_lines, spent.fences)
    };
    let (small, large) = (cost(1), cost(64));
    assert_eq!(small, large, "(flush lines, fences) with 1 MiB and 64 MiB live");
    assert!(small.0 <= 16, "{} lines flushed", small.0);
}

/// A 1 KiB list node: 64 to a superblock, so a few thousand of them span
/// more superblocks than the parallel sweep's threshold of 64.
#[repr(C)]
struct KiNode {
    value: u64,
    next: Pptr<KiNode>,
    _pad: [u8; 1008],
}

// SAFETY: `trace` visits the node's one pointer field.
unsafe impl Trace for KiNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_pptr(&self.next);
    }
}

/// R4/R5: recovery keeps exactly the blocks the roots reach, whatever the
/// worker count. Three rooted lists, unrooted garbage and freed blocks,
/// all of one size class, are interleaved through every used superblock.
/// After each crash `reachable_blocks` is the rooted count, and
/// allocating until the next carve never hands out a rooted block and
/// hands back every unrooted one.
#[test]
fn recovery_keeps_exactly_the_rooted_blocks_for_any_worker_count() {
    const LISTS: usize = 3;
    const PER_LIST: usize = 800;
    const SIZE: usize = std::mem::size_of::<KiNode>();
    let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
    let (mut rooted, mut unrooted) = (HashSet::new(), HashSet::new());
    let mut heads = [std::ptr::null_mut::<KiNode>(); LISTS];
    let mut doomed = Vec::new();
    for i in 0..PER_LIST {
        for (l, head) in heads.iter_mut().enumerate() {
            let node = heap.malloc(SIZE) as *mut KiNode;
            let (garbage, freed) = (heap.malloc(SIZE), heap.malloc(SIZE));
            assert!(!node.is_null() && !garbage.is_null() && !freed.is_null());
            // SAFETY: a fresh block of SIZE bytes, written before the
            // root that publishes it.
            unsafe {
                (*node).value = (l * PER_LIST + i) as u64;
                (*node).next.set(*head);
            }
            heap.pool().persist(node as usize - heap.pool().base() as usize, 16);
            *head = node;
            rooted.insert(node as usize);
            unrooted.extend([garbage as usize, freed as usize]);
            doomed.push(freed);
        }
    }
    for (l, &head) in heads.iter().enumerate() {
        heap.set_root::<KiNode>(l, head);
    }
    // Most go back to their superblocks through bin flushes; the last
    // bin's worth is still cached when the crash comes.
    for p in doomed {
        heap.free(p);
    }
    assert!(heap.used_superblocks() > 64, "{} superblocks used", heap.used_superblocks());
    for workers in [1, 2] {
        heap.crash_simulated();
        for l in 0..LISTS {
            heap.get_root::<KiNode>(l);
        }
        let stats = heap.recover_parallel(workers);
        assert_eq!(stats.reachable_blocks as usize, rooted.len(), "{workers} workers");
        let used = heap.used_superblocks();
        let mut back = HashSet::new();
        while heap.used_superblocks() == used {
            let p = heap.malloc(SIZE) as usize;
            assert_ne!(p, 0, "{workers} workers: allocation failed before a carve");
            assert!(!rooted.contains(&p), "{workers} workers: rooted block {p:#x} handed out");
            back.insert(p);
        }
        let lost = unrooted.difference(&back).count();
        assert_eq!(lost, 0, "{workers} workers: {lost} unrooted blocks never came back");
        for l in 0..LISTS {
            let mut n = 0;
            let mut cur = heap.get_root::<KiNode>(l);
            while !cur.is_null() {
                // SAFETY: a node of a recovered list, never handed out
                // again (checked above).
                let node = unsafe { &*cur };
                assert_eq!(node.value as usize, l * PER_LIST + PER_LIST - 1 - n, "{workers} workers");
                cur = node.next.as_ptr();
                n += 1;
            }
            assert_eq!(n, PER_LIST, "{workers} workers: list {l}");
        }
    }
}

/// R6: recovery may drop an uncommitted claim. A fresh superblock's fill
/// and a span-4 large block each make `used` and the claimed identity
/// durable under one fence, so a crash before it may leave either half
/// durable alone, both, or neither. Every image, crashed at each event of
/// the two claims under each style, must recover consistent with the
/// rooted list intact, hold no superblock past the claim's, and serve
/// the claim's size again without handing out a live block. The strict
/// image with the claim's descriptor lines copied in from the crashed
/// run is checked too: the identity durable, `used` not.
#[test]
fn r6_recovery_may_drop_an_uncommitted_claim() {
    const NODES: usize = 100;
    const SIZE: usize = std::mem::size_of::<KiNode>();
    const SMALL: usize = 256;
    const LARGE: usize = 4 * SB_SIZE;
    let build = || {
        let heap = tracked();
        let mut head = std::ptr::null_mut::<KiNode>();
        for i in 0..NODES {
            let node = heap.malloc(SIZE) as *mut KiNode;
            assert!(!node.is_null());
            // SAFETY: a fresh block of SIZE bytes, persisted before the
            // root that publishes the list.
            unsafe {
                (*node).value = i as u64;
                (*node).next.set(head);
            }
            heap.pool().persist(node as usize - heap.pool().base() as usize, SIZE);
            head = node;
        }
        heap.set_root::<KiNode>(0, head);
        heap
    };
    let used0 = std::cell::Cell::new(0);
    let claims = |heap: &Ralloc, arm: &dyn Fn()| {
        used0.set(heap.used_superblocks());
        arm();
        assert!(!heap.malloc(SMALL).is_null());
        assert!(!heap.malloc(LARGE).is_null());
    };
    // Events 0..3 are the fill's claim (flush `used`, flush the identity,
    // fence), 3..6 the large block's: its size, first superblock and span.
    let claim = |budget: u64| match budget {
        0..3 => (SMALL, used0.get(), 1),
        _ => (LARGE, used0.get() + 1, 4),
    };
    let check = |heap: Ralloc, budget: u64, crash: &str| {
        let (size, first, span) = claim(budget);
        let used = heap.used_superblocks();
        assert!(used <= first + span, "{crash}: `used` {used} past the claim's {}", first + span);
        let list = heap.get_root::<KiNode>(0);
        heap.recover();
        let report = ralloc::check_heap(&heap);
        assert!(report.is_consistent(), "{crash}: {:?}", report.violations);
        assert!(heap.used_superblocks() <= first + span, "{crash}: recovery raised `used`");
        let mut live = Vec::new();
        let mut cur = list;
        while !cur.is_null() {
            // SAFETY: a node of the recovered list.
            let node = unsafe { &*cur };
            assert_eq!(node.value as usize, NODES - 1 - live.len(), "{crash}: list corrupted");
            live.push(cur as usize);
            cur = node.next.as_ptr();
        }
        assert_eq!(live.len(), NODES, "{crash}: list cut short");
        let p = heap.malloc(size) as usize;
        assert_ne!(p, 0, "{crash}: the claim's size cannot be allocated again");
        let aliases = live.iter().any(|&n| n < p + size && p < n + SIZE);
        assert!(!aliases, "{crash}: {p:#x} aliases a live node");
    };
    let (events, done) = sweep(&STYLES, build, claims, |crashed, (heap, _), budget, style| {
        check(heap, budget, &format!("{style:?} budget {budget}"));
        if style != CrashStyle::StrictFlushOnly {
            return;
        }
        let (size, first, span) = claim(budget);
        let (pool, geo) = (crashed.pool(), crashed.geometry());
        let lines = geo.desc(first)..geo.desc(first + span);
        let mut image = pool.crash_image(style);
        // SAFETY: descriptor lines of the crashed run's committed prefix,
        // which nothing writes any more.
        let stored = unsafe { std::slice::from_raw_parts(pool.base().add(lines.start), lines.len()) };
        image[lines].copy_from_slice(stored);
        let (heap, _) = <Ralloc as Victim>::adopt(&image);
        assert!(heap.used_superblocks() <= first, "budget {budget}: `used` durable under the strict model");
        let d = Desc::new(heap.pool(), &geo, first as u32);
        assert_eq!(d.block_size(), size as u64, "budget {budget}: the claim's identity was not stored");
        check(heap, budget, &format!("identity alone, budget {budget}"));
    });
    assert_eq!(events, 6, "two claims, three persistence events each");
    assert!(ralloc::check_heap(&done).is_consistent());
}

#[test]
fn leaked_blocks_before_crash_are_recovered_after() {
    // Allocate-but-never-attach (the crash window the paper designs
    // for): after recovery those blocks must be reusable.
    let heap = tracked();
    let stack = PStack::create(&heap, 0);
    stack.push(1);
    for _ in 0..2000 {
        assert!(!heap.malloc(64).is_null()); // leaked on purpose
    }
    let used_before = heap.used_superblocks();
    heap.crash_simulated();
    let stats = heap.recover();
    assert_eq!(stats.reachable_blocks, 2, "head + one node");
    // All leaked space is free again: re-allocating the same volume must
    // not grow the heap.
    for _ in 0..2000 {
        assert!(!heap.malloc(64).is_null());
    }
    assert!(
        heap.used_superblocks() <= used_before,
        "leak not reclaimed: {} -> {}",
        used_before,
        heap.used_superblocks()
    );
}

#[test]
fn close_after_recovery_enables_clean_restart() {
    let heap = tracked();
    let stack = PStack::create(&heap, 0);
    for i in 0..30 {
        stack.push(i);
    }
    heap.crash_simulated();
    heap.recover();
    drop(stack);
    heap.close().unwrap();
    let image = heap.pool().persistent_image();
    drop(heap);
    let (heap2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
    assert!(!dirty, "close() after recovery must yield a clean image");
    let stack = PStack::attach(&heap2, 0).unwrap();
    assert_eq!(stack.len(), 30);
}

/// A crash at every persistence event of a close: an image that reopens
/// clean is trusted without recovery, so it must already be consistent
/// with every root reading back; one that reopens dirty recovers to the
/// same. A close writes the whole heap back before it clears the dirty
/// word; cleared first, an evicted header line reopened clean over
/// anchors and list heads that never reached the image.
#[test]
fn a_crash_inside_close_never_reopens_clean_and_inconsistent() {
    const ROOTS: usize = 12;
    let value = |r: usize| 0xC105_E000 + r as u64;
    let build = || {
        let heap = tracked();
        for r in 0..ROOTS {
            // Small blocks of three classes, and one large block: fills
            // and a span whose anchors only the close writes back.
            let size = if r == 0 { 2 * SB_SIZE } else { 64 << (r % 3) };
            let p = heap.malloc(size);
            assert!(!p.is_null());
            // SAFETY: a fresh block of at least 8 bytes.
            unsafe { std::ptr::write(p as *mut u64, value(r)) };
            heap.pool().persist(p as usize - heap.pool().base() as usize, 8);
            heap.set_root_raw(r, p);
            let garbage = heap.malloc(size);
            heap.free(garbage);
        }
        heap
    };
    let close = |heap: &Ralloc, arm: &dyn Fn()| {
        arm();
        heap.close().unwrap();
    };
    let check_roots = |heap: &Ralloc, crash: &str| {
        for r in 0..ROOTS {
            let p = heap.get_root_raw(r);
            assert!(!p.is_null(), "{crash}: root {r} lost");
            // SAFETY: a rooted block, at least 8 bytes, persisted before its root.
            assert_eq!(unsafe { std::ptr::read(p as *const u64) }, value(r), "{crash}: root {r} reads back wrong");
        }
    };
    // STYLES, and every dirty line kept: the images that reopen clean.
    let keep_all = CrashStyle::RandomEviction { survive_permille: 1000, seed: 1 };
    let mut clean = 0;
    let (events, closed) = sweep(&[STYLES[0], STYLES[1], STYLES[2], keep_all], build, close, |_, (heap, dirty), budget, style| {
        let crash = format!("{style:?} crash at event {}", budget + 1);
        if dirty {
            heap.recover();
        } else {
            clean += 1;
        }
        let report = ralloc::check_heap(&heap);
        assert!(report.is_consistent(), "{crash}, reopened dirty: {dirty}: {:?}", report.violations);
        check_roots(&heap, &crash);
    });
    // The shrink of the freed tail 6, the Close record 1, the write-back
    // 2 and the dirty word's persist 2.
    assert_eq!(events, 11, "a close's persistence events");
    assert!(clean > 0, "no crash image reopened clean: the sweep checked only recoveries");
    let (heap, dirty) = Ralloc::from_image(&closed.pool().persistent_image(), RallocConfig::tracked());
    assert!(!dirty, "a completed close reopens clean");
    check_roots(&heap, "after the close");
}

#[test]
fn recovery_invalidates_stale_thread_caches() {
    // Recovery rebuilds the free lists from the trace, so every block not
    // reachable from a root — including blocks sitting in thread caches —
    // is declared free. A cache that survived `recover()` would therefore
    // alias the rebuilt lists: its pops and the lists' fills would hand
    // out the same block twice. Regression test for exactly that (the
    // malloc+free below leaves a whole fill batch cached on this thread).
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let p = heap.malloc(128);
    assert!(!p.is_null());
    heap.free(p);
    heap.recover();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..1024 {
        let q = heap.malloc(128);
        assert!(!q.is_null());
        assert!(seen.insert(q as usize), "block handed out twice after recovery");
    }
    let report = ralloc::check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

#[test]
fn recovery_waits_out_thread_exit_cache_drains() {
    // A scoped worker's TLS cache destructor runs during OS thread
    // teardown — *after* `thread::scope` returns — so its bin flush can
    // land while the joining thread is already inside recovery. The
    // recovery-entry rendezvous (generation bump + exit-drain wait) must
    // make that flush either complete first or never start. Exercise the
    // window repeatedly: populate-and-free from a worker, then recover
    // immediately after the scope join.
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    for round in 0..6 {
        std::thread::scope(|s| {
            let heap = &heap;
            s.spawn(move || {
                let mut held = Vec::new();
                for i in 0..4000u64 {
                    let p = heap.malloc(4096);
                    assert!(!p.is_null());
                    if i % 3 == 0 {
                        heap.free(p);
                    } else {
                        held.push(p);
                    }
                }
                for p in held {
                    heap.free(p);
                }
            });
        });
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 0, "round {round}: nothing is rooted");
        let report = ralloc::check_heap(&heap);
        assert!(report.is_consistent(), "round {round}: {:?}", report.violations);
    }
}

mod random_crash_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Randomized crash-point exploration: a random mix of pushes and
        /// pops, a crash after a random number of persistence events,
        /// then recovery. The surviving stack must be a plausible state:
        /// sorted-prefix consistency is too strong under pops, so we
        /// assert the invariants that must always hold — uniqueness of
        /// live nodes, functional heap, and that recovery is idempotent.
        #[test]
        fn random_ops_random_crash(
            ops in proptest::collection::vec(proptest::bool::weighted(0.7), 5..60),
            budget in 1u64..400,
        ) {
            let (heap, _) = crash_at(budget, tracked, |heap, arm| {
                let stack = PStack::create(heap, 0);
                arm();
                let mut next = 0u64;
                for push in ops {
                    if push {
                        stack.push(next);
                        next += 1;
                    } else {
                        stack.pop();
                    }
                }
            });
            heap.crash_simulated();
            let s1 = heap.recover();
            let s2 = heap.recover();
            prop_assert_eq!(s1.reachable_blocks, s2.reachable_blocks, "recovery not idempotent");
            let stack = PStack::attach(&heap, 0).expect("head persisted");
            let snap = stack.snapshot();
            // Values are unique (no block aliased into the list twice).
            let mut sorted = snap.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), snap.len(), "duplicate node after recovery");
            // Heap serves allocations without touching live nodes.
            for _ in 0..50 {
                prop_assert!(!heap.malloc(16).is_null());
            }
            prop_assert_eq!(stack.snapshot(), snap);
            // Full structural invariant check.
            let report = ralloc::check_heap(&heap);
            prop_assert!(report.is_consistent(), "{:?}", report.violations);
        }
    }
}

// ---------------------------------------------------------------------
// Persistent flight recorder: the crash-surviving event ring must
// reopen cleanly with torn tails dropped (and counted) and wraparound
// keeping exactly the newest window — the post-mortem timeline a
// failing crashtest round attaches is built from this scan.
mod flight_ring {
    use super::*;
    use ralloc::layout::{FLIGHT_CAP, FLIGHT_RECORDS_OFF, FLIGHT_REC_SIZE};

    #[test]
    fn torn_tail_record_is_dropped_and_counted_on_reopen() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let p = heap.malloc(64);
        heap.set_root::<u64>(0, p as *const u64);
        heap.close().unwrap();
        let mut image = heap.pool().persistent_image();
        drop(heap);
        // Corrupt one payload byte of the newest record — exactly what a
        // kill between a slot's payload stores and its seq+crc publish
        // leaves behind (the publish word still covers the old payload).
        let scan = ralloc::flight::scan_image(&image);
        assert_eq!(scan.torn, 0);
        let newest = *scan.events.last().expect("protocol events were recorded");
        let slot = (newest.seq as usize - 1) % FLIGHT_CAP;
        image[FLIGHT_RECORDS_OFF + slot * FLIGHT_REC_SIZE + 16] ^= 0xA5;

        let (heap2, dirty) = Ralloc::from_image(&image, RallocConfig::default());
        assert!(!dirty);
        let pre = heap2.preopen_flight();
        assert_eq!(pre.torn, 1, "the torn record must be counted");
        assert!(
            pre.events.iter().all(|e| e.seq != newest.seq),
            "the torn record must be dropped, not decoded as history"
        );
        assert_eq!(
            heap2.telemetry().counter_value("flight_torn_records"),
            Some(1),
            "the adoption scan publishes its torn count as a metric"
        );
    }

    /// A pool whose ring header is lost — the line zeroed, as a crash
    /// between a fresh heap's header persist and its ring persist leaves
    /// it, or one byte of the magic flipped — reopens with a ring that
    /// records again: adoption re-initializes it, durably, before its
    /// `open` record.
    #[test]
    fn a_lost_ring_header_is_reinitialized_at_adoption() {
        use ralloc::layout::{FLIGHT_HDR_SIZE, FLIGHT_OFF};
        type Damage = fn(&mut [u8]);
        let rows: [(&str, Damage); 2] = [
            ("header line zeroed", |img| img[FLIGHT_OFF..FLIGHT_OFF + FLIGHT_HDR_SIZE].fill(0)),
            ("one magic byte flipped", |img| img[FLIGHT_OFF] ^= 0x01),
        ];
        for (row, damage) in rows {
            let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
            let p = heap.malloc(64);
            heap.set_root::<u64>(0, p as *const u64);
            heap.crash_simulated();
            let mut image = heap.pool().persistent_image();
            drop(heap);
            damage(&mut image);
            assert!(ralloc::flight::scan_image(&image).events.is_empty(), "{row}: damage missed");

            let (heap2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
            assert!(dirty, "{row}");
            assert!(heap2.preopen_flight().events.is_empty(), "{row}: nothing to read before");
            heap2.recover();
            heap2.set_root::<u64>(0, std::ptr::null());
            let kinds: Vec<_> =
                heap2.flight_timeline().events.iter().map(|e| e.kind_name()).collect();
            assert_eq!(kinds.first(), Some(&"open"), "{row}: {kinds:?}");
            assert_eq!(kinds.last(), Some(&"root_publish"), "{row}: {kinds:?}");
            // What a power failure now would keep: the new header and the
            // records fenced since.
            heap2.crash_simulated();
            let after = ralloc::flight::scan_image(&heap2.pool().persistent_image());
            assert_eq!(after.torn, 0, "{row}");
            assert_eq!(after.events.first().map(|e| e.kind_name()), Some("open"), "{row}");
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_window_across_reopen() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let p = heap.malloc(64);
        // Root publishes are protocol events: enough of them laps the ring.
        for _ in 0..FLIGHT_CAP + 40 {
            heap.set_root::<u64>(1, p as *const u64);
        }
        heap.close().unwrap();
        let image = heap.pool().persistent_image();
        drop(heap);

        let (heap2, _) = Ralloc::from_image(&image, RallocConfig::default());
        let pre = heap2.preopen_flight();
        assert_eq!(pre.torn, 0);
        assert_eq!(pre.events.len(), FLIGHT_CAP, "ring retains exactly its capacity");
        assert!(
            pre.events.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "survivors are the contiguous newest window"
        );
        assert_eq!(pre.events.last().unwrap().kind_name(), "close");
        // New records keep extending the same monotonic sequence.
        heap2.set_root::<u64>(1, std::ptr::null());
        let now = heap2.flight_timeline();
        assert!(now.events.last().unwrap().seq > pre.events.last().unwrap().seq);
    }

    #[test]
    fn cooperative_crash_leaves_the_ring_scannable() {
        let (heap, crashed) = crash_at(60, tracked, stack_pushes);
        assert!(crashed);
        heap.crash_simulated();
        heap.recover();
        let scan = heap.flight_timeline();
        // Recovery's phases were recorded, and the scan decodes without
        // fabricating events (torn slots are counted, never decoded).
        assert!(scan.events.iter().any(|e| e.kind_name() == "recovery_splice"));
        assert!(scan.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}

#[test]
fn crashed_remote_frees_leak_nothing() {
    // A cooperative crash with remote frees in flight: some already
    // flushed to their superblocks' (volatile) anchors, the rest still in
    // the consumer's cache bin. Both die with DRAM, and recovery's
    // reachability sweep must reclaim every block — no leak, no double
    // accounting.
    let heap = tracked();
    // A producer thread on another shard drains five whole 64 B
    // superblock populations through its cache and exits with an empty
    // bin, so its thread-exit drain returns nothing: every block is held
    // by the test body, in superblocks the producer's shard owns.
    let per_sb = ralloc::SB_SIZE / 64;
    let ptrs: Vec<usize> = suite::on_another_shard(&heap, heap.current_home_shard(), || {
        (0..5 * per_sb).map(|_| heap.malloc(64) as usize).collect()
    })
    .expect("no producer landed on another shard");
    assert!(ptrs.iter().all(|&p| p != 0));
    // The consumer (this thread) frees all of them: four whole-bin
    // flushes go back as foreign-owned groups, the fifth bin stays cached.
    for &p in &ptrs {
        heap.free(p as *mut u8);
    }
    assert_eq!(
        heap.slow_stats().remote_free_blocks.get(),
        4 * per_sb as u64,
        "setup never flushed a remote group"
    );
    let used_before = heap.used_superblocks();
    heap.crash_simulated();
    let stats = heap.recover();
    assert_eq!(stats.reachable_blocks, 0, "nothing was rooted");
    // Every block — flushed or still cached at the crash — must be
    // reusable: re-allocating the same volume must not grow the heap.
    for _ in 0..5 * per_sb {
        assert!(!heap.malloc(64).is_null());
    }
    assert!(
        heap.used_superblocks() <= used_before,
        "remotely freed blocks leaked across the crash: {} -> {}",
        used_before,
        heap.used_superblocks()
    );
    let report = ralloc::check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}
