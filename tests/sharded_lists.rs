//! Sharded partial lists + shard-aware recovery, end to end.
//!
//! Covers the three hazards the sharding subsystem introduces on top of
//! the single-list design:
//!
//! 1. **Crash mid-steal**: a descriptor stolen from a neighbor shard is
//!    on *no* list while its blocks sit in the thief's (transient) cache;
//!    a crash in that window must lose nothing after recovery.
//! 2. **Crash during parallel recovery**: a crash after a four-worker
//!    trace, before anything recovery writes is durable, must land back
//!    on the pre-recovery persistent state and recover cleanly.
//! 3. **Determinism**: 1-worker and N-worker rebuilds of the same crash
//!    image must agree on the reachable set *and* on per-shard list
//!    membership, which must be a disjoint partition placed by
//!    `shard::place_superblock`.

use std::sync::{mpsc, Arc};

use crashtest::crash_at;
use ralloc::layout::Geometry;
use ralloc::lists::DescList;
use ralloc::shard::{home_shard, place_superblock, thread_token, SHARDS};
use ralloc::size_class::{cache_capacity, class_max_count, size_class_of};
use ralloc::{check_heap, Pptr, Ralloc, RallocConfig, Trace, Tracer};

/// 14336 B: the largest small class — 4 blocks per superblock, so a
/// handful of frees per superblock reaches the shared lists.
const BLOCK: usize = 14336;

/// `(blocks per superblock, cache-bin slots)` of the 14336 B class.
fn class_shape() -> (usize, usize) {
    let class = size_class_of(BLOCK).unwrap();
    (class_max_count(class) as usize, cache_capacity(class) as usize)
}

/// Enlist `per_sb` superblocks of `heap`'s 14336 B class as PARTIAL on
/// the calling thread's home shard: allocate `extra` more superblocks'
/// worth than its bin has slots, then free one block per superblock, so
/// the free that overflows the bin flushes its `per_sb` oldest blocks —
/// one from each of the first `per_sb` superblocks. The bin ends holding
/// `cap - per_sb + extra` blocks.
fn make_partials(heap: &Ralloc, extra: usize) -> Vec<*mut u8> {
    let (per_sb, cap) = class_shape();
    assert!(extra > 0, "need enough superblocks to overflow the {cap}-slot bin");
    assert!(extra <= per_sb, "a second overflow would enlist more than {per_sb}");
    let sbs = cap + extra;
    let mut held = Vec::new();
    for _ in 0..sbs * per_sb {
        let p = heap.malloc(BLOCK);
        assert!(!p.is_null());
        held.push(p);
    }
    // Free one block of each superblock (indices 0, per_sb, 2·per_sb, ...
    // of the allocation order): free cap+1 overflows the bin and the
    // flush enlists the first `per_sb` superblocks as PARTIAL on our shard.
    for i in (0..sbs * per_sb).step_by(per_sb) {
        heap.free(held[i]);
        held[i] = std::ptr::null_mut();
    }
    held.retain(|p| !p.is_null());
    held
}

#[test]
fn fills_prefer_home_shard_and_steal_when_starved() {
    let heap = Ralloc::create(32 << 20, RallocConfig::tracked());
    let my_home = home_shard(thread_token());
    let (per_sb, cap) = class_shape();
    let _held = make_partials(&heap, 2);
    let stats = heap.slow_stats();
    let home0 = stats.partial_pops_home.get();
    let steal0 = stats.partial_steals.get();

    // Draining our own bin refills from OUR shard: home pops, no steals.
    // (Only the bin's blocks, then two fills of one block each — so
    // per_sb - 2 partial superblocks remain for the thief.)
    let cached = cap - per_sb + 2;
    let mut mine = Vec::new();
    for _ in 0..cached + 2 {
        mine.push(heap.malloc(BLOCK));
    }
    assert_eq!(stats.partial_pops_home.get(), home0 + 2);
    assert_eq!(stats.partial_steals.get(), steal0);

    // A thread whose home shard is different (and empty) must steal.
    let (tx, rx) = mpsc::channel();
    for _ in 0..64 {
        let heap = heap.clone();
        let tx = tx.clone();
        let handle = std::thread::spawn(move || {
            let home = home_shard(thread_token());
            if home == my_home {
                return false; // token landed on our shard; try another
            }
            let p = heap.malloc(BLOCK);
            assert!(!p.is_null());
            tx.send(p as usize).unwrap();
            true
        });
        if handle.join().unwrap() {
            break;
        }
    }
    let stolen_block = rx.recv().expect("no thread landed on a foreign shard") as *mut u8;
    assert!(
        stats.partial_steals.get() > steal0,
        "foreign-shard fill did not steal"
    );
    heap.free(stolen_block);
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

#[test]
fn crash_mid_steal_loses_nothing() {
    let heap = Ralloc::create(32 << 20, RallocConfig::tracked());
    let my_home = home_shard(thread_token());

    // One durable block the recovery must keep.
    let rooted = heap.malloc(8) as *mut u64;
    // SAFETY: fresh 8-byte block.
    unsafe { *rooted = 0xFEED };
    let off = rooted as usize - heap.pool().base() as usize;
    heap.pool().persist(off, 8);
    heap.set_root::<u64>(0, rooted);

    let _held = make_partials(&heap, 2);
    let stats = heap.slow_stats();
    let steal0 = stats.partial_steals.get();

    // Park a foreign-home thread *mid-steal*: it has popped a descriptor
    // from our shard (the descriptor is now on no list) and holds the
    // whole batch in its transient bin when the crash hits.
    let (stole_tx, stole_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let resume_rx = Arc::new(std::sync::Mutex::new(resume_rx));
    let mut thief = None;
    for _ in 0..64 {
        let heap = heap.clone();
        let stole_tx = stole_tx.clone();
        let resume_rx = resume_rx.clone();
        let handle = std::thread::spawn(move || {
            let home = home_shard(thread_token());
            if home == my_home {
                stole_tx.send(false).unwrap();
                return;
            }
            let p = heap.malloc(BLOCK); // fill steals from my_home's shard
            assert!(!p.is_null());
            stole_tx.send(true).unwrap();
            // Hold the stolen batch in our cache across the crash.
            resume_rx.lock().unwrap().recv().unwrap();
        });
        if stole_rx.recv().unwrap() {
            thief = Some(handle);
            break;
        }
        handle.join().unwrap();
    }
    let thief = thief.expect("no thread landed on a foreign shard");
    assert!(stats.partial_steals.get() > steal0, "setup did not steal");

    // Crash while the stolen descriptor is in the thief's hands.
    heap.crash_simulated();
    let rstats = heap.recover();
    assert_eq!(rstats.reachable_blocks, 1, "only the rooted block survives");
    assert_eq!(unsafe { *heap.get_root::<u64>(0) }, 0xFEED);
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
    // Every superblock is accounted for: with only one live block, all
    // carved superblocks are back on the free list or a partial shard —
    // including the one the thief was holding when the power "failed".
    assert_eq!(
        report.free_list_len + report.partial_list_len,
        report.superblocks,
        "superblock lost with the in-flight steal"
    );
    // The heap still serves allocations from the recovered shards.
    let p = heap.malloc(BLOCK);
    assert!(!p.is_null());

    resume_tx.send(()).unwrap();
    thief.join().unwrap(); // generation bumped: thief's cache is discarded
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

#[test]
fn crash_during_parallel_recovery_is_recoverable() {
    const LISTS: usize = 4;
    const PER_LIST: u64 = 50;
    let crashed_heap = |inj| {
        let heap = Ralloc::create(32 << 20, RallocConfig { injector: Some(inj), ..RallocConfig::tracked() });
        // Recovery runs one worker per root: four rooted lists make
        // `recover_parallel(4)` trace on four workers.
        for r in 0..LISTS {
            rooted_block_list(&heap, r, PER_LIST);
        }
        make_partials(&heap, 4);
        for _ in 0..500 {
            let _ = heap.malloc(64); // leaked: sweep work
        }
        heap.crash_simulated();
        heap
    };

    // A recovery's first persistence event is its `recovery_reconcile`
    // flight record, before the trace. A 1-event budget crashes it at the
    // next one, after every worker has traced: the record of the lowered
    // `used`, before that `used`, the sweep or the write-back is durable.
    let (heap, fired) = crash_at(1, crashed_heap, |heap, arm| {
        arm();
        heap.recover_parallel(4);
    });
    assert!(fired, "injector must fire mid-recovery");
    let last = heap.flight_timeline().events.last().map(|e| e.kind_name());
    assert_eq!(last, Some("shrink_unpublish"), "the crash landed elsewhere");

    // Power failed mid-recovery: back to the pre-recovery image.
    heap.crash_simulated();
    let stats = heap.recover_parallel(4);
    assert_eq!(stats.reachable_blocks, LISTS as u64 * PER_LIST);
    for r in 0..LISTS {
        assert_eq!(list_values(&heap, r), (0..PER_LIST).rev().collect::<Vec<_>>(), "list {r}");
    }
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

/// The values of the list rooted at slot `root`, head first.
fn list_values(heap: &Ralloc, root: usize) -> Vec<u64> {
    let mut out = Vec::new();
    let mut p = heap.get_root::<Node>(root);
    while !p.is_null() {
        // SAFETY: a live node of a rooted list.
        unsafe {
            out.push((*p).value);
            p = (*p).next.as_ptr();
        }
    }
    out
}

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

/// Per-shard partial-list membership, as sorted sets, plus the free list.
fn list_snapshot(heap: &Ralloc) -> (Vec<Vec<Vec<u32>>>, Vec<u32>) {
    let geo: Geometry = heap.geometry();
    let pool = heap.pool();
    let mut partials = Vec::new();
    for class in 1..40u32 {
        let mut shards: Vec<Vec<u32>> =
            (0..SHARDS).map(|s| DescList::partial_shard(&geo, class, s).collect(pool, &geo)).collect();
        for s in shards.iter_mut() {
            s.sort_unstable();
        }
        partials.push(shards);
    }
    let mut free = DescList::free_list(&geo).collect(pool, &geo);
    free.sort_unstable();
    (partials, free)
}

#[test]
fn one_and_n_worker_recovery_agree_and_partition_the_shards() {
    // Build a crash image with real structure: rooted lists in several
    // classes, partial superblocks, leaked garbage, a large span.
    let heap = Ralloc::create(64 << 20, RallocConfig::tracked());
    for r in 0..6 {
        let mut head: *mut Node = std::ptr::null_mut();
        for i in 0..200u64 {
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
        heap.set_root::<Node>(r, head);
    }
    for i in 0..4000usize {
        let p = heap.malloc(8 + (i % 40) * 8);
        assert!(!p.is_null());
        if i % 3 == 0 {
            heap.free(p);
        }
    }
    let big = heap.malloc(3 * ralloc::SB_SIZE);
    assert!(!big.is_null());
    heap.crash_simulated();
    let image = heap.pool().persistent_image();

    let recovered: Vec<_> = [1usize, 4]
        .iter()
        .map(|&workers| {
            let (h, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
            assert!(dirty);
            for r in 0..6 {
                let _ = h.get_root::<Node>(r); // re-register filters
            }
            let stats = h.recover_parallel(workers);
            let report = check_heap(&h);
            assert!(report.is_consistent(), "x{workers}: {:?}", report.violations);
            (h, stats)
        })
        .collect();

    let (h1, s1) = &recovered[0];
    let (hn, sn) = &recovered[1];
    assert_eq!(s1.reachable_blocks, sn.reachable_blocks);
    assert_eq!(s1.reachable_bytes, sn.reachable_bytes);
    assert_eq!(s1.free_superblocks, sn.free_superblocks);
    assert_eq!(s1.partial_superblocks, sn.partial_superblocks);
    assert_eq!(s1.full_superblocks, sn.full_superblocks);
    assert_eq!(sn.threads, 4);

    // Identical per-shard membership, not just identical totals.
    let (p1, f1) = list_snapshot(h1);
    let (pn, fn_) = list_snapshot(hn);
    assert_eq!(f1, fn_, "free-list contents differ across worker counts");
    assert_eq!(p1, pn, "per-shard partial membership differs across worker counts");

    // The shard contents are a *partition* placed by place_superblock:
    // disjoint across shards (checker verified) and each member on the
    // shard the pure placement function names.
    let mut total_listed = 0usize;
    for class_shards in &p1 {
        for (s, members) in class_shards.iter().enumerate() {
            for &sb in members {
                assert_eq!(
                    place_superblock(sb as usize),
                    s as u32,
                    "superblock {sb} rebuilt on wrong shard"
                );
                total_listed += 1;
            }
        }
    }
    assert_eq!(total_listed, s1.partial_superblocks, "partition does not cover all partials");
}

#[test]
fn private_churn_never_leaves_the_threads_own_shard() {
    // Two threads, no block ever crosses: each pins one block of every
    // superblock it filled (so none can empty and change hands through
    // the free list) and cycles the other three. Ownership follows the
    // filler, so every flush is local and every fill finds its thread's
    // own partial superblocks on its home shard — whatever the schedule,
    // and even if both tokens hash to one shard.
    const SBS: usize = 12;
    const ROUNDS: usize = 40;
    let heap = Ralloc::create(32 << 20, RallocConfig::tracked());
    let populated = std::sync::Barrier::new(2);
    let homes = std::thread::scope(|s| {
        let worker = || {
            s.spawn(|| {
                // Populate by carving: nothing has been freed anywhere.
                let mut held: Vec<*mut u8> = (0..SBS * 4).map(|_| heap.malloc(BLOCK)).collect();
                assert!(held.iter().all(|p| !p.is_null()));
                populated.wait();
                for _ in 0..ROUNDS {
                    // Blocks 4k are the pins; fills hand a fresh
                    // superblock out whole, so 4k..4k+4 share one.
                    for (i, p) in held.iter_mut().enumerate().filter(|(i, _)| i % 4 != 0) {
                        heap.free(*p);
                        *p = if i % 2 == 0 { heap.malloc(BLOCK) } else { std::ptr::null_mut() };
                    }
                    for p in held.iter_mut().filter(|p| p.is_null()) {
                        *p = heap.malloc(BLOCK);
                        assert!(!p.is_null());
                    }
                }
                for p in held {
                    heap.free(p);
                }
                heap.current_home_shard()
            })
        };
        // Explicit joins return after the threads' exit-time cache drains.
        [worker(), worker()].map(|w| w.join().unwrap())
    });
    let s = heap.slow_stats();
    assert_eq!(s.remote_free_blocks.get(), 0, "a thread's own free went remote");
    assert_eq!(s.partial_steals.get(), 0, "threads traded superblocks");
    assert!(s.partial_pops_home.get() >= (2 * ROUNDS) as u64);
    // (Two threads on one shard can each find it empty for the instant
    // the other holds a popped superblock unclaimed, and carve.)
    if homes[0] != homes[1] {
        assert_eq!(heap.used_superblocks(), 2 * SBS, "the cycling phase carved");
    }
    heap.shrink();
    assert_eq!(heap.used_superblocks(), 0);
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

/// A list of `n` 14336 B nodes (whole superblocks, every block
/// reachable), values `0..n` from its tail, persisted and rooted at slot
/// `root`.
fn rooted_block_list(heap: &Ralloc, root: usize, n: u64) {
    let mut head: *mut Node = std::ptr::null_mut();
    for i in 0..n {
        let p = heap.malloc(BLOCK) as *mut Node;
        assert!(!p.is_null());
        // SAFETY: fresh block, larger than a Node.
        unsafe {
            (*p).value = i;
            (*p).next.set(head);
        }
        heap.pool().persist(p as usize - heap.pool().base() as usize, std::mem::size_of::<Node>());
        head = p;
    }
    heap.set_root::<Node>(root, head);
}

/// Free the list rooted at slot 0 from one fresh thread (its exit
/// flushes its bins), then check that every block made it home whatever
/// its superblock's owner word held.
fn free_rooted_list_and_expect_an_empty_heap(heap: &Ralloc, n: u64) {
    let head = heap.get_root::<Node>(0) as usize;
    heap.set_root::<Node>(0, std::ptr::null());
    let freed = std::thread::scope(|s| {
        s.spawn(|| {
            let (mut p, mut freed) = (head as *mut Node, 0);
            while !p.is_null() {
                // SAFETY: a live node of the list `rooted_block_list` built.
                let next = unsafe { (*p).next.as_ptr() };
                heap.free(p as *mut u8);
                freed += 1;
                p = next;
            }
            freed
        })
        .join()
        .unwrap()
    });
    assert_eq!(freed, n);
    heap.shrink();
    assert_eq!(heap.used_superblocks(), 0, "a block was lost on the way home");
    let report = check_heap(heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

#[test]
fn garbage_owner_words_in_a_crash_image_route_safely() {
    let heap = Ralloc::create(32 << 20, RallocConfig::tracked());
    rooted_block_list(&heap, 0, 8);
    heap.crash_simulated();
    let image = heap.pool().persistent_image();
    drop(heap);

    let (h2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
    assert!(dirty);
    // Whatever a torn or foreign image left in the transient owner words:
    // far out of range, all ones, and a value that is in range.
    let geo = h2.geometry();
    for sb in 0..h2.used_superblocks() as u32 {
        let garbage = [0xDEAD_BEEF, u32::MAX, SHARDS, 1][sb as usize % 4];
        ralloc::descriptor::Desc::new(h2.pool(), &geo, sb).set_owner(garbage);
    }
    let _ = h2.get_root::<Node>(0); // re-register the filter
    // Both superblocks are FULL, and recovery stamps only the partial
    // ones it enlists: the garbage is what the frees below read.
    assert_eq!(h2.recover().reachable_blocks, 8);
    free_rooted_list_and_expect_an_empty_heap(&h2, 8);
}
