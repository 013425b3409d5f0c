//! The batched thread-cache fast path under crashes and remote frees.
//!
//! The cache bins are transient and filled/flushed in superblock-sized
//! batches; two things must survive that design:
//!
//! 1. **Crash during a batched fill** — a thread that reserved a whole
//!    batch with one anchor CAS and has consumed only part of it holds
//!    the rest in DRAM. A crash forgets the bin, and the reserving CAS
//!    marked the superblock FULL, so nothing in NVM records those blocks
//!    as free. The tracing GC must reclaim every one of them.
//! 2. **Remote (cross-thread) frees** — blocks allocated by one thread
//!    and freed by another accumulate in the freeing thread's bins and
//!    return to their *home* superblocks in batches. No block may be
//!    lost or double-issued across that round trip.

use ralloc::{check_heap, Pptr, Ralloc, RallocConfig, Trace, Tracer};

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

/// Build an `n`-node rooted list, persisting each node like a durably
/// linearizable application would.
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
        // SAFETY: recovered list nodes.
        cur = unsafe { (*cur).next.as_ptr() };
    }
    n
}

#[test]
fn crash_during_batched_fill_reclaims_partially_consumed_batch() {
    let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
    build_list(&heap, 0, 25);
    // Trigger a fill of a whole fresh superblock (1024 × 64 B) and
    // consume only 7 blocks of the batch; the bin holds the other 1017,
    // visible nowhere in NVM (the fill's single CAS marked the
    // superblock FULL).
    let held: Vec<*mut u8> = (0..7).map(|_| heap.malloc(64)).collect();
    assert!(held.iter().all(|p| !p.is_null()));
    assert!(heap.slow_stats().avg_fill_batch() > 100.0, "fill was not batched");
    let used_before = heap.used_superblocks();

    heap.crash_simulated();
    let stats = heap.recover();

    // Only the rooted list survives: the 7 consumed blocks were never
    // rooted and the 1017 cached blocks died with the bin.
    assert_eq!(stats.reachable_blocks, 25, "exactly the rooted nodes survive");
    assert_eq!(list_len(&heap, 0), 25);
    assert_eq!(
        stats.free_superblocks + stats.partial_superblocks + stats.full_superblocks,
        used_before,
        "recovery must account for every carved superblock"
    );
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);

    // No leaks: the whole 64 B class population (minus nothing — the
    // cached batch was reclaimed) is allocatable without carving new
    // superblocks.
    let mut got = Vec::new();
    for _ in 0..1024 {
        let p = heap.malloc(64);
        assert!(!p.is_null());
        got.push(p);
    }
    assert_eq!(heap.used_superblocks(), used_before, "cached blocks leaked: heap grew");
    for p in got {
        heap.free(p);
    }
}

#[test]
fn crash_with_no_roots_reclaims_everything_including_bins() {
    let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
    // A partially consumed batch AND a partially flushed bin: allocate
    // across two superblocks, free a bin-full so one batch went back,
    // keep the rest cached, then crash.
    let ptrs: Vec<*mut u8> = (0..1500).map(|_| heap.malloc(64)).collect();
    assert!(ptrs.iter().all(|p| !p.is_null()));
    for &p in &ptrs[..1100] {
        heap.free(p); // fills the bin past capacity: one bulk flush
    }
    assert!(heap.slow_stats().cache_flushes.get() >= 1);
    let used = heap.used_superblocks();

    heap.crash_simulated();
    let stats = heap.recover();

    assert_eq!(stats.reachable_blocks, 0, "nothing was rooted");
    assert_eq!(
        stats.free_superblocks, used,
        "every superblock must return to the free list (no leaked cache blocks)"
    );
    assert!(check_heap(&heap).is_consistent());
}

#[test]
fn recovery_is_idempotent_after_crash_during_fill() {
    let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
    build_list(&heap, 3, 40);
    let _ = heap.malloc(64); // partially consumed batch in the bin
    // The test recovers twice and compares sweep statistics: a rooted
    // block in the last superblock keeps the first recovery's shrink from
    // releasing the batch's superblock and lowering `used` between runs.
    heap.set_root_raw(4, heap.malloc(ralloc::SB_SIZE / 2 + 1));
    heap.crash_simulated();
    let s1 = heap.recover();
    let s2 = heap.recover();
    assert_eq!(s1.reachable_blocks, s2.reachable_blocks);
    assert_eq!(s1.free_superblocks, s2.free_superblocks);
    assert_eq!(s1.partial_superblocks, s2.partial_superblocks);
    assert_eq!(list_len(&heap, 3), 40);
}

#[test]
fn remote_free_round_trip_through_bins() {
    let heap = Ralloc::create(32 << 20, RallocConfig::default());
    let n = 5000usize;
    // Producer allocates; consumer frees. The consumer's bins fill with
    // blocks whose home superblocks belong to the producer's fills, so
    // every overflow exercises the grouped (multi-superblock) bulk flush.
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    std::thread::scope(|s| {
        let producer = heap.clone();
        s.spawn(move || {
            for i in 0..n {
                let size = if i % 3 == 0 { 64 } else { 256 };
                let p = producer.malloc(size);
                assert!(!p.is_null());
                // Signature to catch double-issue while in flight.
                // SAFETY: fresh block, at least 8 bytes.
                unsafe { std::ptr::write(p as *mut u64, p as u64 ^ 0xDEAD_BEEF) };
                tx.send(p as usize).unwrap();
            }
        });
        let consumer = heap.clone();
        s.spawn(move || {
            let mut count = 0;
            while let Ok(addr) = rx.recv() {
                // SAFETY: producer handed us exclusive ownership.
                let sig = unsafe { std::ptr::read(addr as *const u64) };
                assert_eq!(sig, addr as u64 ^ 0xDEAD_BEEF, "block corrupted in flight");
                consumer.free(addr as *mut u8);
                count += 1;
            }
            assert_eq!(count, n);
        });
    });
    // Both threads exited: their bins drained back to the heap. The
    // remote frees must have been batched, not returned one CAS at a
    // time.
    let s = heap.slow_stats();
    assert!(s.cache_flushes.get() >= 1, "no bulk flush happened");
    assert!(
        s.avg_flush_batch() > 8.0,
        "remote frees were not amortized: avg batch {}",
        s.avg_flush_batch()
    );
    assert!(
        s.flush_anchor_cas.get() < s.cache_flushes_blocks.get(),
        "one CAS per block means batching is broken"
    );
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);

    // Every block is reusable: two identical bulk allocation rounds
    // (with a full free in between) must land on the same footprint —
    // growth in round two means remote-freed blocks were stranded.
    let alloc_round = || -> Vec<*mut u8> {
        (0..n).map(|i| heap.malloc(if i % 3 == 0 { 64 } else { 256 })).collect()
    };
    let round_a = alloc_round();
    assert!(round_a.iter().all(|p| !p.is_null()));
    let used_a = heap.used_superblocks();
    for p in round_a {
        heap.free(p);
    }
    let round_b = alloc_round();
    assert!(round_b.iter().all(|p| !p.is_null()));
    assert!(
        heap.used_superblocks() <= used_a + 2,
        "remote-freed blocks were stranded: {} -> {}",
        used_a,
        heap.used_superblocks()
    );
    for p in round_b {
        heap.free(p);
    }
}

/// The ledger's `churn` shape on one thread: 64 slots of 14 336 B (4
/// blocks per superblock), a seeded random slot toggled between empty and
/// full. With one superblock's population as the bin, ≈ 209 of every
/// 1 000 pairs filled and ≈ 79 flushed. A 16-slot bin that flushed whole
/// cut that to ≈ 36 fills, 4.1 flushes and 72 anchor CASes; returning
/// only the oldest 4 on overflow keeps 12 cached and gives ≈ 14, 4.8 and
/// 31. One thread, so the counts are exact per seed.
#[test]
fn churn_on_fourteen_kib_blocks_rarely_fills_or_flushes() {
    const SIZE: usize = 14336;
    const PAIRS: u64 = 200_000;
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let mut slots = [std::ptr::null_mut::<u8>(); 64];
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut pairs = 0;
    while pairs < PAIRS {
        // xorshift64
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let slot = &mut slots[rng as usize % slots.len()];
        if slot.is_null() {
            *slot = heap.malloc(SIZE);
            assert!(!slot.is_null());
        } else {
            heap.free(*slot);
            *slot = std::ptr::null_mut();
            pairs += 1;
        }
    }
    let s = heap.slow_stats();
    let per_kpair = |n: u64| n as f64 * 1000.0 / PAIRS as f64;
    let fills = per_kpair(s.cache_fills.get());
    let flushes = per_kpair(s.cache_flushes.get());
    let cas = per_kpair(
        s.fill_anchor_cas.get() + s.flush_anchor_cas.get(),
    );
    assert!(fills <= 20.0, "{fills:.1} fills per 1 000 pairs");
    assert!(flushes <= 8.0, "{flushes:.1} flushes per 1 000 pairs");
    assert!(cas <= 40.0, "{cas:.1} anchor CASes per 1 000 pairs");
    assert!(heap.used_superblocks() <= 20, "{} superblocks", heap.used_superblocks());
    for p in slots.into_iter().filter(|p| !p.is_null()) {
        heap.free(p);
    }
    let report = check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

#[test]
fn generation_bump_invalidates_fast_slot_and_bins() {
    // The TLS fast slot memoizes (heap id -> cache set); a simulated
    // crash bumps the generation, and the very next malloc on the same
    // thread must notice (stale cached blocks now belong to the
    // recovered free lists).
    let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
    let p = heap.malloc(64);
    assert!(!p.is_null());
    heap.free(p); // cached in this thread's bin, fast slot warm
    heap.crash_simulated();
    heap.recover();
    let q = heap.malloc(64);
    assert!(!q.is_null());
    // The recovered heap owns all blocks; allocating the whole class
    // population must not produce a duplicate of anything handed out
    // after recovery (i.e. the stale bin was discarded, not reused).
    let mut seen = std::collections::HashSet::new();
    seen.insert(q as usize);
    for _ in 0..1023 {
        let r = heap.malloc(64);
        assert!(!r.is_null());
        assert!(seen.insert(r as usize), "block issued twice after generation bump");
    }
}

#[test]
fn two_heaps_interleaved_keep_bins_separate() {
    // Alternating heaps defeats the fast slot every call (worst case);
    // correctness must not depend on it hitting.
    let a = Ralloc::create(4 << 20, RallocConfig::default());
    let b = Ralloc::create(4 << 20, RallocConfig::default());
    let mut ptrs = Vec::new();
    for i in 0..2000 {
        let h = if i % 2 == 0 { &a } else { &b };
        let p = h.malloc(64);
        assert!(!p.is_null());
        assert!(h.contains(p), "block from the wrong heap");
        ptrs.push((i % 2, p));
    }
    for (which, p) in ptrs {
        if which == 0 {
            a.free(p);
        } else {
            b.free(p);
        }
    }
    assert!(check_heap(&a).is_consistent());
    assert!(check_heap(&b).is_consistent());
}

#[test]
fn a_dropped_heaps_cache_never_serves_a_later_heap() {
    // The fast slot holds a generation and no heap id, so a generation
    // must name one heap in one epoch. Heap A crashes and recovers
    // before a worker caches its 16 B and 256 B blocks; heap B, created
    // after A is dropped, goes through the same steps. With per-heap
    // counters both would stand at the same value, and the worker's
    // first malloc on B would pop A's bin.
    use std::sync::mpsc::channel;
    let a = Ralloc::create(8 << 20, RallocConfig::tracked());
    a.crash_simulated();
    a.recover();
    let (to_worker, jobs) = channel::<Ralloc>();
    let (to_main, done) = channel::<()>();
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            let a = jobs.recv().unwrap();
            for size in [16, 256] {
                let ps: Vec<*mut u8> = (0..50).map(|_| a.malloc(size)).collect();
                assert!(ps.iter().all(|p| !p.is_null()));
                ps.into_iter().for_each(|p| a.free(p));
            }
            drop(a);
            to_main.send(()).unwrap();
            // B, after its crash and recovery: every block is B's, of
            // the class asked for.
            let b = jobs.recv().unwrap();
            let mut got = Vec::new();
            for (size, n) in [(256, 2), (16, 200)] {
                for _ in 0..n {
                    let p = b.malloc(size);
                    assert!(b.contains(p), "{size} B: {p:?} is not a block of B");
                    let sb = (p as usize - b.region_base()) / ralloc::SB_SIZE;
                    assert!(sb < b.used_superblocks(), "{size} B: {p:?} is in no carved superblock");
                    assert_eq!(b.usable_size(p), size, "{p:?} is a block of another class");
                    got.push(p as usize);
                }
            }
            got
        });
        to_worker.send(a.clone()).unwrap();
        done.recv().unwrap();
        drop(a);
        // B's own pre-crash cache: 100 rooted 16 B nodes freed into this
        // thread's bin whose unlink never reached media, so recovery
        // keeps them live.
        let b = Ralloc::create(8 << 20, RallocConfig::tracked());
        build_list(&b, 0, 100);
        let mut nodes = std::collections::HashSet::new();
        let mut cur = b.get_root::<Node>(0);
        while !cur.is_null() {
            nodes.insert(cur as usize);
            // SAFETY: a node of the list just built.
            cur = unsafe { (*cur).next.as_ptr() };
        }
        nodes.iter().for_each(|&p| b.free(p as *mut u8));
        b.crash_simulated();
        b.get_root::<Node>(0);
        assert_eq!(b.recover().reachable_blocks, 100);
        to_worker.send(b.clone()).unwrap();
        let got = worker.join().unwrap();
        assert!(got.iter().all(|p| !nodes.contains(p)), "the worker got a live node");
        for _ in 0..200 {
            let p = b.malloc(16) as usize;
            assert!(b.contains(p as *const u8) && !nodes.contains(&p), "live node {p:#x} reissued");
        }
        assert_eq!(list_len(&b, 0), 100);
    });
}

/// Four threads in a ring, each freeing what its left neighbour
/// allocated: threads 0 and 2 allocate 64 B blocks, 1 and 3 allocate
/// 1 KiB ones, so a thread never reuses what it frees. Its bin of the
/// freed class only overflows and flushes another thread's blocks, which
/// enlists their superblocks on the freeing thread's shard or the free
/// list; its fills pop them there, steal them from another shard, or
/// carve. Batches have seeded random lengths around a bin's capacity, so
/// the flushed runs straddle superblock boundaries at every offset.
/// Each thread logs the addresses it was handed (stamped on a shared
/// clock after `malloc` returns) and the ones it freed (stamped before
/// `free` is called): an address is live twice if two of its allocations
/// come without a free between them. The run goes on a thread of its own,
/// and the test fails if it has not reported in 5 s.
#[test]
fn a_ring_of_four_threads_never_issues_a_live_block_twice() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    const THREADS: usize = 4;
    const ROUNDS: usize = 40;
    /// (size, bin capacity) of the class each thread allocates.
    const CLASS: [(usize, u64); 2] = [(64, 1024), (1024, 64)];
    let run = || -> Result<(), String> {
        let heap = Ralloc::create(32 << 20, RallocConfig::default());
        let clock = AtomicU64::new(0);
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..THREADS).map(|_| channel::<Vec<usize>>()).unzip();
        let logs: Vec<Vec<(usize, u64, bool)>> = std::thread::scope(|s| {
            let workers: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(t, from_left)| {
                    let to_right = senders[(t + 1) % THREADS].clone();
                    let (heap, clock) = (&heap, &clock);
                    s.spawn(move || {
                        let tick = || clock.fetch_add(1, Ordering::Relaxed);
                        let (size, cap) = CLASS[t % 2];
                        let mut rng = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let mut log = Vec::new();
                        for round in 0..ROUNDS {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            let n = cap / 2 + rng % (cap * 3 / 2);
                            let batch: Vec<usize> = (0..n)
                                .map(|_| {
                                    let p = heap.malloc(size) as usize;
                                    log.push((p, tick(), true));
                                    assert_ne!(p, 0, "thread {t} round {round}: out of memory");
                                    // SAFETY: a fresh block of at least 64 B.
                                    unsafe { ((p + 8) as *mut u64).write(p as u64 ^ t as u64) };
                                    p
                                })
                                .collect();
                            // The first block goes back on this thread, so
                            // the run the neighbour receives starts one
                            // block later each round.
                            log.push((batch[0], tick(), false));
                            heap.free(batch[0] as *mut u8);
                            to_right.send(batch[1..].to_vec()).unwrap();
                            let left = (t + THREADS - 1) % THREADS;
                            for p in from_left.recv().unwrap() {
                                // SAFETY: the left neighbour handed this block over.
                                let sig = unsafe { ((p + 8) as *const u64).read() };
                                assert_eq!(sig, p as u64 ^ left as u64, "{p:#x} was written by another owner");
                                log.push((p, tick(), false));
                                heap.free(p as *mut u8);
                            }
                        }
                        log
                    })
                })
                .collect();
            // Joined here, so every worker's exit drain has run.
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut events: Vec<(usize, u64, bool)> = logs.concat();
        events.sort_unstable();
        for group in events.chunk_by(|a, b| a.0 == b.0) {
            // Allocations and frees of one address must alternate,
            // starting with an allocation and ending with a free.
            for (i, &(p, t, alloc)) in group.iter().enumerate() {
                if alloc != (i % 2 == 0) || (alloc && i + 1 == group.len()) {
                    return Err(format!("{p:#x} live twice (event {i} at tick {t})"));
                }
            }
        }
        let report = check_heap(&heap);
        if !report.is_consistent() {
            return Err(format!("{:?}", report.violations));
        }
        heap.shrink();
        match heap.used_superblocks() {
            0 => Ok(()),
            n => Err(format!("{n} superblocks still used after the ring drained")),
        }
    };
    let (tx, rx) = channel();
    let ring = std::thread::spawn(move || tx.send(run()));
    match rx.recv_timeout(std::time::Duration::from_secs(5)) {
        Ok(verdict) => {
            ring.join().expect("the ring's thread").expect("the verdict was received");
            verdict.unwrap()
        }
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(ring.join().unwrap_err()),
        // A livelocked thread cannot be joined; the test process ends it.
        Err(RecvTimeoutError::Timeout) => panic!("the ring did not finish in 5 s"),
    }
}
