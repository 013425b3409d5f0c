//! Exactness of the per-thread slow-path counts.
//!
//! A fill or a flush counts into a block owned by the thread's cache set
//! (a relaxed load and store, no `lock` prefix); a read sums the heap's
//! shared counters, what ended cache sets folded back, and every live
//! block. These tests pin what that must still guarantee: totals are
//! exact and never run backwards, for any number of threads, and every
//! way a cache set can end — thread exit, `close`, a crash's discard and
//! rebuild, the TLS-teardown one-shot set — keeps its counts.
//!
//! Every workload here moves 14 336 B blocks (class 39: 4 per superblock,
//! a bin of [`bin`] slots, a whole number of superblocks) in a pattern
//! whose counts do not depend on how threads interleave: a thread only
//! ever flushes whole superblock populations — an overflow returns the
//! bin's oldest `per_sb` blocks, which one superblock gave it, and a drain
//! returns a full bin of whole ones — so every flush retires its
//! superblocks outright, no superblock is ever partial, and every fill
//! takes a whole one.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use ralloc::size_class::{cache_capacity, class_max_count, size_class_of};
use ralloc::{Ralloc, RallocConfig};
use telemetry::json;

const BLOCK: usize = 14336;

/// Blocks per superblock of the class.
fn per_sb() -> u64 {
    class_max_count(size_class_of(BLOCK).unwrap()) as u64
}

/// Slots in the class's cache bin.
fn bin() -> u64 {
    let cap = cache_capacity(size_class_of(BLOCK).unwrap()) as u64;
    assert_eq!(cap % per_sb(), 0, "a bin of whole superblocks");
    cap
}

/// One round on a thread holding nothing: allocate two bins' worth and
/// free them oldest first. The first round of a cache set fills two
/// bins' worth; every later round fills one bin's worth (the bin still
/// holds the last `bin()` frees). Either way the second `bin()` frees
/// overflow the bin once every `per_sb()`, so a round flushes
/// `bin() / per_sb()` times, one superblock each. The bin ends full.
fn round(heap: &Ralloc) {
    let held: Vec<*mut u8> = (0..2 * bin()).map(|_| heap.malloc(BLOCK)).collect();
    assert!(held.iter().all(|p| !p.is_null()));
    for p in held {
        heap.free(p);
    }
}

/// `(cache_fills, cache_fill_blocks, cache_flushes, cache_flushes_blocks)`.
fn counts(heap: &Ralloc) -> [u64; 4] {
    let s = heap.slow_stats();
    [&s.cache_fills, &s.cache_fill_blocks, &s.cache_flushes, &s.cache_flushes_blocks]
        .map(|c| c.get())
}

/// What `sets` cache sets that ran `rounds` rounds in all (each at least
/// one) have counted, `drained` of them having since ended by a path
/// that flushes the bin (thread exit, `close`). A fill takes one
/// superblock; an overflow returns one superblock and a drain one full
/// bin, so either way a round or a drain returns one bin's worth.
fn expected(sets: u64, rounds: u64, drained: u64) -> [u64; 4] {
    let fill_blocks = (rounds + sets) * bin();
    let flushes = rounds * bin() / per_sb() + drained;
    [fill_blocks / per_sb(), fill_blocks, flushes, (rounds + drained) * bin()]
}

/// More threads than the shared counters have shards (8), exiting at
/// different moments while a reader polls: every read is between the
/// last one and the known total, and the total is exact.
#[test]
fn sixteen_threads_count_exactly_and_a_reader_never_sees_a_step_back() {
    const THREADS: u64 = 16;
    let rounds_of = |t: u64| 2000 + 500 * t; // staggered exits
    let total_rounds: u64 = (0..THREADS).map(rounds_of).sum();
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    let running = AtomicUsize::new(THREADS as usize);
    let want = expected(THREADS, total_rounds, THREADS);
    std::thread::scope(|s| {
        // `spawn` + `join`, not the scope's own wait: a joined thread has
        // run its TLS destructors, the scope only waits for closures.
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (heap, running) = (heap.clone(), &running);
                s.spawn(move || {
                    for _ in 0..rounds_of(t) {
                        round(&heap);
                    }
                    running.fetch_sub(1, Ordering::Release);
                })
            })
            .collect();
        let mut last = [0u64; 4];
        let mut by_name = 0;
        while running.load(Ordering::Acquire) != 0 {
            let now = counts(&heap);
            for i in 0..4 {
                assert!(now[i] >= last[i], "counter {i} ran backwards: {} -> {}", last[i], now[i]);
                assert!(now[i] <= want[i], "counter {i} overshot: {} > {}", now[i], want[i]);
            }
            last = now;
            let fills = heap.telemetry().counter_value("cache_fills").unwrap();
            assert!(fills >= by_name && fills >= now[0] && fills <= want[0]);
            by_name = fills;
        }
        for w in workers {
            w.join().unwrap();
        }
    });
    assert_eq!(counts(&heap), want, "16 threads, {total_rounds} rounds");
    let s = heap.slow_stats();
    assert_eq!(
        s.flush_anchor_cas.get(),
        want[3] / per_sb(),
        "one CAS per superblock flushed"
    );
    assert_eq!(s.fill_anchor_cas.get(), 0, "no superblock was ever partial");
}

/// A parked worker's counts are readable while it lives, and its exit
/// (which flushes its bin once more) adds that flush and loses nothing.
#[test]
fn a_worker_that_exits_takes_no_counts_with_it() {
    const ROUNDS: u64 = 25;
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let (done_tx, done_rx) = mpsc::channel();
    let (exit_tx, exit_rx) = mpsc::channel::<()>();
    let worker = {
        let heap = heap.clone();
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                round(&heap);
            }
            done_tx.send(()).unwrap();
            exit_rx.recv().unwrap(); // parked, alive, its block live
        })
    };
    done_rx.recv().unwrap();
    let before = counts(&heap);
    assert_eq!(before, expected(1, ROUNDS, 0), "read from another thread while the worker lives");
    exit_tx.send(()).unwrap();
    worker.join().unwrap();
    let after = counts(&heap);
    assert!(before.iter().zip(&after).all(|(b, a)| b <= a), "{before:?} -> {after:?}");
    assert_eq!(after, expected(1, ROUNDS, 1), "after the exit drain");
}

/// A crash forgets the bins, not the counts: the crashing thread's cache
/// set is discarded, a parked worker's is rebuilt in place on its next
/// allocation, and both had counted work that really happened.
#[test]
fn a_crash_and_recovery_between_two_phases_keeps_the_first_phase() {
    const ROUNDS: u64 = 10;
    let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
    let (to_main, from_worker) = mpsc::channel();
    let (to_worker, from_main) = mpsc::channel::<()>();
    let worker = {
        let heap = heap.clone();
        std::thread::spawn(move || {
            for _phase in 0..2 {
                for _ in 0..ROUNDS {
                    round(&heap);
                }
                to_main.send(()).unwrap();
                from_main.recv().unwrap();
            }
        })
    };
    for _ in 0..ROUNDS {
        round(&heap);
    }
    from_worker.recv().unwrap();
    let first = counts(&heap);
    assert_eq!(first, expected(2, 2 * ROUNDS, 0));
    // Quiescent: the worker is parked holding nothing but its cached bin.
    heap.crash_simulated();
    heap.recover();
    assert_eq!(counts(&heap), first, "discarding the crashing thread's cache set dropped counts");
    to_worker.send(()).unwrap();
    from_worker.recv().unwrap(); // phase 2 ran on a cache set rebuilt in place
    for _ in 0..ROUNDS {
        round(&heap);
    }
    // Four cache sets have now counted (two ended by the crash, undrained).
    assert_eq!(counts(&heap), expected(4, 4 * ROUNDS, 0));
    to_worker.send(()).unwrap();
    worker.join().unwrap();
    assert_eq!(counts(&heap), expected(4, 4 * ROUNDS, 1));
}

/// `close` drains and removes the calling thread's cache set; what that
/// set counted, and the drain itself, are still there afterwards.
#[test]
fn close_from_the_counting_thread_keeps_its_counts() {
    const ROUNDS: u64 = 7;
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    for _ in 0..ROUNDS {
        round(&heap);
    }
    assert_eq!(counts(&heap), expected(1, ROUNDS, 0), "read from the counting thread");
    heap.close().unwrap();
    assert_eq!(counts(&heap), expected(1, ROUNDS, 1));
}

/// Allocates and frees one block from a TLS destructor.
struct TeardownProbe(Ralloc);

impl Drop for TeardownProbe {
    fn drop(&mut self) {
        let p = self.0.malloc(BLOCK);
        assert!(!p.is_null());
        self.0.free(p);
    }
}

thread_local! {
    static PROBE: RefCell<Option<TeardownProbe>> = const { RefCell::new(None) };
}

/// An allocation made after the thread's cache store is gone is served by
/// a one-shot cache set that lives for that call; its fill and the flush
/// that empties it are counted like any other.
#[test]
fn the_tls_teardown_one_shot_cache_set_is_counted() {
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let worker = {
        let heap = heap.clone();
        std::thread::spawn(move || {
            // Registered before the allocator's own thread-local, so
            // destroyed after it (destructors run last-registered first).
            PROBE.with(|p| *p.borrow_mut() = Some(TeardownProbe(heap.clone())));
            let p = heap.malloc(BLOCK);
            heap.free(p);
        })
    };
    worker.join().unwrap();
    // The thread's own set: one fill of 4, drained at exit in one flush.
    // The probe's malloc: a one-shot set fills 4, hands out 1, flushes 3.
    // The probe's free: another one-shot set takes the block and flushes it.
    assert_eq!(counts(&heap), [2, 8, 3, 8]);
}

/// The heap's counter names, as every exporter has carried them since
/// they were registered by `SlowStats` field name.
const NAMES: [&str; 16] = [
    "cache_fills",
    "cache_fill_blocks",
    "cache_flushes",
    "cache_flushes_blocks",
    "fill_anchor_cas",
    "flush_anchor_cas",
    "sb_carved",
    "heap_grows",
    "heap_shrinks",
    "sb_released",
    "large_allocs",
    "partial_pops_home",
    "partial_steals",
    "partial_shard_pushes",
    "remote_free_blocks",
    "remote_anchor_cas",
];

/// Where a count is kept changes nothing a reader sees: the snapshot
/// JSON and a sampler line (which is a snapshot) carry the same names,
/// in the same order, with the totals a direct read gives.
#[test]
fn exporters_carry_the_same_names_and_the_summed_totals() {
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let out =
        std::env::temp_dir().join(format!("ralloc_thread_stats_{}.jsonl", std::process::id()));
    heap.start_sampler(&out, Duration::from_secs(3600)).unwrap();
    for _ in 0..5 {
        round(&heap);
    }
    let big = heap.malloc(1 << 20); // a shared-path count beside the block's
    heap.free(big);
    heap.stop_sampler(); // takes the final sample
    let [fills, _, flushes, _] = counts(&heap);
    assert_eq!([fills, flushes], [6 * bin() / per_sb(), 5 * bin() / per_sb()]);

    let registered: Vec<&str> = heap
        .telemetry()
        .entries()
        .iter()
        .filter_map(|(n, m)| matches!(m, telemetry::Metric::Counter(_)).then_some(*n))
        .collect();
    assert_eq!(registered[..NAMES.len()], NAMES, "counter names and their order");

    let snap = json::parse(&heap.telemetry_snapshot()).unwrap();
    let body = std::fs::read_to_string(&out).unwrap();
    let line = json::parse(body.lines().last().unwrap()).unwrap();
    for (what, v) in [("the snapshot", &snap), ("the sampler line", &line)] {
        for name in NAMES {
            let direct = heap.telemetry().counter_value(name).unwrap();
            let in_json = v.get("registries").and_then(|r| r.get("heap")).and_then(|h| h.get(name));
            assert_eq!(in_json.and_then(|v| v.as_u64()), Some(direct), "{name} in {what}");
        }
    }
    assert_eq!(heap.telemetry().counter_value("large_allocs"), Some(1));
    let _ = std::fs::remove_file(&out);
}
