//! Remote-free rings under a producer/consumer split (the shape the
//! rings exist for): producers allocate, a consumer thread frees, so
//! every freed group belongs to a superblock the consumer does not own —
//! its owner is the shard of the producer whose fill claimed it.
//!
//! Ring-off, each such group costs the consumer one anchor CAS on a
//! cache line the owner is concurrently filling from. Ring-on, the
//! consumer parks the group on the owner's MPSC ring with a wait-free
//! push and the owner reclaims it during its next fill — the acceptance
//! bar is a ≥10× collapse in anchor CASes *per remote free*, measured by
//! counters (wall-clock is meaningless on a single-CPU host).

use std::sync::atomic::Ordering;

use ralloc::{Ralloc, RallocConfig};
use suite::on_another_shard;

/// Producers allocate, the consumer frees; reports
/// `(remote_anchor_cas, remote_free_blocks, rings_enabled)`.
///
/// The hand-over is whole batches, by thread exit: `join` returns once a
/// producer's cache has drained, so the consumer frees on a heap nobody
/// else touches. The groups it flushes — and with them the ring pushes
/// and anchor CASes counted here — then follow from the order of the
/// frees alone, not from how the threads were scheduled (a consumer
/// racing live producers paid a handful of overflow and drain-overhang
/// CASes on a loaded host, which is what made the 10× bar flaky).
/// Counters are read before the heap closes, so teardown ring drains
/// (which pay the direct CAS on purpose) don't pollute the measure.
fn prodcon(cfg: RallocConfig, producers: usize, per_producer: usize) -> (u64, u64, bool) {
    let heap = Ralloc::create(64 << 20, cfg);
    let enabled = heap.remote_rings_enabled();
    let mut batches: Vec<Vec<usize>> = Vec::new();
    while batches.len() < producers {
        batches.extend(on_another_shard(&heap, heap.current_home_shard(), || {
            (0..per_producer)
                .map(|i| {
                    let p = heap.malloc(64);
                    assert!(!p.is_null());
                    // SAFETY: fresh 64-byte block.
                    unsafe { std::ptr::write(p as *mut u64, i as u64) };
                    p as usize
                })
                .collect::<Vec<usize>>()
        }));
    }
    for p in batches.into_iter().flatten() {
        heap.free(p as *mut u8);
    }
    let stats = heap.slow_stats();
    (
        stats.remote_anchor_cas.load(Ordering::Relaxed),
        stats.remote_free_blocks.load(Ordering::Relaxed),
        enabled,
    )
}

#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
fn prodcon_remote_cas_collapses_with_rings() {
    const PRODUCERS: usize = 2;
    const PER_PRODUCER: usize = 32 * 1024;
    let (cas_off, blocks_off, off_ringed) =
        prodcon(RallocConfig { remote_ring: false, ..Default::default() }, PRODUCERS, PER_PRODUCER);
    let (cas_on, blocks_on, on_ringed) =
        prodcon(RallocConfig::default(), PRODUCERS, PER_PRODUCER);
    if off_ringed || !on_ringed {
        eprintln!("skipping: RALLOC_REMOTE_RING/RALLOC_SHARDS override pins both heaps to one mode");
        return;
    }
    assert!(blocks_off > 0, "consumer frees must be remote");
    assert!(blocks_on > 0, "consumer frees must be remote");
    let off_ratio = cas_off as f64 / blocks_off as f64;
    let on_ratio = cas_on as f64 / blocks_on as f64;
    assert!(off_ratio > 0.0, "ring-off remote groups must pay anchor CASes");
    assert!(
        on_ratio * 10.0 <= off_ratio,
        "rings must cut anchor CASes per remote free ≥10×: \
         off {cas_off}/{blocks_off} = {off_ratio:.6}, on {cas_on}/{blocks_on} = {on_ratio:.6}"
    );
}

#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
fn prodcon_rings_leave_a_consistent_reusable_heap() {
    // Same shape, but the property under test is conservation: after the
    // churn, an explicit shrink (which drains every ring) must find all
    // blocks home again.
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(256);
        for _ in 0..2 {
            let tx = tx.clone();
            let heap = &heap;
            s.spawn(move || {
                for _ in 0..8 * 1024 {
                    let p = heap.malloc(64);
                    assert!(!p.is_null());
                    tx.send(p as usize).unwrap();
                }
            });
        }
        drop(tx);
        for p in rx {
            heap.free(p as *mut u8);
        }
    });
    heap.shrink();
    let report = ralloc::check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}

#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
fn consumer_frees_ride_the_producers_ring_and_come_back_without_cas() {
    // One producer, one consumer, on different shards. The producer's
    // fills own the superblocks, so every group the consumer flushes is
    // remote and parks on the *producer's* ring; the producer's next
    // fills drain them straight back into its bin.
    let heap = &Ralloc::create(64 << 20, RallocConfig::default());
    if !heap.remote_rings_enabled() {
        eprintln!("skipping: remote rings disabled (RALLOC_REMOTE_RING/RALLOC_SHARDS?)");
        return;
    }
    const N: usize = 2 * (ralloc::SB_SIZE / 64); // two whole superblocks
    let alloc_all = || (0..N).map(|_| heap.malloc(64) as usize).collect::<Vec<usize>>();
    let stats = heap.slow_stats();
    let (blocks_tx, blocks_rx) = std::sync::mpsc::channel();
    let (freed_tx, freed_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            blocks_tx.send((heap.current_home_shard(), alloc_all())).unwrap();
            freed_rx.recv().unwrap();
            // Same thread, same home shard: the owner drain.
            (stats.fill_anchor_cas.load(Ordering::Relaxed), alloc_all())
        });
        let (producer_home, mut blocks) = blocks_rx.recv().unwrap();
        assert!(blocks.iter().all(|&p| p != 0));
        for &p in &blocks {
            assert_eq!(heap.owner_shard_of(p as *const u8), producer_home);
        }
        // The consumer exits, so its bin flushes to the last block.
        on_another_shard(heap, producer_home, || {
            for &p in &blocks {
                heap.free(p as *mut u8);
            }
        })
        .expect("no thread landed off the producer's shard");
        let remote = stats.remote_free_blocks.load(Ordering::Relaxed);
        assert_eq!(remote, N as u64, "every consumer free is remote");
        assert_eq!(stats.remote_ring_push_blocks.load(Ordering::Relaxed), remote);
        assert_eq!(stats.remote_ring_overflows.load(Ordering::Relaxed), 0);
        assert_eq!(stats.flush_anchor_cas.load(Ordering::Relaxed), 0, "a ringed group touched its anchor");

        let fill_cas0 = stats.fill_anchor_cas.load(Ordering::Relaxed);
        freed_tx.send(()).unwrap();
        let (fill_cas, mut again) = producer.join().unwrap();
        assert_eq!(fill_cas, fill_cas0, "the owner drain refills with zero anchor CAS");
        assert_eq!(stats.remote_ring_drain_blocks.load(Ordering::Relaxed), remote);
        assert_eq!(stats.remote_anchor_cas.load(Ordering::Relaxed), 0);
        assert_eq!(heap.used_superblocks(), 2, "drained blocks were bypassed for a carve");
        blocks.sort_unstable();
        again.sort_unstable();
        assert_eq!(again, blocks, "the producer got its own blocks back");
    });
    let report = ralloc::check_heap(heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}
