//! Remote frees under a producer/consumer split: producers allocate, a
//! consumer thread frees, so every freed group belongs to a superblock
//! the consumer does not own — its owner is the shard of the producer
//! whose fill claimed it.
//!
//! Such a group goes back the way a local one does: the consumer's flush
//! partitions its bin by superblock and pays one anchor CAS per group
//! (the paper's Flush, §4.4), after which the blocks are on the
//! superblock's chain for anyone's next fill. These tests hold that to
//! its two promises — the CAS is per group, not per block, and no block
//! is lost or duplicated on the way — with counters, not wall-clock.

use ralloc::{Ralloc, RallocConfig};
use suite::on_another_shard;

#[test]
fn prodcon_remote_frees_cost_one_cas_per_superblock_group() {
    const PRODUCERS: usize = 2;
    const PER_PRODUCER: usize = 32 * 1024;
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    // The hand-over is whole batches, by thread exit: `join` returns once
    // a producer's cache has drained, so the consumer frees on a heap
    // nobody else touches. The groups it flushes then follow from the
    // order of the frees alone, not from how the threads were scheduled.
    let mut batches: Vec<Vec<usize>> = Vec::new();
    while batches.len() < PRODUCERS {
        batches.extend(on_another_shard(&heap, heap.current_home_shard(), || {
            (0..PER_PRODUCER)
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
    let stats = heap.slow_stats();
    let (flushed0, cas0) = (
        stats.cache_flushes_blocks.get(),
        stats.flush_anchor_cas.get(),
    );
    for p in batches.into_iter().flatten() {
        heap.free(p as *mut u8);
    }
    let remote = stats.remote_free_blocks.get();
    let cas = stats.remote_anchor_cas.get();
    assert!(remote as usize >= PRODUCERS * PER_PRODUCER - ralloc::SB_SIZE / 64);
    assert_eq!(
        remote,
        stats.cache_flushes_blocks.get() - flushed0,
        "the consumer filled nothing, so every block it flushes is remote"
    );
    assert_eq!(cas, stats.flush_anchor_cas.get() - cas0);
    // A bin of consecutively allocated blocks spans at most two
    // superblocks of 1024: at most one CAS per 512 remote blocks.
    assert!(cas >= 1 && cas * 512 <= remote, "{cas} anchor CASes for {remote} remote blocks");
}

#[test]
fn prodcon_remote_frees_leave_a_consistent_reusable_heap() {
    // Same shape, live this time: the consumer frees while the producers
    // still allocate (and refill from what it returns). The property is
    // conservation: once every thread has exited and drained its cache,
    // each block is home, so every superblock is EMPTY and shrink
    // releases them all.
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(256);
        let heap = &heap;
        let mut workers: Vec<_> = (0..2)
            .map(|_| {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..8 * 1024 {
                        let p = heap.malloc(64);
                        assert!(!p.is_null());
                        // SAFETY: fresh 64-byte block.
                        unsafe { std::ptr::write(p as *mut u64, i) };
                        tx.send(p as usize).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        workers.push(s.spawn(move || {
            // Hold a window of blocks live before freeing them, so a
            // block handed out twice at once would show up here.
            let mut live = std::collections::HashSet::new();
            let mut window = std::collections::VecDeque::new();
            for p in rx {
                assert!(live.insert(p), "block {p:#x} handed out twice while live");
                window.push_back(p);
                if window.len() > 512 {
                    let old = window.pop_front().unwrap();
                    live.remove(&old);
                    heap.free(old as *mut u8);
                }
            }
            for p in window {
                heap.free(p as *mut u8);
            }
        }));
        // Explicit joins return after the threads' exit-time cache
        // drains; the scope's own wait does not.
        for w in workers {
            w.join().unwrap();
        }
    });
    heap.shrink();
    assert_eq!(heap.used_superblocks(), 0, "a block never came home");
    let report = ralloc::check_heap(&heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
    assert!(!heap.malloc(64).is_null());
}

#[test]
fn consumer_frees_come_back_to_the_producer_without_a_carve() {
    // One producer, one consumer, on different shards. The producer's
    // fills own the superblocks, so every group the consumer flushes is
    // remote; the producer's next fills must find those blocks again.
    let heap = &Ralloc::create(64 << 20, RallocConfig::default());
    const N: usize = 2 * (ralloc::SB_SIZE / 64); // two whole superblocks
    let alloc_all = || (0..N).map(|_| heap.malloc(64) as usize).collect::<Vec<usize>>();
    let stats = heap.slow_stats();
    let (blocks_tx, blocks_rx) = std::sync::mpsc::channel();
    let (freed_tx, freed_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            blocks_tx.send((heap.current_home_shard(), alloc_all())).unwrap();
            freed_rx.recv().unwrap();
            alloc_all()
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
        assert_eq!(stats.remote_free_blocks.get(), N as u64);
        assert_eq!(
            stats.remote_anchor_cas.get(),
            2,
            "two whole populations, freed in allocation order: two groups"
        );
        freed_tx.send(()).unwrap();
        let mut again = producer.join().unwrap();
        assert_eq!(heap.used_superblocks(), 2, "remotely freed blocks were bypassed for a carve");
        blocks.sort_unstable();
        again.sort_unstable();
        assert_eq!(again, blocks, "the producer got its own blocks back");
    });
    let report = ralloc::check_heap(heap);
    assert!(report.is_consistent(), "{:?}", report.violations);
}
