//! Contention microbenchmark for the sharded partial lists.
//!
//! `micro_malloc` measures the fast path, which never touches a shared
//! list; this target measures the **slow paths** under thread contention,
//! where the per-class partial-list head CAS is the bottleneck the
//! sharding subsystem (`ralloc::shard`) exists to remove. The workload
//! maximizes slow-path frequency: each thread churns a private working
//! set of blocks from the largest small class (14336 B, 4 blocks per
//! superblock, cache-bin capacity 4), so roughly every fourth `malloc` is
//! a Fill popping a partial shard and every fourth `free` overflows the
//! bin into a Flush pushing superblocks back. The same binary runs the
//! sweep with different `partial_shards` configs — no env tricks, no
//! rebuilds — and reports pair throughput plus the observed steal rate.
//!
//! A second shape, `prodcon`, splits allocation from deallocation:
//! producer threads malloc and hand blocks over a bounded channel,
//! consumer threads free them — every free is **remote** (the freeing
//! thread never owns the block's superblock), so each flushed group is
//! one anchor CAS on a superblock its producer is filling from. It
//! reports anchor CASes per remote free from the allocator's own
//! counters next to the throughput.
//!
//! Emits `BENCH_contend.json` at the workspace root:
//! `{shape, threads, shards, mops, ...}` per point. Set
//! `MICRO_CONTEND_WINDOW_MS` to change the per-point window (default
//! 300 ms; noisy below ~150 ms). `host_cores` is recorded because
//! oversubscribed single-core hosts compress the shard effect: with one
//! runnable thread at a time there is no cache-line ping-pong, only CAS
//! interleaving, so multi-core hosts show a substantially larger spread.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ralloc::{Ralloc, RallocConfig};
use telemetry::Histogram;

/// Block size under test: the largest small class (4 blocks/superblock),
/// chosen to maximize the slow-path fraction of the op stream.
const BLOCK: usize = 14336;
/// Per-thread working-set slots. Large enough that flush batches span
/// many superblocks (each costing an anchor CAS + a partial-list push).
const SLOTS: usize = 64;

/// Run `threads` workers churning private working sets for `window`;
/// returns (malloc+free pairs)/s in Mops. When `lat` is given, thread 0
/// additionally times each of its ops into the histogram — one timing
/// thread out of N keeps the clock-read overhead off the aggregate
/// throughput while still sampling the contended latency distribution.
fn churn_throughput(
    heap: &Ralloc,
    threads: usize,
    window: Duration,
    lat: Option<&Histogram>,
) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let heap = heap.clone();
                let stop = stop.clone();
                let barrier = barrier.clone();
                let lat = if t == 0 { lat.cloned() } else { None };
                s.spawn(move || {
                    let mut slots: Vec<usize> = vec![0; SLOTS];
                    let mut x = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
                    let mut rand = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    barrier.wait();
                    let mut pairs = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            let i = rand() as usize % SLOTS;
                            let t0 = lat.as_ref().map(|_| std::time::Instant::now());
                            if slots[i] == 0 {
                                let p = heap.malloc(BLOCK);
                                assert!(!p.is_null(), "bench pool exhausted");
                                slots[i] = p as usize;
                            } else {
                                heap.free(slots[i] as *mut u8);
                                slots[i] = 0;
                                pairs += 1;
                            }
                            if let (Some(h), Some(t0)) = (&lat, t0) {
                                h.observe_since(t0);
                            }
                        }
                    }
                    for &p in slots.iter().filter(|&&p| p != 0) {
                        heap.free(p as *mut u8);
                    }
                    pairs
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("contend worker")).sum()
    });
    total as f64 / window.as_secs_f64() / 1e6
}

/// Run `pairs` producer/consumer couples for `window`; returns freed
/// blocks/s in Mops. Producers allocate and push through a bounded
/// channel (backpressure keeps the in-flight set small); consumers free
/// blocks they never allocated, so the entire free stream is remote.
fn prodcon_throughput(heap: &Ralloc, pairs: usize, window: Duration) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(2 * pairs + 1));
    let total: u64 = std::thread::scope(|s| {
        let mut consumers = Vec::new();
        for _ in 0..pairs {
            let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(256);
            let heap_p = heap.clone();
            let stop = stop.clone();
            let b = barrier.clone();
            s.spawn(move || {
                b.wait();
                'produce: while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        let p = heap_p.malloc(BLOCK);
                        assert!(!p.is_null(), "bench pool exhausted");
                        if tx.send(p as usize).is_err() {
                            heap_p.free(p);
                            break 'produce;
                        }
                    }
                }
            });
            let heap_c = heap.clone();
            let b = barrier.clone();
            consumers.push(s.spawn(move || {
                b.wait();
                let mut freed = 0u64;
                for p in rx {
                    heap_c.free(p as *mut u8);
                    freed += 1;
                }
                freed
            }));
        }
        barrier.wait();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        consumers.into_iter().map(|h| h.join().expect("prodcon consumer")).sum()
    });
    total as f64 / window.as_secs_f64() / 1e6
}

fn main() {
    let window = Duration::from_millis(
        std::env::var("MICRO_CONTEND_WINDOW_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(300),
    );
    let mut entries = Vec::new();
    for &threads in &[1usize, 8] {
        for &shards in &[1usize, 4, 16] {
            // Fresh heap per point so carve state and list population do
            // not bleed across configurations.
            let heap = Ralloc::create(
                512 << 20,
                RallocConfig { partial_shards: shards, ..Default::default() },
            );
            let _ = churn_throughput(&heap, threads, window / 4, None); // warmup
            // Steal rate over the measured window only — warmup pops
            // (taken while carve state is still populating) would skew it.
            let stats = heap.slow_stats();
            let home0 = stats.partial_pops_home.load(Ordering::Relaxed);
            let steal0 = stats.partial_steals.load(Ordering::Relaxed);
            let lat = Histogram::new();
            let mops = churn_throughput(&heap, threads, window, Some(&lat));
            let lat = lat.snapshot();
            let home = stats.partial_pops_home.load(Ordering::Relaxed) - home0;
            let stolen = stats.partial_steals.load(Ordering::Relaxed) - steal0;
            let steal = if home + stolen == 0 { 0.0 } else { stolen as f64 / (home + stolen) as f64 };
            assert_eq!(heap.partial_shards() as usize, shards, "RALLOC_SHARDS override set?");
            println!(
                "contend x{threads} S={shards}: {mops:.3} Mops/s (steal rate {steal:.3}, \
                 op ns p50<={} p99<={} p999<={})",
                lat.p50(),
                lat.p99(),
                lat.p999()
            );
            entries.push(format!(
                "    {{\"shape\": \"churn\", \"threads\": {threads}, \"shards\": {shards}, \
                 \"mops\": {mops:.3}, \"steal_rate\": {steal:.4}, \"op_latency_ns\": {}}}",
                lat.to_json()
            ));
        }
    }
    // Producer/consumer split: 100 % remote frees.
    for &pairs in &[1usize, 4] {
        let heap = Ralloc::create(512 << 20, RallocConfig::default());
        let _ = prodcon_throughput(&heap, pairs, window / 4); // warmup
        let stats = heap.slow_stats();
        let blocks0 = stats.remote_free_blocks.load(Ordering::Relaxed);
        let cas0 = stats.remote_anchor_cas.load(Ordering::Relaxed);
        let mops = prodcon_throughput(&heap, pairs, window);
        let blocks = stats.remote_free_blocks.load(Ordering::Relaxed) - blocks0;
        let cas = stats.remote_anchor_cas.load(Ordering::Relaxed) - cas0;
        assert!(blocks > 0, "prodcon produced no remote frees");
        let ratio = cas as f64 / blocks as f64;
        println!(
            "prodcon x{pairs} pairs: {mops:.3} Mops/s \
             ({cas} anchor CASes / {blocks} remote frees = {ratio:.5})"
        );
        entries.push(format!(
            "    {{\"shape\": \"prodcon\", \"pairs\": {pairs}, \"threads\": {}, \
             \"shards\": {}, \"mops\": {mops:.3}, \
             \"remote_free_blocks\": {blocks}, \"remote_anchor_cas\": {cas}, \
             \"remote_cas_per_free\": {ratio:.6}}}",
            2 * pairs,
            heap.partial_shards()
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"micro_contend\",\n  \"unit\": \"Mops/s malloc+free pairs, 14336 B (slow-path-heavy churn)\",\n  \"meta\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        bench::meta_with(&[("window_ms", window.as_millis().to_string())]),
        entries.join(",\n")
    );
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_contend.json");
    std::fs::write(&path, json).expect("write BENCH_contend.json");
    println!("wrote {}", path.display());
}
