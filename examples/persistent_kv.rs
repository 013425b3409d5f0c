//! A memcached-style key-value store on a persistent allocator, driven
//! by a small YCSB-A mix — the library-database scenario of paper §6.3,
//! runnable against any of the five allocators:
//!
//! ```text
//! cargo run --release --example persistent_kv -- [ralloc|lrmalloc|makalu|pmdk|system]
//! ```
//!
//! When the allocator is ralloc, the telemetry sampler records the
//! heap's trajectory to `persistent_kv.jsonl` while the workload runs,
//! and the run phase reports per-op tail latency (p50/p99/p999) from a
//! shared telemetry histogram.

use std::time::{Duration, Instant};

use nvm::FlushModel;
use pds::PKv;
use ralloc::{telemetry::Histogram, Ralloc, RallocConfig};
use workloads::zipf::Zipf;
use workloads::{make_allocator, AllocKind, DynAlloc};

fn main() {
    let kind = std::env::args()
        .nth(1)
        .and_then(|s| AllocKind::parse(&s))
        .unwrap_or(AllocKind::Ralloc);
    // Build ralloc directly (instead of through `make_allocator`) so we
    // keep a typed handle for the sampler; other kinds have no telemetry.
    let (alloc, heap): (DynAlloc, Option<Ralloc>) = if kind == AllocKind::Ralloc {
        let cfg = RallocConfig { flush_model: FlushModel::optane(), ..Default::default() };
        let heap = Ralloc::create(256 << 20, cfg);
        heap.start_sampler("persistent_kv.jsonl", Duration::from_millis(50))
            .expect("start sampler");
        (std::sync::Arc::new(heap.clone()), Some(heap))
    } else {
        (make_allocator(kind, 256 << 20, FlushModel::optane()), None)
    };
    println!("allocator: {}", kind.name());

    let records = 50_000u64;
    let kv = PKv::new(alloc, (records as usize * 2).next_power_of_two());

    // Load phase.
    let t0 = Instant::now();
    let value = [0x42u8; 100];
    for k in 0..records {
        kv.set(k, &value);
    }
    println!(
        "loaded {records} records in {:?} ({:.0} Kops/s)",
        t0.elapsed(),
        records as f64 / t0.elapsed().as_secs_f64() / 1e3
    );

    // Run phase: YCSB-A (50% reads / 50% updates), zipfian keys, from
    // four client threads. Every op's latency lands in one shared
    // log2-bucketed histogram (two relaxed adds per op — cheap enough
    // to leave on).
    let zipf = Zipf::new(records, 0.99);
    let op_ns = Histogram::new();
    let ops_per_thread = 25_000u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            let kv = &kv;
            let zipf = &zipf;
            let op_ns = op_ns.clone();
            s.spawn(move || {
                let mut x = 0x243F6A88 + tid;
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut buf = [0u8; 128];
                for i in 0..ops_per_thread {
                    let key = zipf.sample((rand() % 1_000_000) as f64 / 1e6);
                    let op_t0 = Instant::now();
                    if rand() % 2 == 0 {
                        let _ = kv.get_into(key, &mut buf);
                    } else {
                        // Every update replaces the item; cycling sizes
                        // moves it between size classes.
                        let sz = 96 + (i as usize % 3) * 8;
                        kv.set(key, &buf[..sz]);
                    }
                    op_ns.observe_since(op_t0);
                }
            });
        }
    });
    let total = 4 * ops_per_thread;
    println!(
        "ran {total} YCSB-A ops in {:?} ({:.0} Kops/s)",
        t0.elapsed(),
        total as f64 / t0.elapsed().as_secs_f64() / 1e3
    );
    let lat = op_ns.snapshot();
    println!(
        "op latency ns: p50<={} p99<={} p999<={} (log2 buckets, {} ops)",
        lat.p50(),
        lat.p99(),
        lat.p999(),
        lat.count
    );
    println!("{} keys resident at the end", kv.len());
    kv.destroy();
    if let Some(heap) = heap {
        heap.stop_sampler();
        println!("telemetry trajectory -> persistent_kv.jsonl");
    }
}
