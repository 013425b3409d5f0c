//! YCSB over library-mode memcached (paper Fig. 5f).
//!
//! The paper converts memcached into a library and drives it with the
//! Yahoo! Cloud Serving Benchmark: workload A (50% reads / 50% updates,
//! Fig. 5f) and workload B (95/5, discussed in §6.3 text). Keys follow
//! the YCSB zipfian distribution; an update rewrites the whole value and,
//! as memcached's item replacement does, allocates a fresh item and frees
//! the old one. The run phase cycles value sizes, so items change size
//! class too. Metric: throughput (Kops/s, higher is better).
//!
//! The store is [`PKv`], the map the kill harness crash-tests: its
//! bucket block and items come from the allocator under test, and it
//! persists each item before linking it and each link before freeing the
//! item it replaced, as the paper's §2.2 asks of the application. A
//! persist costs what the allocator's `persist` costs: a flush and a
//! fence on the four pool-backed allocators, nothing on `system`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pds::PKv;
use rand::prelude::*;

use crate::zipf::Zipf;
use crate::DynAlloc;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Client threads.
    pub threads: usize,
    /// Records loaded before the run (paper: 100 K).
    pub records: usize,
    /// Operations executed in the run phase (paper: 100 K).
    pub ops: usize,
    /// Percentage of reads (A: 50, B: 95).
    pub read_pct: u32,
    /// Base value size in bytes.
    pub value_size: usize,
}

impl Params {
    /// Workload A (write-dominant), scaled.
    pub fn workload_a(threads: usize, scale: f64) -> Params {
        Params {
            threads,
            records: ((100_000.0 * scale) as usize).max(1_000),
            ops: ((100_000.0 * scale) as usize).max(1_000),
            read_pct: 50,
            value_size: 100,
        }
    }

    /// Workload B (read-dominant), scaled.
    pub fn workload_b(threads: usize, scale: f64) -> Params {
        Params { read_pct: 95, ..Params::workload_a(threads, scale) }
    }
}

/// Run YCSB; returns throughput in Kops/s.
pub fn run(alloc: &DynAlloc, p: Params) -> f64 {
    let kv = PKv::new(alloc.clone(), (p.records * 2).next_power_of_two());
    // Load phase.
    let value = vec![0xABu8; p.value_size];
    for k in 0..p.records as u64 {
        kv.set(k, &value);
    }
    let zipf = Zipf::new(p.records as u64, 0.99);
    let done = AtomicU64::new(0);
    let per_thread = p.ops / p.threads.max(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..p.threads {
            let kv = &kv;
            let zipf = &zipf;
            let done = &done;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x9C5B + tid as u64);
                let mut buf = vec![0u8; p.value_size + 32];
                let mut ops_done = 0u64;
                for i in 0..per_thread {
                    let key = zipf.sample(rng.gen());
                    if rng.gen_range(0..100) < p.read_pct {
                        let hit = kv.get_into(key, &mut buf);
                        debug_assert!(hit.is_some());
                    } else {
                        // Cycle sizes so replacements change size class.
                        let sz = p.value_size + (i % 3) * 8;
                        kv.set(key, &buf[..sz]);
                    }
                    ops_done += 1;
                }
                done.fetch_add(ops_done, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    kv.destroy();
    done.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_allocator, AllocKind};
    use nvm::FlushModel;

    #[test]
    fn workload_a_runs_on_every_allocator() {
        for kind in AllocKind::all() {
            let a = make_allocator(kind, 128 << 20, FlushModel::free());
            let p = Params { threads: 2, records: 2_000, ops: 4_000, read_pct: 50, value_size: 100 };
            let kops = run(&a, p);
            assert!(kops > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn workload_b_is_read_dominant() {
        let p = Params::workload_b(4, 0.1);
        assert_eq!(p.read_pct, 95);
        let a = make_allocator(AllocKind::Ralloc, 64 << 20, FlushModel::free());
        assert!(run(&a, Params { threads: 2, records: 1_000, ops: 2_000, ..p }) > 0.0);
    }
}
