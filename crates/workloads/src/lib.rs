//! # workloads — the paper's evaluation, reproducible
//!
//! One module per experiment of §6, each parameterized by allocator,
//! thread count, and a scale factor so the same code serves quick smoke
//! runs and full figure regeneration:
//!
//! | module | figure | workload |
//! |---|---|---|
//! | [`threadtest`] | 5a | Hoard threadtest: per-thread alloc/free batches |
//! | [`shbench`] | 5b | MicroQuill shbench: mixed-size stress, skewed small |
//! | [`larson`] | 5c | Larson bleeding: cross-thread frees + thread turnover |
//! | [`prodcon`] | 5d | producer/consumer pairs over M&S queues |
//! | [`vacation`] | 5e | STAMP-style travel-reservation OLTP on RB-trees |
//! | [`ycsb`] | 5f | YCSB A/B over the library-mode KV store |
//! | [`gcbench`] | 6a/6b | recovery (GC) time vs. reachable blocks |
//!
//! [`alloc_select`] builds any of the five §6.1 allocators behind the
//! shared `PersistentAllocator` trait; [`zipf`] provides the YCSB key
//! distribution. `repro`, the one figure regenerator, prints a CSV row per point.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod alloc_select;
pub mod churn;
pub mod gcbench;
pub mod larson;
pub mod prodcon;
pub mod shbench;
pub mod threadtest;
pub mod vacation;
pub mod ycsb;
pub mod zipf;

pub use alloc_select::{make_allocator, AllocKind, DynAlloc};

/// Default thread counts for figure sweeps. The paper sweeps 1..90 on a
/// 2×20-core machine; we default to a modest ladder and let `--threads`
/// extend it on bigger hosts.
pub fn default_threads() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&t| t <= 2 * cores.max(2))
        .collect()
}
