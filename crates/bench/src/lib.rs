//! # bench — criterion harness shell
//!
//! The benchmark logic lives in the `workloads` crate; this crate hosts
//! one criterion bench target per paper figure plus ablation studies.
//! Run `cargo bench -p bench` for everything or `cargo bench -p bench
//! --bench fig5a_threadtest` for one figure. The `repro` binary in
//! `workloads` produces the same data as CSV without criterion's
//! statistics when raw figure points are wanted.

/// Default heap capacity handed to each allocator under test.
pub const BENCH_CAPACITY: usize = 256 << 20;

/// Workload scale used by the criterion benches (small enough for
/// statistical iteration, large enough to exercise the slow paths).
pub const BENCH_SCALE: f64 = 0.02;

/// Thread ladder for the criterion benches (kept short; use `repro` for
/// full sweeps).
pub fn bench_threads() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 8 {
        vec![1, 4, 8]
    } else if cores >= 4 {
        vec![1, 2, 4]
    } else {
        vec![1, 2]
    }
}
