//! Umbrella crate for the Ralloc reproduction workspace.
//!
//! The real code lives in the `crates/` members; this package exists to
//! host the cross-crate integration tests (`tests/`) and the runnable
//! `examples/`. It re-exports the workspace crates so examples and docs
//! have one import root.

pub use baselines;
pub use nvm;
pub use pds;
pub use pptr;
pub use ralloc;
pub use workloads;

/// Test support: run `f` to completion (exit-time cache drain included) on
/// a fresh thread whose home shard on `heap` is not `avoid` — a block such
/// a thread fills is remote to every thread of shard `avoid`, and vice
/// versa. Threads that land on `avoid` are discarded (each fresh one draws
/// a new token); `None` if 64 in a row did.
pub fn on_another_shard<T: Send>(
    heap: &ralloc::Ralloc,
    avoid: u32,
    f: impl Fn() -> T + Sync,
) -> Option<T> {
    (0..64).find_map(|_| {
        std::thread::scope(|s| {
            s.spawn(|| (heap.current_home_shard() != avoid).then(&f))
                .join()
                .expect("worker panicked")
        })
    })
}
