//! Standalone probes: one layer, one thread, bulk-timed (two clock reads
//! around many calls), so no span or sampling overhead is in them.

use std::path::Path;
use std::time::Instant;

use nvm::PmemPool;
use ralloc::{Mode, Ralloc, SB_SIZE};

use crate::ctx::Alloc;
use crate::stats::median;
use crate::{persistent_cfg, MAX_CAPACITY};

/// What a bulk-timed pair loop measured.
pub struct Pairs {
    /// Median over the reps of the nanoseconds one pair took. NaN when an
    /// allocation failed: a null is fast, not a pair.
    pub ns: f64,
    pub attempted: u64,
    /// Null mallocs among them.
    pub failed: u64,
}

/// `malloc`+`free` pairs of `size` bytes on `alloc`: `reps` reps, each
/// timing `pairs` pairs in bulk, after a warm-up of a quarter rep.
pub fn pair_ns<A: Alloc>(alloc: &A, size: usize, pairs: usize, reps: usize) -> Pairs {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut run = |n: usize| {
        let t0 = Instant::now();
        for _ in 0..n {
            let p = std::hint::black_box(alloc.malloc(size));
            if p.is_null() {
                failed += 1;
            } else {
                alloc.free(p, size);
            }
        }
        attempted += n as u64;
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    run(pairs / 4 + 1); // warm the cache bin and the branch predictors
    let per_rep: Vec<f64> = (0..reps).map(|_| run(pairs)).collect();
    Pairs {
        ns: if failed == 0 {
            median(&per_rep)
        } else {
            f64::NAN
        },
        attempted,
        failed,
    }
}

pub const LARGE_SIZE: usize = 256 << 10;
const LARGE_PAIRS: usize = 48;
const LARGE_REPS: usize = 5;
// A large block is carved from the frontier and its superblocks are never
// carved again, so a heap serves `MAX_CAPACITY ÷ size` large blocks in its
// life and then returns null. The probe uses an eighth of that, which
// leaves the workload's own heap room to go on.
const _: () =
    assert!((LARGE_PAIRS / 4 + 1 + LARGE_REPS * LARGE_PAIRS) * LARGE_SIZE <= MAX_CAPACITY / 8);

/// 256 KiB pairs (four superblocks each) on `heap`: every pair carves
/// fresh superblocks and retires them.
pub fn large_pair_ns(heap: &Ralloc) -> Pairs {
    pair_ns(heap, LARGE_SIZE, LARGE_PAIRS, LARGE_REPS)
}

/// Nanoseconds one single-line `persist` (flush + fence) costs on `pool`.
pub fn persist_line_ns(pool: &PmemPool, off: usize) -> f64 {
    let run = || {
        const N: usize = 5000;
        let t0 = Instant::now();
        for _ in 0..N {
            pool.persist(off, 64);
        }
        t0.elapsed().as_nanos() as f64 / N as f64
    };
    run();
    median(&(0..5).map(|_| run()).collect::<Vec<_>>())
}

/// The same on a pool with the free latency model: what the persistence
/// bookkeeping itself costs once the modeled Optane delay is taken out.
pub fn persist_line_free_ns() -> f64 {
    persist_line_ns(&PmemPool::new(1 << 20, Mode::Direct), 4096)
}

/// Microseconds one `telemetry_snapshot()` of `heap` takes.
pub fn snapshot_us(heap: &Ralloc) -> f64 {
    let run = || {
        let t0 = Instant::now();
        std::hint::black_box(heap.telemetry_snapshot());
        t0.elapsed().as_secs_f64() * 1e6
    };
    run();
    median(&(0..20).map(|_| run()).collect::<Vec<_>>())
}

pub struct Lifecycle {
    pub shrink_ms: f64,
    pub shrink_sb_released: f64,
    pub close_ms: f64,
    pub open_clean_ms: f64,
    pub notes: Vec<String>,
}

/// Superblocks the lifecycle probe fills before it shrinks.
pub const LIFECYCLE_SBS: usize = 1024;

/// File-backed heap: fill `LIFECYCLE_SBS` superblocks with one-superblock
/// blocks, free them, then time `shrink()`, `close()` and a clean
/// `open_file()`. The file lives in `dir` (page-cache I/O, not a device).
pub fn lifecycle(dir: &Path) -> std::io::Result<Lifecycle> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("lifecycle-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut notes = Vec::new();
    let (heap, dirty) = Ralloc::open_file(&path, crate::INITIAL_CAPACITY, persistent_cfg())?;
    if dirty {
        notes.push("a freshly created pool file opened dirty".to_string());
    }
    let held: Vec<*mut u8> = (0..LIFECYCLE_SBS)
        .map(|_| heap.malloc(SB_SIZE / 2 + 1))
        .filter(|p| !p.is_null())
        .collect();
    // One small live block keeps the heap non-empty across the restart.
    let keep = heap.malloc(64);
    for p in held {
        heap.free(p);
    }
    let t0 = Instant::now();
    let released = heap.shrink();
    let shrink_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    heap.close()?;
    let close_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(heap);
    let t0 = Instant::now();
    let (reopened, dirty) = Ralloc::open_file(&path, crate::INITIAL_CAPACITY, persistent_cfg())?;
    let open_clean_ms = t0.elapsed().as_secs_f64() * 1e3;
    if dirty {
        notes.push("a cleanly closed pool reopened dirty".to_string());
    }
    if keep.is_null() || reopened.malloc(64).is_null() {
        notes.push("the reopened pool cannot allocate".to_string());
    }
    drop(reopened);
    std::fs::remove_file(&path)?;
    Ok(Lifecycle {
        shrink_ms,
        shrink_sb_released: released as f64,
        close_ms,
        open_clean_ms,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Sys;

    #[test]
    fn probes_return_positive_times() {
        let sys = pair_ns(&Sys, 64, 1000, 3);
        assert!(sys.ns > 0.0 && sys.failed == 0 && sys.attempted == 3251);
        assert!(persist_line_free_ns() > 0.0);
    }

    /// The large probe must fit the heap it runs on: large blocks are never
    /// reused, so a longer probe would time null mallocs.
    #[test]
    fn large_pairs_fit_the_persistent_heap() {
        let large = large_pair_ns(&crate::new_heap(persistent_cfg()));
        assert_eq!(large.failed, 0);
        assert!(large.ns.is_finite() && large.ns > 0.0, "{}", large.ns);
    }

    #[test]
    fn a_failed_allocation_voids_the_time_and_is_counted() {
        struct Never;
        impl Alloc for Never {
            fn malloc(&self, _size: usize) -> *mut u8 {
                std::ptr::null_mut()
            }
            fn free(&self, _p: *mut u8, _size: usize) {}
        }
        let p = pair_ns(&Never, 64, 8, 2);
        assert!(p.ns.is_nan());
        assert_eq!((p.attempted, p.failed), (19, 19));
    }

    #[test]
    fn lifecycle_releases_what_it_filled_and_reopens_clean() {
        let dir = std::env::temp_dir().join(format!("ledger-lifecycle-{}", std::process::id()));
        let l = lifecycle(&dir).expect("lifecycle probe");
        assert!(l.notes.is_empty(), "{:?}", l.notes);
        assert!(
            l.shrink_sb_released >= (LIFECYCLE_SBS - 64) as f64,
            "{}",
            l.shrink_sb_released
        );
        assert!(l.close_ms > 0.0 && l.open_clean_ms > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
