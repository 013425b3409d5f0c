//! A flush runs inside `free`: it must not allocate.
//!
//! `RallocGlobal` and `librp.so` serve every allocation of the process
//! from a heap, so an allocation made by the heap's own slow path is a
//! nested call back into the allocator (routed to `System` only because
//! the shims guard against re-entry). This binary counts, through its own
//! `#[global_allocator]`, what the calling thread allocates while a flush
//! sorts more superblocks than its linear scan takes (8): a full bin whose
//! blocks come from as many superblocks as it has slots. An overflowing
//! `free` returns one superblock's population, so the 4 096 B bin (16
//! blocks per superblock) sorts there; the 14 336 B bin (4 per
//! superblock) returns only 4 on overflow, and sorts its other 13 blocks
//! in the whole-bin drain at its thread's exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use ralloc::size_class::{cache_capacity, class_max_count, size_class_of};
use ralloc::{check_heap, Ralloc, RallocConfig};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Count only this thread's allocations, only while armed.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only an atomic and a const-initialized thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.set(true);
    f();
    ARMED.set(false);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// `(cache_flushes, flush_anchor_cas)`.
fn flush_counts(heap: &Ralloc) -> (u64, u64) {
    let s = heap.slow_stats();
    (s.cache_flushes.load(Ordering::Relaxed), s.flush_anchor_cas.load(Ordering::Relaxed))
}

#[test]
fn a_flush_over_as_many_superblocks_as_slots_allocates_nothing() {
    // 4 096 B: 16 blocks per superblock, a 16-slot bin at any bin sizing.
    // 14 336 B: 4 blocks per superblock, the class the 16-slot floor is for.
    for size in [4096, 14336] {
        let class = size_class_of(size).unwrap();
        let (cap, per_sb) = (cache_capacity(class) as usize, class_max_count(class) as usize);
        let heap = Ralloc::create(32 << 20, RallocConfig::default());
        // The bin's last flush is the whole-bin drain at its thread's exit,
        // so a worker holds the blocks, and its counting stays armed from
        // its last statement through that drain.
        let worker = || {
            // `cap` whole superblocks, in carve order, and an empty bin.
            let held: Vec<*mut u8> = (0..cap * per_sb).map(|_| heap.malloc(size)).collect();
            assert!(held.iter().all(|p| !p.is_null()));
            // One block of each superblock fills the bin: `cap` groups.
            for sb in 0..cap {
                heap.free(held[sb * per_sb]);
            }
            // The overflow returns the oldest `per_sb`: one each of as many
            // superblocks.
            let (flushes0, cas0) = flush_counts(&heap);
            let n = allocations_during(|| heap.free(held[1]));
            assert_eq!(n, 0, "{size} B: an overflow over {per_sb} superblocks allocated");
            if cfg!(not(feature = "telemetry-off")) {
                let (flushes, cas) = flush_counts(&heap);
                assert_eq!(flushes - flushes0, 1, "{size} B");
                assert_eq!(cas - cas0, per_sb as u64, "{size} B: one anchor CAS per superblock");
            }
            let report = check_heap(&heap);
            assert!(report.is_consistent(), "{size} B: {:?}", report.violations);
            let before = (flush_counts(&heap), ALLOCS.load(Ordering::Relaxed));
            ARMED.set(true);
            before
        };
        let ((flushes0, cas0), allocs0) =
            std::thread::scope(|s| s.spawn(worker).join().expect("worker"));
        // The bin kept the newest `cap - per_sb` and `held[1]`, each of its
        // own superblock; the exit drained them whole.
        let kept = cap - per_sb + 1;
        let n = ALLOCS.load(Ordering::Relaxed) - allocs0;
        assert_eq!(n, 0, "{size} B: a drain over {kept} superblocks allocated");
        if cfg!(not(feature = "telemetry-off")) {
            let (flushes, cas) = flush_counts(&heap);
            assert_eq!(flushes - flushes0, 1, "{size} B");
            assert_eq!(cas - cas0, kept as u64, "{size} B: one anchor CAS per superblock");
        }
    }
}
