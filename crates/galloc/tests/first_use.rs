//! The first allocation through [`galloc::RallocGlobal`] builds the pool:
//! it reserves the default 1 GiB of address space and commits 8 MiB of
//! it, so it must cost milliseconds — not the seconds that zeroing the
//! whole reservation took.
//!
//! The allocator registered here times that first call, which happens in
//! the runtime's start-up, long before any test body runs.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use galloc::RallocGlobal;

/// Set by the first `alloc` to arrive: the one that gets timed.
static STARTED: AtomicBool = AtomicBool::new(false);
/// Nanoseconds that first `alloc` took (0 until it has returned).
static FIRST_ALLOC_NS: AtomicU64 = AtomicU64::new(0);

struct TimedFirstUse;

// SAFETY: every call is forwarded unchanged to `RallocGlobal`, which
// upholds the `GlobalAlloc` contract; the timing around the first one
// allocates nothing.
unsafe impl GlobalAlloc for TimedFirstUse {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Building the pool allocates too: those nested calls, and every
        // later one, are not the first use.
        if STARTED.swap(true, Ordering::Relaxed) {
            // SAFETY: the caller's contract, forwarded.
            return unsafe { RallocGlobal.alloc(layout) };
        }
        let t0 = Instant::now();
        // SAFETY: the caller's contract, forwarded.
        let p = unsafe { RallocGlobal.alloc(layout) };
        FIRST_ALLOC_NS.store((t0.elapsed().as_nanos() as u64).max(1), Ordering::Relaxed);
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, forwarded.
        unsafe { RallocGlobal.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { RallocGlobal.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, forwarded.
        unsafe { RallocGlobal.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TimedFirstUse = TimedFirstUse;

#[test]
fn first_allocation_under_the_default_cap_takes_milliseconds() {
    if std::env::var_os("GALLOC_CAP").is_some() || std::env::var_os("GALLOC_POOL").is_some() {
        eprintln!("skipping: GALLOC_CAP/GALLOC_POOL override the default anonymous 1 GiB pool");
        return;
    }
    let heap = galloc::heap().expect("the pool must have initialized");
    assert!(heap.pool().len() >= galloc::DEFAULT_CAP, "the default 1 GiB must be reserved");
    let b = Box::new(7u64);
    assert!(heap.contains(&*b as *const u64 as *const u8), "Box not served from the pool");
    let ns = FIRST_ALLOC_NS.load(Ordering::Relaxed);
    assert!(ns > 0, "the first allocation was never timed");
    assert!(ns < 100_000_000, "first RallocGlobal allocation took {ns} ns");
}
