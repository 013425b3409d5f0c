//! The churn-fixpoint stress generator (Theorem 5.2's workload).
//!
//! One canonical definition shared by the leakage-freedom test
//! (`tests/overlap_stress.rs`), the footprint probe
//! (`examples/churn_probe.rs`), and the CI shrink smoke: a bounded live
//! set churned by short-lived worker threads, every block carrying a
//! full-block signature derived from its own address so overlap or
//! double-issue corrupts detectably. Keeping it here means the probe's
//! recorded trajectories stay comparable to the test they explain — any
//! tweak to the op mix changes both or neither.

use crate::DynAlloc;

/// Write the canonical address-derived signature over a live block.
///
/// # Safety
/// `ptr` must be a live block of at least `size` bytes exclusively owned
/// by the caller.
pub unsafe fn fill_signature(ptr: *mut u8, size: usize) {
    for i in 0..size {
        // SAFETY: `i < size`, inside the caller's exclusively owned block.
        unsafe { *ptr.add(i) = ((ptr as usize).wrapping_add(i) as u8) ^ 0x5A };
    }
}

/// Verify the signature; panics on any torn byte (overlap/double-issue).
///
/// # Safety
/// As for [`fill_signature`].
pub unsafe fn check_signature(ptr: *mut u8, size: usize) {
    for i in 0..size {
        // SAFETY: `i < size`, inside the caller's live block.
        let got = unsafe { *ptr.add(i) };
        let want = ((ptr as usize).wrapping_add(i) as u8) ^ 0x5A;
        assert_eq!(got, want, "signature torn at {ptr:p}+{i}: block overlap or double-issue");
    }
}

/// One churn round: `threads` fresh workers each run `per_thread_ops`
/// random alloc/free steps (sizes 8..408 B, live cap 400 blocks,
/// 1-in-3 free bias once anything is held), verify every signature, and
/// free everything on the way out. Thread exit drains the workers'
/// caches — the thread-turnover half of the churn pattern.
///
/// The round ends when every worker has *exited*: each one is joined,
/// which waits for its thread-local destructors (the cache drains) too.
/// `thread::scope` alone returns when the closures do, so a round's
/// drains would land during the next one.
///
/// The signature writes are part of the workload on purpose: their
/// per-op cost is what produces real preemption (and therefore real
/// thread overlap) on a single-core host.
pub fn stress(alloc: &DynAlloc, threads: usize, per_thread_ops: usize) {
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        for t in 0..threads {
            let alloc = alloc.clone();
            workers.push(s.spawn(move || {
                let mut held: Vec<(usize, usize)> = Vec::new();
                let mut x = 0x9E3779B9u64.wrapping_mul(t as u64 + 1) | 1;
                let mut rand = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for _ in 0..per_thread_ops {
                    if held.len() > 400 || (!held.is_empty() && rand() % 3 == 0) {
                        let i = (rand() as usize) % held.len();
                        let (p, sz) = held.swap_remove(i);
                        // SAFETY: we exclusively own every held block.
                        unsafe { check_signature(p as *mut u8, sz) };
                        alloc.free(p as *mut u8);
                    } else {
                        let sz = 8 + (rand() as usize % 50) * 8;
                        let p = alloc.malloc(sz);
                        assert!(!p.is_null());
                        // SAFETY: fresh block of `sz` bytes.
                        unsafe { fill_signature(p, sz) };
                        held.push((p as usize, sz));
                    }
                }
                for (p, sz) in held {
                    // SAFETY: we exclusively own every held block.
                    unsafe { check_signature(p as *mut u8, sz) };
                    alloc.free(p as *mut u8);
                }
            }));
        }
        for w in workers {
            w.join().expect("churn worker panicked");
        }
    });
}
