//! Threadtest (paper Fig. 5a): the Hoard allocator's classic workload.
//!
//! Every thread repeatedly allocates a batch of 64-byte objects and then
//! deallocates them, with no sharing between threads. The paper runs
//! 10⁴ iterations of 10⁵ objects; `scale` shrinks both for smoke runs.
//! Metric: wall-clock time (lower is better).

use std::time::{Duration, Instant};

use ralloc::PersistentAllocator;

use crate::DynAlloc;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Worker threads.
    pub threads: usize,
    /// Batches per thread.
    pub iterations: usize,
    /// Objects per batch.
    pub objects: usize,
    /// Object size in bytes (paper: 64).
    pub size: usize,
}

impl Params {
    /// A scaled configuration: `scale` = 1.0 approximates the paper run
    /// (within laptop reach), smaller values shrink proportionally.
    pub fn scaled(threads: usize, scale: f64) -> Params {
        Params {
            threads,
            iterations: ((100.0 * scale) as usize).max(1),
            objects: ((10_000.0 * scale) as usize).max(64),
            size: 64,
        }
    }
}

/// Run threadtest; returns elapsed wall-clock time.
pub fn run(alloc: &DynAlloc, p: Params) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..p.threads {
            let alloc = alloc.clone();
            s.spawn(move || {
                let mut batch: Vec<*mut u8> = Vec::with_capacity(p.objects);
                for _ in 0..p.iterations {
                    for _ in 0..p.objects {
                        let ptr = alloc.malloc(p.size);
                        assert!(!ptr.is_null(), "threadtest: allocator exhausted");
                        // Touch the block like a real program would.
                        // SAFETY: freshly allocated block of >= size bytes.
                        unsafe { std::ptr::write(ptr as *mut u64, ptr as u64) };
                        batch.push(ptr);
                    }
                    for ptr in batch.drain(..) {
                        alloc.free(ptr);
                    }
                }
            });
        }
    });
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_allocator, AllocKind};
    use nvm::FlushModel;

    #[test]
    fn runs_on_every_allocator() {
        for kind in AllocKind::all() {
            let a = make_allocator(kind, 32 << 20, FlushModel::free());
            let d = run(&a, Params { threads: 2, iterations: 3, objects: 500, size: 64 });
            assert!(d.as_nanos() > 0, "{kind:?}");
        }
    }

    /// Fig. 5a's workload on a heap that commits 2 MiB at creation: the
    /// batches outgrow it, so the frontier grows while threads allocate.
    #[test]
    fn runs_on_a_heap_that_grows_from_a_2_mib_commit() {
        use ralloc::{Ralloc, RallocConfig};
        let cfg = RallocConfig { flush_model: FlushModel::free(), initial_capacity: Some(2 << 20), ..Default::default() };
        let heap = std::sync::Arc::new(Ralloc::create(512 << 20, cfg));
        run(&(heap.clone() as DynAlloc), Params { threads: 2, iterations: 3, objects: 20_000, size: 64 });
        assert!(heap.slow_stats().heap_grows.get() > 0, "the heap never grew past its 2 MiB commit");
    }

    #[test]
    fn steady_state_memory_bounded() {
        let a = make_allocator(AllocKind::Ralloc, 16 << 20, FlushModel::free());
        // Repeated batches must reuse memory, not exhaust 16 MiB.
        run(&a, Params { threads: 2, iterations: 50, objects: 2_000, size: 64 });
    }
}
