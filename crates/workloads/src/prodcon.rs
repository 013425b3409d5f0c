//! Prod-con (paper Fig. 5d): the Makalu producer/consumer workload.
//!
//! `threads/2` pairs of threads share one Michael–Scott queue each. The
//! producer allocates 64-byte objects and enqueues pointers to them; the
//! consumer dequeues and deallocates. Every block therefore crosses a
//! thread boundary before being freed. The paper allocates 10⁷·2/t
//! objects per pair; `scale` shrinks that. Metric: wall-clock time.
//!
//! The queue is [`PQueue`], the one the kill harness crash-tests: its
//! anchor and nodes come from the allocator under test, and it persists
//! each node, link and head as the paper's §2.2 asks of the application.
//! A persist costs what the allocator's `persist` costs: a flush and a
//! fence on the four pool-backed allocators, nothing on `system`.

use std::time::{Duration, Instant};

use pds::PQueue;
use ralloc::PersistentAllocator;

use crate::DynAlloc;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Total threads; pairs = max(threads/2, 1).
    pub threads: usize,
    /// Objects moved through each pair's queue.
    pub objects_per_pair: usize,
    /// Object size (paper: 64 B).
    pub size: usize,
}

impl Params {
    /// Scaled configuration: total objects fixed across thread counts,
    /// split per pair as in the paper (10⁷·2/t each).
    pub fn scaled(threads: usize, scale: f64) -> Params {
        let pairs = (threads / 2).max(1);
        let total = ((400_000.0 * scale) as usize).max(2_000);
        Params { threads, objects_per_pair: total / pairs, size: 64 }
    }
}

/// Run prod-con; returns elapsed wall-clock time.
pub fn run(alloc: &DynAlloc, p: Params) -> Duration {
    let pairs = (p.threads / 2).max(1);
    let start = Instant::now();
    let queues: Vec<PQueue<DynAlloc>> = (0..pairs).map(|_| PQueue::new(alloc.clone())).collect();
    std::thread::scope(|s| {
        for (pair, queue) in queues.iter().enumerate() {
            let n = p.objects_per_pair;
            // Producer
            {
                let alloc = alloc.clone();
                s.spawn(move || {
                    for i in 0..n {
                        let ptr = alloc.malloc(p.size);
                        assert!(!ptr.is_null(), "prodcon: allocator exhausted");
                        // SAFETY: fresh block of >= 16 bytes.
                        unsafe {
                            std::ptr::write(ptr as *mut u64, (pair * n + i) as u64);
                        }
                        while !queue.enqueue(ptr as u64) {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // Consumer
            {
                let alloc = alloc.clone();
                s.spawn(move || {
                    let mut got = 0usize;
                    while got < n {
                        match queue.dequeue() {
                            Some(addr) => {
                                let ptr = addr as *mut u8;
                                // SAFETY: the producer wrote this word.
                                let _tag = unsafe { std::ptr::read(ptr as *const u64) };
                                alloc.free(ptr);
                                got += 1;
                            }
                            None => std::hint::spin_loop(),
                        }
                    }
                });
            }
        }
    });
    for queue in queues {
        queue.destroy();
    }
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
            let a = make_allocator(kind, 64 << 20, FlushModel::free());
            let d = run(&a, Params { threads: 2, objects_per_pair: 5_000, size: 64 });
            assert!(d.as_nanos() > 0, "{kind:?}");
        }
    }

    #[test]
    fn single_thread_degenerates_to_one_pair() {
        let a = make_allocator(AllocKind::Ralloc, 32 << 20, FlushModel::free());
        run(&a, Params { threads: 1, objects_per_pair: 2_000, size: 64 });
    }

    #[test]
    fn multiple_pairs() {
        let a = make_allocator(AllocKind::Ralloc, 64 << 20, FlushModel::free());
        run(&a, Params { threads: 4, objects_per_pair: 2_000, size: 64 });
    }
}
