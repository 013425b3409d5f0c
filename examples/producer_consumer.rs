//! The prod-con workload (paper Fig. 5d) as a standalone demo: pairs of
//! threads moving allocator-backed objects through lock-free
//! Michael–Scott queues ([`pds::PQueue`], the queue the crash harness
//! kills), with a side-by-side allocator comparison.
//!
//! ```text
//! cargo run --release --example producer_consumer -- [threads] [objects]
//! ```

use std::time::Instant;

use nvm::FlushModel;
use pds::PQueue;
use ralloc::PersistentAllocator;
use workloads::{make_allocator, AllocKind};

fn main() {
    let threads: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let objects: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let pairs = (threads / 2).max(1);
    let per_pair = objects / pairs;
    println!("{pairs} producer/consumer pair(s), {per_pair} 64 B objects each\n");
    println!("{:<10} {:>12} {:>14}", "allocator", "seconds", "objs/sec");

    for kind in AllocKind::all() {
        let alloc = make_allocator(kind, 512 << 20, FlushModel::optane());
        let t0 = Instant::now();
        let queues: Vec<_> = (0..pairs).map(|_| PQueue::new(alloc.clone())).collect();
        std::thread::scope(|s| {
            for queue in &queues {
                // Producer: allocate, initialize, publish.
                {
                    let alloc = alloc.clone();
                    s.spawn(move || {
                        for i in 0..per_pair {
                            let obj = alloc.malloc(64);
                            assert!(!obj.is_null());
                            // SAFETY: fresh 64-byte block.
                            unsafe { std::ptr::write(obj as *mut u64, i as u64) };
                            while !queue.enqueue(obj as u64) {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
                // Consumer: consume, verify, deallocate.
                {
                    let alloc = alloc.clone();
                    s.spawn(move || {
                        let mut got = 0;
                        while got < per_pair {
                            if let Some(addr) = queue.dequeue() {
                                let obj = addr as *mut u8;
                                // SAFETY: written by the producer.
                                let v = unsafe { std::ptr::read(obj as *const u64) };
                                assert!(v < per_pair as u64);
                                alloc.free(obj);
                                got += 1;
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
            }
        });
        for queue in queues {
            queue.destroy();
        }
        let dt = t0.elapsed();
        println!(
            "{:<10} {:>12.4} {:>14.0}",
            kind.name(),
            dt.as_secs_f64(),
            (pairs * per_pair) as f64 / dt.as_secs_f64()
        );
    }
}
