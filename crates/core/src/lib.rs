//! # ralloc — a lock-free, *recoverable* persistent-memory allocator
//!
//! A from-scratch Rust implementation of **Ralloc** from Cai, Wen, Beadle,
//! Kjellqvist, Hedayati and Scott, *Understanding and Optimizing
//! Persistent Memory Allocation* (U. Rochester TR #1008 / PPoPP 2020).
//!
//! Ralloc is built on the transient LRMalloc design (thread-local caches
//! over lock-free superblock lists) and makes it **recoverable**: after a
//! full-system crash, a tracing garbage collection from a set of
//! persistent roots reconstructs the allocator metadata so that *all and
//! only* the in-use blocks are allocated. The headline property is that
//! normal-operation persistence costs almost nothing: `malloc`/`free`
//! fast paths issue **zero** flushes, and slow paths flush a single cache
//! line (a superblock's size identity, the `used` watermark, or a root).
//!
//! ```
//! use ralloc::{Ralloc, RallocConfig};
//!
//! let heap = Ralloc::create(4 << 20, RallocConfig::default());
//! let p = heap.malloc(64);
//! assert!(!p.is_null());
//! heap.free(p);
//! heap.close().unwrap();
//! ```
//!
//! Crash-recovery, filter functions ([`Trace`]), and position-independent
//! pointers are demonstrated in the `examples/` directory and exercised
//! heavily by the `tests/` suite.
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`size_class`] | §4.2 | 39 small classes + large class 0 |
//! | [`anchor`] | §4.2 | packed avail/count/state CAS word |
//! | [`layout`] | §4.2, Fig. 2 | metadata/descriptor/superblock regions |
//! | [`descriptor`] | §4.2 | per-superblock descriptors |
//! | [`lists`] | §4.2 | ABA-counted Treiber stacks of descriptors |
//! | [`shard`] | beyond §4.2 | sharded partial lists + work stealing |
//! | `tcache` | §4.2/§4.4 | transient thread-local caches |
//! | [`heap`] | §4.1–§4.4 | shared state + the `Ralloc` handle: malloc/free/roots/close |
//! | `open` | §4.1 | create / open / adopt an image |
//! | `frontier` | §4.3 | grow/shrink of the committed prefix against `used` |
//! | `fill`, `flush`, `large` | §4.4 | the malloc/free slow paths |
//! | `config`, `stats` | — | `RallocConfig`, `SlowStats` |
//! | [`gc`] | §4.5.1 | filter functions & tracing |
//! | [`recovery`] | §4.5 | offline GC + shard-aware reconstruction |

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod anchor;
pub mod checker;
mod config;
pub mod descriptor;
mod fill;
pub mod flight;
mod flush;
mod frontier;
pub mod gc;
pub mod heap;
mod large;
pub mod layout;
pub mod lists;
mod open;
pub mod recovery;
pub mod shard;
pub mod size_class;
mod stats;
mod tcache;

pub use config::{parse_size, RallocConfig};
pub use flight::{FlightEvent, FlightScan};
pub use gc::{Trace, TraceFn, Tracer};
pub use heap::Ralloc;
pub use stats::SlowStats;
pub use checker::{check_heap, CheckReport, Violation};
pub use recovery::{RecoveryPhases, RecoveryStats};
pub use size_class::{MAX_SMALL, SB_SIZE};

// Re-export the substrate types callers need to configure a heap.
pub use nvm::{CrashInjector, CrashStyle, FlushModel, Mode};
pub use pptr::{AtomicLink, Link, Pptr};
// Re-export the whole observability layer: callers register their own
// metrics on `Ralloc::telemetry()` and read the exporters and event kinds
// without a separate dependency.
pub use telemetry;

/// The allocator interface shared by Ralloc and every baseline, used by
/// the data-structure and workload crates so a benchmark can swap
/// allocators (paper §6.1 compares five of them).
pub trait PersistentAllocator: Send + Sync {
    /// Allocate `size` bytes; null on exhaustion.
    fn malloc(&self, size: usize) -> *mut u8;
    /// Deallocate a block from this allocator.
    fn free(&self, ptr: *mut u8);
    /// Display name used in benchmark output.
    fn name(&self) -> &'static str;
    /// Write back `len` bytes at `ptr` (application-side durable
    /// linearizability, paper §2.2). Transient allocators make this a
    /// no-op, which is also why they cannot recover.
    fn persist(&self, ptr: *const u8, len: usize) {
        let _ = (ptr, len);
    }
    /// True if a power failure now keeps the `len` bytes at `ptr` as they
    /// read: what a structure asserts of a block before a link publishes
    /// it. Only a pool that models power failure can say no.
    fn is_durable(&self, ptr: *const u8, len: usize) -> bool {
        let _ = (ptr, len);
        true
    }
    /// What a structure subtracts from an address to store a link; 0 = absolute.
    fn region_base(&self) -> usize {
        0
    }
}

impl<T: PersistentAllocator + ?Sized> PersistentAllocator for std::sync::Arc<T> {
    fn malloc(&self, size: usize) -> *mut u8 {
        (**self).malloc(size)
    }

    fn free(&self, ptr: *mut u8) {
        (**self).free(ptr)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn persist(&self, ptr: *const u8, len: usize) {
        (**self).persist(ptr, len)
    }

    fn is_durable(&self, ptr: *const u8, len: usize) -> bool {
        (**self).is_durable(ptr, len)
    }

    fn region_base(&self) -> usize {
        (**self).region_base()
    }
}

impl PersistentAllocator for Ralloc {
    fn malloc(&self, size: usize) -> *mut u8 {
        Ralloc::malloc(self, size)
    }

    fn free(&self, ptr: *mut u8) {
        Ralloc::free(self, ptr)
    }

    fn name(&self) -> &'static str {
        // A transient Ralloc *is* the paper's LRMalloc datapoint (§6.1).
        if self.is_transient() {
            "lrmalloc"
        } else {
            "ralloc"
        }
    }

    fn persist(&self, ptr: *const u8, len: usize) {
        self.pool().persist(ptr as usize - self.pool().base() as usize, len);
    }

    fn is_durable(&self, ptr: *const u8, len: usize) -> bool {
        self.pool().is_durable((ptr as usize).wrapping_sub(self.pool().base() as usize), len)
    }

    fn region_base(&self) -> usize {
        Ralloc::region_base(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_heap() -> Ralloc {
        Ralloc::create(8 << 20, RallocConfig::default())
    }

    #[test]
    fn malloc_free_roundtrip() {
        let heap = small_heap();
        let p = heap.malloc(100);
        assert!(!p.is_null());
        assert!(heap.contains(p));
        // 100 B rounds up to the 112 B class.
        assert_eq!(heap.usable_size(p), 112);
        // SAFETY: `p` is a fresh block of at least 100 bytes.
        unsafe { std::ptr::write_bytes(p, 0xCD, 100) };
        heap.free(p);
    }

    #[test]
    fn malloc_zero_gives_unique_blocks() {
        let heap = small_heap();
        let a = heap.malloc(0);
        let b = heap.malloc(0);
        assert!(!a.is_null() && !b.is_null());
        assert_ne!(a, b);
        heap.free(a);
        heap.free(b);
    }

    #[test]
    fn blocks_are_distinct_and_disjoint() {
        let heap = small_heap();
        let mut seen = HashSet::new();
        let mut ptrs = Vec::new();
        for _ in 0..10_000 {
            let p = heap.malloc(64);
            assert!(!p.is_null());
            assert!(seen.insert(p as usize), "duplicate block {p:p}");
            ptrs.push(p);
        }
        // Disjointness of [p, p+64): since all are 64-aligned within
        // superblocks and distinct, spacing >= 64 suffices.
        let mut sorted: Vec<usize> = seen.iter().copied().collect();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= 64, "overlapping blocks");
        }
        for p in ptrs {
            heap.free(p);
        }
    }

    #[test]
    fn freed_memory_is_reused() {
        let heap = small_heap();
        // Allocate and free in a loop; the heap must not grow unboundedly.
        for _ in 0..50 {
            let ptrs: Vec<_> = (0..5000).map(|_| heap.malloc(128)).collect();
            for p in &ptrs {
                assert!(!p.is_null());
            }
            for p in ptrs {
                heap.free(p);
            }
        }
        // 5000 * 128B = 640 KB = ~10 superblocks; leave slack for caching.
        assert!(heap.used_superblocks() < 40, "heap grew to {}", heap.used_superblocks());
    }

    #[test]
    fn large_allocation_roundtrip() {
        let heap = small_heap();
        let p = heap.malloc(200_000); // 4 superblocks
        assert!(!p.is_null());
        assert_eq!(heap.usable_size(p), 200_000);
        // SAFETY: `p` is a fresh block of at least 200 000 bytes.
        unsafe { std::ptr::write_bytes(p, 0xEE, 200_000) };
        heap.free(p);
        // The span is reusable for small allocations afterwards.
        let q = heap.malloc(64);
        assert!(!q.is_null());
        heap.free(q);
    }

    #[test]
    fn large_blocks_do_not_overlap_small() {
        let heap = small_heap();
        let big = heap.malloc(100_000);
        let smalls: Vec<_> = (0..1000).map(|_| heap.malloc(64)).collect();
        let big_range = big as usize..big as usize + 100_000;
        for s in &smalls {
            assert!(!big_range.contains(&(*s as usize)));
        }
        heap.free(big);
        for s in smalls {
            heap.free(s);
        }
    }

    #[test]
    fn exhaustion_returns_null_not_panic() {
        let heap = Ralloc::create(256 * 1024, RallocConfig::default());
        let mut ptrs = Vec::new();
        loop {
            let p = heap.malloc(8192);
            if p.is_null() {
                break;
            }
            ptrs.push(p);
            assert!(ptrs.len() < 10_000, "never exhausted");
        }
        // Freeing restores service.
        for p in ptrs {
            heap.free(p);
        }
        assert!(!heap.malloc(8192).is_null());
    }

    #[test]
    fn fast_path_issues_no_flushes() {
        let heap = small_heap();
        // Warm the cache so the next ops are pure fast path.
        let warm = heap.malloc(64);
        let before = heap.pool().stats().snapshot();
        for _ in 0..100 {
            let p = heap.malloc(64);
            heap.free(p);
        }
        let after = heap.pool().stats().snapshot();
        assert_eq!(after.flush_calls, before.flush_calls, "fast path must not flush");
        assert_eq!(after.fences, before.fences, "fast path must not fence");
        heap.free(warm);
    }

    #[test]
    fn slow_path_flushes_once_per_superblock() {
        let heap = small_heap();
        let before = heap.pool().stats().snapshot();
        // 64 B class: 1024 blocks per superblock. Allocating 3000 blocks
        // takes 3 superblocks: 3 size-identity persists + 3 `used`
        // persists (6 fences), not 3000.
        let ptrs: Vec<_> = (0..3000).map(|_| heap.malloc(64)).collect();
        let after = heap.pool().stats().snapshot();
        let d = after.since(&before);
        assert!(d.fences <= 8, "too many fences on slow path: {}", d.fences);
        for p in ptrs {
            heap.free(p);
        }
    }

    #[test]
    fn transient_mode_never_flushes() {
        let heap = Ralloc::create(4 << 20, RallocConfig::transient());
        let ptrs: Vec<_> = (0..5000).map(|_| heap.malloc(64)).collect();
        for p in ptrs {
            heap.free(p);
        }
        let s = heap.pool().stats().snapshot();
        assert_eq!(s.flush_calls, 0);
        assert_eq!(s.fences, 0);
    }

    #[test]
    fn roots_round_trip() {
        let heap = small_heap();
        let p = heap.malloc(64);
        heap.set_root::<u64>(3, p as *const u64);
        assert_eq!(heap.get_root::<u64>(3) as *mut u8, p);
        assert!(heap.get_root_raw(0).is_null());
        heap.set_root::<u64>(3, std::ptr::null());
        assert!(heap.get_root::<u64>(3).is_null());
        heap.free(p);
    }

    #[test]
    #[should_panic(expected = "root index")]
    fn root_index_bounds_checked() {
        let heap = small_heap();
        heap.set_root::<u64>(1024, std::ptr::null());
    }

    #[test]
    fn multithreaded_malloc_free_disjoint() {
        let heap = Ralloc::create(64 << 20, RallocConfig::default());
        let n_threads = 8;
        let per = 2000;
        let all: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let heap = heap.clone();
                    s.spawn(move || {
                        let mut mine = Vec::with_capacity(per);
                        for i in 0..per {
                            let sz = 8 + (i % 48) * 8;
                            let p = heap.malloc(sz);
                            assert!(!p.is_null());
                            // Write a signature to catch overlap.
                            // SAFETY: `p` is a fresh block of at least 8 bytes, this thread's own.
                            unsafe { std::ptr::write(p as *mut u64, p as u64) };
                            mine.push(p as usize);
                        }
                        // Verify all signatures intact, then free half.
                        for &p in &mine {
                            // SAFETY: `p` is still allocated and holds the signature written above.
                            assert_eq!(unsafe { std::ptr::read(p as *const u64) }, p as u64);
                        }
                        for &p in mine.iter().skip(per / 2) {
                            heap.free(p as *mut u8);
                        }
                        mine.truncate(per / 2);
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Addresses still live across all threads are distinct.
        let mut seen = HashSet::new();
        for v in &all {
            for &p in v {
                assert!(seen.insert(p), "cross-thread duplicate");
                heap.free(p as *mut u8);
            }
        }
    }

    #[test]
    fn producer_consumer_bleeding() {
        // Larson-style: blocks allocated in one thread, freed in another.
        let heap = Ralloc::create(32 << 20, RallocConfig::default());
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        std::thread::scope(|s| {
            let producer = heap.clone();
            s.spawn(move || {
                for _ in 0..20_000 {
                    let p = producer.malloc(64);
                    assert!(!p.is_null());
                    tx.send(p as usize).unwrap();
                }
            });
            let consumer = heap.clone();
            s.spawn(move || {
                let mut n = 0;
                while let Ok(p) = rx.recv() {
                    consumer.free(p as *mut u8);
                    n += 1;
                }
                assert_eq!(n, 20_000);
            });
        });
    }

    #[test]
    fn close_clears_dirty_flag() {
        let heap = small_heap();
        assert!(heap.is_dirty());
        heap.close().unwrap();
        assert!(!heap.is_dirty());
    }

    #[test]
    fn clean_restart_via_image_preserves_heap() {
        let heap = small_heap();
        let p = heap.malloc(64);
        // SAFETY: `p` is a fresh block of at least 8 bytes.
        unsafe { std::ptr::write(p as *mut u64, 0x1122334455667788) };
        heap.set_root::<u64>(0, p as *const u64);
        heap.close().unwrap();
        let image = heap.pool().persistent_image();
        drop(heap);

        let (heap2, dirty) = Ralloc::from_image(&image, RallocConfig::default());
        assert!(!dirty, "clean shutdown must not require recovery");
        let q = heap2.get_root::<u64>(0);
        assert!(!q.is_null());
        // SAFETY: the root names the rooted 64-byte block, which survived the restart.
        assert_eq!(unsafe { *q }, 0x1122334455667788);
        // The heap is immediately usable without recovery.
        let r = heap2.malloc(64);
        assert!(!r.is_null());
    }

    #[test]
    #[should_panic(expected = "metadata-format version")]
    fn downlevel_image_version_is_refused_not_erased() {
        let heap = small_heap();
        heap.close().unwrap();
        let mut image = heap.pool().persistent_image();
        image[0] = 1; // little-endian low byte of MAGIC = layout version
        let _ = Ralloc::from_image(&image, RallocConfig::default());
    }

    /// v3 to v8 were real formats of this allocator; nothing migrates
    /// them any more. Each must be refused by name — clean or dirty,
    /// through the image path and the file path — and left untouched.
    /// So must a file that was never a heap: opening writes through.
    #[test]
    fn older_format_versions_are_refused_by_name_and_left_untouched() {
        let dir = std::env::temp_dir().join(format!("ralloc-oldfmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let refusal = |r: std::thread::Result<()>| -> String {
            let payload = r.expect_err("an older-format image must be refused");
            payload.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for version in [3u8, 4, 5, 6, 7, 8] {
            for clean in [true, false] {
                let heap = small_heap();
                let p = heap.malloc(64);
                heap.set_root::<u64>(0, p as *const u64);
                if clean {
                    heap.close().unwrap();
                }
                let mut image = heap.pool().persistent_image();
                // The older formats had the same geometry and header
                // offsets; the magic alone decides the refusal.
                image[0] = version;
                let what = format!("v{version} {}", if clean { "clean" } else { "dirty" });
                let want = format!("metadata-format version {version} ");

                let msg = refusal(std::panic::catch_unwind(|| {
                    let _ = Ralloc::from_image(&image, RallocConfig::default());
                }));
                assert!(msg.contains(&want), "{what} via from_image: {msg}");

                let path = dir.join(format!("v{version}-{clean}.pool"));
                std::fs::write(&path, &image).unwrap();
                let err = Ralloc::open_file(&path, 8 << 20, RallocConfig::default())
                    .expect_err("an older-format file must be refused");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
                let msg = err.to_string();
                assert!(msg.contains(&want), "{what} via open_file: {msg}");
                let file = format!("v{version}-{clean}.pool");
                assert!(msg.contains(&file), "{what}: no path in {msg}");
                assert!(std::fs::read(&path).unwrap() == image, "{what}: refused file was modified");
            }
        }
        // A wrong path, a file too short to hold a header, and a heap
        // cut off mid-line.
        let whole = small_heap().pool().persistent_image();
        let cut = &whole[..whole.len() - 10];
        let notes = b"dear diary, ".repeat(400);
        for (name, bytes) in [("notes.txt", &notes[..]), ("short", &[7u8; 10]), ("cut", cut)] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let err = Ralloc::open_file(&path, 8 << 20, RallocConfig::default())
                .expect_err("a file that is not a heap must be refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
            assert!(err.to_string().contains(name), "{name}: the refusal must name the path: {err}");
            assert!(std::fs::read(&path).unwrap() == bytes, "{name}: refused file was modified");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_ralloc_image_is_initialized_fresh() {
        let image = vec![0u8; 4 << 20];
        let (heap, dirty) = Ralloc::from_image(&image, RallocConfig::default());
        assert!(!dirty);
        assert!(!heap.malloc(64).is_null());
    }

    #[test]
    fn dirty_flag_set_on_reopen_without_close() {
        let heap = small_heap();
        let _ = heap.malloc(64);
        let image = heap.pool().persistent_image();
        let (_heap2, dirty) = Ralloc::from_image(&image, RallocConfig::default());
        assert!(dirty, "missing close() must flag a dirty restart");
    }

    #[test]
    fn thread_exit_returns_cached_blocks() {
        let heap = small_heap();
        let handle = {
            let heap = heap.clone();
            std::thread::spawn(move || {
                let p = heap.malloc(64);
                heap.free(p); // lands in that thread's cache
            })
        };
        handle.join().unwrap();
        // After the thread exits, its cache was drained: a fresh fill can
        // obtain the block again. (Smoke check: allocation still works and
        // no superblock was lost.)
        let p = heap.malloc(64);
        assert!(!p.is_null());
        heap.free(p);
    }
}
