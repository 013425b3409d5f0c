//! Makalu-like lock-based persistent allocator (Bhandari et al.,
//! OOPSLA'16), simulated per DESIGN.md.
//!
//! Cost model reproduced from the original design:
//!
//! * every alloc and free **eagerly persists** a per-block allocation
//!   header (one store + flush + fence) — Ralloc's §6.2 explanation for
//!   the ~10× gap on allocation-heavy workloads;
//! * a central pool per size class behind a mutex, accessed whenever a
//!   thread-local buffer runs dry or over-fills;
//! * over-full thread buffers return only **half** their blocks (§6.3),
//!   trading some balance for locality (the memcached edge).
//!
//! The model covers the online cost only: it has no recovery. The paper's
//! experiments exercise only Makalu's allocation paths, no harness
//! crash-tests this simulation and no figure times a recovery of it, so
//! its pool is always `Mode::Direct`.

use std::sync::Arc;

use parking_lot::Mutex;

use nvm::{FlushModel, Mode, PmemPool};
use ralloc::PersistentAllocator;

use crate::chunked::{
    carve, class_block_size, class_max_count, locate, set_alloc_state, set_chunk_class,
    size_class_of, used_chunks, ChunkGeo, Spans, NUM_CLASSES,
};
use crate::tls::{self, CacheOwner};

pub(crate) struct MakaluInner {
    pool: PmemPool,
    geo: ChunkGeo,
    id: u64,
    /// Central block pools (absolute addresses), one mutex per class.
    central: Vec<Mutex<Vec<usize>>>,
    /// Free chunk spans for large allocations.
    spans: Spans,
}

impl CacheOwner for MakaluInner {
    fn drain(&self, caches: &mut [Vec<usize>]) {
        for (class, cache) in caches.iter_mut().enumerate().skip(1) {
            if !cache.is_empty() {
                self.central[class].lock().append(cache);
            }
        }
    }

    fn cache_id(&self) -> u64 {
        self.id
    }
}

/// The Makalu-like baseline allocator.
pub struct MakaluSim {
    inner: Arc<MakaluInner>,
}

impl MakaluSim {
    /// Create a heap with at least `capacity` bytes of chunk area.
    pub fn create(capacity: usize, flush_model: FlushModel) -> MakaluSim {
        let len = ChunkGeo::pool_len_for_capacity(capacity);
        let pool = PmemPool::with_reserve(len, len, Mode::Direct, flush_model);
        let geo = ChunkGeo::new(pool.len());
        MakaluSim {
            inner: Arc::new(MakaluInner {
                pool,
                geo,
                id: tls::next_id(),
                central: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
                spans: Spans::default(),
            }),
        }
    }

    /// The underlying pool (statistics).
    pub fn pool(&self) -> &PmemPool {
        &self.inner.pool
    }

    fn alloc_small(&self, class: u32) -> *mut u8 {
        let inner = &*self.inner;
        tls::with_caches(&self.inner, NUM_CLASSES, |caches| {
            let cache = &mut caches[class as usize];
            if cache.is_empty() && !self.refill(class, cache) {
                return std::ptr::null_mut();
            }
            let addr = cache.pop().unwrap();
            // Eager persistence: the per-block allocation header.
            let (chunk, blk, _, _) = locate(&inner.pool, &inner.geo, addr as *mut u8);
            set_alloc_state(&inner.pool, &inner.geo, chunk, blk, true);
            addr as *mut u8
        })
    }

    fn refill(&self, class: u32, cache: &mut Vec<usize>) -> bool {
        let inner = &*self.inner;
        let mc = class_max_count(class) as usize;
        let refill = (mc / 2).max(1);
        let mut central = inner.central[class as usize].lock();
        if central.len() < refill {
            // Carve and split a fresh chunk inside the lock (Makalu's
            // central pool growth is serialized).
            match carve(&inner.pool, &inner.geo, 1) {
                Some(i) => {
                    let bsize = class_block_size(class) as u64;
                    set_chunk_class(&inner.pool, &inner.geo, i, class, bsize);
                    let base = inner.pool.base() as usize + inner.geo.chunk(i);
                    for blk in 0..mc {
                        central.push(base + blk * bsize as usize);
                    }
                }
                None => {
                    if central.is_empty() {
                        return false;
                    }
                }
            }
        }
        let take = refill.min(central.len());
        let at = central.len() - take;
        cache.extend(central.drain(at..));
        true
    }

    fn alloc_large(&self, size: usize) -> *mut u8 {
        let inner = &*self.inner;
        match inner.spans.take(&inner.pool, &inner.geo, size) {
            Some(head) => (inner.pool.base() as usize + inner.geo.chunk(head)) as *mut u8,
            None => std::ptr::null_mut(),
        }
    }
}

impl PersistentAllocator for MakaluSim {
    fn malloc(&self, size: usize) -> *mut u8 {
        match size_class_of(size) {
            Some(class) => self.alloc_small(class),
            None => self.alloc_large(size),
        }
    }

    fn free(&self, ptr: *mut u8) {
        assert!(!ptr.is_null(), "free(null)");
        let inner = &*self.inner;
        let (chunk, blk, bsize, class) = locate(&inner.pool, &inner.geo, ptr);
        if class == 0 {
            inner.spans.give(&inner.pool, &inner.geo, chunk, bsize);
            return;
        }
        // Eager persistence of the freed state.
        set_alloc_state(&inner.pool, &inner.geo, chunk, blk, false);
        tls::with_caches(&self.inner, NUM_CLASSES, |caches| {
            let cache = &mut caches[class as usize];
            cache.push(ptr as usize);
            let cap = class_max_count(class) as usize;
            if cache.len() > cap {
                // Return HALF, keep half (Makalu's locality-friendly
                // policy, paper §6.3).
                let keep = cache.len() / 2;
                let mut central = inner.central[class as usize].lock();
                central.extend(cache.drain(keep..));
            }
        })
    }

    fn name(&self) -> &'static str {
        "makalu"
    }

    fn persist(&self, ptr: *const u8, len: usize) {
        let off = ptr as usize - self.inner.pool.base() as usize;
        self.inner.pool.persist(off, len);
    }
}

impl std::fmt::Debug for MakaluSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MakaluSim")
            .field("used_chunks", &used_chunks(&self.inner.pool))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn heap() -> MakaluSim {
        MakaluSim::create(16 << 20, FlushModel::free())
    }

    #[test]
    fn alloc_free_roundtrip() {
        let m = heap();
        let p = m.malloc(64);
        assert!(!p.is_null());
        // SAFETY: a live 64-byte block.
        unsafe { std::ptr::write_bytes(p, 1, 64) };
        m.free(p);
    }

    #[test]
    fn blocks_distinct() {
        let m = heap();
        let mut seen = HashSet::new();
        for _ in 0..5000 {
            let p = m.malloc(48);
            assert!(!p.is_null());
            assert!(seen.insert(p as usize));
        }
    }

    #[test]
    fn every_op_persists() {
        let m = MakaluSim::create(4 << 20, FlushModel::free());
        let p1 = m.malloc(64); // may carve (extra persists)
        let before = m.pool().stats().snapshot();
        let p2 = m.malloc(64);
        m.free(p2);
        m.free(p1);
        let d = m.pool().stats().snapshot().since(&before);
        assert!(d.fences >= 3, "Makalu must persist every op, saw {} fences", d.fences);
    }

    #[test]
    fn large_roundtrip_and_reuse() {
        let m = heap();
        let p = m.malloc(200_000);
        assert!(!p.is_null());
        m.free(p);
        let q = m.malloc(150_000);
        assert!(!q.is_null());
        assert_eq!(p, q, "freed span should be reused first-fit");
    }

    #[test]
    fn concurrent_stress() {
        let m = Arc::new(heap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..3000 {
                        let p = m.malloc(8 + (i % 32) * 8);
                        assert!(!p.is_null());
                        // SAFETY: a live block of at least 8 bytes.
                        unsafe { std::ptr::write(p as *mut u64, p as u64) };
                        held.push(p);
                        if held.len() > 64 {
                            let q = held.swap_remove(i % held.len());
                            // SAFETY: `q` is still live; this thread wrote it.
                            assert_eq!(unsafe { std::ptr::read(q as *const u64) }, q as u64);
                            m.free(q);
                        }
                    }
                    for p in held {
                        m.free(p);
                    }
                });
            }
        });
    }
}
