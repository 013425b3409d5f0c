//! PMDK-libpmemobj-like allocator simulation (Rudoff & Slusarz).
//!
//! PMDK exposes a `malloc_to`/`free_from` interface: an allocation is
//! atomically bound to a destination pointer *inside the pool* through a
//! persisted redo log, so a crash can never leak the block — at the price
//! of several fenced flushes and lock acquisition on **every** operation.
//! This simulation reproduces that cost profile:
//!
//! 1. write + persist a redo-log record (intent),
//! 2. pop the class's **persistent** free list (head word persisted),
//! 3. persist the per-block allocation byte,
//! 4. write + persist the destination pointer,
//! 5. retire + persist the log.
//!
//! That is 4–5 fenced flushes per operation versus Ralloc's ~0, matching
//! the shape of the paper's Figure 5 (PMDK slowest, flat scaling). A
//! per-class mutex serializes the metadata updates, as libpmemobj's
//! arena locks do under contention.
//!
//! The plain `malloc`/`free` trait methods bind to a per-class scratch
//! destination inside the pool — exactly the "local dummy variable"
//! shim the paper used to run malloc/free benchmarks against PMDK (§6.1).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use nvm::{CrashInjector, FlushModel, Mode, PmemPool};
use ralloc::PersistentAllocator;

use crate::chunked::{
    self, alloc_state, carve, chunk_class, class_block_size, class_max_count, locate,
    set_alloc_state, set_chunk_class, size_class_of, used_chunks, ChunkGeo, CHUNK_SIZE,
    CUSTOM_OFF, NUM_CLASSES,
};

// Persistent layout inside the header's custom area:
//   CUSTOM_OFF + 16*class      : free-list head (block pool-offset + 1)
//   CUSTOM_OFF + 16*class + 8  : scratch destination word for this class
//   LOG_OFF .. LOG_OFF+40      : redo log {op, class, block_off+1, dest_off, size}
const HEADS_OFF: usize = CUSTOM_OFF;
const LOG_OFF: usize = CUSTOM_OFF + 16 * NUM_CLASSES;
const LOG_LEN: usize = 40;

const OP_NONE: u64 = 0;
const OP_ALLOC: u64 = 1;
const OP_FREE: u64 = 2;

struct PmdkInner {
    pool: PmemPool,
    geo: ChunkGeo,
    class_locks: Vec<Mutex<()>>,
    large_lock: Mutex<Vec<(usize, usize)>>,
}

/// The PMDK-like baseline allocator.
pub struct PmdkSim {
    inner: Arc<PmdkInner>,
}

impl PmdkSim {
    /// Create a heap with at least `capacity` bytes of chunk area.
    pub fn create(capacity: usize, mode: Mode, flush_model: FlushModel) -> PmdkSim {
        Self::create_with(capacity, mode, flush_model, None)
    }

    /// [`PmdkSim::create`] with a crash injector for recovery tests.
    pub fn create_with(
        capacity: usize,
        mode: Mode,
        flush_model: FlushModel,
        injector: Option<Arc<CrashInjector>>,
    ) -> PmdkSim {
        let len = ChunkGeo::pool_len_for_capacity(capacity);
        let pool = PmemPool::with_reserve(len, len, mode, flush_model, injector);
        let geo = ChunkGeo::new(pool.len());
        PmdkSim {
            inner: Arc::new(PmdkInner {
                pool,
                geo,
                class_locks: (0..NUM_CLASSES).map(|_| Mutex::new(())).collect(),
                large_lock: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &PmemPool {
        &self.inner.pool
    }

    fn head_off(class: u32) -> usize {
        HEADS_OFF + 16 * class as usize
    }

    fn scratch_off(class: u32) -> usize {
        HEADS_OFF + 16 * class as usize + 8
    }

    fn word(&self, off: usize) -> u64 {
        // SAFETY: header words, 8-aligned.
        unsafe { self.inner.pool.atomic_u64(off) }.load(Ordering::Acquire)
    }

    fn set_word(&self, off: usize, v: u64) {
        // SAFETY: header words, 8-aligned.
        unsafe { self.inner.pool.atomic_u64(off) }.store(v, Ordering::Release);
        self.inner.pool.persist(off, 8);
    }

    fn write_log(&self, op: u64, class: u64, block: u64, dest: u64, size: u64) {
        let pool = &self.inner.pool;
        // SAFETY: log words in the header, 8-aligned.
        unsafe {
            pool.atomic_u64(LOG_OFF).store(op, Ordering::Relaxed);
            pool.atomic_u64(LOG_OFF + 8).store(class, Ordering::Relaxed);
            pool.atomic_u64(LOG_OFF + 16).store(block, Ordering::Relaxed);
            pool.atomic_u64(LOG_OFF + 24).store(dest, Ordering::Relaxed);
            pool.atomic_u64(LOG_OFF + 32).store(size, Ordering::Release);
        }
        pool.persist(LOG_OFF, LOG_LEN);
    }

    /// Pop the persistent free list of `class`; refills by carving a
    /// chunk when empty. Caller holds the class lock.
    fn pop_free(&self, class: u32) -> Option<usize> {
        let inner = &*self.inner;
        let head_off = Self::head_off(class);
        loop {
            let head = self.word(head_off);
            if let Some(block_off) = head.checked_sub(1) {
                // SAFETY: block first word, 8-aligned (class sizes are).
                let next = unsafe { inner.pool.atomic_u64(block_off as usize) }
                    .load(Ordering::Acquire);
                self.set_word(head_off, next);
                return Some(block_off as usize);
            }
            // Refill: carve a chunk, build its persistent chain.
            let i = carve(&inner.pool, &inner.geo, 1)?;
            let bsize = class_block_size(class) as usize;
            let mc = class_max_count(class) as usize;
            set_chunk_class(&inner.pool, &inner.geo, i, class, bsize as u64);
            let chunk_off = inner.geo.chunk(i);
            for blk in 0..mc {
                let boff = chunk_off + blk * bsize;
                let next = if blk + 1 < mc { (chunk_off + (blk + 1) * bsize) as u64 + 1 } else { 0 };
                // SAFETY: block first words.
                unsafe { inner.pool.atomic_u64(boff) }.store(next, Ordering::Relaxed);
            }
            inner.pool.persist(chunk_off, mc * bsize);
            self.set_word(head_off, chunk_off as u64 + 1);
        }
    }

    /// The PMDK-style primitive: allocate and atomically bind the block's
    /// pool offset (+1) to the destination word at pool offset `dest_off`.
    /// Returns the block address, or null on exhaustion.
    pub fn malloc_to(&self, size: usize, dest_off: usize) -> *mut u8 {
        let class = match size_class_of(size) {
            Some(c) => c,
            None => return self.malloc_large_to(size, dest_off),
        };
        let inner = &*self.inner;
        let _g = inner.class_locks[class as usize].lock();
        // 1. intent
        self.write_log(OP_ALLOC, class as u64, 0, dest_off as u64, size as u64);
        // 2. pop persistent free list
        let Some(block_off) = self.pop_free(class) else {
            self.write_log(OP_NONE, 0, 0, 0, 0);
            return std::ptr::null_mut();
        };
        // Record the popped block in the log so recovery can roll back.
        // SAFETY: log word.
        unsafe { inner.pool.atomic_u64(LOG_OFF + 16) }
            .store(block_off as u64 + 1, Ordering::Release);
        inner.pool.persist(LOG_OFF + 16, 8);
        // 3. allocation byte
        let chunk = inner.geo.chunk_index_of(block_off).unwrap();
        let bsize = class_block_size(class) as usize;
        let blk = ((block_off - inner.geo.chunk(chunk)) / bsize) as u32;
        set_alloc_state(&inner.pool, &inner.geo, chunk, blk, true);
        // 4. publish to destination
        self.set_word(dest_off, block_off as u64 + 1);
        // 5. retire log
        self.write_log(OP_NONE, 0, 0, 0, 0);
        (inner.pool.base() as usize + block_off) as *mut u8
    }

    /// The matching primitive: atomically unbind the destination word and
    /// return its block to the free list.
    pub fn free_from(&self, dest_off: usize) {
        let inner = &*self.inner;
        let bound = self.word(dest_off);
        let Some(block_off) = bound.checked_sub(1) else {
            return;
        };
        let (_, _, _, class) = locate(
            &inner.pool,
            &inner.geo,
            (inner.pool.base() as usize + block_off as usize) as *mut u8,
        );
        if class == 0 {
            self.free_from_locked(dest_off);
            return;
        }
        let _g = inner.class_locks[class as usize].lock();
        self.free_from_locked(dest_off);
    }

    /// Body of `free_from`; the caller holds the class lock (or the block
    /// is large, whose path synchronizes on `large_lock` internally).
    fn free_from_locked(&self, dest_off: usize) {
        let inner = &*self.inner;
        let bound = self.word(dest_off);
        let Some(block_off) = bound.checked_sub(1) else {
            return;
        };
        let (chunk, blk, bsize, class) = locate(
            &inner.pool,
            &inner.geo,
            (inner.pool.base() as usize + block_off as usize) as *mut u8,
        );
        if class == 0 {
            let span = (bsize as usize).div_ceil(CHUNK_SIZE);
            set_alloc_state(&inner.pool, &inner.geo, chunk, 0, false);
            self.set_word(dest_off, 0);
            inner.large_lock.lock().push((chunk, span));
            return;
        }
        self.write_log(OP_FREE, class as u64, block_off + 1, dest_off as u64, bsize);
        set_alloc_state(&inner.pool, &inner.geo, chunk, blk, false);
        let head_off = Self::head_off(class);
        let head = self.word(head_off);
        // SAFETY: block first word.
        unsafe { inner.pool.atomic_u64(block_off as usize) }.store(head, Ordering::Relaxed);
        inner.pool.persist(block_off as usize, 8);
        self.set_word(head_off, block_off + 1);
        self.set_word(dest_off, 0);
        self.write_log(OP_NONE, 0, 0, 0, 0);
    }

    fn malloc_large_to(&self, size: usize, dest_off: usize) -> *mut u8 {
        let inner = &*self.inner;
        let span = size.div_ceil(CHUNK_SIZE);
        let mut free = inner.large_lock.lock();
        let pos = free.iter().position(|&(_, n)| n >= span);
        let head = match pos {
            Some(p) => {
                let (start, n) = free[p];
                if n == span {
                    free.swap_remove(p);
                } else {
                    free[p] = (start + span, n - span);
                }
                start
            }
            None => match carve(&inner.pool, &inner.geo, span) {
                Some(i) => i,
                None => return std::ptr::null_mut(),
            },
        };
        drop(free);
        set_chunk_class(&inner.pool, &inner.geo, head, 0, size as u64);
        set_alloc_state(&inner.pool, &inner.geo, head, 0, true);
        let off = inner.geo.chunk(head);
        self.set_word(dest_off, off as u64 + 1);
        (inner.pool.base() as usize + off) as *mut u8
    }

    /// Post-crash recovery: complete or roll back the in-flight logged
    /// operation so no block is leaked or double-allocated, then trust
    /// the persisted allocation bytes (free lists are rebuilt from them).
    pub fn recover(&self) {
        let inner = &*self.inner;
        let op = self.word(LOG_OFF);
        if op == OP_ALLOC {
            // Roll back a half-applied allocation: if the destination was
            // never published, the block (if popped) must return to the
            // free state.
            let block = self.word(LOG_OFF + 16);
            let dest = self.word(LOG_OFF + 24) as usize;
            if let Some(block_off) = block.checked_sub(1) {
                if self.word(dest) != block {
                    if let Some(chunk) = inner.geo.chunk_index_of(block_off as usize) {
                        let (_, bsize) = chunk_class(&inner.pool, &inner.geo, chunk);
                        if bsize > 0 {
                            let blk =
                                ((block_off as usize - inner.geo.chunk(chunk)) / bsize as usize) as u32;
                            set_alloc_state(&inner.pool, &inner.geo, chunk, blk, false);
                        }
                    }
                }
            }
        }
        // OP_FREE half-applied: the allocation byte decides (cleared =>
        // free). Either way the rebuild below restores consistency.
        self.write_log(OP_NONE, 0, 0, 0, 0);

        // Rebuild persistent free lists from the allocation bytes.
        for class in 1..NUM_CLASSES as u32 {
            self.set_word(Self::head_off(class), 0);
        }
        inner.large_lock.lock().clear();
        let used = used_chunks(&inner.pool);
        let mut i = 0usize;
        while i < used {
            let (class, bsize) = chunk_class(&inner.pool, &inner.geo, i);
            if class == 0 && bsize > 0 {
                let span = (bsize as usize).div_ceil(CHUNK_SIZE).min(used - i);
                if !alloc_state(&inner.pool, &inner.geo, i, 0) {
                    inner.large_lock.lock().push((i, span));
                }
                i += span;
                continue;
            }
            if chunked::is_small_class(class) && bsize == class_block_size(class) as u64 {
                let mc = class_max_count(class);
                let head_off = Self::head_off(class);
                for blk in 0..mc {
                    if !alloc_state(&inner.pool, &inner.geo, i, blk) {
                        let boff = inner.geo.chunk(i) + blk as usize * bsize as usize;
                        let head = self.word(head_off);
                        // SAFETY: block first word.
                        unsafe { inner.pool.atomic_u64(boff) }.store(head, Ordering::Relaxed);
                        inner.pool.persist(boff, 8);
                        self.set_word(head_off, boff as u64 + 1);
                    }
                }
            }
            i += 1;
        }
    }
}

impl PersistentAllocator for PmdkSim {
    fn malloc(&self, size: usize) -> *mut u8 {
        // Bind to the class scratch slot — the paper's "local dummy
        // variable" integration shim (§6.1).
        let class = size_class_of(size).unwrap_or(0);
        self.malloc_to(size, Self::scratch_off(class))
    }

    fn free(&self, ptr: *mut u8) {
        assert!(!ptr.is_null(), "free(null)");
        let inner = &*self.inner;
        let (_, _, _, class) = locate(&inner.pool, &inner.geo, ptr);
        // Rebind the scratch slot to this block, then free through it.
        // The rebind must happen under the class lock so concurrent frees
        // of the same class cannot clobber each other's scratch binding.
        let dest = Self::scratch_off(class);
        let block_off = ptr as usize - inner.pool.base() as usize;
        if class == 0 {
            self.set_word(dest, block_off as u64 + 1);
            self.free_from_locked(dest);
        } else {
            let _g = inner.class_locks[class as usize].lock();
            self.set_word(dest, block_off as u64 + 1);
            self.free_from_locked(dest);
        }
    }

    fn name(&self) -> &'static str {
        "pmdk"
    }

    fn persist(&self, ptr: *const u8, len: usize) {
        let off = ptr as usize - self.inner.pool.base() as usize;
        self.inner.pool.persist(off, len);
    }
}

impl std::fmt::Debug for PmdkSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmdkSim")
            .field("used_chunks", &used_chunks(&self.inner.pool))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn heap() -> PmdkSim {
        PmdkSim::create(16 << 20, Mode::Direct, FlushModel::free())
    }

    #[test]
    fn alloc_free_roundtrip() {
        let p = heap();
        let a = p.malloc(64);
        assert!(!a.is_null());
        // SAFETY: a live 64-byte block.
        unsafe { std::ptr::write_bytes(a, 0x5A, 64) };
        p.free(a);
        let b = p.malloc(64);
        assert_eq!(a, b, "LIFO free list should reuse immediately");
    }

    #[test]
    fn blocks_distinct() {
        let p = heap();
        let mut seen = HashSet::new();
        for _ in 0..3000 {
            let a = p.malloc(128);
            assert!(!a.is_null());
            assert!(seen.insert(a as usize));
        }
    }

    #[test]
    fn malloc_to_binds_destination() {
        let p = heap();
        let dest = LOG_OFF + LOG_LEN + 8; // spare header word past the log
        let a = p.malloc_to(100, dest);
        assert!(!a.is_null());
        let bound = p.word(dest);
        assert_eq!(bound as usize - 1 + p.pool().base() as usize, a as usize);
        p.free_from(dest);
        assert_eq!(p.word(dest), 0);
    }

    #[test]
    fn ops_cost_several_persists() {
        let p = heap();
        let warm = p.malloc(64); // absorb carving
        let before = p.pool().stats().snapshot();
        let a = p.malloc(64);
        let d = p.pool().stats().snapshot().since(&before);
        assert!(d.fences >= 4, "PMDK-style alloc must persist repeatedly, saw {}", d.fences);
        p.free(a);
        p.free(warm);
    }

    #[test]
    fn large_roundtrip() {
        let p = heap();
        let a = p.malloc(300_000);
        assert!(!a.is_null());
        p.free(a);
        let b = p.malloc(300_000);
        assert_eq!(a, b);
    }

    #[test]
    fn crash_mid_alloc_never_double_allocates() {
        use nvm::{CrashInjector, CrashPoint};
        // Sweep crash points through a malloc; after recovery the heap
        // must never hand out a block that a pre-crash survivor owns.
        for budget in 0..12 {
            let inj = CrashInjector::new();
            let p = PmdkSim::create_with(
                4 << 20,
                Mode::Tracked,
                FlushModel::free(),
                Some(inj.clone()),
            );
            let survivors: Vec<usize> = (0..50).map(|_| p.malloc(64) as usize).collect();
            inj.arm(budget);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.malloc(64)));
            inj.disarm();
            let crashed = r.is_err();
            if crashed {
                assert!(CrashPoint::is(&*r.unwrap_err()));
                p.pool().crash();
                p.recover();
            }
            let survivor_set: HashSet<usize> = survivors.into_iter().collect();
            let mut handed = HashSet::new();
            for _ in 0..500 {
                let q = p.malloc(64);
                if q.is_null() {
                    break;
                }
                assert!(
                    !survivor_set.contains(&(q as usize)),
                    "budget {budget}: survivor re-allocated after crash"
                );
                assert!(handed.insert(q as usize), "budget {budget}: double allocation");
            }
        }
    }

    #[test]
    fn concurrent_stress() {
        let p = Arc::new(heap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..1000 {
                        let a = p.malloc(8 + (i % 16) * 24);
                        assert!(!a.is_null());
                        // SAFETY: a live block of at least 8 bytes.
                        unsafe { std::ptr::write(a as *mut u64, a as u64) };
                        held.push(a);
                        if held.len() > 32 {
                            let q = held.swap_remove(i % held.len());
                            // SAFETY: `q` is still live; this thread wrote it.
                            assert_eq!(unsafe { std::ptr::read(q as *const u64) }, q as u64);
                            p.free(q);
                        }
                    }
                    for a in held {
                        p.free(a);
                    }
                });
            }
        });
    }
}
