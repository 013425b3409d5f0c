//! PMDK-libpmemobj-like allocator simulation (Rudoff & Slusarz).
//!
//! PMDK exposes a `malloc_to`/`free_from` interface: an allocation is
//! atomically bound to a destination pointer *inside the pool* through a
//! persisted redo log, so a crash can never leak the block — at the price
//! of several fenced flushes and lock acquisition on **every** operation.
//! This simulation reproduces that cost profile:
//!
//! 1. write + persist the class's redo-log record (intent),
//! 2. pop the class's **persistent** free list (head word persisted),
//! 3. persist the per-block allocation byte,
//! 4. write + persist the destination pointer,
//! 5. retire + persist the log.
//!
//! That is 4–5 fenced flushes per operation versus Ralloc's ~0, matching
//! the shape of the paper's Figure 5 (PMDK slowest, flat scaling). A
//! per-class mutex serializes the metadata updates, as libpmemobj's
//! arena locks do under contention, and each class logs in a record of
//! its own under that lock; class 0's serializes every large block's,
//! whose binding goes through the same scratch slot.
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
    set_alloc_state, set_chunk_class, size_class_of, used_chunks, ChunkGeo, Spans, CUSTOM_OFF,
    NUM_CLASSES,
};

// Persistent layout inside the header's custom area:
//   CUSTOM_OFF + 16*class      : free-list head (block pool-offset + 1)
//   CUSTOM_OFF + 16*class + 8  : scratch destination word for this class
//   LOG_OFF + 64*class .. +40  : the class's redo log {op, block_off+1, dest_off, size},
//                                a cache line each, so no class's persist
//                                carries another's half-written record
const HEADS_OFF: usize = CUSTOM_OFF;
const LOG_OFF: usize = CUSTOM_OFF + 16 * NUM_CLASSES;
const LOG_LEN: usize = 32;

const OP_NONE: u64 = 0;
const OP_ALLOC: u64 = 1;
const OP_FREE: u64 = 2;

struct PmdkInner {
    pool: PmemPool,
    geo: ChunkGeo,
    /// One lock per class; class 0's covers every large block.
    class_locks: Vec<Mutex<()>>,
    spans: Spans,
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
        Self::on(PmemPool::with_reserve(len, len, mode, flush_model, injector))
    }

    /// The heap a crash image holds, on a `Mode::Direct` pool, before
    /// [`PmdkSim::recover`].
    pub fn from_image(image: &[u8]) -> PmdkSim {
        Self::on(PmemPool::from_image_reserving(image, image.len(), Mode::Direct))
    }

    fn on(pool: PmemPool) -> PmdkSim {
        let geo = ChunkGeo::new(pool.len());
        PmdkSim {
            inner: Arc::new(PmdkInner {
                pool,
                geo,
                class_locks: (0..NUM_CLASSES).map(|_| Mutex::new(())).collect(),
                spans: Spans::default(),
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

    fn log_off(class: u32) -> usize {
        LOG_OFF + 64 * class as usize
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

    /// Write and persist `class`'s log record; the caller holds the class
    /// lock.
    fn write_log(&self, class: u32, op: u64, block: u64, dest: u64, size: u64) {
        let (pool, log) = (&self.inner.pool, Self::log_off(class));
        for (i, word) in [op, block, dest, size].into_iter().enumerate() {
            // SAFETY: log words in the header, 8-aligned.
            unsafe { pool.atomic_u64(log + 8 * i) }.store(word, Ordering::Release);
        }
        pool.persist(log, LOG_LEN);
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
        let inner = &*self.inner;
        let class = size_class_of(size).unwrap_or(0);
        let _g = inner.class_locks[class as usize].lock();
        if class == 0 {
            let Some(head) = inner.spans.take(&inner.pool, &inner.geo, size) else {
                return std::ptr::null_mut();
            };
            let off = inner.geo.chunk(head);
            self.set_word(dest_off, off as u64 + 1);
            return (inner.pool.base() as usize + off) as *mut u8;
        }
        // 1. intent
        self.write_log(class, OP_ALLOC, 0, dest_off as u64, size as u64);
        // 2. pop persistent free list
        let Some(block_off) = self.pop_free(class) else {
            self.write_log(class, OP_NONE, 0, 0, 0);
            return std::ptr::null_mut();
        };
        // Record the popped block in the log so recovery can roll back.
        self.set_word(Self::log_off(class) + 8, block_off as u64 + 1);
        // 3. allocation byte
        let chunk = inner.geo.chunk_index_of(block_off).unwrap();
        let bsize = class_block_size(class) as usize;
        let blk = ((block_off - inner.geo.chunk(chunk)) / bsize) as u32;
        set_alloc_state(&inner.pool, &inner.geo, chunk, blk, true);
        // 4. publish to destination
        self.set_word(dest_off, block_off as u64 + 1);
        // 5. retire log
        self.write_log(class, OP_NONE, 0, 0, 0);
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
        let _g = inner.class_locks[class as usize].lock();
        self.free_from_locked(dest_off);
    }

    /// Body of `free_from`; the caller holds the class lock.
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
            inner.spans.give(&inner.pool, &inner.geo, chunk, bsize);
            self.set_word(dest_off, 0);
            return;
        }
        self.write_log(class, OP_FREE, block_off + 1, dest_off as u64, bsize);
        set_alloc_state(&inner.pool, &inner.geo, chunk, blk, false);
        let head_off = Self::head_off(class);
        let head = self.word(head_off);
        // SAFETY: block first word.
        unsafe { inner.pool.atomic_u64(block_off as usize) }.store(head, Ordering::Relaxed);
        inner.pool.persist(block_off as usize, 8);
        self.set_word(head_off, block_off + 1);
        self.set_word(dest_off, 0);
        self.write_log(class, OP_NONE, 0, 0, 0);
    }

    /// Whether the block at pool offset `off` is allocated: what keeps it
    /// off the free lists a recovery rebuilds.
    pub fn is_allocated(&self, off: usize) -> bool {
        let inner = &*self.inner;
        let (chunk, blk, _, _) = locate(&inner.pool, &inner.geo, inner.pool.base().wrapping_add(off));
        alloc_state(&inner.pool, &inner.geo, chunk, blk)
    }

    /// Post-crash recovery: complete or roll back each class's in-flight
    /// logged operation so no block is leaked or bound while free, then
    /// trust the persisted allocation bytes (free lists are rebuilt from
    /// them).
    pub fn recover(&self) {
        let inner = &*self.inner;
        for class in 1..NUM_CLASSES as u32 {
            let log = Self::log_off(class);
            let (op, block, dest) = (self.word(log), self.word(log + 8), self.word(log + 16) as usize);
            if op == OP_NONE {
                continue;
            }
            if let Some(block_off) = block.checked_sub(1) {
                let chunk = inner.geo.chunk_index_of(block_off as usize).expect("a logged block in the chunk area");
                let (_, bsize) = chunk_class(&inner.pool, &inner.geo, chunk);
                let blk = ((block_off as usize - inner.geo.chunk(chunk)) / bsize as usize) as u32;
                if op == OP_ALLOC && self.word(dest) != block {
                    // The destination was never published: the block, if
                    // marked, goes back to the free state.
                    set_alloc_state(&inner.pool, &inner.geo, chunk, blk, false);
                }
                if op == OP_FREE && !alloc_state(&inner.pool, &inner.geo, chunk, blk) && self.word(dest) == block {
                    // The block is free: finish unbinding its destination.
                    self.set_word(dest, 0);
                }
            }
            self.write_log(class, OP_NONE, 0, 0, 0);
        }

        // Rebuild persistent free lists from the allocation bytes.
        for class in 1..NUM_CLASSES as u32 {
            self.set_word(Self::head_off(class), 0);
        }
        chunked::rebuild(&inner.pool, &inner.geo, &inner.spans, |class, boff| {
            let head_off = Self::head_off(class);
            // SAFETY: block first word.
            unsafe { inner.pool.atomic_u64(boff) }.store(self.word(head_off), Ordering::Relaxed);
            inner.pool.persist(boff, 8);
            self.set_word(head_off, boff as u64 + 1);
        });
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
        let _g = inner.class_locks[class as usize].lock();
        self.set_word(dest, block_off as u64 + 1);
        self.free_from_locked(dest);
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
    use std::cell::{Cell, RefCell};
    use std::collections::HashSet;
    use std::sync::Arc;

    use crashtest::{join, sweep, Victim, STYLES};
    use nvm::{CrashInjector, PmemPool};

    fn heap() -> PmdkSim {
        PmdkSim::create(16 << 20, Mode::Direct, FlushModel::free())
    }

    /// A `PmdkSim` as a victim of the crash-point driver.
    struct Sim(PmdkSim);

    impl Victim for Sim {
        fn pool(&self) -> &PmemPool {
            self.0.pool()
        }
        fn adopt(image: &[u8]) -> Sim {
            Sim(PmdkSim::from_image(image))
        }
    }

    fn tracked(inj: Arc<CrashInjector>) -> Sim {
        Sim(PmdkSim::create_with(1 << 20, Mode::Tracked, FlushModel::free(), Some(inj)))
    }

    /// A crash at every persistence event of one `malloc` after 50
    /// survivors: recovery, which rebuilds the free lists from the
    /// allocation bytes, keeps every survivor, and the heap hands out no
    /// block twice.
    #[test]
    fn crash_mid_alloc_never_double_allocates() {
        let survivors = RefCell::new(HashSet::new());
        let (events, _) = sweep(
            &STYLES,
            |inj| {
                let sim = tracked(inj);
                let base = sim.0.pool().base() as usize;
                *survivors.borrow_mut() = (0..50).map(|_| sim.0.malloc(64) as usize - base).collect();
                sim
            },
            |Sim(p), arm| {
                arm();
                p.malloc(64);
            },
            |_, Sim(p), budget, style| {
                p.recover();
                let lost = survivors.borrow().iter().copied().find(|&off| !p.is_allocated(off));
                assert_eq!(lost, None, "{style:?} crash at event {}: a survivor was freed", budget + 1);
                let mut seen = HashSet::new();
                for q in (0..500).map(|_| p.malloc(64)).take_while(|q| !q.is_null()) {
                    assert!(seen.insert(q), "{style:?} crash at event {}: a block handed out twice", budget + 1);
                }
            },
        );
        assert_eq!(events, 12, "a logged malloc's persistence events");
    }

    /// Two threads, each on a size class of its own, bind blocks to
    /// destination words of their own (`malloc_to`) and unbind them
    /// (`free_from`), crashed at each persistence event in turn: the fire
    /// freezes the image while the other thread runs on. After recovery
    /// every block a destination word holds is allocated.
    #[test]
    fn a_crash_between_two_classes_never_frees_a_bound_block() {
        const DESTS: usize = 4;
        let dests = Cell::new(0);
        let (events, _) = sweep(
            &STYLES,
            |inj| {
                let sim = tracked(inj);
                // A large block class: few blocks per chunk to rebuild.
                let words = sim.0.malloc(2000);
                // SAFETY: a fresh block of that many bytes, which still
                // holds its free-list link.
                unsafe { std::ptr::write_bytes(words, 0, 2 * DESTS * 8) };
                sim.0.persist(words, 2 * DESTS * 8);
                dests.set(words as usize - sim.0.pool().base() as usize);
                sim
            },
            |Sim(p), arm| {
                let dests = dests.get();
                arm();
                std::thread::scope(|s| {
                    let workers = [(0, 1000), (1, 2000)].map(|(t, size)| {
                        s.spawn(move || {
                            for dest in (0..DESTS).map(|i| dests + 8 * (t * DESTS + i)) {
                                assert!(!p.malloc_to(size, dest).is_null());
                            }
                            for dest in (0..DESTS).map(|i| dests + 8 * (t * DESTS + i)) {
                                p.free_from(dest);
                            }
                        })
                    });
                    join(workers.into());
                });
            },
            |_, Sim(p), budget, style| {
                p.recover();
                for dest in (0..2 * DESTS).map(|i| dests.get() + 8 * i) {
                    // SAFETY: a destination word inside the block `build`
                    // allocated; no other thread runs.
                    let Some(block) = unsafe { p.pool().read_u64(dest) }.checked_sub(1) else { continue };
                    let free = !p.is_allocated(block as usize);
                    let at = budget + 1;
                    assert!(!free, "{style:?} crash at event {at}: word {dest:#x} binds free block {block:#x}");
                }
            },
        );
        println!("{events} persistence events");
        assert!(events > 8 * DESTS as u64, "{events} persistence events");
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
        let dest = PmdkSim::log_off(NUM_CLASSES as u32); // spare header word past the logs
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

    /// Large frees bind the shared class-0 scratch slot, so they must
    /// hold class 0's lock like every other class: a free that read
    /// another thread's binding would free that thread's live span.
    #[test]
    fn concurrent_large_blocks_are_never_shared_or_leaked() {
        let p = heap();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        let a = p.malloc(100_000);
                        assert!(!a.is_null(), "thread {t}, round {i}: the heap ran out");
                        let sig = t << 32 | i;
                        let words = [a as *mut u64, a.wrapping_add(100_000 - 8) as *mut u64];
                        for w in words {
                            // SAFETY: the first and last words of a live
                            // 100 000-byte block.
                            unsafe { std::ptr::write_volatile(w, sig) };
                        }
                        for w in words {
                            // SAFETY: as above.
                            let got = unsafe { std::ptr::read_volatile(w) };
                            assert_eq!(got, sig, "thread {t}, round {i}: a live block was reissued");
                        }
                        p.free(a);
                    }
                });
            }
        });
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
