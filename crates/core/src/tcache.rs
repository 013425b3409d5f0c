//! Thread-local cache bins (paper §4.2, §4.4; LRMalloc's CacheBin).
//!
//! Most allocations and deallocations are served by per-thread,
//! per-size-class **cache bins** of free blocks with no synchronization
//! at all — the LRMalloc fast path that Ralloc inherits. A bin is a
//! fixed-capacity array of block addresses plus a length; its capacity is
//! at least one superblock's block population for the class, and never
//! below 16 slots ([`crate::size_class::cache_capacity`]: the classes
//! above 4 KiB, with 4–12 blocks per superblock, get 16), so the bin's
//! lifecycle follows LRMalloc's Fill/Flush discipline:
//!
//! * **Fill** (bin empty on `malloc`): every free block of one partial
//!   superblock for one anchor CAS, or all of a free or fresh one, whose
//!   one flush+fence of the size identity the batch amortizes
//!   ([`crate::fill`]).
//! * **Flush** (bin full on `free`): the oldest superblock population —
//!   the whole bin for every class of ≤ 4 096 B, the oldest 4–12 of a
//!   bigger class's 16 — back with one anchor CAS per superblock touched,
//!   not one per block, whichever thread filled it ([`crate::flush`]).
//!
//! In between, `malloc` is an array pop and `free` an array push.
//!
//! ## The single-heap fast slot
//!
//! Because a process may hold several heaps, the thread-local store keeps
//! a small vector of per-heap cache sets keyed by heap id. The
//! overwhelmingly common case is one heap, so a separate thread-local
//! **fast slot** memoizes `(generation, pointer to that heap's cache
//! set)`: a generation names one heap in one epoch ([`fresh_generation`]).
//! The malloc/free fast path is then: one fast-slot read, one generation
//! compare, one bin pop/push ([`with_fast_tls`]). That
//! much is all `Ralloc::malloc` / `free` inline into their callers, so a
//! hit is a leaf: no call, no register saved, no spill. Whatever fails a
//! test runs out of line in `malloc_slow` / `free_slow` — large blocks,
//! pointer checks, fills, flushes, and the fast-slot miss through
//! [`with_heap_tls`], whose linear scan over cache sets (first touch, heap
//! switch, or after a crash) is `#[cold]`. Entries are boxed so the
//! memoized pointer stays valid when the vector reallocates; every path
//! that removes an entry clears the slot first.
//!
//! ## Crash semantics
//!
//! The bins are **transient**: nothing about them is flushed, and after a
//! crash their contents are recovered by the tracing GC (blocks in a bin
//! are unreachable from the roots, so they are reclaimed). Each cache set
//! is stamped with the heap's *generation*, which a crash or a recovery
//! replaces: stale cached blocks from "before the crash" must be
//! forgotten, not reused, exactly as a real crash would forget DRAM. The
//! generation compare is the fast path's test, so a crash invalidates the
//! fast slot, too. On clean thread exit the bins are flushed back to the
//! heap, so a clean shutdown leaves nothing cached.
//!
//! ## Counts
//!
//! A cache set also carries the thread's [`ThreadStats`]: every counted
//! event of the fill and flush paths holds `&mut HeapTls`, so it counts
//! there — the thread's own line, no `lock` prefix — rather than on the
//! heap's shared counters (see [`crate::stats`]). The block is *not*
//! transient the way the bins are: counts of work done before a crash, a
//! close or a thread's exit stay counted. Every way a cache set ends —
//! the generation rebuild below, `drain_current_thread`,
//! `discard_current_thread`, the store's destructor, the teardown
//! one-shot set — drops the `HeapTls`, and dropping the block is what
//! folds it into the heap's totals, so no path can forget to.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Weak;

use crate::heap::HeapInner;
use crate::size_class::NUM_CLASSES;
use crate::stats::ThreadStats;

/// A fixed-capacity, array-backed bin of cached block addresses for one
/// size class (LRMalloc's CacheBin). Storage is allocated lazily on first
/// use, sized by [`crate::size_class::cache_capacity`], and never grows.
pub(crate) struct CacheBin {
    /// Slot array; empty until the class is first used.
    slots: Box<[usize]>,
    /// Number of live entries in `slots[..len]`.
    len: u32,
}

impl CacheBin {
    pub(crate) fn new() -> CacheBin {
        CacheBin { slots: Box::default(), len: 0 }
    }

    /// Pop the most recently cached block, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // SAFETY: len was > 0 and is always <= slots.len().
        Some(unsafe { *self.slots.get_unchecked(self.len as usize) })
    }

    /// Push a block. Caller must have checked [`CacheBin::is_full`].
    #[inline]
    pub fn push(&mut self, addr: usize) {
        debug_assert!((self.len as usize) < self.slots.len(), "cache bin overflow");
        // SAFETY: guarded by the debug_assert contract above.
        unsafe { *self.slots.get_unchecked_mut(self.len as usize) = addr };
        self.len += 1;
    }

    /// Push the `n` blocks `start + i·stride` in one loop, lowest address
    /// on top: a fill's whole superblock. Panics if they do not fit.
    pub fn push_run(&mut self, start: usize, stride: usize, n: usize) {
        let len = self.len as usize;
        for (slot, i) in self.slots[len..len + n].iter_mut().zip((0..n).rev()) {
            *slot = start + i * stride;
        }
        self.len += n as u32;
    }

    /// True when a push would overflow. Also true for a never-used bin
    /// (capacity 0), so the slow path doubles as lazy allocation.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len as usize == self.slots.len()
    }

    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocate the slot array if this bin has never been used.
    pub fn ensure_capacity(&mut self, cap: usize) {
        if self.slots.is_empty() {
            self.slots = vec![0usize; cap].into_boxed_slice();
        }
        debug_assert_eq!(self.slots.len(), cap, "cache bin capacity changed");
    }

    /// The cached blocks, oldest first, for a bulk flush. Call
    /// [`CacheBin::drain_front`] after the flush consumes them.
    #[inline]
    pub fn blocks_mut(&mut self) -> &mut [usize] {
        &mut self.slots[..self.len as usize]
    }

    /// Drop the oldest `n` entries (after a flush took ownership of
    /// `slots[..n]`), sliding the kept LIFO tail down.
    pub fn drain_front(&mut self, n: usize) {
        debug_assert!(n <= self.len as usize);
        self.slots.copy_within(n..self.len as usize, 0);
        self.len -= n as u32;
    }
}

/// Per-heap, per-thread cache set.
pub(crate) struct HeapTls {
    pub heap_id: u64,
    pub generation: u64,
    pub weak: Weak<HeapInner>,
    /// One bin per size class (index 0 unused: large allocations bypass
    /// the cache).
    pub bins: [CacheBin; NUM_CLASSES],
    /// This thread's slow-path counts for this heap.
    pub stats: ThreadStats,
}

impl HeapTls {
    fn new(heap: &HeapInner, generation: u64, weak: Weak<HeapInner>) -> HeapTls {
        HeapTls {
            heap_id: heap.id,
            generation,
            weak,
            bins: std::array::from_fn(|_| CacheBin::new()),
            stats: ThreadStats::new(&heap.telemetry),
        }
    }
}

/// Thread-local store of cache sets; flushed on thread exit.
struct TlsStore {
    /// Boxed so [`FAST`] can hold a stable pointer across Vec growth.
    #[allow(clippy::vec_box)]
    entries: Vec<Box<HeapTls>>,
}

impl Drop for TlsStore {
    fn drop(&mut self) {
        // The fast slot may point into an entry we are about to drop;
        // clear it first. FAST holds no destructor of its own, so this
        // set succeeds even during thread teardown.
        FAST.set((0, std::ptr::null_mut()));
        for entry in &mut self.entries {
            if let Some(heap) = entry.weak.upgrade() {
                // Return blocks only if the heap has not crashed, recovered,
                // or closed since they were cached.
                //
                // TLS destructors run during OS thread teardown — *after*
                // the thread looks finished to joiners (`thread::scope`
                // returns when the closure does), so this drain can race a
                // quiescent-point operation that the joining thread starts
                // next. `exit_drain` announces it: recovery replaces the
                // generation and waits out announced drains, so a flush
                // here either completes before recovery resets the lists
                // or never starts.
                heap.exit_drain(entry);
            }
        }
    }
}

/// Every heap's generations, at creation and after each crash or
/// recovery, come from here: a value names one heap in one epoch, never 0.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Single-heap fast slot: (generation, pointer to that heap's cache
    /// set in this thread's store); generation 0 never matches. The
    /// pointee is owned by `TLS`; every removal/replacement invalidates
    /// this slot before touching the entry.
    static FAST: Cell<(u64, *mut HeapTls)> = const { Cell::new((0, std::ptr::null_mut())) };

    static TLS: RefCell<TlsStore> = const { RefCell::new(TlsStore { entries: Vec::new() }) };
}

/// Run `f` with this thread's cache set for `heap` if the fast slot holds
/// it and its generation is current; `None`, with `f` not run, otherwise.
/// This is the one fast-slot check: the malloc/free hit paths call it
/// directly, and [`with_heap_tls`] adds the miss.
#[inline(always)]
pub(crate) fn with_fast_tls<R>(heap: &HeapInner, f: impl FnOnce(&mut HeapTls) -> R) -> Option<R> {
    let (fast_gen, fast_ptr) = FAST.get();
    // SAFETY: generations are never 0 and each names one heap in one epoch
    // ([`fresh_generation`]), so a match means a miss on this heap in this
    // epoch set the slot to its boxed entry in this thread's store. A path
    // that drops an entry clears the slot first, and a miss replaces an
    // entry in place only once its generation is stale: the pointee is
    // live. `f` has it exclusively: only this thread reaches it, and
    // nothing in the allocator re-enters the TLS machinery meanwhile.
    (fast_gen == heap.generation()).then(|| f(unsafe { &mut *fast_ptr }))
}

/// Run `f` with this thread's cache set for `heap`, creating or resetting
/// it as needed. `make_weak` is only invoked when a fresh cache set is
/// created, keeping `Arc` weak-count traffic off the malloc fast path.
#[inline]
pub(crate) fn with_heap_tls<R>(
    heap: &HeapInner,
    make_weak: impl FnOnce() -> Weak<HeapInner>,
    f: impl FnOnce(&mut HeapTls) -> R,
) -> R {
    let mut f = Some(f);
    if let Some(r) = with_fast_tls(heap, |tls| f.take().unwrap()(tls)) {
        return r;
    }
    with_heap_tls_miss(heap, make_weak, f.unwrap())
}

/// Fast-slot miss: scan (or extend) the store, refresh the slot.
#[cold]
fn with_heap_tls_miss<R>(
    heap: &HeapInner,
    make_weak: impl FnOnce() -> Weak<HeapInner>,
    f: impl FnOnce(&mut HeapTls) -> R,
) -> R {
    // `f`/`make_weak` are FnOnce: park them in Options so whichever
    // branch runs (the store closure or the teardown fallback) can take
    // them exactly once.
    let mut f = Some(f);
    let mut make_weak = Some(make_weak);
    let attempt = TLS.try_with(|tls| {
        let mut store = tls.borrow_mut();
        let gen = heap.generation();
        let id = heap.id;
        let pos = store.entries.iter().position(|e| e.heap_id == id);
        let entry: &mut Box<HeapTls> = match pos {
            Some(p) => {
                let e = &mut store.entries[p];
                if e.generation != gen {
                    // The heap crashed since these blocks were cached:
                    // they are now owned by the recovered free lists (or
                    // the GC), so the cache must be discarded, not reused.
                    // Overwrite in place: the box (and any fast-slot
                    // pointer to it) stays valid. The old set's counts
                    // fold as it drops; only its blocks are forgotten.
                    **e = HeapTls::new(heap, gen, make_weak.take().unwrap()());
                }
                e
            }
            None => {
                store.entries.push(Box::new(HeapTls::new(heap, gen, make_weak.take().unwrap()())));
                store.entries.last_mut().unwrap()
            }
        };
        let ptr: *mut HeapTls = &mut **entry;
        FAST.set((gen, ptr));
        f.take().unwrap()(entry)
    });
    match attempt {
        Ok(r) => r,
        // `TLS` has already been destroyed: this allocation is running
        // inside another TLS destructor (a `#[global_allocator]` built on
        // this heap makes that an everyday event — any thread-local with
        // a Drop that frees memory lands here). Serve it through a
        // transient one-shot cache set and flush the blocks straight back
        // so nothing leaks when the box dies at the end of this call.
        // `FAST` is left alone: it is const-initialized (no destructor,
        // always accessible) but must never point at this transient box.
        Err(_) => {
            let mut entry =
                Box::new(HeapTls::new(heap, heap.generation(), make_weak.take().unwrap()()));
            let r = f.take().unwrap()(&mut entry);
            heap.exit_drain(&mut entry);
            r
        }
    }
}

/// Drain and remove this thread's cache set for `heap` (used by `close`).
/// A no-op once this thread's store has been destroyed (e.g. `close`
/// driven from an `atexit` handler after TLS teardown): the store's own
/// destructor already drained everything.
pub(crate) fn drain_current_thread(heap: &HeapInner) {
    let _ = TLS.try_with(|tls| {
        let mut store = tls.borrow_mut();
        if let Some(p) = store.entries.iter().position(|e| e.heap_id == heap.id) {
            FAST.set((0, std::ptr::null_mut()));
            let mut entry = store.entries.swap_remove(p);
            if entry.generation == heap.generation() {
                heap.drain_tls(&mut entry);
            }
        }
    });
}

/// Discard (without draining) this thread's cache set for `heap`.
pub(crate) fn discard_current_thread(heap: &HeapInner) {
    let _ = TLS.try_with(|tls| {
        let mut store = tls.borrow_mut();
        FAST.set((0, std::ptr::null_mut()));
        store.entries.retain(|e| e.heap_id != heap.id);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_starts_empty_and_full() {
        let mut bin = CacheBin::new();
        assert_eq!(bin.len(), 0);
        assert_eq!(bin.capacity(), 0);
        // Unallocated bin reports full so the slow path sizes it.
        assert!(bin.is_full());
        assert_eq!(bin.pop(), None);
    }

    #[test]
    fn bin_lifo_order() {
        let mut bin = CacheBin::new();
        bin.ensure_capacity(8);
        assert!(!bin.is_full());
        for a in [16usize, 32, 48] {
            bin.push(a);
        }
        assert_eq!(bin.len(), 3);
        assert_eq!(bin.pop(), Some(48));
        assert_eq!(bin.pop(), Some(32));
        assert_eq!(bin.pop(), Some(16));
        assert_eq!(bin.pop(), None);
    }

    #[test]
    fn bin_full_at_capacity() {
        let mut bin = CacheBin::new();
        bin.ensure_capacity(4);
        for a in 0..4usize {
            assert!(!bin.is_full());
            bin.push(a * 8);
        }
        assert!(bin.is_full());
        let blocks: Vec<usize> = bin.blocks_mut().to_vec();
        assert_eq!(blocks, vec![0, 8, 16, 24]);
        bin.drain_front(4);
        assert_eq!(bin.len(), 0);
        assert!(!bin.is_full());
    }

    #[test]
    fn drain_front_keeps_the_lifo_tail() {
        let mut bin = CacheBin::new();
        bin.ensure_capacity(4);
        for a in [8usize, 16, 24, 32] {
            bin.push(a);
        }
        bin.drain_front(2); // oldest two (8, 16) flushed away
        assert_eq!(bin.len(), 2);
        assert_eq!(bin.pop(), Some(32));
        assert_eq!(bin.pop(), Some(24));
        assert_eq!(bin.pop(), None);
        bin.push(40);
        bin.drain_front(0);
        assert_eq!(bin.pop(), Some(40));
    }

    #[test]
    fn ensure_capacity_is_idempotent() {
        let mut bin = CacheBin::new();
        bin.ensure_capacity(16);
        bin.push(8);
        bin.ensure_capacity(16);
        assert_eq!(bin.len(), 1);
        assert_eq!(bin.capacity(), 16);
    }
}
