//! The Ralloc heap: initialization, allocation, deallocation, roots,
//! shutdown, and crash simulation (paper §4.1–§4.4).
//!
//! ## Persistence discipline (what gets flushed online)
//!
//! Normal-operation flushes are limited to the **bold** fields of the
//! paper's Figure 2:
//!
//! * the heap header (`magic`, length, **dirty flag**) at init/close,
//! * the `used` superblock count, once per region expansion,
//! * a descriptor's `size_class`/`block_size`, once per superblock (re)use,
//! * a root slot, on `set_root`.
//!
//! The malloc/free fast paths flush *nothing*; the slow paths flush one
//! cache line. Everything else — anchors, free lists, partial lists,
//! thread caches — is transient and reconstructed by [`crate::recovery`].
//!
//! This file holds the shared state ([`HeapInner`]) and the public handle
//! ([`Ralloc`]); the slow paths live beside it, one module per concern:
//! `open` (create/adopt), `frontier` (grow/shrink protocol), `fill`,
//! `flush`, `large`, with `config` and `stats` as their vocabulary.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use nvm::PmemPool;
use pptr::{AtomicLink, Link};
use telemetry::{EventKind, Registry, SamplerHandle};

use crate::descriptor::Desc;
use crate::flight::{self, FlightRecorder, FlightScan};
use crate::gc::{trace_thunk, Trace, TraceFn};
use crate::layout::{Geometry, DIRTY_OFF, NUM_ROOTS, USED_SB_OFF};
use crate::shard;
use crate::size_class::{class_block_size, is_small_class, size_class_of};
use crate::stats::SlowStats;
use crate::tcache;

/// Shared heap state. Public API lives on [`Ralloc`]; the fields are
/// crate-visible because the slow-path modules implement on this type.
pub struct HeapInner {
    pub(crate) pool: PmemPool,
    pub(crate) geo: Geometry,
    pub(crate) id: u64,
    pub(crate) transient: bool,
    /// Replaced by a fresh value ([`tcache::fresh_generation`]) at every
    /// simulated crash and recovery, so stale thread caches are discarded.
    pub(crate) generation: AtomicU64,
    /// Thread-exit cache drains in flight. A thread's TLS destructor runs
    /// *after* the thread is observably finished (e.g. after
    /// `thread::scope` returns, which only waits for the closure), so its
    /// cache flush can land in the middle of a quiescent-point operation
    /// on another thread. Destructors announce their drain
    /// (`exit_drain`); recovery retires pre-recovery caches and
    /// waits this count out (`quiesce_caches`), close and explicit shrink
    /// wait it out (`await_exit_drains`).
    pub(crate) exit_drains: AtomicUsize,
    pub(crate) closed: AtomicBool,
    /// Transient per-root filter functions (paper's `rootsFunc`),
    /// re-registered each run by `get_root<T>`.
    pub(crate) root_fns: Mutex<HashMap<usize, TraceFn>>,
    pub(crate) slow: SlowStats,
    /// The heap's metric registry ([`SlowStats`] plus recovery gauges
    /// and any histograms callers hang off it); `heap` scope in exports.
    pub(crate) telemetry: Registry,
    /// The heap's one event recorder: the crash-surviving protocol-event
    /// ring inside the pool's metadata region (see [`crate::flight`]).
    /// `None` on a transient heap, which persists nothing and so records
    /// no events.
    pub(crate) flight: Option<FlightRecorder>,
    /// The pool's flight timeline as found at adoption, *before* this
    /// process wrote anything — the previous run's last recorded steps
    /// (the victim's, after a crash). Empty for fresh heaps.
    pub(crate) preopen_flight: FlightScan,
    /// Background JSONL sampler, when started (env knob or API).
    pub(crate) sampler: Mutex<Option<SamplerHandle>>,
}

impl HeapInner {
    #[inline]
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drain a dying cache set (thread exit, the teardown one-shot set)
    /// unless the heap crashed, recovered or closed since it was stamped.
    /// The drain is announced first, and SeqCst pairs this with
    /// [`HeapInner::quiesce_caches`]: a drain either reads the old
    /// generation — and then its announcement is visible to the waiter,
    /// which blocks until it ends — or reads the new one and flushes nothing.
    pub(crate) fn exit_drain(&self, entry: &mut tcache::HeapTls) {
        self.exit_drains.fetch_add(1, Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) == entry.generation && !self.closed.load(Ordering::SeqCst) {
            self.drain_tls(entry);
        }
        self.exit_drains.fetch_sub(1, Ordering::SeqCst);
    }

    /// Retire every thread cache stamped before this point (their blocks
    /// are about to be re-derived from the roots, exactly as after a
    /// crash) and wait out exit drains that passed the generation check
    /// first. Recovery's entry step.
    pub(crate) fn quiesce_caches(&self) {
        self.generation.store(tcache::fresh_generation(), Ordering::SeqCst);
        self.await_exit_drains();
    }

    /// Wait for in-flight thread-exit drains without invalidating caches
    /// (close and explicit shrink *want* exiting threads' blocks flushed
    /// — just not concurrently with their own list scan).
    pub(crate) fn await_exit_drains(&self) {
        while self.exit_drains.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Absolute address of pool offset `off`.
    #[inline]
    pub(crate) fn addr_of(&self, off: usize) -> usize {
        self.pool.base() as usize + off
    }

    /// Flush+fence unless in transient (LRMalloc) mode.
    #[inline]
    pub(crate) fn persist(&self, off: usize, len: usize) {
        if !self.transient {
            self.pool.persist(off, len);
        }
    }

    /// Record a protocol step into the pool's flight ring, the one event
    /// stream (a line flush, fenced by the step it records). A transient
    /// heap records nothing.
    #[inline]
    pub(crate) fn emit(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(flight) = &self.flight {
            flight.record(&self.pool, kind, a, b);
        }
    }

    /// Root slot `i`: a link to an offset in the superblock region.
    #[inline]
    pub(crate) fn root(&self, i: usize) -> &AtomicLink<48> {
        // SAFETY: a root slot is a header word, in bounds and 8-aligned.
        AtomicLink::from_ref(unsafe { self.pool.atomic_u64(self.geo.root(i)) })
    }

    /// Number of superblocks carved so far (the paper's `used`).
    pub(crate) fn used_sb(&self) -> usize {
        // SAFETY: metadata offset, 8-aligned.
        unsafe { self.pool.atomic_u64(USED_SB_OFF) }.load(Ordering::Acquire) as usize
    }

    /// Superblocks the heap may carve without growing: what the pool's
    /// committed prefix covers (see [`crate::frontier`]).
    #[inline]
    pub(crate) fn committed_sb(&self) -> usize {
        self.geo.sb_of(self.pool.committed_len())
    }
}

/// A Ralloc persistent heap handle (cheaply cloneable).
///
/// The API mirrors the paper's Figure 1: `init` ([`Ralloc::create`] /
/// [`Ralloc::open_file`]), [`Ralloc::recover`], [`Ralloc::close`],
/// [`Ralloc::malloc`], [`Ralloc::free`], [`Ralloc::set_root`] and
/// [`Ralloc::get_root`].
#[derive(Clone)]
pub struct Ralloc {
    pub(crate) inner: Arc<HeapInner>,
}

impl Ralloc {
    // ------------------------------------------------------- allocation

    /// Allocate `size` bytes; null on exhaustion (the paper's `malloc`).
    /// Lock-free. Inlined into the caller is the hit only: a small class,
    /// the fast-slot check and a bin pop; the rest is `malloc_slow`.
    #[inline]
    pub fn malloc(&self, size: usize) -> *mut u8 {
        let inner = &*self.inner;
        debug_assert!(!inner.closed.load(Ordering::Acquire), "malloc on closed heap");
        if let Some(class) = size_class_of(size) {
            if let Some(Some(addr)) = tcache::with_fast_tls(inner, |tls| tls.bins[class as usize].pop()) {
                return addr as *mut u8;
            }
        }
        self.malloc_slow(size)
    }

    /// Everything but the hit, out of line so a hit saves no registers:
    /// large blocks, the fast-slot miss and the fill of an empty bin.
    #[cold]
    #[inline(never)]
    fn malloc_slow(&self, size: usize) -> *mut u8 {
        let inner = &*self.inner;
        match size_class_of(size) {
            Some(class) => tcache::with_heap_tls(inner, || Arc::downgrade(&self.inner), |tls| {
                let bin = &mut tls.bins[class as usize];
                if let Some(addr) = bin.pop() {
                    return addr as *mut u8;
                }
                if inner.fill_bin(class, bin, &mut tls.stats) {
                    bin.pop().expect("fill_bin returned empty") as *mut u8
                } else {
                    std::ptr::null_mut()
                }
            }),
            None => inner.malloc_large(size),
        }
    }

    /// Deallocate a block previously returned by [`Ralloc::malloc`]
    /// (the paper's `free`). Lock-free. Inlined into the caller is the hit
    /// only: a small block's class word, the fast-slot check and a push
    /// into a bin with room; the rest, bad pointers first, is `free_slow`.
    #[inline]
    pub fn free(&self, ptr: *mut u8) {
        let inner = &*self.inner;
        let off = (ptr as usize).wrapping_sub(inner.pool.base() as usize);
        if let Some(sb) = inner.geo.sb_index_of(off) {
            let class = Desc::new(&inner.pool, &inner.geo, sb as u32).size_class();
            if is_small_class(class) {
                debug_assert_eq!(
                    (off - inner.geo.sb(sb)) % class_block_size(class) as usize,
                    0,
                    "free: misaligned block pointer"
                );
                let pushed = tcache::with_fast_tls(inner, |tls| {
                    let bin = &mut tls.bins[class as usize];
                    (!bin.is_full()).then(|| bin.push(ptr as usize))
                });
                if let Some(Some(())) = pushed {
                    return;
                }
            }
        }
        self.free_slow(ptr)
    }

    /// Everything but the hit, out of line: every pointer check and its
    /// panic, large blocks, the fast-slot miss and the flush of a full bin.
    #[cold]
    #[inline(never)]
    fn free_slow(&self, ptr: *mut u8) {
        assert!(!ptr.is_null(), "free(null)");
        let inner = &*self.inner;
        let off = (ptr as usize)
            .checked_sub(inner.pool.base() as usize)
            .expect("free: pointer below heap");
        let sb = inner.geo.sb_index_of(off).expect("free: pointer outside superblock region");
        let d = Desc::new(&inner.pool, &inner.geo, sb as u32);
        let class = d.size_class();
        if class == 0 {
            inner.free_large(off, sb);
            return;
        }
        assert!(
            is_small_class(class),
            "free: address inside a large allocation or corrupt descriptor"
        );
        debug_assert_eq!(
            (off - inner.geo.sb(sb)) % class_block_size(class) as usize,
            0,
            "free: misaligned block pointer"
        );
        tcache::with_heap_tls(inner, || Arc::downgrade(&self.inner), |tls| {
            let bin = &mut tls.bins[class as usize];
            // Flush *before* pushing when the bin is at capacity, so the
            // just-freed block stays cached and a tight malloc/free pair
            // oscillates inside the bin instead of alternating a full
            // flush with a full refill. A bin holds at least 16 blocks
            // (`cache_capacity`) and an overflow returns one superblock's
            // worth: at 4 per superblock the newest 12 stay, so a random
            // malloc/free mix is not a step or two from a fill or a flush.
            if bin.is_full() {
                inner.free_overflow(class, bin, &mut tls.stats);
            }
            bin.push(ptr as usize);
        })
    }

    /// The usable size of an allocated block (its class block size, or
    /// the recorded size for large blocks).
    pub fn usable_size(&self, ptr: *const u8) -> usize {
        let inner = &*self.inner;
        let off = (ptr as usize) - inner.pool.base() as usize;
        let sb = inner.geo.sb_index_of(off).expect("usable_size: foreign pointer");
        let d = Desc::new(&inner.pool, &inner.geo, sb as u32);
        d.block_size() as usize
    }

    // ------------------------------------------------------------ roots

    /// Store `ptr` as persistent root `i` (flushed and fenced). The
    /// stored representation is a superblock-region offset, so it
    /// survives remapping.
    pub fn set_root<T: Trace>(&self, i: usize, ptr: *const T) {
        self.register_root_fn(i, trace_thunk::<T>);
        self.set_root_raw(i, ptr as *const u8);
    }

    /// Retrieve root `i` and (re-)register `T`'s filter function for it —
    /// the paper's `getRoot<T>()`, which must be called before
    /// [`Ralloc::recover`] for precise tracing.
    pub fn get_root<T: Trace>(&self, i: usize) -> *mut T {
        self.register_root_fn(i, trace_thunk::<T>);
        self.get_root_raw(i) as *mut T
    }

    /// Untyped root store; recovery will trace it conservatively.
    pub fn set_root_raw(&self, i: usize, ptr: *const u8) {
        assert!(i < NUM_ROOTS, "root index out of range");
        let inner = &*self.inner;
        let off = (!ptr.is_null()).then(|| {
            let off = (ptr as usize)
                .checked_sub(inner.addr_of(inner.geo.sb(0)))
                .expect("set_root: pointer below superblock region");
            assert!(
                inner.geo.sb_index_of(inner.geo.sb(0) + off).is_some(),
                "set_root: pointer outside superblock region"
            );
            off as u64
        });
        let link = Link::new(off, 0);
        inner.root(i).store(link);
        inner.persist(inner.geo.root(i), 8);
        inner.emit(EventKind::RootPublish, i as u64, link.0);
    }

    /// Untyped root load (traced conservatively unless a typed
    /// `get_root`/`set_root` registered a filter).
    pub fn get_root_raw(&self, i: usize) -> *mut u8 {
        assert!(i < NUM_ROOTS, "root index out of range");
        let inner = &*self.inner;
        let base = inner.addr_of(inner.geo.sb(0));
        inner.root(i).load().target().map_or(std::ptr::null_mut(), |off| (base + off as usize) as *mut u8)
    }

    /// Drop any registered filter function for root `i`, forcing
    /// conservative tracing of it (used by tests and ablations).
    pub fn clear_root_filter(&self, i: usize) {
        self.inner.root_fns.lock().remove(&i);
    }

    fn register_root_fn(&self, i: usize, f: TraceFn) {
        self.inner.root_fns.lock().insert(i, f);
    }

    // -------------------------------------------------------- lifecycle

    /// The paper's `close()`: drain this thread's caches, clear the dirty
    /// indicator, and write the whole heap back (a file heap's pages are
    /// synced to its file) for a fast clean restart.
    /// Worker threads must have exited (their caches drain at thread
    /// exit).
    pub fn close(&self) -> io::Result<()> {
        let inner = &*self.inner;
        // A final sample then a joined stop: the time series ends with
        // the post-drain state instead of dangling mid-run.
        self.stop_sampler();
        tcache::drain_current_thread(inner);
        // Exit drains still in flight (TLS destructors outlive `scope`
        // joins) finish first, so their flushes land before the scan and
        // write-back rather than during.
        inner.await_exit_drains();
        // Quiescent point: release the trailing fully-free run while the
        // heap is still marked dirty, so a crash mid-shrink triggers a
        // full rebuild rather than trusting half-shrunk lists.
        inner.shrink_quiesced();
        inner.closed.store(true, Ordering::Release);
        // The Close record lands before the dirty-clear so the final
        // full-pool flush below carries both.
        inner.emit(EventKind::Close, 0, 0);
        // SAFETY: metadata word.
        unsafe { inner.pool.atomic_u64(DIRTY_OFF) }.store(0, Ordering::Release);
        if !inner.transient {
            inner.pool.flush(0, inner.pool.committed_len());
            inner.pool.fence();
        }
        inner.pool.sync()
    }

    /// Quiescent-point shrink: release the trailing run of fully-free
    /// superblocks back to the OS — descriptors unlinked, `used` lowered
    /// (flushed and fenced), then the pool tail decommitted. Returns the
    /// number of superblocks released.
    ///
    /// The caller must guarantee quiescence (no concurrent heap
    /// operation), exactly as for [`Ralloc::recover`]. [`Ralloc::close`]
    /// runs it too; recovery shares its `used` and decommit steps.
    ///
    /// Blocks held in live threads' caches keep their superblocks
    /// non-free, so an explicit shrink releases the most after worker
    /// threads exit.
    pub fn shrink(&self) -> usize {
        self.inner.await_exit_drains();
        self.inner.shrink_quiesced()
    }

    /// Simulate a full-system crash (Tracked pools only): every line not
    /// flushed-and-fenced is lost, all thread caches are forgotten, and
    /// the heap is left dirty. Call [`Ralloc::recover`] before further
    /// use. Requires quiescence (no concurrent heap operations).
    pub fn crash_simulated(&self) {
        let inner = &*self.inner;
        inner.pool.crash();
        inner.generation.store(tcache::fresh_generation(), Ordering::SeqCst);
        inner.closed.store(false, Ordering::Release);
        tcache::discard_current_thread(inner);
    }

    /// Was the heap dirty at open time / is recovery pending? (The dirty
    /// word itself, for inspection.)
    pub fn is_dirty(&self) -> bool {
        // SAFETY: metadata word.
        unsafe { self.inner.pool.atomic_u64(DIRTY_OFF) }.load(Ordering::Acquire) == 1
    }

    /// Offline recovery (paper §4.5): trace from the registered roots,
    /// then rebuild all transient metadata. Call `get_root<T>` for every
    /// live root first, as the paper requires; unregistered roots fall
    /// back to conservative tracing.
    ///
    /// Every thread cache is invalidated on entry: cached blocks are
    /// unreachable from the roots, so the rebuild reclaims them — the
    /// crash semantics recovery models even when called on a live heap.
    pub fn recover(&self) -> crate::recovery::RecoveryStats {
        crate::recovery::recover_with(&self.inner, 1)
    }

    /// Parallel offline recovery (paper §6.4 future work): tracing is
    /// divided across persistent roots, one worker per root up to
    /// `threads`. Equivalent to [`Ralloc::recover`] with `threads == 1`.
    pub fn recover_parallel(&self, threads: usize) -> crate::recovery::RecoveryStats {
        crate::recovery::recover_with(&self.inner, threads)
    }

    // ------------------------------------------------------- inspection

    /// The underlying pool (benchmarks read its flush statistics).
    pub fn pool(&self) -> &PmemPool {
        &self.inner.pool
    }

    /// The calling thread's home shard (tests and benches use it to
    /// construct guaranteed-remote frees).
    pub fn current_home_shard(&self) -> u32 {
        shard::current_home_shard()
    }

    /// The recorded owner of the superblock containing `ptr`: the home
    /// shard of the thread whose fill last claimed it (after a rebuild,
    /// `sb % SHARDS`) — a free of `ptr` flushed from any other shard
    /// counts as remote.
    pub fn owner_shard_of(&self, ptr: *const u8) -> u32 {
        let inner = &*self.inner;
        let off = (ptr as usize).wrapping_sub(inner.pool.base() as usize);
        let sb = inner.geo.sb_index_of(off).expect("owner_shard_of: pointer outside superblocks");
        Desc::new(&inner.pool, &inner.geo, sb as u32).owner()
    }

    /// Slow-path event counters.
    pub fn slow_stats(&self) -> &SlowStats {
        &self.inner.slow
    }

    // ------------------------------------------------------- telemetry

    /// The heap's metric registry: every [`SlowStats`] counter by name,
    /// plus recovery gauges and any metrics callers register themselves
    /// (e.g. a workload's latency [`telemetry::Histogram`]).
    pub fn telemetry(&self) -> &Registry {
        &self.inner.telemetry
    }

    /// The pool's flight timeline as it was at adoption, before this
    /// process recorded anything — after a crash, the victim's last
    /// protocol steps. Empty for freshly created heaps.
    pub fn preopen_flight(&self) -> &FlightScan {
        &self.inner.preopen_flight
    }

    /// Scan the pool's flight ring right now (this run's records plus
    /// whatever of the previous run's the ring still holds): the heap's
    /// event stream (grow/shrink and recovery phases, root publishes,
    /// open/close; see [`telemetry::EventKind`]). Safe under concurrency:
    /// a racing writer costs at worst a torn slot.
    pub fn flight_timeline(&self) -> FlightScan {
        flight::scan_pool(&self.inner.pool)
    }

    /// One JSON object capturing the full telemetry state: the heap and
    /// pmem registries (scopes `heap` / `pmem`), frontier gauges, and
    /// the flight ring as [`FlightScan::to_json`] writes it — the same
    /// bytes `rinspect timeline --json` prints for the same ring.
    pub fn telemetry_snapshot(&self) -> String {
        let inner = &*self.inner;
        format!(
            "{{\"t_ms\": {}, \"heap_id\": {}, \"used_sb\": {}, \"committed_sb\": {}, \
             \"committed_len\": {}, \"registries\": {}, \"flight\": {}}}",
            telemetry::now_ms(),
            inner.id,
            inner.used_sb(),
            inner.committed_sb(),
            inner.pool.committed_len(),
            telemetry::export::to_json(&[
                ("heap", &inner.telemetry),
                ("pmem", inner.pool.stats().registry()),
            ]),
            self.flight_timeline().to_json(),
        )
    }

    /// Start a background sampler appending one line to `path` every
    /// `interval` (JSONL): each line is a [`Ralloc::telemetry_snapshot`]
    /// object, so a line and a snapshot share one schema. Also reachable via
    /// `RALLOC_TELEMETRY=<path>` / `RALLOC_TELEMETRY_MS=<ms>` at open.
    /// Replaces any sampler already running on this heap. The sampler
    /// holds only a weak reference: it retires when the heap drops, and
    /// [`Ralloc::close`] stops it.
    pub fn start_sampler(
        &self,
        path: impl AsRef<Path>,
        interval: Duration,
    ) -> io::Result<()> {
        let weak = Arc::downgrade(&self.inner);
        let handle = SamplerHandle::start(path, interval, move || {
            weak.upgrade().map(|inner| Ralloc { inner }.telemetry_snapshot())
        })?;
        *self.inner.sampler.lock() = Some(handle);
        Ok(())
    }

    /// Stop and join the background sampler, if one is running.
    pub fn stop_sampler(&self) {
        let handle = self.inner.sampler.lock().take();
        if let Some(mut handle) = handle {
            handle.stop();
        }
    }

    /// Heap geometry.
    pub fn geometry(&self) -> Geometry {
        self.inner.geo
    }

    /// Superblocks carved so far.
    pub fn used_superblocks(&self) -> usize {
        self.inner.used_sb()
    }

    /// Superblocks covered by the pool's committed prefix — carving
    /// beyond this triggers a (cold-path) grow.
    pub fn committed_superblocks(&self) -> usize {
        self.inner.committed_sb()
    }

    /// The reserved ceiling in superblocks; the heap can never grow past
    /// this (malloc returns null once it is exhausted).
    pub fn max_superblocks(&self) -> usize {
        self.inner.geo.max_sb
    }

    /// True when the heap runs in LRMalloc (no flush/fence) mode.
    pub fn is_transient(&self) -> bool {
        self.inner.transient
    }

    /// Absolute address of the superblock region's first byte; the base
    /// against which region-relative offsets (roots, packed counted
    /// pointers) are expressed.
    pub fn region_base(&self) -> usize {
        self.inner.addr_of(self.inner.geo.sb(0))
    }

    /// True if `ptr` lies inside this heap's superblock region.
    pub fn contains(&self, ptr: *const u8) -> bool {
        let off = (ptr as usize).wrapping_sub(self.inner.pool.base() as usize);
        self.inner.geo.sb_index_of(off).is_some()
    }
}

impl std::fmt::Debug for Ralloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ralloc")
            .field("id", &self.inner.id)
            .field("used_sb", &self.inner.used_sb())
            .field("committed_sb", &self.inner.committed_sb())
            .field("max_sb", &self.inner.geo.max_sb)
            .field("transient", &self.inner.transient)
            .finish()
    }
}

#[cfg(test)]
mod batch_tests {
    //! The Fill/Flush amortization contract: a fill of N blocks costs at
    //! most one anchor CAS and one size-identity flush, and a flush of N
    //! same-superblock blocks costs exactly one anchor CAS and no
    //! flushes, regardless of N.

    use super::*;
    use crate::anchor::SbState;
    use crate::lists::DescList;
    use crate::size_class::{cache_capacity, class_max_count, SB_SIZE};
    use crate::RallocConfig;

    fn stats_of(heap: &Ralloc) -> (u64, u64, u64, u64, u64, u64) {
        let s = heap.slow_stats();
        (
            s.cache_fills.get(),
            s.cache_fill_blocks.get(),
            s.cache_flushes.get(),
            s.cache_flushes_blocks.get(),
            s.fill_anchor_cas.get(),
            s.flush_anchor_cas.get(),
        )
    }

    #[test]
    fn fresh_fill_batches_whole_superblock_no_cas_one_flush() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as u64; // 64 B class: 1024 blocks
        let fences0 = heap.pool().stats().snapshot().fences;
        let p = heap.malloc(64); // one fill: a whole fresh superblock
        assert!(!p.is_null());
        let (fills, fill_blocks, _, _, fill_cas, _) = stats_of(&heap);
        assert_eq!(fills, 1, "one malloc, one fill");
        assert_eq!(fill_blocks, mc, "the fill moved the whole superblock");
        assert_eq!(fill_cas, 0, "a fresh superblock is owned outright: no anchor CAS");
        // Exactly two fences: the `used` expansion and the size identity,
        // amortized over all `mc` blocks of the batch.
        let fences = heap.pool().stats().snapshot().fences - fences0;
        assert_eq!(fences, 2, "fill of {mc} blocks must flush once (+ once for carve)");
        assert_eq!(heap.slow_stats().avg_fill_batch(), mc as f64);
        heap.free(p);
    }

    #[test]
    fn partial_fill_batches_with_exactly_one_cas_zero_flushes() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as usize;
        // Drain one whole superblock through the bin, keeping ownership.
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        // Hand 10 blocks back as one batch: the superblock turns PARTIAL.
        let mut batch: Vec<usize> = ptrs[..10].to_vec();
        heap.inner.flush_blocks(&mut batch);
        let (_, _, _, _, fill_cas0, flush_cas0) = stats_of(&heap);
        assert_eq!(flush_cas0, 1, "one batch, one superblock, one CAS");
        let fences0 = heap.pool().stats().snapshot().fences;
        // Bin is empty (we popped exactly mc), so this malloc refills from
        // the partial superblock: the 10-block chain, one CAS, no flush.
        let q = heap.malloc(64);
        assert!(!q.is_null());
        let (fills, fill_blocks, _, _, fill_cas, _) = stats_of(&heap);
        assert_eq!(fills, 2);
        assert_eq!(fill_blocks as usize, mc + 10, "second fill took the 10-block chain");
        assert_eq!(fill_cas - fill_cas0, 1, "a fill of N blocks performs exactly one anchor CAS");
        assert_eq!(
            heap.pool().stats().snapshot().fences,
            fences0,
            "a partial fill performs zero flushes"
        );
        heap.free(q);
        for &p in &ptrs[10..] {
            heap.free(p as *mut u8);
        }
    }

    #[test]
    fn bin_overflow_flushes_whole_bin_one_cas_per_superblock() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as usize;
        let cap = cache_capacity(8) as usize;
        let ptrs: Vec<usize> = (0..2 * mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        // Free the first superblock's population plus one: the bin fills
        // to capacity and the overflowing free flushes it in one batch.
        for &p in &ptrs[..cap + 1] {
            heap.free(p as *mut u8);
        }
        let s = heap.slow_stats();
        assert_eq!(s.cache_flushes.get(), 1);
        assert_eq!(s.cache_flushes_blocks.get(), cap as u64);
        assert_eq!(
            s.flush_anchor_cas.get(),
            1,
            "flushing {cap} same-superblock blocks must cost exactly one anchor CAS"
        );
        assert_eq!(s.avg_flush_batch(), cap as f64);
        for &p in &ptrs[cap + 1..] {
            heap.free(p as *mut u8);
        }
    }

    #[test]
    fn overflow_returns_the_oldest_superblock_population_and_keeps_the_rest() {
        // 4 096 B: bin == population, so the overflow returns all 16.
        // 14 336 B: a 16-slot bin of 4-block superblocks returns 4, keeps 12.
        for size in [4096, 14336] {
            let class = size_class_of(size).unwrap();
            let (per_sb, cap) = (class_max_count(class) as usize, cache_capacity(class) as usize);
            let heap = Ralloc::create(8 << 20, RallocConfig::default());
            let held: Vec<usize> =
                (0..cap / 2 * per_sb).map(|_| heap.malloc(size) as usize).collect();
            assert!(held.iter().all(|&p| p != 0));
            // Two blocks of each of cap/2 superblocks, oldest first: the
            // bin is full, and any `per_sb` oldest span per_sb/2 of them.
            let freed: Vec<usize> =
                (0..cap / 2).flat_map(|sb| [held[sb * per_sb], held[sb * per_sb + 1]]).collect();
            for &p in &freed {
                heap.free(p as *mut u8);
            }
            let (fills0, _, flushes0, flush_blocks0, _, cas0) = stats_of(&heap);
            let overflowing = held[2];
            heap.free(overflowing as *mut u8);
            let (_, _, flushes, flush_blocks, _, cas) = stats_of(&heap);
            assert_eq!(flushes - flushes0, 1, "{size} B: one overflow, one flush");
            assert_eq!(flush_blocks - flush_blocks0, per_sb as u64, "{size} B: one population");
            assert_eq!(cas - cas0, (per_sb / 2) as u64, "{size} B: one CAS per superblock spanned");
            // The overflowing block and the newest cap - per_sb frees are
            // still cached, newest first, and serving them fills nothing.
            let kept: Vec<usize> =
                std::iter::once(overflowing).chain(freed[per_sb..].iter().rev().copied()).collect();
            let served: Vec<usize> = kept.iter().map(|_| heap.malloc(size) as usize).collect();
            assert_eq!(served, kept, "{size} B: the bin kept its newest blocks, in LIFO order");
            assert_eq!(stats_of(&heap).0, fills0, "{size} B: served from the bin, no fill");
        }
    }

    #[test]
    fn mixed_superblock_flush_one_cas_per_group() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as usize;
        // Two superblocks' worth so the bin can hold a mixture.
        let ptrs: Vec<usize> = (0..mc + 4).map(|_| heap.malloc(64) as usize).collect();
        // Interleave blocks of superblock A (first mc) and B (last 4).
        let mut batch =
            vec![ptrs[0], ptrs[mc], ptrs[1], ptrs[mc + 1], ptrs[2], ptrs[mc + 2], ptrs[3]];
        heap.inner.flush_blocks(&mut batch);
        let s = heap.slow_stats();
        assert_eq!(
            s.flush_anchor_cas.get(),
            2,
            "two superblocks in the batch: exactly two anchor CASes"
        );
        for &p in &ptrs[4..mc] {
            heap.free(p as *mut u8);
        }
        heap.free(ptrs[mc + 3] as *mut u8);
    }

    #[test]
    fn an_empty_superblock_parked_on_a_partial_list_serves_only_its_own_class() {
        let parked = || {
            let heap = Ralloc::create(8 << 20, RallocConfig::default());
            let mc = class_max_count(8) as usize;
            let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
            // Park the superblock EMPTY on the 64 B class's partial list:
            // first batch makes it FULL->PARTIAL (enlists), second makes it
            // PARTIAL->EMPTY (lazy retirement leaves it enlisted).
            let mut first: Vec<usize> = ptrs[..mc - 1].to_vec();
            heap.inner.flush_blocks(&mut first);
            let mut second = vec![ptrs[mc - 1]];
            heap.inner.flush_blocks(&mut second);
            assert_eq!(heap.used_superblocks(), 1);
            heap
        };
        // Its own class's next fill pops it, retires it to the free list
        // and takes it from there: no carve.
        let heap = parked();
        let p = heap.malloc(64);
        assert!(!p.is_null());
        assert_eq!(heap.used_superblocks(), 1, "the parked superblock must serve its own class");
        assert_eq!(heap.slow_stats().sb_carved.get(), 1, "only the first fill carved");
        heap.free(p);
        // Another class's fill does not look on the 64 B class's lists:
        // it carves.
        let heap = parked();
        let q = heap.malloc(128);
        assert!(!q.is_null());
        assert_eq!(heap.used_superblocks(), 2, "another class carves past a parked superblock");
        heap.free(q);
    }

    #[test]
    fn sharded_fill_counters_account_home_and_steals() {
        // Single-threaded: every partial pop is a home hit, never a steal.
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        let mut batch: Vec<usize> = ptrs[..10].to_vec();
        heap.inner.flush_blocks(&mut batch);
        let q = heap.malloc(64); // refills from the partial superblock
        assert!(!q.is_null());
        let s = heap.slow_stats();
        assert_eq!(s.partial_pops_home.get(), 1);
        assert_eq!(s.partial_steals.get(), 0);
        assert_eq!(s.partial_shard_pushes.get(), 1);
    }

    #[test]
    fn small_initial_commit_grows_on_demand_and_stops_at_reserve() {
        let heap = Ralloc::create(
            4 << 20,
            RallocConfig {
                initial_capacity: Some(4 << 20),
                max_capacity: Some(16 << 20),
                ..Default::default()
            },
        );
        let committed0 = heap.committed_superblocks();
        assert!(committed0 < heap.max_superblocks(), "heap must start partially committed");
        assert_eq!(heap.geometry().max_sb, heap.max_superblocks());
        // Exhaust the initial commitment with large allocations (one
        // superblock each, no cache retention) and keep going: the
        // frontier must grow, transparently, with no null returns.
        let mut held = Vec::new();
        for _ in 0..heap.max_superblocks() {
            let p = heap.malloc(SB_SIZE - 16);
            assert!(!p.is_null(), "malloc must grow, not fail, below the reserve ceiling");
            held.push(p);
        }
        let grows = heap.slow_stats().heap_grows.get();
        assert!(grows >= 2, "doubling from {committed0} sbs must take several grows: {grows}");
        assert_eq!(heap.committed_superblocks(), heap.max_superblocks());
        // The reserve ceiling is a hard OOM…
        assert!(heap.malloc(SB_SIZE - 16).is_null());
        // …but frees keep the heap serviceable (no corruption).
        for p in held {
            heap.free(p);
        }
        assert!(!heap.malloc(SB_SIZE - 16).is_null());
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    fn default_config_commits_everything_upfront() {
        // The historical fixed-pool behavior: no growth machinery on the
        // hot path unless a config/env asks for a smaller initial commit.
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        assert_eq!(heap.committed_superblocks(), heap.max_superblocks());
        let p = heap.malloc(64);
        assert!(!p.is_null());
        assert_eq!(heap.slow_stats().heap_grows.get(), 0);
        heap.free(p);
    }

    #[test]
    fn grow_persists_frontier_before_used() {
        // In Tracked mode, after any quiescent moment the image — the
        // committed prefix — must cover the persisted `used`: the
        // ordering the grow protocol guarantees (commit, then `used`).
        let heap = Ralloc::create(
            2 << 20,
            RallocConfig {
                initial_capacity: Some(2 << 20),
                max_capacity: Some(8 << 20),
                ..RallocConfig::tracked()
            },
        );
        let mut held = Vec::new();
        for _ in 0..heap.max_superblocks() {
            let p = heap.malloc(SB_SIZE / 2 + 1); // large path, 1 sb each
            assert!(!p.is_null());
            held.push(p);
        }
        assert!(heap.slow_stats().heap_grows.get() >= 1);
        heap.crash_simulated();
        // Whatever survived: used within the image, invariants hold.
        let image = heap.pool().persistent_image();
        // SAFETY: metadata word on a quiescent pool.
        let used = unsafe { heap.pool().read_u64(USED_SB_OFF) } as usize;
        assert!(used > 0);
        assert_eq!(
            heap.geometry().check_image(image.len(), used),
            Ok(heap.committed_superblocks()),
            "persisted used {used} outran the image's {} bytes",
            image.len()
        );
        heap.recover();
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    fn grouped_flush_partition_is_linear_in_batch_size() {
        let heap = Ralloc::create(32 << 20, RallocConfig::default());
        let mc = class_max_count(8) as usize;
        // Blocks from many superblocks: allocate `sbs` whole superblocks
        // worth and take a couple of blocks from each, interleaved — the
        // adversarial shape for the linear partition, past the number of
        // groups it takes before sorting the rest.
        let sbs = 24usize;
        let ptrs: Vec<usize> = (0..sbs * mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0));
        let mut batch: Vec<usize> = Vec::new();
        for blk in 0..2 {
            for sb in 0..sbs {
                batch.push(ptrs[sb * mc + blk]);
            }
        }
        let cas0 = heap.slow_stats().flush_anchor_cas.get();
        heap.inner.flush_blocks(&mut batch);
        let cas = heap.slow_stats().flush_anchor_cas.get() - cas0;
        assert_eq!(cas, sbs as u64, "one anchor CAS per superblock group");
        // Every block is back on its own superblock's chain, and nothing
        // else is: walk each chain from its anchor.
        let geo = heap.geometry();
        let base = heap.pool().base() as usize;
        for sb in 0..sbs {
            let first = ptrs[sb * mc];
            let idx = geo.sb_index_of(first - base).unwrap();
            let a = Desc::new(heap.pool(), &geo, idx as u32).anchor(Ordering::Acquire);
            assert_eq!((a.state, a.count), (SbState::Partial, 2), "superblock {idx}");
            let sb_addr = base + geo.sb(idx);
            let mut chain = Vec::new();
            let mut blk = a.avail as usize;
            for _ in 0..a.count {
                let addr = sb_addr + blk * 64;
                chain.push(addr);
                // SAFETY: a free block's first word is its chain link.
                blk = unsafe { *(addr as *const u64) } as usize;
            }
            chain.sort_unstable();
            assert_eq!(chain, [first, ptrs[sb * mc + 1]], "superblock {idx}'s chain");
        }
        // Returned blocks are genuinely free again: drain them back out.
        for &p in &ptrs {
            if !batch.contains(&p) {
                heap.free(p as *mut u8);
            }
        }
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    fn explicit_shrink_releases_doubling_overshoot() {
        // Grow far enough that the doubling policy overshoots `used`,
        // free nothing: shrink must still pull the frontier back onto
        // the used prefix (releasing only never-carved space).
        let heap = Ralloc::create(
            1 << 20,
            RallocConfig {
                initial_capacity: Some(1 << 20),
                max_capacity: Some(32 << 20),
                ..Default::default()
            },
        );
        let mut held = Vec::new();
        for _ in 0..33 {
            held.push(heap.malloc(SB_SIZE / 2 + 1)); // 1 sb each, large path
        }
        assert!(held.iter().all(|p| !p.is_null()));
        let used = heap.used_superblocks();
        assert!(
            heap.committed_superblocks() > used,
            "doubling should overshoot at 33 sbs"
        );
        let released = heap.shrink();
        assert!(released > 0);
        assert_eq!(heap.used_superblocks(), used, "no live superblock may be released");
        assert_eq!(heap.committed_superblocks(), used, "frontier lands on used");
        // Everything still serviceable; the span regrows on demand.
        for p in held {
            heap.free(p);
        }
        assert!(!heap.malloc(64).is_null());
        assert!(crate::checker::check_heap(&heap).is_consistent());
    }

    #[test]
    fn batched_return_transitions_full_to_empty_and_retires() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..mc).map(|_| heap.malloc(64) as usize).collect();
        let off = ptrs[0] - heap.pool().base() as usize;
        let sb = heap.geometry().sb_index_of(off).unwrap();
        // Return the whole population as one batch: FULL -> EMPTY with a
        // single CAS, and the superblock lands on the free list.
        let mut batch = ptrs.clone();
        heap.inner.flush_blocks(&mut batch);
        let d = Desc::new(heap.pool(), &heap.geometry(), sb as u32);
        let a = d.anchor(Ordering::Acquire);
        assert_eq!(a.state, SbState::Empty);
        assert_eq!(a.count as usize, mc);
        assert_eq!(heap.slow_stats().flush_anchor_cas.get(), 1);
        assert_eq!(
            DescList::free_list(&heap.geometry()).collect(heap.pool(), &heap.geometry()),
            vec![sb as u32],
            "fully-freed FULL superblock must retire to the free list"
        );
    }
}

#[cfg(test)]
mod remote_free_tests {
    //! The remote-free contract: a flushed group whose superblock another
    //! shard's thread filled goes back exactly like a local one — one
    //! anchor CAS for the whole group, visible to every fill and to
    //! shrink at once — and is counted as remote. A superblock belongs to
    //! the shard of the thread that filled from it, so the
    //! guaranteed-remote frees here are blocks another thread allocated.

    use super::*;
    use crate::anchor::SbState;
    use crate::size_class::class_max_count;
    use crate::RallocConfig;

    /// Pop `n` whole superblock populations of the 64 B class (class 8)
    /// through the thread cache. Fills move whole fresh superblocks into
    /// the bin in carve order, so chunk `i` is exactly the population of
    /// the `i`-th carved superblock and the bin ends empty.
    fn alloc_superblocks(heap: &Ralloc, n: usize) -> Vec<Vec<usize>> {
        let mc = class_max_count(8) as usize;
        let ptrs: Vec<usize> = (0..n * mc).map(|_| heap.malloc(64) as usize).collect();
        assert!(ptrs.iter().all(|&p| p != 0), "allocation failed mid-setup");
        ptrs.chunks(mc).map(|c| c.to_vec()).collect()
    }

    /// [`alloc_superblocks`] run to completion on a spawned thread whose
    /// home shard is not the caller's: every returned superblock is owned
    /// by that other shard, so the caller flushing its blocks is remote.
    fn alloc_superblocks_elsewhere(heap: &Ralloc, n: usize) -> Vec<Vec<usize>> {
        let home = heap.current_home_shard();
        for _ in 0..64 {
            let heap = heap.clone();
            let worker = std::thread::spawn(move || {
                (heap.current_home_shard() != home).then(|| alloc_superblocks(&heap, n))
            });
            if let Some(sbs) = worker.join().unwrap() {
                return sbs;
            }
        }
        panic!("no spawned thread landed on a foreign shard");
    }

    #[test]
    fn remote_group_flush_takes_one_anchor_cas() {
        let heap = Ralloc::create(16 << 20, RallocConfig::default());
        let sbs = alloc_superblocks_elsewhere(&heap, 2);
        let remote = &sbs[0];
        assert_ne!(heap.owner_shard_of(remote[0] as *const u8), heap.current_home_shard());
        let s = heap.slow_stats();
        let mut batch: Vec<usize> = remote[..10].to_vec();
        heap.inner.flush_blocks(&mut batch);
        assert_eq!(s.flush_anchor_cas.get(), 1, "one group, one anchor CAS");
        assert_eq!(s.remote_anchor_cas.get(), 1);
        assert_eq!(s.remote_free_blocks.get(), 10);
        // The blocks are on the superblock's chain at once, enlisted on
        // the freeing thread's shard: its next fill takes exactly them.
        let off = remote[0] - heap.pool().base() as usize;
        let sb = heap.geometry().sb_index_of(off).unwrap() as u32;
        let a = Desc::new(heap.pool(), &heap.geometry(), sb).anchor(Ordering::Acquire);
        assert_eq!((a.state, a.count), (SbState::Partial, 10));
        let mut got: Vec<usize> = (0..10).map(|_| heap.malloc(64) as usize).collect();
        got.sort_unstable();
        batch.sort_unstable();
        assert_eq!(got, batch);
        assert_eq!(s.sb_carved.get(), 2, "the refill carved");
    }

    #[test]
    fn shrink_releases_remotely_freed_superblocks() {
        let heap = Ralloc::create(16 << 20, RallocConfig::default());
        let mut sbs = alloc_superblocks(&heap, 1);
        let elsewhere = alloc_superblocks_elsewhere(&heap, 4);
        sbs.extend(elsewhere);
        // Whole populations, local and remote alike: each group retires
        // its superblock outright, so shrink finds nothing held back.
        for chunk in &sbs {
            let mut batch = chunk.clone();
            heap.inner.flush_blocks(&mut batch);
        }
        assert_eq!(
            heap.slow_stats().remote_free_blocks.get(),
            4 * class_max_count(8) as u64
        );
        heap.shrink();
        assert_eq!(heap.used_superblocks(), 0, "a remotely freed superblock stayed pinned");
        let report = crate::checker::check_heap(&heap);
        assert!(report.is_consistent(), "{:?}", report.violations);
    }
}

#[cfg(test)]
mod hit_path_tests {
    //! The split `malloc` / `free`: the inlined hit path serves only a
    //! small block through a current fast slot and hands everything else
    //! to `malloc_slow` / `free_slow`, which check and panic as before.

    use std::collections::HashSet;

    use super::*;
    use crate::gc::{Trace, Tracer};
    use crate::layout::ROOTS_OFF;
    use crate::size_class::SB_SIZE;
    use crate::RallocConfig;
    use pptr::Pptr;

    /// Blocks in this thread's bins for `heap`, read through the fast
    /// slot (which the caller has warmed).
    fn cached(heap: &Ralloc) -> u32 {
        tcache::with_fast_tls(&heap.inner, |tls| tls.bins.iter().map(|b| b.len()).sum())
            .expect("the fast slot holds this heap's cache set")
    }

    #[test]
    fn a_misused_free_panics_in_free_slow_and_caches_nothing() {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let warm = heap.malloc(64);
        heap.free(warm);
        let large = heap.malloc(3 * SB_SIZE);
        assert!(!large.is_null());
        let base = heap.pool().base() as usize;
        let misuses = [
            (0, "free(null)"),
            (base - 4096, "free: pointer below heap"),
            (base + ROOTS_OFF, "free: pointer outside superblock region"),
            (large as usize + SB_SIZE, "free: address inside a large allocation"),
        ];
        for (ptr, expected) in misuses {
            let before = cached(&heap);
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| heap.free(ptr as *mut u8)));
            let payload = caught.expect_err("a misused free returned");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.starts_with(expected), "free({ptr:#x}) panicked with {msg:?}");
            assert_eq!(cached(&heap), before, "free({ptr:#x}) put a block in a bin");
        }
        heap.free(large);
        assert_eq!(heap.malloc(64), warm, "the hit path pops the block cached before");
    }

    /// A 64 B list node: it shares the 64 B bin with the blocks around it.
    #[repr(C)]
    struct Node {
        next: Pptr<Node>,
        _pad: [u64; 7],
    }

    // SAFETY: `trace` visits the node's one pointer field.
    unsafe impl Trace for Node {
        fn trace(&self, t: &mut Tracer<'_>) {
            t.visit_pptr(&self.next);
        }
    }

    #[test]
    fn after_a_crash_the_hit_path_pops_no_block_cached_before_it() {
        // The nodes are freed into this thread's 64 B bin, but their
        // unlink never reached media: the image still roots them, so
        // recovery keeps them allocated, and a hit that popped the old
        // bin would hand a live block out. With the crash and recovery on
        // this thread, `crash_simulated` drops the cache set; on another
        // thread, only the generation compare of the fast-slot check
        // stands between the stale bin and the hit.
        for elsewhere in [false, true] {
            let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
            let mut head: *mut Node = std::ptr::null_mut();
            let mut nodes = HashSet::new();
            for _ in 0..100 {
                let p = heap.malloc(std::mem::size_of::<Node>()) as *mut Node;
                assert!(!p.is_null());
                // SAFETY: a fresh 64 B block.
                unsafe { (*p).next.set(head) };
                heap.pool().persist(p as usize - heap.pool().base() as usize, 8);
                head = p;
                nodes.insert(p as usize);
            }
            heap.set_root::<Node>(0, head);
            for &p in &nodes {
                heap.free(p as *mut u8);
            }
            let crash_and_recover = || {
                heap.crash_simulated();
                heap.get_root::<Node>(0);
                heap.recover().reachable_blocks
            };
            let reachable = if elsewhere {
                std::thread::scope(|s| s.spawn(crash_and_recover).join().unwrap())
            } else {
                crash_and_recover()
            };
            assert_eq!(reachable, 100, "crash elsewhere: {elsewhere}");
            let used = heap.used_superblocks();
            while heap.used_superblocks() == used {
                let p = heap.malloc(64) as usize;
                assert_ne!(p, 0, "crash elsewhere: {elsewhere}");
                assert!(!nodes.contains(&p), "crash elsewhere: {elsewhere}: live node {p:#x} reissued");
            }
        }
    }
}
