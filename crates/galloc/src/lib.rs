//! Drop-in `#[global_allocator]` surface over the Ralloc persistent heap.
//!
//! ```ignore
//! use galloc::RallocGlobal;
//!
//! #[global_allocator]
//! static ALLOC: RallocGlobal = RallocGlobal;
//! ```
//!
//! Every `Box`, `Vec`, `String` — the whole Rust allocation surface — is
//! then served from one process-wide Ralloc pool. The pool is created
//! lazily on the first allocation:
//!
//! * `GALLOC_POOL=<path>` maps (or creates) a durable heap file via
//!   [`Ralloc::open_file`], recovering it first if it is dirty, and
//!   registers an `atexit` handler that closes it cleanly. The heap is
//!   its file from the first store on: a process that is killed leaves
//!   the image dirty with every store it executed, and the next process
//!   recovers it here (no roots are registered, so recovery keeps what
//!   the persistent roots reach and reclaims the rest). Not safe across
//!   `fork()`: parent and child would write one mapping.
//! * Otherwise the pool is anonymous and transient (the paper's LRMalloc
//!   mode: no flushes, nothing to recover) — a plain fast DRAM allocator.
//! * `GALLOC_CAP=<bytes>` (with `K`/`M`/`G` suffixes) sets the reserved
//!   capacity; the committed footprint starts at a few superblocks and
//!   grows on demand (the pool's committed prefix is the heap's one
//!   frontier: a grow commits more of it before `used` covers it).
//!
//! ## Why a global allocator is harder than a handle
//!
//! The handle API (`Ralloc::malloc`) can assume it is *not* the allocator
//! its own implementation uses. A `#[global_allocator]` cannot: the
//! heap's transient metadata (thread cache sets, bin slot arrays, shard
//! vectors) is allocated with Rust's global allocator — i.e. through
//! *this very type*. Three mechanisms break the recursion:
//!
//! 1. **A state machine** ([`UNINIT`]→[`BUSY`]→[`READY`]/[`FAILED`]):
//!    while the pool is being built (`BUSY`), every allocation — notably
//!    the builder's own — is served by [`System`].
//! 2. **A re-entrancy flag** (const-initialized thread-local, so it is
//!    accessible even during thread teardown): while a pool operation is
//!    in flight on this thread, nested allocations go to [`System`].
//! 3. **Routing on `dealloc`** by [`Ralloc::contains`]: pool blocks go
//!    back to the pool, everything else to [`System`]. The two never
//!    mix because (1) and (2) guarantee internal DRAM is never carved
//!    from the pool.
//!
//! Allocations during TLS destructors (a `thread_local` with a `Drop`
//! that frees or allocates) are served too: the heap's cache layer falls
//! back to a transient one-shot cache set once this thread's TLS store
//! is gone, and the flag/fast-slot thread-locals are const-initialized
//! `Cell`s with no destructor of their own.
//!
//! ## Alignment
//!
//! Superblock starts are 64-byte aligned absolute addresses and class
//! block sizes are multiples of 8, so:
//!
//! * `align <= 64`: request `round_up(size, align)`. Every size class
//!   hit by a multiple of `align` is itself a multiple of `align` (the
//!   class table is 8-step below 128, 16-step to 256, 32-step to 512,
//!   then 64-multiples throughout), and large blocks start on superblock
//!   boundaries, so the natural block address is already aligned.
//! * `align > 64`: over-allocate `size + align + 8`, round the payload
//!   up past an 8-byte slot, and stash the raw block address in the slot
//!   just below the payload for `dealloc`/`realloc` to recover.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, UnsafeCell};
use std::io;
use std::mem::MaybeUninit;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

use ralloc::{Ralloc, RallocConfig};

pub mod boot;

/// Default reserved capacity when `GALLOC_CAP` is unset: 1 GiB of
/// virtual span (committed lazily, a few superblocks at a time).
pub const DEFAULT_CAP: usize = 1 << 30;

/// Initial committed capacity: small, so a short-lived process never
/// pays for the full reservation.
const INITIAL_COMMIT: usize = 8 << 20;

/// Largest alignment the pool serves from a naturally aligned block;
/// beyond this the over-allocate-and-stash scheme kicks in.
const NATURAL_ALIGN: usize = 64;

const UNINIT: u8 = 0;
const BUSY: u8 = 1;
const READY: u8 = 2;
const FAILED: u8 = 3;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Every piece of state the per-op fast paths touch, in *one* static.
///
/// One symbol matters: under the default PIC relocation model, statics
/// of an upstream crate are reached through the GOT — a pointer load to
/// find the static, then the value load. Scattered statics would cost
/// one GOT indirection *each* on every `alloc`/`dealloc`; a single
/// struct costs one, which is loop-invariant and hoistable, and keeps
/// the flag and the range bounds on one read-mostly cache line. The
/// heap itself is constructed *in place* here (not in a `OnceLock`), so
/// the `&Ralloc` the fast paths use is a constant offset from that same
/// address: liveness stays a control-only predicted branch instead of a
/// pointer load feeding the critical data dependency of every `malloc`.
#[repr(C, align(64))]
struct FastState {
    /// True exactly while the pool is READY and not closed — the one
    /// flag `alloc` branches on.
    live: AtomicBool,
    /// Cached absolute bounds of the pool's superblock region (fixed
    /// for the heap's life: the v5 pool reserves its whole span up
    /// front and grows only the committed frontier within it).
    /// `dealloc` routing is then two compares with no pointer chasing.
    /// Zero until init, so the empty range can never claim a foreign
    /// pointer.
    sb_start: AtomicUsize,
    sb_end: AtomicUsize,
    /// The heap, written exactly once by the UNINIT→BUSY race winner
    /// strictly before READY/`live` are Release-published. On its own
    /// cache line (`HeapSlot` is align(64)): whatever mutable state
    /// lives at the head of `Ralloc` must not false-share with the
    /// read-mostly routing fields above.
    heap: HeapSlot,
}

#[repr(align(64))]
struct HeapSlot(UnsafeCell<MaybeUninit<Ralloc>>);

// SAFETY: `heap` is written only by the BUSY-state winner before the
// Release-publish; afterwards it is only read through `&Ralloc` (itself
// Sync). The remaining fields are atomics.
unsafe impl Sync for FastState {}

static FAST: FastState = FastState {
    live: AtomicBool::new(false),
    sb_start: AtomicUsize::new(0),
    sb_end: AtomicUsize::new(0),
    heap: HeapSlot(UnsafeCell::new(MaybeUninit::uninit())),
};

/// The heap at its constant address.
///
/// # Safety
/// The pool must have been published (STATE == READY, or `FAST.live`
/// observed true with Acquire ordering).
#[inline]
unsafe fn heap_ref() -> &'static Ralloc {
    // SAFETY: per the caller contract the cell was initialized before a
    // Release-publish the caller has Acquire-observed.
    unsafe { &*(FAST.heap.0.get() as *const Ralloc) }
}

thread_local! {
    /// True while a pool operation is in flight on this thread. Const
    /// initialized and destructor-free: always accessible, even from a
    /// TLS destructor during thread teardown.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Scoped set/restore of [`IN_POOL`] (restore, not clear: `dealloc` of a
/// pool block may nest under an `alloc` that already holds the flag).
struct Enter {
    prev: bool,
}

impl Enter {
    #[inline]
    fn new() -> Enter {
        Enter { prev: IN_POOL.with(|c| c.replace(true)) }
    }
}

impl Drop for Enter {
    #[inline]
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

#[inline]
fn in_pool() -> bool {
    IN_POOL.with(Cell::get)
}

/// Run a pointer-producing `f` with the re-entrancy flag held, in a
/// *single* TLS access — the fast path for `alloc`. Null doubles as
/// the "already in a pool op" verdict (a nested allocation from inside
/// the pool's own machinery) and as pool exhaustion: either way the
/// caller serves from [`System`], so no separate discriminant is paid.
/// No unwind guard: unwinding out of a `GlobalAlloc` method is
/// undefined behavior anyway, so `f` must not panic.
#[inline]
fn with_pool_flag(f: impl FnOnce() -> *mut u8) -> *mut u8 {
    IN_POOL.with(|flag| {
        if flag.get() {
            return std::ptr::null_mut();
        }
        flag.set(true);
        let r = f();
        flag.set(false);
        r
    })
}

/// Like [`with_pool_flag`] but nesting-tolerant (save/restore): for
/// `realloc` of a pool block, which must reach the pool even when the
/// flag is already held.
#[inline]
fn with_pool_flag_nested<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL.with(|flag| {
        let prev = flag.replace(true);
        let r = f();
        flag.set(prev);
        r
    })
}

/// Set-and-clear flag bracket with *no* load: for `dealloc` of a pool
/// block. Sound because `GlobalAlloc::dealloc` of a pool-range pointer
/// is never re-entered from inside pool machinery — everything the pool
/// allocates internally comes from [`System`] (the alloc-path flag
/// guarantees it), so its drops route down the System branch, and the
/// pool frees its own blocks via `Ralloc::free` directly, never through
/// the global allocator. Two TLS stores instead of load+branch+stores.
#[inline]
fn with_pool_flag_leaf<R>(f: impl FnOnce() -> R) -> R {
    IN_POOL.with(|flag| {
        flag.set(true);
        let r = f();
        flag.set(false);
        r
    })
}

/// The process-wide pool, built lazily on first use. `None` while the
/// pool is being built (including re-entrant calls from the builder
/// itself), or forever after construction failed.
#[inline]
pub fn heap() -> Option<&'static Ralloc> {
    match STATE.load(Ordering::Acquire) {
        // SAFETY: READY Acquire-observed.
        READY => Some(unsafe { heap_ref() }),
        BUSY | FAILED => None,
        _ => init_slow(),
    }
}

/// True once [`close_pool`] has run: the image is durably closed, so no
/// further pool mutation is allowed (allocation falls back to [`System`]
/// and frees of pool blocks become no-ops in the exiting process).
#[inline]
pub fn pool_closed() -> bool {
    CLOSED.load(Ordering::Acquire)
}

#[cold]
fn init_slow() -> Option<&'static Ralloc> {
    if STATE.compare_exchange(UNINIT, BUSY, Ordering::AcqRel, Ordering::Acquire).is_err() {
        // Lost the race (or recursed here from the builder): the winner
        // will publish READY/FAILED; meanwhile System serves.
        return if STATE.load(Ordering::Acquire) == READY {
            // SAFETY: READY Acquire-observed.
            Some(unsafe { heap_ref() })
        } else {
            None
        };
    }
    // Building the heap allocates DRAM (shard vectors, telemetry, the
    // path string): all of it lands on System because STATE is BUSY.
    // The catch_unwind keeps a build panic from unwinding out of
    // `GlobalAlloc::alloc`, which would be undefined behavior.
    let built = std::panic::catch_unwind(build_heap);
    match built {
        Ok(Ok(h)) => {
            // SAFETY: we hold BUSY, so this is the only writer, and no
            // reader dereferences the cell until READY/LIVE below.
            let heap: &'static Ralloc = unsafe {
                (*FAST.heap.0.get()).write(h);
                heap_ref()
            };
            FAST.sb_start.store(heap.region_base(), Ordering::Relaxed);
            FAST.sb_end.store(heap.pool().base() as usize + heap.pool().len(), Ordering::Relaxed);
            STATE.store(READY, Ordering::Release);
            FAST.live.store(true, Ordering::Release);
            Some(heap)
        }
        _ => {
            STATE.store(FAILED, Ordering::Release);
            None
        }
    }
}

/// The pool handle iff it is ready and open, in one flag load — the
/// handle itself is the constant [`HEAP`] address, so the check is pure
/// control flow. Falls into the cold path only before the first
/// successful init (or after close or failure, where it keeps returning
/// `None` cheaply via [`STATE`]).
#[inline]
fn active_heap() -> Option<&'static Ralloc> {
    if FAST.live.load(Ordering::Acquire) {
        // SAFETY: LIVE Acquire-observed.
        return Some(unsafe { heap_ref() });
    }
    if STATE.load(Ordering::Acquire) == UNINIT {
        init_slow()
    } else {
        None
    }
}

/// True if `ptr` lies inside the pool's superblock region (two compares
/// against the cached bounds — no false positives before init, since
/// the range is then empty).
#[inline]
fn in_pool_range(ptr: *const u8) -> bool {
    let a = ptr as usize;
    a >= FAST.sb_start.load(Ordering::Relaxed) && a < FAST.sb_end.load(Ordering::Relaxed)
}

fn build_heap() -> io::Result<Ralloc> {
    let cap = std::env::var("GALLOC_CAP")
        .ok()
        .and_then(|s| ralloc::parse_size(&s))
        .unwrap_or(DEFAULT_CAP);
    let cfg = RallocConfig {
        initial_capacity: Some(INITIAL_COMMIT.min(cap)),
        ..RallocConfig::default()
    };
    match std::env::var_os("GALLOC_POOL") {
        Some(path) => {
            let path = PathBuf::from(path);
            let (heap, dirty) = Ralloc::open_file(&path, cap, cfg)?;
            if dirty {
                heap.recover();
            }
            register_atexit_close();
            Ok(heap)
        }
        None => Ok(Ralloc::create(cap, RallocConfig { transient: true, ..cfg })),
    }
}

extern "C" fn close_at_exit() {
    close_pool();
}

fn register_atexit_close() {
    extern "C" {
        fn atexit(f: extern "C" fn()) -> i32;
    }
    // SAFETY: libc atexit with a no-unwind extern "C" callback.
    unsafe { atexit(close_at_exit) };
}

/// Cleanly close a file-backed pool (flush, drain this thread's cache,
/// clear the dirty bit). Idempotent; returns whether this call did the
/// close. After closing, allocation falls back to [`System`] and frees
/// of still-live pool blocks are ignored — the pool image is sealed.
pub fn close_pool() -> bool {
    if STATE.load(Ordering::Acquire) != READY {
        return false;
    }
    if CLOSED.swap(true, Ordering::SeqCst) {
        return false;
    }
    // Unpublish the fast-path flag first: new allocations fall to
    // System while the close flushes and seals the image.
    FAST.live.store(false, Ordering::Release);
    // SAFETY: STATE == READY was checked above.
    let h = unsafe { heap_ref() };
    let _g = Enter::new();
    h.close().is_ok()
}

#[inline]
fn round_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

/// Allocate `size` bytes at `align` from the pool. Null on exhaustion.
///
/// # Safety
/// `align` must be a power of two (the `Layout` contract).
#[inline]
pub unsafe fn pool_alloc(heap: &Ralloc, size: usize, align: usize) -> *mut u8 {
    if align <= NATURAL_ALIGN {
        // Natural path: the rounded request lands in a size class whose
        // block size is a multiple of `align` (see module docs), or on a
        // superblock boundary for large requests. Zero-size requests are
        // bumped to one byte so they still get a unique block *of the
        // requested alignment*, C-`malloc(0)` style.
        heap.malloc(round_up(size.max(1), align))
    } else {
        let raw = heap.malloc(size + align + 8);
        if raw.is_null() {
            return std::ptr::null_mut();
        }
        let aligned = round_up(raw as usize + 8, align);
        // SAFETY: `aligned - 8 >= raw` and `aligned + size` fits the
        // block (it spans `size + align + 8` bytes); the slot is
        // 8-aligned because `aligned` is a multiple of `align >= 128`.
        unsafe { std::ptr::write((aligned as *mut u64).sub(1), raw as u64) };
        aligned as *mut u8
    }
}

/// Return a [`pool_alloc`] block to the pool. `align` must match the
/// allocation's (it selects the pointer scheme).
///
/// # Safety
/// `ptr` must be a live pool block allocated at `align`.
#[inline]
pub unsafe fn pool_dealloc(heap: &Ralloc, ptr: *mut u8, align: usize) {
    if align <= NATURAL_ALIGN {
        heap.free(ptr);
    } else {
        // SAFETY: pool_alloc stashed the raw block address just below
        // the over-aligned payload.
        let raw = unsafe { std::ptr::read((ptr as *const u64).sub(1)) } as *mut u8;
        heap.free(raw);
    }
}

/// The bytes usable at `ptr` without reallocation.
///
/// # Safety
/// `ptr` must be a live pool block allocated at `align`.
#[inline]
pub unsafe fn pool_usable_size(heap: &Ralloc, ptr: *const u8, align: usize) -> usize {
    if align <= NATURAL_ALIGN {
        heap.usable_size(ptr)
    } else {
        // SAFETY: per pool_alloc's layout, the raw block starts at the
        // stashed address and the payload at `ptr`.
        let raw = unsafe { std::ptr::read((ptr as *const u64).sub(1)) } as usize;
        heap.usable_size(raw as *const u8) - (ptr as usize - raw)
    }
}

/// The drop-in global allocator. A unit type: all state is process-wide
/// (one pool per process, like `malloc`).
pub struct RallocGlobal;

// SAFETY: allocation is served by the lock-free Ralloc heap or by
// System; dealloc routes each pointer back to the allocator that issued
// it (Ralloc::contains discriminates), and layouts are respected per
// the scheme in the module docs.
unsafe impl GlobalAlloc for RallocGlobal {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(heap) = active_heap() {
            // SAFETY: Layout guarantees a power-of-two align.
            let p = with_pool_flag(|| unsafe { pool_alloc(heap, layout.size(), layout.align()) });
            if !p.is_null() {
                return p;
            }
            // Null: either a nested allocation from the pool's own
            // machinery, or the pool is exhausted — degrade to System
            // rather than failing the process (dealloc routes by
            // range, so mixed provenance is fine).
            // None: re-entered from the pool's own DRAM needs.
        }
        // SAFETY: forwarded layout.
        unsafe { System.alloc(layout) }
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if in_pool_range(ptr) {
            if !FAST.live.load(Ordering::Acquire) {
                // The image is sealed (exit path): leaking in the dying
                // process beats dirtying a closed pool.
                return;
            }
            // SAFETY: a pool-range pointer implies the heap was
            // published (the range is empty before init); ptr came from
            // pool_alloc at this layout.
            with_pool_flag_leaf(|| unsafe { pool_dealloc(heap_ref(), ptr, layout.align()) });
            return;
        }
        // SAFETY: not a pool block, so it came from System.
        unsafe { System.dealloc(ptr, layout) }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if let Some(heap) = active_heap() {
            // SAFETY: Layout guarantees a power-of-two align.
            let p = with_pool_flag(|| unsafe { pool_alloc(heap, layout.size(), layout.align()) });
            if !p.is_null() {
                // A recycled persistent block holds whatever bytes
                // its previous life left there — possibly bytes
                // from *before a crash*. calloc semantics demand
                // zeroing, always.
                // SAFETY: the block spans at least layout.size().
                unsafe { std::ptr::write_bytes(p, 0, layout.size()) };
                return p;
            }
        }
        // SAFETY: forwarded layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if in_pool_range(ptr) {
            if !FAST.live.load(Ordering::Acquire) {
                // Sealed image: copy out to System, leak the pool block.
                // SAFETY: old block holds layout.size() readable bytes.
                unsafe {
                    let fresh =
                        System.alloc(Layout::from_size_align_unchecked(new_size, layout.align()));
                    if !fresh.is_null() {
                        std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
                    }
                    return fresh;
                }
            }
            // SAFETY: pool-range pointer implies a published heap; pool
            // block at this layout; new_size > 0 per the GlobalAlloc
            // contract.
            return unsafe { pool_realloc(heap_ref(), ptr, layout, new_size) };
        }
        // SAFETY: not a pool block, so it came from System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// RAII guard marking a pool operation in flight on this thread; the C
/// ABI layer (`crates/capi`) brackets its pool calls with this so both
/// surfaces share one re-entrancy flag.
pub struct ReentryGuard(#[allow(dead_code)] Enter);

/// Set the re-entrancy flag for the current scope (see [`ReentryGuard`]).
pub fn reentry_guard() -> ReentryGuard {
    ReentryGuard(Enter::new())
}

/// True while a pool operation is in flight on this thread — nested
/// allocations must be served away from the pool.
#[inline]
pub fn in_pool_op() -> bool {
    in_pool()
}

/// The heap, only if fully initialized: never triggers construction.
/// This is the accessor for `dealloc`-side routing — a pointer that
/// predates the pool cannot be a pool block.
#[inline]
pub fn heap_if_ready() -> Option<&'static Ralloc> {
    ready_heap()
}

#[inline]
fn ready_heap() -> Option<&'static Ralloc> {
    if STATE.load(Ordering::Acquire) == READY {
        // SAFETY: READY Acquire-observed.
        Some(unsafe { heap_ref() })
    } else {
        None
    }
}

/// Grow/shrink a pool block: in place while the rounded request still
/// fits the block's usable span, else allocate-copy-free.
///
/// # Safety
/// `ptr` is a live pool block of `layout`; `new_size > 0`.
unsafe fn pool_realloc(heap: &Ralloc, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
    let align = layout.align();
    with_pool_flag_nested(|| {
        // SAFETY: live pool block at this align.
        let usable = unsafe { pool_usable_size(heap, ptr, align) };
        if align <= NATURAL_ALIGN && round_up(new_size, align) <= usable {
            // In place: the class block (or large span) already covers
            // the new size. Shrinks always land here; so do grows
            // within slack.
            return ptr;
        }
        // SAFETY: align is a power of two, new_size > 0.
        let fresh = unsafe { pool_alloc(heap, new_size, align) };
        if fresh.is_null() {
            // SAFETY: degraded path mirrors alloc's System fallback.
            unsafe {
                let sys = System.alloc(Layout::from_size_align_unchecked(new_size, align));
                if sys.is_null() {
                    return std::ptr::null_mut();
                }
                std::ptr::copy_nonoverlapping(ptr, sys, layout.size().min(new_size));
                pool_dealloc(heap, ptr, align);
                return sys;
            }
        }
        // SAFETY: both blocks are live and at least min(old, new) long.
        unsafe {
            std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
            pool_dealloc(heap, ptr, align);
        }
        fresh
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_alignment_proof_holds_for_every_class() {
        // The module-docs claim pool_alloc's natural path relies on:
        // for every align in {1,2,4,8,16,32,64} and every size, the
        // class serving round_up(size, align) has a block size that is
        // a multiple of align.
        for align in [1usize, 2, 4, 8, 16, 32, 64] {
            for size in 0..=ralloc::MAX_SMALL {
                let req = round_up(size.max(1), align);
                if req > ralloc::MAX_SMALL {
                    continue; // large path: superblock start, 64-aligned
                }
                let class = ralloc::size_class::size_class_of(req)
                    .expect("small request must have a class");
                let bs = ralloc::size_class::class_block_size(class) as usize;
                assert_eq!(
                    bs % align,
                    0,
                    "class {class} (block {bs}) serves request {req} but breaks align {align}"
                );
            }
        }
    }

    #[test]
    fn pool_roundtrip_all_alignments() {
        let heap = Ralloc::create(
            64 << 20,
            RallocConfig { transient: true, ..RallocConfig::default() },
        );
        for align in [1usize, 8, 16, 64, 128, 4096] {
            for size in [1usize, 7, 100, 4096, 20_000, 100_000] {
                // SAFETY: powers of two, live heap.
                let p = unsafe { pool_alloc(&heap, size, align) };
                assert!(!p.is_null(), "size {size} align {align}");
                assert_eq!(p as usize % align, 0, "misaligned: size {size} align {align}");
                // SAFETY: fresh block of at least `size` bytes.
                unsafe {
                    std::ptr::write_bytes(p, 0xAB, size);
                    assert!(pool_usable_size(&heap, p, align) >= size);
                    pool_dealloc(&heap, p, align);
                }
            }
        }
    }
}
