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
//!   recovers it here, before any code of its own can register a filter,
//!   so every root is traced conservatively: recovery keeps what tagged
//!   `Pptr`s reach from the roots and reclaims the rest. Data linked by
//!   region offsets (`Link`, as every `pds` structure links) under a root
//!   is swept as free, reachable or not (ROADMAP item 14). Not safe across
//!   `fork()`: parent and child would write one mapping.
//! * Otherwise the pool is anonymous and transient (the paper's LRMalloc
//!   mode: no flushes, nothing to recover) — a plain fast DRAM allocator.
//! * `GALLOC_CAP=<bytes>` (with `K`/`M`/`G` suffixes) sets the reserved
//!   capacity; the committed footprint starts at a few superblocks and
//!   grows on demand (the pool's committed prefix is the heap's one
//!   frontier: a grow commits more of it before `used` covers it).
//! * `RALLOC_TELEMETRY=<path>` starts the pool's JSONL sampler
//!   ([`Ralloc::start_sampler`], one line every 200 ms) when the pool is
//!   built, and stops it at exit with a last line: an unmodified program
//!   has no other way to call it.
//!
//! [`init`] builds the pool from an explicit path and capacity instead;
//! `librp.so`'s `rp_init` is a call to it.
//!
//! ## One lifecycle word
//!
//! The handle API (`Ralloc::malloc`) can assume it is *not* the allocator
//! its own implementation uses. A `#[global_allocator]` cannot: the
//! heap's transient metadata (thread cache sets, bin slot arrays, shard
//! vectors) is allocated with Rust's global allocator — i.e. through
//! *this very type*. The pool's whole life is one state word, read on
//! the same cache line as the pool's address range:
//!
//! ```text
//! UNINIT ──build──▶ BUSY ──built──▶ READY ──close──▶ CLOSED
//!                     └──failed──▶ FAILED  (or UNINIT again after a failed init)
//! ```
//!
//! * Only `READY` serves from the pool. In every other state an
//!   allocation goes to [`System`] (`librp.so`: its bootstrap arena) —
//!   notably the builder's own while `BUSY`, so the heap's DRAM is never
//!   carved from the heap.
//! * While a pool operation is in flight on this thread (the
//!   const-initialized, destructor-free `IN_POOL` flag, accessible even
//!   during thread teardown), nested allocations go to [`System`] too.
//! * `dealloc` routes by address: the pool's range is stored once,
//!   before `READY` is first published, and never changes, so a pool
//!   block is recognized in every state after. Once `CLOSED` the image
//!   is sealed, and a freed pool block is leaked rather than written.
//!
//! Allocations during TLS destructors (a `thread_local` with a `Drop`
//! that frees or allocates) are served too: the heap's cache layer falls
//! back to a transient one-shot cache set once this thread's TLS store
//! is gone.
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
//! * `align > 64`, and every `librp.so` pool block (C `free` has no
//!   layout): over-allocate `size + align + 8`, round the payload up
//!   past an 8-byte slot, and stash the raw block address in the slot
//!   just below the payload (`stash_alloc` / `stashed_raw`).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, UnsafeCell};
use std::io;
use std::mem::MaybeUninit;
use std::path::Path;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

use ralloc::{Ralloc, RallocConfig};

/// Default reserved capacity when `GALLOC_CAP` is unset: 1 GiB of
/// virtual span (committed lazily, a few superblocks at a time).
pub const DEFAULT_CAP: usize = 1 << 30;

/// Initial committed capacity: small, so a short-lived process never
/// pays for the full reservation.
const INITIAL_COMMIT: usize = 8 << 20;

/// Largest alignment the pool serves from a naturally aligned block;
/// beyond this the over-allocate-and-stash scheme kicks in.
const NATURAL_ALIGN: usize = 64;

/// No build has started: the next allocation builds from the environment.
const UNINIT: u8 = 0;
/// A build is in flight; nothing is served from the pool.
const BUSY: u8 = 1;
/// The pool serves.
const READY: u8 = 2;
/// The image is sealed: nothing is allocated from or freed to it again.
const CLOSED: u8 = 3;
/// The build from the environment failed; [`System`] serves for good.
const FAILED: u8 = 4;

/// Every piece of state the per-op fast paths touch, in *one* static.
///
/// One symbol matters: under the default PIC relocation model, statics
/// of an upstream crate are reached through the GOT — a pointer load to
/// find the static, then the value load. Scattered statics would cost
/// one GOT indirection *each* on every `alloc`/`dealloc`; a single
/// struct costs one, which is loop-invariant and hoistable, and keeps
/// the state word and the range bounds on one read-mostly cache line.
/// The heap itself is constructed *in place* here (not in a `OnceLock`),
/// so the `&Ralloc` the fast paths use is a constant offset from that
/// same address: liveness stays a control-only predicted branch instead
/// of a pointer load feeding the critical data dependency of every
/// `malloc`.
#[repr(C, align(64))]
struct FastState {
    /// The pool's lifecycle: [`UNINIT`], [`BUSY`], [`READY`], [`CLOSED`]
    /// or [`FAILED`]. The fast paths test `== READY`.
    state: AtomicU8,
    /// Absolute bounds of the pool's superblock region, stored before
    /// `READY` is first published and never changed after: the pool
    /// reserves its whole span when it is built and grows only the
    /// committed prefix within it. `dealloc` routing is then two
    /// compares with no pointer chasing. Zero until then, so the empty
    /// range can never claim a foreign pointer.
    sb_start: AtomicUsize,
    sb_end: AtomicUsize,
    /// The heap, written exactly once by the UNINIT→BUSY winner strictly
    /// before `READY` is Release-published. On its own cache line
    /// (`HeapSlot` is align(64)): whatever mutable state lives at the
    /// head of `Ralloc` must not false-share with the read-mostly
    /// routing fields above.
    heap: HeapSlot,
}

#[repr(align(64))]
struct HeapSlot(UnsafeCell<MaybeUninit<Ralloc>>);

// SAFETY: `heap` is written only by the BUSY-state winner before the
// Release-publish of READY; afterwards it is only read through `&Ralloc`
// (itself Sync). The remaining fields are atomics.
unsafe impl Sync for FastState {}

static FAST: FastState = FastState {
    state: AtomicU8::new(UNINIT),
    sb_start: AtomicUsize::new(0),
    sb_end: AtomicUsize::new(0),
    heap: HeapSlot(UnsafeCell::new(MaybeUninit::uninit())),
};

/// The heap at its constant address.
///
/// # Safety
/// The pool must have been published: `READY` or `CLOSED` observed with
/// Acquire ordering, or a pointer in the pool's range in hand (the range
/// is empty until the build that publishes the heap).
#[inline]
unsafe fn heap_ref() -> &'static Ralloc {
    // SAFETY: per the caller contract the cell was initialized before a
    // Release-publish, and is never written again.
    unsafe { &*(FAST.heap.0.get() as *const Ralloc) }
}

#[inline]
fn state() -> u8 {
    FAST.state.load(Ordering::Acquire)
}

thread_local! {
    /// True while a pool operation is in flight on this thread. Const
    /// initialized and destructor-free: always accessible, even from a
    /// TLS destructor during thread teardown.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Scoped set/restore of [`IN_POOL`] (restore, not clear: a free of a
/// pool block may nest under an operation that already holds the flag).
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

/// Run a pointer-producing `f` with the re-entrancy flag held, in a
/// *single* TLS access — the bracket of every pool allocation. Null
/// doubles as the "already in a pool op" verdict (a nested allocation
/// from inside the pool's own machinery) and as pool exhaustion: either
/// way the caller serves from elsewhere, so no separate discriminant is
/// paid. No unwind guard: unwinding out of a `GlobalAlloc` method is
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

/// The process-wide pool while it serves. The first call builds it from
/// the environment; `None` while a build is in flight (including
/// re-entrant calls from the builder itself), after a failed build, and
/// after [`close_pool`].
#[inline]
pub fn heap() -> Option<&'static Ralloc> {
    match state() {
        // SAFETY: READY Acquire-observed.
        READY => Some(unsafe { heap_ref() }),
        UNINIT => init_from_env(),
        _ => None,
    }
}

#[cold]
fn init_from_env() -> Option<&'static Ralloc> {
    // The variable is read inside the build: reading it allocates, and
    // an allocation before the UNINIT→BUSY step would recurse here.
    build(|| open(std::env::var_os("GALLOC_POOL").as_deref().map(Path::new), 0), FAILED);
    // SAFETY: READY Acquire-observed.
    (state() == READY).then(|| unsafe { heap_ref() })
}

/// Build the pool from `path` (`None`: anonymous and transient) and
/// `cap` (0: `GALLOC_CAP`, or [`DEFAULT_CAP`]), if no build has started.
/// True iff this call built it. A failed build leaves the pool unbuilt,
/// as if this call had not been made.
pub fn init(path: Option<&Path>, cap: usize) -> bool {
    build(|| open(path, cap), UNINIT)
}

/// The one build routine: win UNINIT→BUSY, open the heap, publish it as
/// `READY`, or store `failed` if it could not be opened.
fn build(open: impl FnOnce() -> io::Result<Ralloc>, failed: u8) -> bool {
    if FAST.state.compare_exchange(UNINIT, BUSY, Ordering::AcqRel, Ordering::Acquire).is_err() {
        return false;
    }
    // Opening allocates DRAM (shard vectors, telemetry, the path): all
    // of it goes elsewhere while BUSY. The catch_unwind keeps a build
    // panic from unwinding out of an allocation, which would be
    // undefined behavior.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(open)) {
        Ok(Ok(h)) => {
            // SAFETY: we hold BUSY, so this is the only writer, and no
            // reader dereferences the cell before READY below.
            let heap: &'static Ralloc = unsafe {
                (*FAST.heap.0.get()).write(h);
                heap_ref()
            };
            FAST.sb_start.store(heap.region_base(), Ordering::Relaxed);
            FAST.sb_end.store(heap.pool().base() as usize + heap.pool().len(), Ordering::Relaxed);
            FAST.state.store(READY, Ordering::Release);
            true
        }
        _ => {
            FAST.state.store(failed, Ordering::Release);
            false
        }
    }
}

fn open(path: Option<&Path>, cap: usize) -> io::Result<Ralloc> {
    let cap = match cap {
        0 => std::env::var("GALLOC_CAP")
            .ok()
            .and_then(|s| ralloc::parse_size(&s))
            .unwrap_or(DEFAULT_CAP),
        cap => cap,
    };
    let cfg = RallocConfig {
        initial_capacity: Some(INITIAL_COMMIT.min(cap)),
        ..RallocConfig::default()
    };
    let heap = match path {
        Some(path) => {
            let (heap, dirty) = Ralloc::open_file(path, cap, cfg)?;
            if dirty {
                heap.recover();
            }
            at_exit(close_at_exit);
            heap
        }
        None => Ralloc::create(cap, RallocConfig { transient: true, ..cfg }),
    };
    if let Some(out) = std::env::var_os("RALLOC_TELEMETRY").filter(|p| !p.is_empty()) {
        // Telemetry never fails the build: an unwritable path samples nothing.
        let _ = heap.start_sampler(out, std::time::Duration::from_millis(200));
        // A file pool's close stops it; a transient pool is never closed.
        if path.is_none() {
            at_exit(stop_sampler_at_exit);
        }
    }
    Ok(heap)
}

extern "C" fn close_at_exit() {
    close_pool();
}

extern "C" fn stop_sampler_at_exit() {
    heap().map_or((), Ralloc::stop_sampler)
}

fn at_exit(f: extern "C" fn()) {
    extern "C" {
        fn atexit(f: extern "C" fn()) -> i32;
    }
    // SAFETY: libc atexit with a no-unwind extern "C" callback.
    unsafe { atexit(f) };
}

/// Cleanly close the pool (flush, drain this thread's cache, clear a
/// file's dirty bit): one READY→CLOSED step. Idempotent; returns whether
/// this call did the close. After it, allocation falls back to [`System`]
/// and frees of still-live pool blocks are ignored — the image is sealed.
pub fn close_pool() -> bool {
    if FAST.state.compare_exchange(READY, CLOSED, Ordering::AcqRel, Ordering::Acquire).is_err() {
        return false;
    }
    let _g = Enter::new();
    // SAFETY: READY was Acquire-observed by the exchange.
    unsafe { heap_ref() }.close().is_ok()
}

/// True if `ptr` lies inside the pool's superblock region (two compares
/// against the cached bounds — no false positives before the build,
/// since the range is then empty).
#[inline]
fn in_pool_range(ptr: *const u8) -> bool {
    let a = ptr as usize;
    a >= FAST.sb_start.load(Ordering::Relaxed) && a < FAST.sb_end.load(Ordering::Relaxed)
}

#[inline]
fn round_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

/// Allocate `size` bytes at `align` (a power of two, at least 8) with
/// the raw block address stashed just below the payload, where
/// [`stashed_raw`] finds it. Null on exhaustion or overflow.
///
/// # Safety
/// `align` must be a power of two, at least 8.
#[inline]
unsafe fn stash_alloc(heap: &Ralloc, size: usize, align: usize) -> *mut u8 {
    let Some(request) = size.checked_add(align + 8) else {
        return std::ptr::null_mut();
    };
    let raw = heap.malloc(request);
    if raw.is_null() {
        return raw;
    }
    let p = round_up(raw as usize + 8, align);
    // SAFETY: `p - 8 >= raw` and `p + size <= raw + request`; the slot
    // is 8-aligned because `p` is a multiple of `align >= 8`.
    unsafe { std::ptr::write((p as *mut usize).sub(1), raw as usize) };
    p as *mut u8
}

/// The raw block under a [`stash_alloc`] payload.
///
/// # Safety
/// `p` must be a live [`stash_alloc`] payload.
#[inline]
unsafe fn stashed_raw(p: *const u8) -> *mut u8 {
    // SAFETY: stash_alloc wrote the raw address in the slot below `p`.
    unsafe { std::ptr::read((p as *const usize).sub(1)) as *mut u8 }
}

/// The bytes usable at a [`stash_alloc`] payload.
///
/// # Safety
/// `p` must be a live [`stash_alloc`] payload of `heap`.
#[inline]
unsafe fn stashed_usable(heap: &Ralloc, p: *const u8) -> usize {
    // SAFETY: per the caller contract.
    let raw = unsafe { stashed_raw(p) };
    heap.usable_size(raw) - (p as usize - raw as usize)
}

/// Allocate `size` bytes at `align` from the pool. Null on exhaustion.
///
/// # Safety
/// `align` must be a power of two (the `Layout` contract).
#[inline]
unsafe fn pool_alloc(heap: &Ralloc, size: usize, align: usize) -> *mut u8 {
    if align <= NATURAL_ALIGN {
        // Natural path: the rounded request lands in a size class whose
        // block size is a multiple of `align` (see module docs), or on a
        // superblock boundary for large requests. Zero-size requests are
        // bumped to one byte so they still get a unique block *of the
        // requested alignment*, C-`malloc(0)` style.
        heap.malloc(round_up(size.max(1), align))
    } else {
        // SAFETY: a power of two above 64.
        unsafe { stash_alloc(heap, size, align) }
    }
}

/// Return a [`pool_alloc`] block to the pool. `align` must match the
/// allocation's (it selects the pointer scheme).
///
/// # Safety
/// `ptr` must be a live pool block allocated at `align`.
#[inline]
unsafe fn pool_dealloc(heap: &Ralloc, ptr: *mut u8, align: usize) {
    if align <= NATURAL_ALIGN {
        heap.free(ptr);
    } else {
        // SAFETY: pool_alloc stashed above the natural alignment.
        heap.free(unsafe { stashed_raw(ptr) });
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
        // SAFETY: pool_alloc stashed above the natural alignment.
        unsafe { stashed_usable(heap, ptr) }
    }
}

/// A pool block for a caller that frees without a layout (`librp.so`):
/// always stashed, so [`free_stashed`] and [`usable_size_stashed`] need
/// only the pointer. Null when the pool does not serve: not `READY`, a
/// pool operation already in flight on this thread, or exhaustion.
///
/// # Safety
/// `align` must be a power of two, at least 8.
pub unsafe fn alloc_stashed(size: usize, align: usize) -> *mut u8 {
    match heap() {
        // SAFETY: per the caller contract.
        Some(heap) => with_pool_flag(|| unsafe { stash_alloc(heap, size, align) }),
        None => std::ptr::null_mut(),
    }
}

/// Free an [`alloc_stashed`] block. False, touching nothing, if `p` is
/// not in the pool's range; a pool block freed after [`close_pool`] is
/// leaked, since the image is sealed.
///
/// # Safety
/// `p` must be a live [`alloc_stashed`] block or lie outside the pool.
pub unsafe fn free_stashed(p: *mut u8) -> bool {
    if !in_pool_range(p) {
        return false;
    }
    if state() == READY {
        let _g = Enter::new();
        // SAFETY: READY Acquire-observed; a stashed pool block.
        unsafe { heap_ref().free(stashed_raw(p)) };
    }
    true
}

/// The bytes usable at an [`alloc_stashed`] block, or `None` if `p` is
/// not in the pool's range.
///
/// # Safety
/// As [`free_stashed`].
pub unsafe fn usable_size_stashed(p: *const u8) -> Option<usize> {
    // SAFETY: a pointer in the pool's range implies a published heap,
    // and per the caller contract it is a stashed block of it.
    in_pool_range(p).then(|| unsafe { stashed_usable(heap_ref(), p) })
}

/// The drop-in global allocator. A unit type: all state is process-wide
/// (one pool per process, like `malloc`).
pub struct RallocGlobal;

// SAFETY: allocation is served by the lock-free Ralloc heap or by
// System; dealloc routes each pointer back to the allocator that issued
// it (the pool's fixed range discriminates), and layouts are respected
// per the scheme in the module docs.
unsafe impl GlobalAlloc for RallocGlobal {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if let Some(heap) = heap() {
            // SAFETY: Layout guarantees a power-of-two align.
            let p = with_pool_flag(|| unsafe { pool_alloc(heap, layout.size(), layout.align()) });
            if !p.is_null() {
                return p;
            }
            // Null: either a nested allocation from the pool's own
            // machinery, or the pool is exhausted — degrade to System
            // rather than failing the process (dealloc routes by
            // range, so mixed provenance is fine).
        }
        // The one fallback site: `alloc_zeroed` (the trait's default,
        // which zeroes every block — a recycled persistent one may hold
        // bytes from before a crash) and a moving `realloc` come here.
        // SAFETY: forwarded layout.
        unsafe { System.alloc(layout) }
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !in_pool_range(ptr) {
            // SAFETY: not a pool block, so it came from System.
            return unsafe { System.dealloc(ptr, layout) };
        }
        // Once CLOSED the image is sealed (the exit path): leaking in
        // the dying process beats dirtying a closed pool.
        if state() == READY {
            let _g = Enter::new();
            // SAFETY: READY Acquire-observed; ptr came from pool_alloc
            // at this layout.
            unsafe { pool_dealloc(heap_ref(), ptr, layout.align()) };
        }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !in_pool_range(ptr) {
            // SAFETY: not a pool block, so it came from System.
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        let align = layout.align();
        // In place while the pool serves and the class block (or large
        // span) already covers the rounded request: shrinks always land
        // here, and so do grows within slack.
        if align <= NATURAL_ALIGN && state() == READY {
            // SAFETY: READY Acquire-observed.
            if round_up(new_size, align) <= unsafe { heap_ref() }.usable_size(ptr) {
                return ptr;
            }
        }
        // Otherwise move: to the pool when it serves, else to System,
        // and the old block goes back to the pool (or is leaked once
        // the image is sealed).
        // SAFETY: align is the layout's, new_size > 0 per the
        // GlobalAlloc contract; both blocks span min(old, new) bytes.
        unsafe {
            let fresh = self.alloc(Layout::from_size_align_unchecked(new_size, align));
            if !fresh.is_null() {
                std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
            fresh
        }
    }
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
