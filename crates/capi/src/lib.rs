//! `librp` — the Ralloc heap behind a C ABI, interposable via
//! `LD_PRELOAD`.
//!
//! Two surfaces share one process-wide pool (the singleton managed by
//! [`galloc`]):
//!
//! * **Explicit**: `rp_init` / `rp_malloc` / `rp_calloc` / `rp_realloc`
//!   / `rp_free` / `rp_close` — the paper's C interface, for programs
//!   linking `librp` deliberately.
//! * **Interposed**: `malloc` / `free` / `calloc` / `realloc` /
//!   `posix_memalign` / `aligned_alloc` / `malloc_usable_size`, so
//!   `LD_PRELOAD=librp.so GALLOC_POOL=/path/heap.pool some-binary`
//!   transparently runs an unmodified program on persistent memory.
//!   The pool is its file (`Ralloc::open_file`): a killed
//!   program leaves it dirty, and the next preloaded run recovers it at
//!   its first allocation, with no filter registered: it keeps what
//!   tagged `Pptr`s reach from the roots, and sweeps data linked by
//!   region offsets (`Link`) under a root (ROADMAP item 14). A program
//!   that `fork()`s without `exec` shares the mapping with its child;
//!   that is not supported.
//!
//! ## Self-describing pointers
//!
//! C `free` receives no layout, so — unlike the Rust
//! `#[global_allocator]` surface, which routes on the `Layout` it is
//! handed — every pointer this library returns is self-describing. A
//! pool block is one of [`galloc::alloc_stashed`]'s (the raw block
//! address just below the payload), and [`galloc`] alone takes it apart.
//! Everything the pool does not serve comes from [`boot`]: a static bump
//! arena, then raw anonymous `mmap`, each with its own header.
//!
//! Provenance is decided without metadata: the pool's range, then the
//! bootstrap arena's fixed range, and anything else must be one of our
//! own anonymous mappings — under `LD_PRELOAD` from process start there
//! is no fourth allocator the pointer could have come from.
//!
//! ## Re-entry
//!
//! Interposing `malloc` means the allocator's own DRAM needs (thread
//! cache boxes, shard vectors, `env` strings during pool construction)
//! arrive back here recursively, and there is no libc `malloc` to punt
//! to — it *is* this function. [`galloc`]'s one lifecycle word and its
//! re-entrancy flag turn each of those away from the pool
//! (`alloc_stashed` returns null), and [`boot`] serves them with direct
//! syscalls, no libc anywhere on the path.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::ffi::{CStr, OsStr};
use std::os::raw::{c_char, c_int, c_void};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;

mod boot;

/// Minimum payload alignment, per the C `malloc` contract
/// (`max_align_t` is 16 on x86_64).
const MIN_ALIGN: usize = 16;

/// Allocate `size` bytes at `align` (a power of two): a pool block while
/// the pool serves, else a [`boot`] one. Never unwinds; null on
/// exhaustion.
fn c_alloc(size: usize, align: usize) -> *mut u8 {
    let align = align.max(MIN_ALIGN);
    // SAFETY: a power of two, at least 16.
    let p = unsafe { galloc::alloc_stashed(size, align) };
    if p.is_null() {
        boot::alloc(size, align)
    } else {
        p
    }
}

/// Release a [`c_alloc`] pointer. Null is a no-op, as is an arena chunk
/// (bounded bootstrap leak) or any pool block after [`rp_close`].
///
/// # Safety
/// `p` must be null or a live [`c_alloc`] pointer.
unsafe fn c_free(p: *mut u8) {
    // SAFETY: per the caller contract, a pool block or a boot one.
    unsafe {
        if !p.is_null() && !galloc::free_stashed(p) {
            boot::free(p);
        }
    }
}

/// Usable bytes at `p` (>= the requested size; 0 for null).
///
/// # Safety
/// As [`c_free`].
unsafe fn c_usable_size(p: *const u8) -> usize {
    if p.is_null() {
        return 0;
    }
    // SAFETY: per the caller contract, a pool block or a boot one.
    unsafe { galloc::usable_size_stashed(p).unwrap_or_else(|| boot::usable_size(p)) }
}

/// # Safety
/// As [`c_free`].
unsafe fn c_realloc(p: *mut u8, size: usize) -> *mut u8 {
    if p.is_null() {
        return c_alloc(size, MIN_ALIGN);
    }
    if size == 0 {
        // SAFETY: per the caller contract.
        unsafe { c_free(p) };
        return std::ptr::null_mut();
    }
    // SAFETY: per the caller contract.
    let usable = unsafe { c_usable_size(p) };
    if size <= usable {
        return p;
    }
    let fresh = c_alloc(size, MIN_ALIGN);
    if !fresh.is_null() {
        // SAFETY: old payload spans `usable` readable bytes, new spans
        // at least `size`.
        unsafe {
            std::ptr::copy_nonoverlapping(p, fresh, usable.min(size));
            c_free(p);
        }
    }
    fresh
}

// ------------------------------------------------------- explicit C API

/// Build the process pool from `path` and `cap`. `path == NULL` gives
/// a transient DRAM pool; otherwise the heap file is created or mapped
/// (recovering a dirty image — a previous process died without closing
/// — first) and closed cleanly at exit. `cap == 0` keeps the
/// `GALLOC_CAP`/default capacity.
///
/// Returns 0 if this call built the pool from its arguments, or if both
/// are null/0 and a pool is ready (built from the environment if none
/// was). Otherwise — a pool already exists or is being built, or the
/// build failed — returns -1 and changes nothing.
///
/// # Safety
/// `path` must be null or a NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn rp_init(path: *const c_char, cap: usize) -> c_int {
    let path = (!path.is_null()).then(|| {
        // SAFETY: caller contract.
        Path::new(OsStr::from_bytes(unsafe { CStr::from_ptr(path) }.to_bytes()))
    });
    let ok = match (path, cap) {
        (None, 0) => galloc::heap().is_some(),
        (path, cap) => galloc::init(path, cap),
    };
    if ok {
        0
    } else {
        -1
    }
}

/// Cleanly close a file-backed pool (flush, clear the dirty bit). After
/// this the image is sealed: `malloc` degrades to transient memory and
/// frees of live pool blocks are ignored. Returns 0 if this call closed
/// the pool, -1 if there was nothing to close.
#[no_mangle]
pub extern "C" fn rp_close() -> c_int {
    if galloc::close_pool() {
        0
    } else {
        -1
    }
}

/// The paper's `malloc`.
#[no_mangle]
pub extern "C" fn rp_malloc(size: usize) -> *mut c_void {
    c_alloc(size, MIN_ALIGN) as *mut c_void
}

/// The paper's `free`.
///
/// # Safety
/// `p` must be null or a live pointer from this allocator.
#[no_mangle]
pub unsafe extern "C" fn rp_free(p: *mut c_void) {
    // SAFETY: same contract.
    unsafe { c_free(p as *mut u8) }
}

/// `calloc`: zeroed even when the pool recycles a persistent block
/// whose previous life (possibly pre-crash) left bytes behind.
#[no_mangle]
pub extern "C" fn rp_calloc(n: usize, size: usize) -> *mut c_void {
    let Some(total) = n.checked_mul(size) else {
        return std::ptr::null_mut();
    };
    let p = c_alloc(total, MIN_ALIGN);
    if !p.is_null() {
        // SAFETY: fresh payload of at least `total` bytes.
        unsafe { std::ptr::write_bytes(p, 0, total) };
    }
    p as *mut c_void
}

/// `realloc` (in place while the block's usable span covers the request).
///
/// # Safety
/// `p` must be null or a live pointer from this allocator.
#[no_mangle]
pub unsafe extern "C" fn rp_realloc(p: *mut c_void, size: usize) -> *mut c_void {
    // SAFETY: same contract.
    unsafe { c_realloc(p as *mut u8, size) as *mut c_void }
}

// -------------------------------------------- LD_PRELOAD interposition

/// Interposed `malloc`.
#[no_mangle]
pub extern "C" fn malloc(size: usize) -> *mut c_void {
    rp_malloc(size)
}

/// Interposed `free`.
///
/// # Safety
/// As [`rp_free`].
#[no_mangle]
pub unsafe extern "C" fn free(p: *mut c_void) {
    // SAFETY: same contract.
    unsafe { rp_free(p) }
}

/// Interposed `calloc`.
#[no_mangle]
pub extern "C" fn calloc(n: usize, size: usize) -> *mut c_void {
    rp_calloc(n, size)
}

/// Interposed `realloc`.
///
/// # Safety
/// As [`rp_realloc`].
#[no_mangle]
pub unsafe extern "C" fn realloc(p: *mut c_void, size: usize) -> *mut c_void {
    // SAFETY: same contract.
    unsafe { rp_realloc(p, size) }
}

/// Interposed `posix_memalign`.
///
/// # Safety
/// `memptr` must be a valid out-pointer.
#[no_mangle]
pub unsafe extern "C" fn posix_memalign(
    memptr: *mut *mut c_void,
    align: usize,
    size: usize,
) -> c_int {
    if !align.is_power_of_two() || align < std::mem::size_of::<*mut c_void>() {
        return 22; // EINVAL
    }
    let p = c_alloc(size, align);
    if p.is_null() {
        return 12; // ENOMEM
    }
    // SAFETY: caller contract.
    unsafe { *memptr = p as *mut c_void };
    0
}

/// Interposed `aligned_alloc`.
#[no_mangle]
pub extern "C" fn aligned_alloc(align: usize, size: usize) -> *mut c_void {
    if !align.is_power_of_two() {
        return std::ptr::null_mut();
    }
    c_alloc(size, align) as *mut c_void
}

/// Interposed `memalign` (obsolete but still emitted by some programs).
#[no_mangle]
pub extern "C" fn memalign(align: usize, size: usize) -> *mut c_void {
    if !align.is_power_of_two() {
        return std::ptr::null_mut();
    }
    c_alloc(size, align) as *mut c_void
}

/// Interposed `malloc_usable_size`.
///
/// # Safety
/// `p` must be null or a live pointer from this allocator.
#[no_mangle]
pub unsafe extern "C" fn malloc_usable_size(p: *mut c_void) -> usize {
    // SAFETY: same contract.
    unsafe { c_usable_size(p as *const u8) }
}
