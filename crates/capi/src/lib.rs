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
//!   The pool is its file ([`ralloc::Ralloc::open_file`]): a killed
//!   program leaves it dirty, and the next preloaded run recovers it at
//!   its first allocation. A program that `fork()`s without `exec`
//!   shares the mapping with its child; that is not supported.
//!
//! ## Self-describing pointers
//!
//! C `free` receives no layout, so — unlike the Rust
//! `#[global_allocator]` surface, which routes on the `Layout` it is
//! handed — every pointer this library returns is self-describing.
//! The word just below the payload says how to take the block apart:
//!
//! ```text
//! pool:   [raw Ralloc block .. [raw addr][payload ..]        ]
//! arena:  [bump chunk       .. [size    ][payload ..]        ]
//! mmap:   [page-aligned map .. [chunk addr][map len][payload]]
//! ```
//!
//! Provenance is decided without metadata: `Ralloc::contains`, then the
//! bootstrap arena's fixed range, and anything else must be one of our
//! own anonymous mappings — under `LD_PRELOAD` from process start there
//! is no fourth allocator the pointer could have come from.
//!
//! ## Re-entry
//!
//! Interposing `malloc` means the allocator's own DRAM needs (thread
//! cache boxes, shard vectors, `env` strings during pool construction)
//! arrive back here recursively, and there is no libc `malloc` to punt
//! to — it *is* this function. While the pool is being built, or while
//! a pool operation is already in flight on this thread
//! ([`galloc::in_pool_op`]), allocations are served from
//! [`galloc::boot`]: a static bump arena, then raw anonymous `mmap`
//! (direct syscalls, no libc anywhere on the path).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::os::raw::{c_char, c_int, c_void};

use galloc::boot;
use ralloc::Ralloc;

/// Minimum payload alignment, per the C `malloc` contract
/// (`max_align_t` is 16 on x86_64).
const MIN_ALIGN: usize = 16;

/// Arena chunks above this go straight to `mmap` (the arena is a small
/// fixed pool reserved for bootstrap churn).
const ARENA_MAX: usize = 32 << 10;

#[inline]
fn round_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

/// Allocate `size` bytes at `align` (a power of two) with a
/// self-describing header. Never unwinds; null on exhaustion.
fn c_alloc(size: usize, align: usize) -> *mut u8 {
    let align = align.max(MIN_ALIGN);
    if !galloc::in_pool_op() && !galloc::pool_closed() {
        if let Some(heap) = galloc::heap() {
            let _g = galloc::reentry_guard();
            let p = pool_c_alloc(heap, size, align);
            if !p.is_null() {
                return p;
            }
        }
    }
    boot_alloc(size, align)
}

/// Pool-backed allocation: over-allocate by `align + 8`, round the
/// payload up past an 8-byte slot, stash the raw block address there.
fn pool_c_alloc(heap: &Ralloc, size: usize, align: usize) -> *mut u8 {
    let Some(request) = size.checked_add(align + 8) else {
        return std::ptr::null_mut();
    };
    let raw = heap.malloc(request);
    if raw.is_null() {
        return std::ptr::null_mut();
    }
    let p = round_up(raw as usize + 8, align);
    // SAFETY: p - 8 >= raw and p + size <= raw + request; the slot is
    // 8-aligned (p is a multiple of align >= 16).
    unsafe { std::ptr::write((p as *mut u64).sub(1), raw as u64) };
    p as *mut u8
}

/// Bootstrap allocation: bump arena for small chunks, anonymous `mmap`
/// for the rest (and for arena overflow).
fn boot_alloc(size: usize, align: usize) -> *mut u8 {
    if let Some(chunk_len) = size.checked_add(align + 8) {
        if chunk_len <= ARENA_MAX {
            let chunk = boot::arena_alloc(chunk_len, 8);
            if !chunk.is_null() {
                let p = round_up(chunk as usize + 8, align);
                // SAFETY: slot and payload fit the chunk as above; arena
                // frees are no-ops, so the slot records the *size* for
                // malloc_usable_size instead of a raw address.
                unsafe { std::ptr::write((p as *mut u64).sub(1), size as u64) };
                return p as *mut u8;
            }
        }
    }
    let Some(total) = size.checked_add(align + 16).map(|t| round_up(t, 4096)) else {
        return std::ptr::null_mut();
    };
    let chunk = boot::map_pages(total);
    if chunk.is_null() {
        return std::ptr::null_mut();
    }
    let p = round_up(chunk as usize + 16, align);
    // SAFETY: p - 16 >= chunk and p + size <= chunk + total; both slots
    // are 8-aligned.
    unsafe {
        std::ptr::write((p as *mut u64).sub(2), chunk as u64);
        std::ptr::write((p as *mut u64).sub(1), total as u64);
    }
    p as *mut u8
}

/// Release a [`c_alloc`] pointer. Null is a no-op, as is an arena chunk
/// (bounded bootstrap leak) or any pool block after [`rp_close`].
fn c_free(p: *mut u8) {
    if p.is_null() || boot::arena_contains(p) {
        return;
    }
    if let Some(heap) = galloc::heap_if_ready() {
        if heap.contains(p) {
            if galloc::pool_closed() {
                return;
            }
            let _g = galloc::reentry_guard();
            // SAFETY: pool pointers carry the raw block address at p-8.
            let raw = unsafe { std::ptr::read((p as *const u64).sub(1)) } as *mut u8;
            heap.free(raw);
            return;
        }
    }
    // SAFETY: not pool, not arena: one of our anonymous mappings, whose
    // base and length sit just below the payload.
    unsafe {
        let chunk = std::ptr::read((p as *const u64).sub(2)) as *mut u8;
        let total = std::ptr::read((p as *const u64).sub(1)) as usize;
        boot::unmap_pages(chunk, total);
    }
}

/// Usable bytes at `p` (>= the requested size; 0 for null).
fn c_usable_size(p: *const u8) -> usize {
    if p.is_null() {
        return 0;
    }
    if boot::arena_contains(p) {
        // SAFETY: arena slot stores the requested size.
        return unsafe { std::ptr::read((p as *const u64).sub(1)) } as usize;
    }
    if let Some(heap) = galloc::heap_if_ready() {
        if heap.contains(p) {
            let _g = galloc::reentry_guard();
            // SAFETY: pool slot stores the raw block address.
            let raw = unsafe { std::ptr::read((p as *const u64).sub(1)) } as usize;
            return heap.usable_size(raw as *const u8) - (p as usize - raw);
        }
    }
    // SAFETY: mmap header as in c_free.
    unsafe {
        let chunk = std::ptr::read((p as *const u64).sub(2)) as usize;
        let total = std::ptr::read((p as *const u64).sub(1)) as usize;
        chunk + total - p as usize
    }
}

fn c_realloc(p: *mut u8, size: usize) -> *mut u8 {
    if p.is_null() {
        return c_alloc(size, MIN_ALIGN);
    }
    if size == 0 {
        c_free(p);
        return std::ptr::null_mut();
    }
    let usable = c_usable_size(p);
    if size <= usable {
        return p;
    }
    let fresh = c_alloc(size, MIN_ALIGN);
    if !fresh.is_null() {
        // SAFETY: old payload spans `usable` readable bytes, new spans
        // at least `size`.
        unsafe { std::ptr::copy_nonoverlapping(p, fresh, usable.min(size)) };
        c_free(p);
    }
    fresh
}

// ------------------------------------------------------- explicit C API

/// Open (or create) the process pool. `path == NULL` gives a transient
/// DRAM pool; otherwise the heap file is created or mapped (recovering a
/// dirty image — a previous process died without closing — first) and
/// closed cleanly at exit. `cap == 0` keeps the
/// `GALLOC_CAP`/default capacity. Returns 0 on success, -1 on failure.
/// Idempotent once the pool exists; tolerates `malloc` re-entry during
/// construction.
///
/// # Safety
/// `path` must be null or a NUL-terminated string.
#[no_mangle]
pub unsafe extern "C" fn rp_init(path: *const c_char, cap: usize) -> c_int {
    if !path.is_null() {
        // SAFETY: caller contract.
        let cpath = unsafe { std::ffi::CStr::from_ptr(path) };
        match cpath.to_str() {
            Ok(s) => std::env::set_var("GALLOC_POOL", s),
            Err(_) => return -1,
        }
    }
    if cap > 0 {
        std::env::set_var("GALLOC_CAP", cap.to_string());
    }
    if galloc::heap().is_some() {
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
    c_free(p as *mut u8)
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
    c_realloc(p as *mut u8, size) as *mut c_void
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
    c_usable_size(p as *const u8)
}
