//! Allocation of last resort for the C ABI (`crates/capi`).
//!
//! Under `LD_PRELOAD`, the interposed `malloc` **is** libc's `malloc`:
//! there is no [`std::alloc::System`] to fall back on — calling it would
//! recurse straight back into the interposer. Pre-init and re-entrant
//! allocations there are served instead by:
//!
//! * a fixed static **bump arena** (lock-free, frees are no-ops): small
//!   allocations made while the pool is still being built — `env`
//!   strings, the heap's own shard vectors, early `ld.so`/libc startup
//!   allocations. Bounded and never reclaimed; the arena is sized so
//!   real programs use a few hundred KiB of it at most.
//! * raw **anonymous `mmap`** ([`nvm::sys`], direct syscalls — no libc
//!   allocation anywhere on the path) for anything the arena cannot
//!   hold. The C ABI layer prefixes each mapping with its length so
//!   `free` can `munmap` it.
//!
//! The Rust `#[global_allocator]` surface ([`crate::RallocGlobal`])
//! does not use this module — it can and does fall back to `System`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bump-arena capacity. Generous: pool construction plus libc startup
/// churn is well under 1 MiB; the rest is headroom for programs that
/// allocate heavily inside TLS destructors after the pool closes.
pub const ARENA_SIZE: usize = 4 << 20;

#[repr(C, align(64))]
struct Arena(UnsafeCell<[u8; ARENA_SIZE]>);

// SAFETY: handed out in disjoint bump-allocated chunks guarded by the
// atomic cursor; the backing cells are never accessed wholesale.
unsafe impl Sync for Arena {}

static ARENA: Arena = Arena(UnsafeCell::new([0; ARENA_SIZE]));
static CURSOR: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of arena usage, for diagnostics.
pub fn arena_used() -> usize {
    CURSOR.load(Ordering::Relaxed).min(ARENA_SIZE)
}

/// Bump-allocate from the static arena; null once it is exhausted.
/// `align` must be a power of two. Frees are no-ops (bounded leak by
/// construction — this only serves bootstrap and re-entrant paths).
pub fn arena_alloc(size: usize, align: usize) -> *mut u8 {
    let base = ARENA.0.get() as usize;
    loop {
        let cur = CURSOR.load(Ordering::Relaxed);
        let start = match (base + cur).checked_add(align - 1) {
            Some(x) => (x & !(align - 1)) - base,
            None => return std::ptr::null_mut(),
        };
        let end = match start.checked_add(size) {
            Some(e) if e <= ARENA_SIZE => e,
            _ => return std::ptr::null_mut(),
        };
        if CURSOR
            .compare_exchange_weak(cur, end, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return (base + start) as *mut u8;
        }
    }
}

/// True if `ptr` points into the static arena (its frees are no-ops).
pub fn arena_contains(ptr: *const u8) -> bool {
    let base = ARENA.0.get() as usize;
    (base..base + ARENA_SIZE).contains(&(ptr as usize))
}

/// Map `len` bytes of fresh anonymous memory (page-granular), bypassing
/// libc entirely. Null on failure.
pub fn map_pages(len: usize) -> *mut u8 {
    // SAFETY: fresh private anonymous mapping, no address hint.
    unsafe {
        nvm::sys::mmap(
            std::ptr::null_mut(),
            len,
            nvm::sys::PROT_READ | nvm::sys::PROT_WRITE,
            nvm::sys::MAP_PRIVATE | nvm::sys::MAP_ANONYMOUS,
            -1,
            0,
        )
    }
    .unwrap_or(std::ptr::null_mut())
}

/// Unmap a [`map_pages`] mapping.
///
/// # Safety
/// `(ptr, len)` must be exactly a live mapping returned by [`map_pages`].
pub unsafe fn unmap_pages(ptr: *mut u8, len: usize) {
    // SAFETY: per fn contract.
    let _ = unsafe { nvm::sys::munmap(ptr, len) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_bumps_aligned_disjoint_chunks() {
        let a = arena_alloc(100, 8);
        let b = arena_alloc(100, 64);
        assert!(!a.is_null() && !b.is_null());
        assert_eq!(b as usize % 64, 0);
        assert!(arena_contains(a) && arena_contains(b));
        // Disjoint: writing one never touches the other.
        // SAFETY: both are live 100-byte chunks.
        unsafe {
            std::ptr::write_bytes(a, 0x11, 100);
            std::ptr::write_bytes(b, 0x22, 100);
            assert_eq!(*a, 0x11);
        }
        assert!(!arena_contains(std::ptr::null()));
        assert!(arena_used() >= 200);
    }

    #[test]
    fn map_pages_roundtrip() {
        let p = map_pages(8192);
        assert!(!p.is_null());
        // SAFETY: fresh 8 KiB mapping.
        unsafe {
            std::ptr::write_bytes(p, 0x5A, 8192);
            assert_eq!(*p.add(8191), 0x5A);
            unmap_pages(p, 8192);
        }
    }
}
