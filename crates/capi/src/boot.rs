//! Allocation of last resort for `librp.so`, with self-describing
//! pointers.
//!
//! Under `LD_PRELOAD`, the interposed `malloc` **is** libc's `malloc`:
//! there is no [`std::alloc::System`] to fall back on — calling it would
//! recurse straight back into the interposer. Whatever the pool does not
//! serve (while it is being built, nested inside a pool operation, after
//! a failed build or `rp_close`, on exhaustion) is served here instead:
//!
//! * a fixed static **bump arena** (lock-free, frees are no-ops): small
//!   allocations made while the pool is still being built — `env`
//!   strings, the heap's own shard vectors, early `ld.so`/libc startup
//!   allocations. Bounded and never reclaimed; the arena is sized so
//!   real programs use a few hundred KiB of it at most.
//! * raw **anonymous `mmap`** ([`nvm::sys`], direct syscalls — no libc
//!   allocation anywhere on the path) for anything the arena cannot
//!   hold.
//!
//! C `free` receives no layout, so the word below each payload says how
//! to take it apart:
//!
//! ```text
//! arena:  [bump chunk       .. [size    ][payload ..]        ]
//! mmap:   [page-aligned map .. [chunk addr][map len][payload]]
//! ```

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bump-arena capacity. Generous: pool construction plus libc startup
/// churn is well under 1 MiB; the rest is headroom for programs that
/// allocate heavily inside TLS destructors after the pool closes.
const ARENA_SIZE: usize = 4 << 20;

/// Arena chunks above this go straight to `mmap` (the arena is a small
/// fixed pool reserved for bootstrap churn).
const ARENA_MAX: usize = 32 << 10;

#[repr(C, align(64))]
struct Arena(UnsafeCell<[u8; ARENA_SIZE]>);

// SAFETY: handed out in disjoint bump-allocated chunks guarded by the
// atomic cursor; the backing cells are never accessed wholesale.
unsafe impl Sync for Arena {}

static ARENA: Arena = Arena(UnsafeCell::new([0; ARENA_SIZE]));
static CURSOR: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn round_up(n: usize, align: usize) -> usize {
    (n + align - 1) & !(align - 1)
}

/// Allocate `size` bytes at `align` (a power of two, at least 16): from
/// the arena while a small chunk fits, else from a fresh mapping. Null
/// when neither can.
pub fn alloc(size: usize, align: usize) -> *mut u8 {
    if let Some(chunk_len) = size.checked_add(align + 8).filter(|&n| n <= ARENA_MAX) {
        let chunk = arena_alloc(chunk_len, 8);
        if !chunk.is_null() {
            let p = round_up(chunk as usize + 8, align);
            // SAFETY: `p - 8 >= chunk` and `p + size <= chunk +
            // chunk_len`; arena frees are no-ops, so the slot records
            // the *size*, for malloc_usable_size.
            unsafe { std::ptr::write((p as *mut usize).sub(1), size) };
            return p as *mut u8;
        }
    }
    let Some(total) = size.checked_add(align + 16).map(|t| round_up(t, 4096)) else {
        return std::ptr::null_mut();
    };
    let chunk = map_pages(total);
    if chunk.is_null() {
        return chunk;
    }
    let p = round_up(chunk as usize + 16, align);
    // SAFETY: `p - 16 >= chunk` and `p + size <= chunk + total`; both
    // slots are 8-aligned.
    unsafe {
        std::ptr::write((p as *mut usize).sub(2), chunk as usize);
        std::ptr::write((p as *mut usize).sub(1), total);
    }
    p as *mut u8
}

/// Release an [`alloc`] pointer: a no-op for an arena chunk (a bounded
/// bootstrap leak), an `munmap` for a mapping.
///
/// # Safety
/// `p` must be a live [`alloc`] pointer.
pub unsafe fn free(p: *mut u8) {
    if arena_contains(p) {
        return;
    }
    // SAFETY: a mapping, whose base and length sit just below the payload.
    unsafe {
        let chunk = std::ptr::read((p as *const usize).sub(2)) as *mut u8;
        let total = std::ptr::read((p as *const usize).sub(1));
        let _ = nvm::sys::munmap(chunk, total);
    }
}

/// Usable bytes at an [`alloc`] pointer.
///
/// # Safety
/// `p` must be a live [`alloc`] pointer.
pub unsafe fn usable_size(p: *const u8) -> usize {
    // SAFETY: an arena slot stores the requested size; a mapping's
    // header its base and length.
    unsafe {
        if arena_contains(p) {
            return std::ptr::read((p as *const usize).sub(1));
        }
        let chunk = std::ptr::read((p as *const usize).sub(2));
        let total = std::ptr::read((p as *const usize).sub(1));
        chunk + total - p as usize
    }
}

/// Bump-allocate from the static arena; null once it is exhausted.
/// `align` must be a power of two.
fn arena_alloc(size: usize, align: usize) -> *mut u8 {
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

/// True if `ptr` points into the static arena.
fn arena_contains(ptr: *const u8) -> bool {
    let base = ARENA.0.get() as usize;
    (base..base + ARENA_SIZE).contains(&(ptr as usize))
}

/// Map `len` bytes of fresh anonymous memory (page-granular), bypassing
/// libc entirely. Null on failure.
fn map_pages(len: usize) -> *mut u8 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_bumps_aligned_disjoint_chunks() {
        let used = CURSOR.load(Ordering::Relaxed);
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
        assert!(CURSOR.load(Ordering::Relaxed) >= used + 200);
    }

    #[test]
    fn map_pages_roundtrip() {
        // Past the arena's largest chunk, so it is a mapping.
        let p = alloc(ARENA_MAX, 16);
        assert!(!p.is_null() && !arena_contains(p));
        assert_eq!(p as usize % 16, 0);
        // SAFETY: a fresh mapping with at least ARENA_MAX usable bytes.
        unsafe {
            assert!(usable_size(p) >= ARENA_MAX);
            std::ptr::write_bytes(p, 0x5A, ARENA_MAX);
            assert_eq!(*p.add(ARENA_MAX - 1), 0x5A);
            free(p);
        }
    }
}
