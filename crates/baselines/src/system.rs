//! The transient system allocator, standing in for JEMalloc as the
//! well-tuned non-persistent reference point of the paper's Figure 5.
//!
//! A small size header precedes each block so `free` can reconstruct the
//! layout (the C `malloc` interface does this bookkeeping internally).

use std::alloc::{alloc, dealloc, Layout};

use ralloc::PersistentAllocator;

const HEADER: usize = 16; // keeps payload 16-aligned

/// Transient allocator baseline (JEMalloc's role in the paper).
#[derive(Debug, Default)]
pub struct SystemAlloc;

impl SystemAlloc {
    /// A new handle (stateless).
    pub fn new() -> SystemAlloc {
        SystemAlloc
    }
}

impl PersistentAllocator for SystemAlloc {
    fn malloc(&self, size: usize) -> *mut u8 {
        let total = size.max(1) + HEADER;
        let layout = Layout::from_size_align(total, 16).expect("layout");
        // SAFETY: non-zero size.
        let raw = unsafe { alloc(layout) };
        if raw.is_null() {
            return std::ptr::null_mut();
        }
        // SAFETY: header fits before the payload.
        unsafe {
            std::ptr::write(raw as *mut usize, total);
            raw.add(HEADER)
        }
    }

    // The trait mirrors C `free`: the pointer's provenance is the caller's
    // contract (as for every allocator in this workspace).
    #[allow(clippy::not_unsafe_ptr_arg_deref)]
    fn free(&self, ptr: *mut u8) {
        assert!(!ptr.is_null(), "free(null)");
        // SAFETY: `ptr` came from `malloc` above, so the header precedes it.
        unsafe {
            let raw = ptr.sub(HEADER);
            let total = std::ptr::read(raw as *const usize);
            dealloc(raw, Layout::from_size_align(total, 16).expect("layout"));
        }
    }

    fn name(&self) -> &'static str {
        "system"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = SystemAlloc::new();
        let p = a.malloc(100);
        assert!(!p.is_null());
        assert_eq!(p as usize % 16, 0);
        // SAFETY: a live 100-byte block.
        unsafe { std::ptr::write_bytes(p, 0x77, 100) };
        a.free(p);
    }

    #[test]
    fn zero_size_ok() {
        let a = SystemAlloc::new();
        let p = a.malloc(0);
        assert!(!p.is_null());
        a.free(p);
    }

    #[test]
    fn many_sizes() {
        let a = SystemAlloc::new();
        let ptrs: Vec<_> = (0..1000).map(|i| a.malloc(1 + i % 5000)).collect();
        for p in ptrs {
            assert!(!p.is_null());
            a.free(p);
        }
    }
}
