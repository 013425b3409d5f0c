//! Self-relative (off-holder) pointers.

use std::marker::PhantomData;

use crate::sign_extend_48;

/// Uncommon bit pattern stored in the top 16 bits of every non-null
/// [`Pptr`]. Chosen so that small integers, ASCII text, and typical float
/// bit patterns never match; see crate docs.
pub const PPTR_TAG: u16 = 0xA5A5;

/// Bit position of the tag.
pub const PPTR_TAG_SHIFT: u32 = 48;

/// Mask selecting the 48-bit signed offset field.
pub const PPTR_LOW_MASK: u64 = (1u64 << 48) - 1;

/// A 64-bit position-independent pointer to `T`: stores the signed offset
/// of the target from the pointer's **own address** (an *off-holder*).
///
/// Because the offset is relative to the field itself, a `Pptr` is only
/// meaningful at a fixed location inside the persistent region — moving
/// the struct that contains it (e.g. with `memcpy` within the heap)
/// invalidates it, just like in the paper's C++ implementation. It is
/// `repr(transparent)` over `u64`, and the all-zero value is null, so
/// zero-filled NVM pages parse as null pointers.
///
/// `Pptr` is deliberately *not* `Copy`: copying it to a new address would
/// silently retarget it. Read it with [`Pptr::as_ptr`], write it with
/// [`Pptr::set`].
#[repr(transparent)]
pub struct Pptr<T> {
    raw: u64,
    _marker: PhantomData<*const T>,
}

impl<T> Pptr<T> {
    /// A null pointer (also the value of zeroed memory).
    pub const fn null() -> Self {
        Pptr { raw: 0, _marker: PhantomData }
    }

    /// Compute the raw encoding for a pointer *located at* `field_addr`
    /// that should target `target_addr`.
    #[inline]
    pub fn encode(field_addr: usize, target_addr: usize) -> u64 {
        let off = (target_addr as i64).wrapping_sub(field_addr as i64);
        debug_assert!(
            (-(1i64 << 47)..(1i64 << 47)).contains(&off),
            "pptr offset out of 48-bit range: {off}"
        );
        (off as u64 & PPTR_LOW_MASK) | ((PPTR_TAG as u64) << PPTR_TAG_SHIFT)
    }

    /// Decode a raw encoding found at `field_addr` into an absolute
    /// address (`None` when null).
    #[inline]
    pub fn decode(field_addr: usize, raw: u64) -> Option<usize> {
        if raw == 0 {
            return None;
        }
        let off = sign_extend_48(raw & PPTR_LOW_MASK);
        Some((field_addr as i64).wrapping_add(off) as usize)
    }

    /// The raw 64-bit representation.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.raw
    }

    /// True if null.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.raw == 0
    }

    /// Address of this pointer field itself.
    #[inline]
    fn self_addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Absolute target address, or null.
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        match Self::decode(self.self_addr(), self.raw) {
            Some(a) => a as *mut T,
            None => std::ptr::null_mut(),
        }
    }

    /// Point this field at `target` (or null).
    #[inline]
    pub fn set(&mut self, target: *const T) {
        self.raw = if target.is_null() {
            0
        } else {
            Self::encode(self.self_addr(), target as usize)
        };
    }

    /// Dereference.
    ///
    /// # Safety
    /// The pointer must be non-null and target a live, properly
    /// initialized `T` within the mapped region; the usual aliasing rules
    /// apply.
    #[inline]
    pub unsafe fn as_ref(&self) -> &T {
        debug_assert!(!self.is_null());
        // SAFETY: the caller guarantees a live, initialized `T` at the target.
        unsafe { &*self.as_ptr() }
    }
}

impl<T> Default for Pptr<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> std::fmt::Debug for Pptr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pptr({:p})", self.as_ptr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        let p: Pptr<u64> = Pptr::null();
        assert!(p.is_null());
        assert!(p.as_ptr().is_null());
        assert_eq!(p.raw(), 0);
    }

    #[test]
    fn set_and_read_back() {
        let target: u64 = 99;
        let mut p: Pptr<u64> = Pptr::null();
        p.set(&target);
        assert!(!p.is_null());
        assert_eq!(p.as_ptr(), &target as *const u64 as *mut u64);
        // SAFETY: `p` targets `target`, a live local.
        unsafe { assert_eq!(*p.as_ref(), 99) };
        p.set(std::ptr::null());
        assert!(p.is_null());
    }

    #[test]
    fn raw_carries_tag() {
        let target: u64 = 1;
        let mut p: Pptr<u64> = Pptr::null();
        p.set(&target);
        assert!(crate::is_pptr_pattern(p.raw()));
    }

    #[test]
    fn self_pointing_is_not_null() {
        // Offset 0 (a pointer to its own address) must be distinguishable
        // from null — the tag guarantees it.
        let mut p: Pptr<Pptr<u64>> = Pptr::null();
        let addr = &p as *const _ as usize;
        p.set(addr as *const Pptr<u64>);
        assert!(!p.is_null());
        assert_eq!(p.as_ptr() as usize, addr);
    }

    #[test]
    fn negative_offsets_work() {
        let pair: (u64, Pptr<u64>) = (7, Pptr::null());
        let mut pair = pair;
        let first = &pair.0 as *const u64;
        pair.1.set(first); // target address below the field address
        assert_eq!(pair.1.as_ptr(), first as *mut u64);
    }

    #[test]
    fn same_target_moves_with_field_address() {
        // Two pptr fields at different addresses targeting the same object
        // have different raw encodings — the essence of self-relativity.
        let target: u64 = 5;
        let mut a: Pptr<u64> = Pptr::null();
        let mut b: Pptr<u64> = Pptr::null();
        a.set(&target);
        b.set(&target);
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_ne!(a.raw(), b.raw());
    }

    #[test]
    fn encode_decode_inverse() {
        for (field, target) in [
            (0x10000usize, 0x10000usize),
            (0x10000, 0x90000),
            (0x90000, 0x10000),
            (0x7fff_0000, 0x0000_8000),
        ] {
            let raw = Pptr::<u8>::encode(field, target);
            assert_eq!(Pptr::<u8>::decode(field, raw), Some(target));
        }
    }
}
