//! # pptr — position-independent persistent pointers
//!
//! Persistent data must be mappable at different virtual addresses in
//! different processes and across runs (paper §4.6), which rules out
//! storing absolute virtual addresses in NVM. Following the paper (and
//! Chen et al.'s *off-holders*), this crate provides:
//!
//! * [`Pptr<T>`] — a 64-bit **self-relative** pointer: it stores the offset
//!   of the target *from the pointer's own location*. Because the
//!   location is always at hand when loading or storing through the
//!   pointer, no segment base register is needed, and the representation
//!   stays 64 bits (unlike PMDK's 128-bit based pointers, which force
//!   wide-CAS for atomic updates).
//! * [`Link<BITS>`](Link) — a packed `{tag, target + 1}` word, the one
//!   format of every link counted from a base the reader knows, CAS-able
//!   with its tag in one word:
//!   - `Link<30>`: descriptor-list heads and the descriptors' list links
//!     (`ralloc::lists`), a 34-bit ABA counter over a 30-bit index
//!     (paper §4.2);
//!   - `Link<48>`: superblock-region offsets with a 16-bit tag — the heap's
//!     root slots, `crashtest`'s op-log slots and every `pds` link (the
//!     queue's and stack's ABA counters, the tree's edge marks).
//! * [`AtomicLink<BITS>`](AtomicLink) — a `Link` behind an `AtomicU64`,
//!   the only way a shared link word is loaded, stored or CASed. Its
//!   orderings are fixed, not passed: a link publishes a block written
//!   before it, so loads acquire, stores release and a CAS does both
//!   (on x86-64 the same instructions as relaxed ones; only the
//!   compiler's reordering freedom differs).
//!
//! Every pointer targets its own heap: a cross-heap pointer (§4.6's RIV
//! plan) waits for a GC that traces it, or a crash would drop its target.
//!
//! ## The tag pattern
//!
//! Given the paper's hard 1 TB limit on the superblock region, a
//! self-relative offset needs at most 41 bits plus sign. The upper 16 bits
//! of every non-null `Pptr` hold the uncommon pattern [`PPTR_TAG`]
//! (`0xA5A5`), which is masked off on dereference. During conservative
//! post-crash garbage collection, only 64-bit words carrying this tag are
//! treated as candidate references, which drastically reduces the chance
//! that integer data is mistaken for a pointer (paper §4.6). The all-zero
//! word is the null pointer, so zero-initialized memory reads as null.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod counted;
mod pptr_impl;

pub use counted::{AtomicLink, Link};
pub use pptr_impl::{Pptr, PPTR_LOW_MASK, PPTR_TAG, PPTR_TAG_SHIFT};

/// True if `word` carries the off-holder tag, i.e. could be a non-null
/// `Pptr` bit pattern. Used by the conservative GC filter.
#[inline]
pub fn is_pptr_pattern(word: u64) -> bool {
    word >> PPTR_TAG_SHIFT == PPTR_TAG as u64
}

/// Interpret `word`, found at address `addr_of_word`, as a candidate
/// self-relative pointer; return the absolute target address if the tag
/// matches. Alignment and range checks are the caller's job (the GC knows
/// the heap bounds and block geometry).
#[inline]
pub fn decode_candidate(addr_of_word: usize, word: u64) -> Option<usize> {
    if !is_pptr_pattern(word) || word == 0 {
        return None;
    }
    let off = sign_extend_48(word & PPTR_LOW_MASK);
    Some((addr_of_word as i64).wrapping_add(off) as usize)
}

/// Sign-extend the low 48 bits of `v`.
#[inline]
pub(crate) fn sign_extend_48(v: u64) -> i64 {
    ((v << 16) as i64) >> 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_detection() {
        assert!(!is_pptr_pattern(0));
        assert!(!is_pptr_pattern(42));
        assert!(!is_pptr_pattern(u64::MAX));
        assert!(is_pptr_pattern((PPTR_TAG as u64) << 48));
        assert!(is_pptr_pattern((PPTR_TAG as u64) << 48 | 0x1234));
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend_48(0), 0);
        assert_eq!(sign_extend_48(1), 1);
        assert_eq!(sign_extend_48(0x0000_7FFF_FFFF_FFFF), 0x7FFF_FFFF_FFFF);
        assert_eq!(sign_extend_48(0x0000_FFFF_FFFF_FFFF), -1);
        assert_eq!(sign_extend_48(0x0000_8000_0000_0000), -(1i64 << 47));
    }

    #[test]
    fn decode_candidate_roundtrip() {
        let here = 0x7000_0000usize;
        let target = 0x7000_4000usize;
        let off = (target as i64 - here as i64) as u64 & PPTR_LOW_MASK;
        let word = off | (PPTR_TAG as u64) << 48;
        assert_eq!(decode_candidate(here, word), Some(target));
        // backwards
        let off = (here as i64 - target as i64) as u64 & PPTR_LOW_MASK;
        let word = off | (PPTR_TAG as u64) << 48;
        assert_eq!(decode_candidate(target, word), Some(here));
    }

    #[test]
    fn decode_rejects_untagged() {
        assert_eq!(decode_candidate(0x1000, 0x2000), None);
        assert_eq!(decode_candidate(0x1000, 0), None);
    }
}
