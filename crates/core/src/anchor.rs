//! The descriptor *anchor*: the single word on which all synchronization
//! for a superblock happens (paper §4.2).
//!
//! The anchor packs the head of the superblock's internal block free list
//! (`avail`), the number of free blocks (`count`), and the superblock
//! state, all updated together with one CAS. `avail == max_count` encodes
//! an empty free list (the convention LRMalloc uses so that a thread
//! reserving every free block can park `avail` on a value no concurrent
//! `free` will mistake for a real block).

/// Superblock state, two bits of the anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SbState {
    /// Every block free; the superblock is (or is about to be) retired to
    /// the superblock free list.
    Empty = 0,
    /// Some blocks allocated, some free; on (or heading to) a partial list.
    Partial = 1,
    /// No free blocks (they are all allocated or reserved by a cache fill).
    Full = 2,
}

impl SbState {
    fn from_bits(b: u64) -> Option<SbState> {
        match b {
            0 => Some(SbState::Empty),
            1 => Some(SbState::Partial),
            2 => Some(SbState::Full),
            _ => None,
        }
    }
}

const AVAIL_BITS: u32 = 31;
const COUNT_BITS: u32 = 31;
const AVAIL_MASK: u64 = (1u64 << AVAIL_BITS) - 1;
const COUNT_MASK: u64 = (1u64 << COUNT_BITS) - 1;

/// Unpacked anchor value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor {
    /// Index of the first block on the superblock-internal free list, or
    /// `max_count` when the list is empty.
    pub avail: u32,
    /// Number of blocks on that free list.
    pub count: u32,
    /// Superblock state.
    pub state: SbState,
}

impl Anchor {
    /// Pack into the 64-bit word stored in the descriptor.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!((self.avail as u64) <= AVAIL_MASK);
        debug_assert!((self.count as u64) <= COUNT_MASK);
        (self.avail as u64)
            | ((self.count as u64) << AVAIL_BITS)
            | ((self.state as u64) << (AVAIL_BITS + COUNT_BITS))
    }

    /// Unpack from the descriptor word.
    #[inline]
    pub fn unpack(raw: u64) -> Anchor {
        Self::decode(raw).expect("invalid anchor state bits")
    }

    /// Unpack a word no live heap vouches for (a checked or inspected
    /// image): `None` for the state bits no anchor packs.
    #[inline]
    pub fn decode(raw: u64) -> Option<Anchor> {
        Some(Anchor {
            avail: (raw & AVAIL_MASK) as u32,
            count: ((raw >> AVAIL_BITS) & COUNT_MASK) as u32,
            state: SbState::from_bits(raw >> (AVAIL_BITS + COUNT_BITS))?,
        })
    }

    /// An anchor for a fully-allocated superblock (e.g. right after a
    /// cache fill reserved every block).
    #[inline]
    pub fn full(max_count: u32) -> Anchor {
        Anchor { avail: max_count, count: 0, state: SbState::Full }
    }

    /// An anchor for an entirely-free superblock whose free list is the
    /// natural chain 0 -> 1 -> ... (as recovery rebuilds it).
    #[inline]
    pub fn empty(max_count: u32) -> Anchor {
        Anchor { avail: 0, count: max_count, state: SbState::Empty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for avail in [0u32, 1, 8191, 8192, 100_000] {
            for count in [0u32, 1, 8192] {
                for state in [SbState::Empty, SbState::Partial, SbState::Full] {
                    let a = Anchor { avail, count, state };
                    assert_eq!(Anchor::unpack(a.pack()), a);
                }
            }
        }
    }

    #[test]
    fn zero_word_is_empty_anchor() {
        let a = Anchor::unpack(0);
        assert_eq!(a.state, SbState::Empty);
        assert_eq!(a.avail, 0);
        assert_eq!(a.count, 0);
    }

    #[test]
    fn full_constructor() {
        let a = Anchor::full(1024);
        assert_eq!(a.avail, 1024);
        assert_eq!(a.count, 0);
        assert_eq!(a.state, SbState::Full);
    }

    #[test]
    fn empty_constructor() {
        let a = Anchor::empty(8192);
        assert_eq!(a.avail, 0);
        assert_eq!(a.count, 8192);
        assert_eq!(a.state, SbState::Empty);
    }

    #[test]
    fn fields_do_not_interfere() {
        let a = Anchor { avail: 0x7FFF_FFFF, count: 0, state: SbState::Empty };
        let u = Anchor::unpack(a.pack());
        assert_eq!(u.count, 0);
        let b = Anchor { avail: 0, count: 0x7FFF_FFFF, state: SbState::Empty };
        let u = Anchor::unpack(b.pack());
        assert_eq!(u.avail, 0);
        assert_eq!(u.count, 0x7FFF_FFFF);
    }
}
