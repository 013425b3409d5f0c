//! Counted link words: the one format of every region-relative link.
//!
//! A link names its target by an index or offset counted from a base the
//! reader knows (a descriptor array, the superblock region), so it is
//! position-independent like a [`crate::Pptr`], and packs a tag above it
//! in the same 64-bit word, so one CAS swings both. The heads of the
//! superblock free list and the partial lists are lock-free LIFO stacks:
//! a pop that reads head `A`, is delayed, and then CASes while `A` was
//! popped and pushed back would corrupt the list (the ABA problem, paper
//! §4.2 / Scott §2.3.1). The paper devotes 34 bits of each list head to a
//! counter that every swing advances, leaving 30 bits for the descriptor
//! index — enough for 2^30 superblocks × 64 KiB = 64 TiB of heap, well
//! above the 1 TB region limit.
//!
//! A link shared between threads is an [`AtomicLink`], whose orderings
//! are fixed: every link publishes a block that was written (and
//! persisted) before it, so a load acquires, a store releases and a CAS
//! does both.

use std::sync::atomic::{AtomicU64, Ordering};

/// Packed `{tag: 64 − BITS | target + 1: BITS}` word. A target field of
/// 0 encodes "no target", so zeroed NVM reads as an empty list or a null
/// link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Link<const BITS: u32>(pub u64);

impl<const BITS: u32> Link<BITS> {
    const MASK: u64 = (1 << BITS) - 1;

    /// No target, tag 0: the all-zero word.
    pub const NONE: Self = Link(0);

    /// Build from parts. The tag keeps its low `64 − BITS` bits.
    #[inline]
    pub fn new(target: Option<u64>, tag: u64) -> Self {
        let field = match target {
            None => 0,
            Some(t) => {
                debug_assert!(t < Self::MASK, "link target {t:#x} does not fit {BITS} bits");
                t + 1
            }
        };
        Link(tag << BITS | field)
    }

    /// The target, `None` if the link names none.
    #[inline]
    pub fn target(self) -> Option<u64> {
        (self.0 & Self::MASK).checked_sub(1)
    }

    /// The tag (an ABA counter, or mark bits).
    #[inline]
    pub fn tag(self) -> u64 {
        self.0 >> BITS
    }

    /// A link to `target` with the tag advanced by one, wrapping at
    /// 2^(64 − BITS).
    #[inline]
    pub fn advance(self, target: Option<u64>) -> Self {
        Self::new(target, self.tag().wrapping_add(1))
    }
}

impl<const BITS: u32> Default for Link<BITS> {
    fn default() -> Self {
        Self::NONE
    }
}

/// A [`Link`] word shared between threads: the only way a persisted link
/// is loaded, stored or CASed. Zeroed memory reads as [`Link::NONE`].
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicLink<const BITS: u32>(AtomicU64);

impl<const BITS: u32> AtomicLink<BITS> {
    /// A word holding `link`.
    pub const fn new(link: Link<BITS>) -> Self {
        AtomicLink(AtomicU64::new(link.0))
    }

    /// View a word of a pool (`PmemPool::atomic_u64`) as a link.
    #[inline]
    pub fn from_ref(word: &AtomicU64) -> &Self {
        // SAFETY: `AtomicLink` is `repr(transparent)` over `AtomicU64`.
        unsafe { &*(word as *const AtomicU64 as *const Self) }
    }

    /// The link, with Acquire: what it names was written before it.
    #[inline]
    pub fn load(&self) -> Link<BITS> {
        Link(self.0.load(Ordering::Acquire))
    }

    /// Publish `link`, with Release.
    #[inline]
    pub fn store(&self, link: Link<BITS>) {
        self.0.store(link.0, Ordering::Release)
    }

    /// Swing `current` to `new` (AcqRel; Acquire on failure). `Ok` holds
    /// the previous link, `Err` the link found instead.
    #[inline]
    pub fn compare_exchange(&self, current: Link<BITS>, new: Link<BITS>) -> Result<Link<BITS>, Link<BITS>> {
        self.0
            .compare_exchange(current.0, new.0, Ordering::AcqRel, Ordering::Acquire)
            .map(Link)
            .map_err(Link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(Link::<30>::NONE.0, 0);
        assert_eq!(Link::<48>::NONE.0, 0);
        assert_eq!(Link::<30>::NONE.target(), None);
        assert_eq!(Link::<30>::NONE.tag(), 0);
        assert_eq!(Link::<30>::new(None, 0), Link::NONE);
    }

    #[test]
    fn pack_unpack() {
        let c = Link::<30>::new(Some(0), 0);
        assert_eq!(c.target(), Some(0));
        assert_eq!(c.tag(), 0);
        let c = Link::<30>::new(Some(123456), 999);
        assert_eq!(c.target(), Some(123456));
        assert_eq!(c.tag(), 999);
        let c = Link::<48>::new(None, 7);
        assert_eq!(c.target(), None);
        assert_eq!(c.tag(), 7);
    }

    /// The layouts the images and the structures store: a change here
    /// changes every pool and every persisted structure.
    #[test]
    fn the_bits_are_pinned() {
        for (i, c) in [(0u64, 0u64), (5, 9), ((1 << 30) - 2, (1 << 34) - 1)] {
            assert_eq!(Link::<30>::new(Some(i), c).0, c << 30 | (i + 1));
        }
        for (o, c) in [(0u64, 0u64), (0x1_0040, 3), ((1 << 48) - 2, 0xFFFF)] {
            assert_eq!(Link::<48>::new(Some(o), c).0, c << 48 | (o + 1));
        }
    }

    #[test]
    fn advance_bumps_counter() {
        let c = Link::<30>::new(Some(5), 10);
        let d = c.advance(Some(6));
        assert_eq!(d.target(), Some(6));
        assert_eq!(d.tag(), 11);
        let e = d.advance(None);
        assert_eq!(e.target(), None);
        assert_eq!(e.tag(), 12);
    }

    #[test]
    fn counter_wraps_at_34_bits() {
        let c = Link::<30>::new(Some(1), (1u64 << 34) - 1);
        let d = c.advance(Some(1));
        assert_eq!(d.tag(), 0);
        assert_eq!(d.target(), Some(1));
        let c = Link::<48>::new(Some(1), 0xFFFF);
        let d = c.advance(Some(2));
        assert_eq!(d.tag(), 0, "a 48-bit link's tag wraps at 2^16");
        assert_eq!(d.target(), Some(2));
    }

    #[test]
    fn distinct_counters_distinct_words() {
        // The ABA defence: same target, different counters, different bits.
        let a = Link::<30>::new(Some(9), 1);
        let b = Link::<30>::new(Some(9), 2);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn an_atomic_link_round_trips_its_tag() {
        let a = AtomicLink::<48>::new(Link::NONE);
        assert_eq!(a.load(), Link::NONE);
        let l = Link::<48>::new(Some(0x4_0040), 0xBEEF);
        a.store(l);
        assert_eq!(a.load(), l);
        assert_eq!(AtomicLink::<30>::new(Link::new(Some(7), 3)).load(), Link::new(Some(7), 3));
    }

    #[test]
    fn a_cas_returns_the_previous_or_the_observed_link() {
        let (l0, l1, l2) = (Link::<30>::new(Some(1), 0), Link::new(Some(2), 1), Link::new(Some(3), 2));
        let a = AtomicLink::new(l0);
        assert_eq!(a.compare_exchange(l0, l1), Ok(l0), "a CAS that succeeds returns the previous link");
        assert_eq!(a.compare_exchange(l0, l2), Err(l1), "a failing CAS returns the observed link");
        assert_eq!(a.load(), l1, "and changes nothing");
    }

    #[test]
    fn a_viewed_word_and_its_link_see_each_other() {
        let word = AtomicU64::new(0);
        let a = AtomicLink::<48>::from_ref(&word);
        let l = Link::<48>::new(Some(64), 9);
        a.store(l);
        assert_eq!(word.load(Ordering::Relaxed), l.0);
        word.store(Link::<48>::new(None, 10).0, Ordering::Relaxed);
        assert_eq!(a.load(), Link::new(None, 10));
    }

    #[test]
    fn max_index_fits() {
        let max = (1u64 << 30) - 2;
        let c = Link::<30>::new(Some(max), 0);
        assert_eq!(c.target(), Some(max));
        let max = (1u64 << 48) - 2;
        assert_eq!(Link::<48>::new(Some(max), 0xFFFF).target(), Some(max));
    }
}
