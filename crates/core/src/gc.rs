//! Filter functions and the tracing machinery (paper §4.5.1, Figure 3).
//!
//! Recovery must enumerate every block reachable from the persistent
//! roots. In a type-unsafe setting the fallback is Boehm-Weiser
//! conservative scanning — every properly tagged 64-bit word is treated as
//! a potential reference. *Filter functions* let the programmer supply
//! precise type information instead: the [`Trace`] trait is the Rust
//! rendering of the paper's `filter<T>()` template; implementing it for a
//! node type enumerates exactly the link and `Pptr` fields that the collector
//! should follow. Like the paper, function pointers are re-established in
//! each execution (they are registered transiently by `get_root<T>`), so
//! recompilation and ASLR are harmless.
//!
//! A visited pointer costs one multiply and one mark bit: the tracer
//! keeps the census slot of the last target's superblock and reads the
//! census only when a target lies in another. The first block a scan
//! newly marks is the next one scanned, and [`trace_thunk`] scans it in
//! the same loop while it carries the same filter: a list of one type
//! costs one filter dispatch, a tree one per left spine.

use pptr::{Link, Pptr};

use crate::descriptor::{Census, Slot};
use crate::size_class::SB_SIZE;

/// A type-erased filter function: given the absolute address of a block
/// known to hold a `T`, enumerate its outgoing references into `tracer`.
pub type TraceFn = unsafe fn(addr: usize, tracer: &mut Tracer<'_>);

/// Monomorphic thunk adapting a [`Trace`] impl to [`TraceFn`]. It scans
/// `addr`, then goes on while the next block to scan carries this same
/// filter; another filter, a conservative block or the stack go back to
/// the tracer's `drain`.
///
/// # Safety
/// `addr` must be the start of a live block containing a valid `T`.
pub unsafe fn trace_thunk<T: Trace>(mut addr: usize, tracer: &mut Tracer<'_>) {
    loop {
        // SAFETY: the caller guarantees `addr` starts a live block holding
        // a valid `T`, and so does whoever queued the next one with this
        // filter (equal pointers only for identical code).
        unsafe { (*(addr as *const T)).trace(tracer) }
        match tracer.next {
            Some((next, Some(f))) if std::ptr::fn_addr_eq(f, trace_thunk::<T> as TraceFn) => addr = next,
            _ => return,
        }
        tracer.next = None;
    }
}

/// A *filter function* (paper §4.5.1): enumerates the references inside a
/// value so the recovery GC can trace precisely instead of conservatively.
///
/// # Safety
/// An implementation must visit **every** link (`Link<48>`, through
/// [`Tracer::visit_link`]) and every `Pptr` (through
/// [`Tracer::visit_pptr`]) through which the structure can reach other
/// heap blocks; missing one makes recovery free a live block. Visiting
/// too much is safe (at worst it leaks, like conservative collection).
///
/// Typical implementations call [`Tracer::visit_link`] per link field,
/// reading a shared one through its `AtomicLink`:
///
/// ```ignore
/// unsafe impl Trace for TreeNode {
///     fn trace(&self, t: &mut Tracer) {
///         t.visit_link::<TreeNode>(self.left.load());
///         t.visit_link::<TreeNode>(self.right.load());
///     }
/// }
/// ```
pub unsafe trait Trace {
    /// Enumerate outgoing references.
    fn trace(&self, tracer: &mut Tracer<'_>);
}

/// Leaf impls: plain data holds no references.
macro_rules! leaf_trace {
    ($($t:ty),* $(,)?) => {
        // SAFETY: plain data holds no reference, so visiting nothing visits every one.
        $(unsafe impl Trace for $t {
            #[inline]
            fn trace(&self, _tracer: &mut Tracer<'_>) {}
        })*
    };
}
leaf_trace!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, char, f32, f64, ());

// SAFETY: every element is traced, each by its own sound impl.
unsafe impl<T: Trace, const N: usize> Trace for [T; N] {
    fn trace(&self, tracer: &mut Tracer<'_>) {
        for x in self {
            x.trace(tracer);
        }
    }
}

// SAFETY: the pointer is this value's one reference, and it is visited.
unsafe impl<T: Trace> Trace for Pptr<T> {
    #[inline]
    fn trace(&self, tracer: &mut Tracer<'_>) {
        tracer.visit_pptr(self);
    }
}

/// Marks over a [`Census`]'s flat bitmap (block granularity).
pub(crate) struct MarkSet {
    words: Vec<u64>,
}

impl MarkSet {
    pub fn new(bits: usize) -> MarkSet {
        MarkSet { words: vec![0; bits.div_ceil(64)] }
    }

    /// Mark `bit`; true if newly marked.
    #[inline]
    pub fn mark(&mut self, bit: usize) -> bool {
        let (word, mask) = (&mut self.words[bit / 64], 1u64 << (bit % 64));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Is `bit` marked?
    #[inline]
    pub fn is_marked(&self, bit: usize) -> bool {
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Marked bits among `bit..bit + n`.
    pub fn count(&self, bit: usize, n: u32) -> u32 {
        let (mut at, end, mut marked) = (bit, bit + n as usize, 0);
        while at < end {
            let take = (64 - at % 64).min(end - at);
            let mask = (u64::MAX >> (64 - take)) << (at % 64);
            marked += (self.words[at / 64] & mask).count_ones();
            at += take;
        }
        marked
    }

    /// OR another mark set's bits `0..bits` into this one: parallel
    /// recovery's per-worker sets, over the live prefix.
    pub fn merge_from(&mut self, other: &MarkSet, bits: usize) {
        let words = bits.div_ceil(64);
        for (a, b) in self.words[..words].iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// The tracing context handed to filter functions (the paper's `GC`
/// class: visited set + pending stacks of blocks and their functions).
pub struct Tracer<'h> {
    census: &'h Census,
    pub(crate) marks: MarkSet,
    /// The next block to scan and its filter (`None`: conservatively),
    /// ahead of `pending`: a list's next node never goes through the stack.
    next: Option<(usize, Option<TraceFn>)>,
    pending: Vec<(usize, Option<TraceFn>)>,
    /// The superblock of the last target classified, and its census slot.
    last: (usize, Slot),
    /// The highest marked small block's address (0: none yet).
    top: usize,
    /// The large heads marked, in marking order: the claim judges these.
    pub(crate) heads: Vec<usize>,
    /// Conservative candidate words examined (diagnostics/ablation).
    pub(crate) cons_words_scanned: u64,
    /// Conservative candidates accepted (potential false positives).
    pub(crate) cons_hits: u64,
}

impl<'h> Tracer<'h> {
    pub(crate) fn new(census: &'h Census) -> Tracer<'h> {
        Tracer {
            census,
            marks: MarkSet::new(census.bits),
            next: None,
            pending: Vec::new(),
            last: (usize::MAX, Slot::Empty),
            top: 0,
            heads: Vec::new(),
            cons_words_scanned: 0,
            cons_hits: 0,
        }
    }

    /// Classify an absolute address as a block start: its mark bit, its
    /// byte size and whether it is a large head, if a block recovery may
    /// keep starts there. One multiply, and one census load when the
    /// superblock is not the last target's; pointers to block interiors,
    /// into a small class's tail waste or anywhere but a large head's
    /// first byte are refused (§4.5).
    #[inline(always)]
    fn classify_target(&mut self, addr: usize) -> Option<(usize, u64, bool)> {
        let off = addr.wrapping_sub(self.census.sb_base);
        if off / SB_SIZE != self.last.0 {
            self.last = (off / SB_SIZE, self.census.slots.get(off / SB_SIZE).copied().unwrap_or(Slot::Empty));
        }
        let inner = (off % SB_SIZE) as u32;
        match self.last.1 {
            Slot::Small { bit, blocks, size, recip, .. } => {
                // Exact for every offset below SB_SIZE: offset × size < 2³².
                let blk = ((inner as u64 * recip as u64) >> 32) as u32;
                (blk * size == inner && blk < blocks).then_some((bit + blk as usize, size as u64, false))
            }
            Slot::Large { bit, bytes, .. } => (inner == 0).then_some((bit, bytes, true)),
            Slot::Continuation | Slot::Empty => None,
        }
    }

    /// Mark the block starting at `addr`, if one does; true if newly
    /// marked. What the live prefix is taken from is recorded on the way:
    /// a large head joins `heads`, a small block may raise `top`.
    #[inline(always)]
    fn mark(&mut self, addr: usize) -> bool {
        let Some((bit, _, head)) = self.classify_target(addr) else { return false };
        if !self.marks.mark(bit) {
            return false;
        }
        match head {
            true => self.heads.push(self.last.0),
            false => self.top = self.top.max(addr),
        }
        true
    }

    /// One past the highest superblock holding a marked small block.
    pub(crate) fn top(&self) -> usize {
        self.top.checked_sub(self.census.sb_base).map_or(0, |off| off / SB_SIZE + 1)
    }

    /// Visit a candidate target address with an optional filter function.
    /// Marks the block and queues it for scanning if newly reached.
    #[inline]
    pub fn visit_addr(&mut self, addr: usize, filter: Option<TraceFn>) {
        if self.mark(addr) {
            match self.next {
                None => self.next = Some((addr, filter)),
                Some(_) => self.pending.push((addr, filter)),
            }
        }
    }

    /// Visit through a typed persistent pointer (the body of the paper's
    /// `visit<T>()`).
    #[inline]
    pub fn visit_pptr<T: Trace>(&mut self, p: &Pptr<T>) {
        let t = p.as_ptr();
        if !t.is_null() {
            self.visit_addr(t as usize, Some(trace_thunk::<T>));
        }
    }

    /// Visit a target conservatively: the block is marked and its contents
    /// will be scanned word-by-word for tagged candidate pointers.
    #[inline]
    pub fn visit_conservative(&mut self, addr: usize) {
        self.visit_addr(addr, None);
    }

    /// Byte size of the block that starts at `addr`, if the census has
    /// one there: a filter whose block holds its own length checks it
    /// against this before it trusts it.
    #[inline]
    pub fn block_bytes(&mut self, addr: usize) -> Option<u64> {
        self.classify_target(addr).map(|(_, bytes, _)| bytes)
    }

    /// Visit the typed target of a superblock-region link, if it names
    /// one (for links that store region offsets, not self-relative
    /// `Pptr`s: tagged or CAS-able ones).
    #[inline]
    pub fn visit_link<T: Trace>(&mut self, link: Link<48>) {
        if let Some(off) = link.target() {
            self.visit_addr(self.census.sb_base + off as usize, Some(trace_thunk::<T>));
        }
    }

    /// Mark a target without scanning its contents (for blocks known to
    /// hold no pointers, e.g. string payloads).
    #[inline]
    pub fn visit_leaf(&mut self, addr: usize) {
        self.mark(addr);
    }

    /// The default conservative filter (paper Figure 3, `filter<T>`
    /// default): scan every 64-bit-aligned word of the block; words
    /// carrying the off-holder tag are candidate references.
    fn conservative_scan(&mut self, addr: usize) {
        let Some((_, bytes, _)) = self.classify_target(addr) else { return };
        for i in 0..(bytes / 8) as usize {
            let waddr = addr + i * 8;
            // SAFETY: within a classified block, 8-aligned; offline.
            let v = unsafe { std::ptr::read(waddr as *const u64) };
            self.cons_words_scanned += 1;
            if let Some(target) = pptr::decode_candidate(waddr, v) {
                self.cons_hits += 1;
                self.visit_conservative(target);
            }
        }
    }

    /// Drain the pending blocks to a fixpoint (the paper's `collect()`).
    pub(crate) fn drain(&mut self) {
        while let Some((addr, filter)) = self.next.take().or_else(|| self.pending.pop()) {
            match filter {
                // SAFETY: addr was classified as a block start and the
                // filter was registered for this block's type by
                // `get_root`/`visit_pptr`.
                Some(f) => unsafe { f(addr, self) },
                None => self.conservative_scan(addr),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::{Anchor, SbState};
    use crate::descriptor::Desc;
    use crate::layout::Geometry;
    use crate::size_class::{class_block_size, class_max_count, CLASS_CONTINUATION};
    use nvm::{Mode, PmemPool};
    use std::sync::atomic::Ordering;

    fn setup() -> (PmemPool, Geometry) {
        let len = Geometry::pool_len_for_capacity(4 << 20);
        let pool = PmemPool::new(len, Mode::Direct);
        let geo = Geometry::from_pool_len(pool.len());
        (pool, geo)
    }

    /// Prepare superblock `i` as a small-class superblock.
    fn make_small(pool: &PmemPool, geo: &Geometry, i: u32, class: u32) {
        let d = Desc::new(pool, geo, i);
        d.set_size(class, class_block_size(class) as u64, class_max_count(class));
        d.set_anchor(Anchor { avail: 0, count: 0, state: SbState::Full }, Ordering::Release);
    }

    /// Is the block at `addr` marked?
    fn marked(t: &mut Tracer<'_>, addr: usize) -> bool {
        let bit = t.classify_target(addr).expect("a block start").0;
        t.marks.is_marked(bit)
    }

    #[test]
    fn classify_rejects_interior_and_foreign() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8); // 64 B blocks
        make_small(&pool, &geo, 1, 6); // 48 B: 1 365 blocks, 16 B of tail waste
        Desc::new(&pool, &geo, 2).set_size(CLASS_CONTINUATION, 0, 0);
        // A stale large head whose two superblocks would pass `used` = 4.
        Desc::new(&pool, &geo, 3).set_size(0, 2 * SB_SIZE as u64, 0);
        make_small(&pool, &geo, 4, 8); // valid, but at `used`
        let census = Census::take(&pool, &geo, 4);
        let mut t = Tracer::new(&census);
        let base = pool.base() as usize;
        let sb = |i: usize| base + geo.sb(i);
        assert!(t.classify_target(sb(0)).is_some());
        assert!(t.classify_target(sb(0) + 64).is_some());
        assert!(t.classify_target(sb(0) + 32).is_none(), "interior pointer");
        assert!(t.classify_target(base).is_none(), "metadata region");
        assert!(t.classify_target(0x1000).is_none(), "outside pool");
        assert!(t.classify_target(sb(1) + 1364 * 48).is_some(), "last block of a class");
        assert!(t.classify_target(sb(1) + 1365 * 48).is_none(), "a class's tail waste");
        assert!(t.classify_target(sb(2)).is_none(), "continuation superblock");
        assert!(t.classify_target(sb(3)).is_none(), "stale large head whose span passes used");
        assert!(t.classify_target(sb(4)).is_none(), "superblock at used");
    }

    #[test]
    fn census_reciprocals_divide_every_offset_exactly() {
        for class in 1..crate::size_class::NUM_CLASSES as u32 {
            let size = class_block_size(class);
            let recip = (1u64 << 32).div_ceil(size as u64);
            for inner in 0..SB_SIZE as u64 {
                assert_eq!((inner * recip) >> 32, inner / size as u64, "class {class}, offset {inner}");
            }
        }
    }

    #[test]
    fn mark_set_dedupes() {
        let mut m = MarkSet::new(2 * 1024);
        assert!(m.mark(5));
        assert!(!m.mark(5));
        assert!(m.mark(1024 + 5));
        assert_eq!(m.count(0, 2 * 1024), 2);
        assert!(m.is_marked(5));
        assert!(!m.is_marked(6));
        assert_eq!((m.count(0, 1024), m.count(1000, 30), m.count(6, 1024)), (1, 1, 1));
    }

    #[test]
    fn conservative_scan_follows_tagged_words() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8);
        let base = pool.base() as usize;
        let b0 = base + geo.sb(0); // block 0
        let b3 = b0 + 3 * 64; // block 3
        // Block 0 holds a tagged self-relative pointer to block 3 plus noise.
        // SAFETY: blocks 0 and 3 lie in superblock 0, carved above and owned by this test.
        unsafe {
            let raw = Pptr::<u64>::encode(b0, b3);
            std::ptr::write(b0 as *mut u64, raw);
            std::ptr::write((b0 + 8) as *mut u64, 12345); // not a pointer
            std::ptr::write((b0 + 16) as *mut u64, b3 as u64); // untagged abs addr: ignored
        }
        let census = Census::take(&pool, &geo, 1);
        let mut t = Tracer::new(&census);
        t.visit_conservative(b0);
        t.drain();
        assert!(marked(&mut t, b0));
        assert!(marked(&mut t, b3));
        assert_eq!(t.marks.count(0, census.bits as u32), 2, "untagged words must not mark");
    }

    #[test]
    fn typed_trace_follows_only_declared_fields() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8);
        let base = pool.base() as usize;
        let b0 = base + geo.sb(0);
        let b1 = b0 + 64;
        let b2 = b0 + 128;

        struct Node {
            next: Pptr<Node>,
            _decoy: u64,
        }
        // SAFETY: `next` is the node's only reference, and it is visited.
        unsafe impl Trace for Node {
            fn trace(&self, t: &mut Tracer<'_>) {
                t.visit_pptr(&self.next);
            }
        }
        // SAFETY: b0 and b1 are blocks of superblock 0, carved above and owned by this test.
        unsafe {
            // b0.next -> b1; decoy holds a *tagged* pointer to b2 that a
            // conservative scan would chase but the filter must not.
            let n0 = &mut *(b0 as *mut Node);
            n0.next.set(b1 as *const Node);
            let decoy_addr = b0 + std::mem::offset_of!(Node, _decoy);
            std::ptr::write(decoy_addr as *mut u64, Pptr::<u64>::encode(decoy_addr, b2));
            let n1 = &mut *(b1 as *mut Node);
            n1.next.set(std::ptr::null());
            std::ptr::write((b1 + 8) as *mut u64, 0);
        }
        let census = Census::take(&pool, &geo, 1);
        let mut t = Tracer::new(&census);
        t.visit_addr(b0, Some(trace_thunk::<Node>));
        t.drain();
        assert!(marked(&mut t, b0));
        assert!(marked(&mut t, b1));
        assert!(!marked(&mut t, b2), "filter fn must ignore decoy field");
    }

    #[test]
    fn visit_leaf_marks_without_scanning() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8);
        let base = pool.base() as usize;
        let b0 = base + geo.sb(0);
        let b1 = b0 + 64;
        // SAFETY: b0 is block 0 of superblock 0, carved above and owned by this test.
        unsafe {
            // b0 holds a tagged pointer to b1 but is visited as a leaf.
            std::ptr::write(b0 as *mut u64, Pptr::<u64>::encode(b0, b1));
        }
        let census = Census::take(&pool, &geo, 1);
        let mut t = Tracer::new(&census);
        t.visit_leaf(b0);
        t.drain();
        assert!(marked(&mut t, b0));
        assert!(!marked(&mut t, b1));
    }
}
