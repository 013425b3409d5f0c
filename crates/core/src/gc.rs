//! Filter functions and the tracing machinery (paper §4.5.1, Figure 3).
//!
//! Recovery must enumerate every block reachable from the persistent
//! roots. In a type-unsafe setting the fallback is Boehm-Weiser
//! conservative scanning — every properly tagged 64-bit word is treated as
//! a potential reference. *Filter functions* let the programmer supply
//! precise type information instead: the [`Trace`] trait is the Rust
//! rendering of the paper's `filter<T>()` template; implementing it for a
//! node type enumerates exactly the `Pptr` fields that the collector
//! should follow. Like the paper, function pointers are re-established in
//! each execution (they are registered transiently by `get_root<T>`), so
//! recompilation and ASLR are harmless.

use pptr::{AtomicPptr, Pptr};

use crate::descriptor::{Desc, DescKind};
use crate::layout::Geometry;
use crate::size_class::{class_block_size, class_max_count};
use nvm::PmemPool;

/// A type-erased filter function: given the absolute address of a block
/// known to hold a `T`, enumerate its outgoing references into `tracer`.
pub type TraceFn = unsafe fn(addr: usize, tracer: &mut Tracer<'_>);

/// Monomorphic thunk adapting a [`Trace`] impl to [`TraceFn`].
///
/// # Safety
/// `addr` must be the start of a live block containing a valid `T`.
pub unsafe fn trace_thunk<T: Trace>(addr: usize, tracer: &mut Tracer<'_>) {
    // SAFETY: the caller guarantees `addr` starts a live block holding a
    // valid `T`, so the shared borrow reads an initialized value.
    unsafe { (*(addr as *const T)).trace(tracer) }
}

/// A *filter function* (paper §4.5.1): enumerates the references inside a
/// value so the recovery GC can trace precisely instead of conservatively.
///
/// # Safety
/// An implementation must visit **every** `Pptr`/`AtomicPptr` through
/// which the structure can reach other heap blocks; missing one makes
/// recovery free a live block. Visiting too much is safe (at worst it
/// leaks, like conservative collection).
///
/// Typical implementations call [`Tracer::visit_pptr`] /
/// [`Tracer::visit_atomic_pptr`] per pointer field:
///
/// ```ignore
/// unsafe impl Trace for TreeNode {
///     fn trace(&self, t: &mut Tracer) {
///         t.visit_pptr(&self.left);
///         t.visit_pptr(&self.right);
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
        $(unsafe impl Trace for $t {
            #[inline]
            fn trace(&self, _tracer: &mut Tracer<'_>) {}
        })*
    };
}
leaf_trace!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, char, f32, f64, ());

unsafe impl<T: Trace, const N: usize> Trace for [T; N] {
    fn trace(&self, tracer: &mut Tracer<'_>) {
        for x in self {
            x.trace(tracer);
        }
    }
}

unsafe impl<T: Trace> Trace for Pptr<T> {
    #[inline]
    fn trace(&self, tracer: &mut Tracer<'_>) {
        tracer.visit_pptr(self);
    }
}

unsafe impl<T: Trace> Trace for AtomicPptr<T> {
    #[inline]
    fn trace(&self, tracer: &mut Tracer<'_>) {
        tracer.visit_atomic_pptr(self);
    }
}

/// Per-superblock mark bitmaps (block granularity).
pub(crate) struct MarkSet {
    /// One lazily allocated bitmap per carved superblock.
    bitmaps: Vec<Option<Box<[u64]>>>,
    /// Marked blocks per superblock.
    pub counts: Vec<u32>,
    /// Total marked blocks.
    pub total: u64,
    /// Total marked bytes.
    pub bytes: u64,
}

impl MarkSet {
    pub fn new(used_sb: usize) -> MarkSet {
        MarkSet {
            bitmaps: (0..used_sb).map(|_| None).collect(),
            counts: vec![0; used_sb],
            total: 0,
            bytes: 0,
        }
    }

    /// Mark block `blk` of superblock `sb`; true if newly marked.
    pub fn mark(&mut self, sb: usize, blk: u32, max_count: u32, bytes: u64) -> bool {
        let bm = self.bitmaps[sb]
            .get_or_insert_with(|| vec![0u64; (max_count as usize).div_ceil(64)].into_boxed_slice());
        let (w, b) = ((blk / 64) as usize, blk % 64);
        if bm[w] & (1 << b) != 0 {
            return false;
        }
        bm[w] |= 1 << b;
        self.counts[sb] += 1;
        self.total += 1;
        self.bytes += bytes;
        true
    }

    /// Is block `blk` of superblock `sb` marked?
    pub fn is_marked(&self, sb: usize, blk: u32) -> bool {
        match &self.bitmaps[sb] {
            None => false,
            Some(bm) => bm[(blk / 64) as usize] & (1 << (blk % 64)) != 0,
        }
    }

    /// Union another mark set into this one (parallel recovery merges the
    /// per-thread mark sets produced by tracing disjoint root subsets;
    /// overlap is possible when roots share substructure and is handled
    /// by the idempotent OR). `counts`/`total` are recomputed; `bytes`
    /// is left to the caller, which re-derives it from descriptors.
    pub fn merge_from(&mut self, other: &MarkSet) {
        assert_eq!(self.bitmaps.len(), other.bitmaps.len());
        self.total = 0;
        for sb in 0..self.bitmaps.len() {
            match (&mut self.bitmaps[sb], &other.bitmaps[sb]) {
                (_, None) => {}
                (slot @ None, Some(b)) => *slot = Some(b.clone()),
                (Some(a), Some(b)) => {
                    for (aw, bw) in a.iter_mut().zip(b.iter()) {
                        *aw |= *bw;
                    }
                }
            }
            self.counts[sb] = self.bitmaps[sb]
                .as_ref()
                .map_or(0, |bm| bm.iter().map(|w| w.count_ones()).sum());
            self.total += self.counts[sb] as u64;
        }
    }
}

/// The tracing context handed to filter functions (the paper's `GC`
/// class: visited set + pending stacks of blocks and their functions).
pub struct Tracer<'h> {
    pool: &'h PmemPool,
    geo: &'h Geometry,
    used_sb: usize,
    pub(crate) marks: MarkSet,
    /// Pending blocks: (block address, filter fn or None = conservative).
    pending: Vec<(usize, Option<TraceFn>)>,
    /// Conservative candidate words examined (diagnostics/ablation).
    pub(crate) cons_words_scanned: u64,
    /// Conservative candidates accepted (potential false positives).
    pub(crate) cons_hits: u64,
}

impl<'h> Tracer<'h> {
    pub(crate) fn new(pool: &'h PmemPool, geo: &'h Geometry, used_sb: usize) -> Tracer<'h> {
        Tracer {
            pool,
            geo,
            used_sb,
            marks: MarkSet::new(used_sb),
            pending: Vec::new(),
            cons_words_scanned: 0,
            cons_hits: 0,
        }
    }

    /// Classify an absolute address as a block start; returns
    /// (superblock, block index, block bytes) if valid.
    fn classify_target(&self, addr: usize) -> Option<(usize, u32, u64, u32)> {
        let base = self.pool.base() as usize;
        let off = addr.checked_sub(base)?;
        let sb = self.geo.sb_index_of(off)?;
        if sb >= self.used_sb {
            return None;
        }
        let desc = Desc::new(self.pool, self.geo, sb as u32);
        match desc.classify(self.used_sb) {
            DescKind::Small { class } => {
                let bsize = class_block_size(class) as usize;
                let inner = off - self.geo.sb(sb);
                // Pointers to block interiors are not supported (§4.5).
                if !inner.is_multiple_of(bsize) {
                    return None;
                }
                let blk = (inner / bsize) as u32;
                if blk >= class_max_count(class) {
                    return None; // in the tail waste of the superblock
                }
                Some((sb, blk, bsize as u64, class_max_count(class)))
            }
            DescKind::LargeHead { .. } => {
                if off == self.geo.sb(sb) {
                    Some((sb, 0, desc.block_size(), 1))
                } else {
                    None
                }
            }
            DescKind::Continuation | DescKind::Invalid => None,
        }
    }

    /// Visit a candidate target address with an optional filter function.
    /// Marks the block and queues it for scanning if newly reached.
    pub fn visit_addr(&mut self, addr: usize, filter: Option<TraceFn>) {
        if let Some((sb, blk, bytes, mc)) = self.classify_target(addr) {
            if self.marks.mark(sb, blk, mc, bytes) {
                self.pending.push((addr, filter));
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

    /// Visit through an atomic typed persistent pointer.
    #[inline]
    pub fn visit_atomic_pptr<T: Trace>(&mut self, p: &AtomicPptr<T>) {
        let t = p.load(std::sync::atomic::Ordering::Relaxed);
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

    /// Absolute address of the superblock region's first byte. Structures
    /// that store region-relative offsets (e.g. ABA-counted heads, which
    /// cannot carry the self-relative tag) use this in their filters.
    #[inline]
    pub fn region_base(&self) -> usize {
        self.pool.base() as usize + self.geo.sb(0)
    }

    /// Visit a typed target given as a superblock-region offset (for
    /// packed pointer representations that store offsets, not
    /// self-relative `Pptr`s).
    #[inline]
    pub fn visit_region_offset<T: Trace>(&mut self, off: u64) {
        let addr = self.region_base() + off as usize;
        self.visit_addr(addr, Some(trace_thunk::<T>));
    }

    /// Mark a target without scanning its contents (for blocks known to
    /// hold no pointers, e.g. string payloads).
    #[inline]
    pub fn visit_leaf(&mut self, addr: usize) {
        if let Some((sb, blk, bytes, mc)) = self.classify_target(addr) {
            self.marks.mark(sb, blk, mc, bytes);
        }
    }

    /// The default conservative filter (paper Figure 3, `filter<T>`
    /// default): scan every 64-bit-aligned word of the block; words
    /// carrying the off-holder tag are candidate references.
    fn conservative_scan(&mut self, addr: usize) {
        let (bytes, _) = match self.classify_target(addr) {
            Some((_, _, b, _)) => (b, ()),
            None => return,
        };
        let words = (bytes / 8) as usize;
        for i in 0..words {
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

    /// Consume the tracer, yielding its mark set and conservative-scan
    /// counters (words scanned, candidates accepted).
    pub(crate) fn into_parts(self) -> (MarkSet, u64, u64) {
        (self.marks, self.cons_words_scanned, self.cons_hits)
    }

    /// Drain the pending stack to a fixpoint (the paper's `collect()`).
    pub(crate) fn drain(&mut self) {
        while let Some((addr, filter)) = self.pending.pop() {
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
    use crate::size_class::SB_SIZE;
    use nvm::Mode;
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
        d.set_size(class, class_block_size(class) as u64, class_max_count(class), true);
        d.set_anchor(Anchor { avail: 0, count: 0, state: SbState::Full }, Ordering::Release);
    }

    #[test]
    fn classify_rejects_interior_and_foreign() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8); // 64 B blocks
        let t = Tracer::new(&pool, &geo, 1);
        let base = pool.base() as usize;
        let sb0 = base + geo.sb(0);
        assert!(t.classify_target(sb0).is_some());
        assert!(t.classify_target(sb0 + 64).is_some());
        assert!(t.classify_target(sb0 + 32).is_none(), "interior pointer");
        assert!(t.classify_target(base).is_none(), "metadata region");
        assert!(t.classify_target(0x1000).is_none(), "outside pool");
        // Superblock 1 is beyond used_sb = 1.
        assert!(t.classify_target(sb0 + SB_SIZE).is_none());
    }

    #[test]
    fn mark_set_dedupes() {
        let mut m = MarkSet::new(2);
        assert!(m.mark(0, 5, 1024, 64));
        assert!(!m.mark(0, 5, 1024, 64));
        assert!(m.mark(1, 5, 1024, 64));
        assert_eq!(m.total, 2);
        assert_eq!(m.bytes, 128);
        assert!(m.is_marked(0, 5));
        assert!(!m.is_marked(0, 6));
    }

    #[test]
    fn conservative_scan_follows_tagged_words() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8);
        let base = pool.base() as usize;
        let b0 = base + geo.sb(0); // block 0
        let b3 = b0 + 3 * 64; // block 3
        // Block 0 holds a tagged self-relative pointer to block 3 plus noise.
        unsafe {
            let raw = Pptr::<u64>::encode(b0, b3);
            std::ptr::write(b0 as *mut u64, raw);
            std::ptr::write((b0 + 8) as *mut u64, 12345); // not a pointer
            std::ptr::write((b0 + 16) as *mut u64, b3 as u64); // untagged abs addr: ignored
        }
        let mut t = Tracer::new(&pool, &geo, 1);
        t.visit_conservative(b0);
        t.drain();
        assert!(t.marks.is_marked(0, 0));
        assert!(t.marks.is_marked(0, 3));
        assert_eq!(t.marks.total, 2, "untagged words must not mark");
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
        unsafe impl Trace for Node {
            fn trace(&self, t: &mut Tracer<'_>) {
                t.visit_pptr(&self.next);
            }
        }
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
        let mut t = Tracer::new(&pool, &geo, 1);
        t.visit_addr(b0, Some(trace_thunk::<Node>));
        t.drain();
        assert!(t.marks.is_marked(0, 0));
        assert!(t.marks.is_marked(0, 1));
        assert!(!t.marks.is_marked(0, 2), "filter fn must ignore decoy field");
    }

    #[test]
    fn visit_leaf_marks_without_scanning() {
        let (pool, geo) = setup();
        make_small(&pool, &geo, 0, 8);
        let base = pool.base() as usize;
        let b0 = base + geo.sb(0);
        let b1 = b0 + 64;
        unsafe {
            // b0 holds a tagged pointer to b1 but is visited as a leaf.
            std::ptr::write(b0 as *mut u64, Pptr::<u64>::encode(b0, b1));
        }
        let mut t = Tracer::new(&pool, &geo, 1);
        t.visit_leaf(b0);
        t.drain();
        assert!(t.marks.is_marked(0, 0));
        assert!(!t.marks.is_marked(0, 1));
    }
}
