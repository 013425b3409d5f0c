//! Large allocations: blocks above the largest size class, served as
//! runs of whole superblocks (paper §4.4).
//!
//! The one decision this module owns is the **span encoding**: the head
//! descriptor carries class 0 and the byte size, every interior
//! descriptor the continuation class, all durable under one fence before
//! return ([`HeapInner::claim`]), and every anchor of the span reads
//! FULL; a free splits the span back into single EMPTY superblocks. The
//! [`Census`](crate::descriptor::Census) decodes it, and its `claim` is
//! the one rule for which spans are live. A large block always carves
//! (§4.4); only a one-superblock request whose carve fails pops the free
//! list.
//!
//! No cache set is in hand here, so what this path counts goes to the
//! heap's shared counters ([`crate::stats`]): a large pair is ≈ 0.5 µs
//! and fences once; one `lock`-prefixed add is not seen.
//!
//! `pub(crate)` surface on [`HeapInner`]: `malloc_large`, `free_large`.

use std::sync::atomic::Ordering;

use crate::anchor::{Anchor, SbState};
use crate::descriptor::Desc;
use crate::heap::HeapInner;
use crate::lists::DescList;
use crate::size_class::SB_SIZE;

impl HeapInner {
    pub(crate) fn malloc_large(&self, size: usize) -> *mut u8 {
        let span = size.div_ceil(SB_SIZE);
        // The paper always expands `used` for large allocations (§4.4).
        // When expansion fails a single-superblock request also tries the
        // free list — a liveness improvement for long-running processes
        // with bounded pools — and drops a pop that does not read EMPTY.
        let carved = self.carve(span).inspect(|_| self.slow.sb_carved.add(span as u64));
        let Some(idx) = carved.or_else(|| (span == 1).then(|| self.pop_free(&mut true)).flatten()) else {
            return std::ptr::null_mut();
        };
        // Every anchor of the span reads FULL too: a shrink then tells a
        // live span from free space by anchors alone.
        self.claim(idx, span, (0, size as u64, 1), carved.is_some());
        self.slow.large_allocs.add(1);
        self.addr_of(self.geo.sb(idx as usize)) as *mut u8
    }

    pub(crate) fn free_large(&self, off: usize, sb: usize) {
        let d = Desc::new(&self.pool, &self.geo, sb as u32);
        assert_eq!(off, self.geo.sb(sb), "free: not the start of a large block");
        let span = (d.block_size() as usize).div_ceil(SB_SIZE);
        // Split into constituent superblocks and retire each (paper §4.4).
        for k in 0..span {
            let dk = Desc::new(&self.pool, &self.geo, (sb + k) as u32);
            dk.set_anchor(Anchor { avail: 0, count: 0, state: SbState::Empty }, Ordering::Release);
            DescList::free_list(&self.geo).push(&self.pool, &self.geo, (sb + k) as u32);
        }
    }
}
