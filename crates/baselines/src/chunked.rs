//! Shared chunked-pool geometry for the Makalu and PMDK simulations.
//!
//! Both baselines manage a [`nvm::PmemPool`] split into a header, a
//! metadata area (one record + one allocation byte per block, per chunk),
//! and a chunk area of 64 KiB chunks. The allocation byte per block is
//! the *eagerly persisted* state that distinguishes these designs from
//! Ralloc: every alloc/free writes it back immediately, which is where
//! their persistence overhead comes from.
//!
//! Both also share their large blocks ([`Spans`], first-fit over freed
//! chunk spans, else a carve) and differ only in where a small block goes
//! when it is free. PMDK's recovery walk is [`rebuild`]; the Makalu model
//! has no recovery.

use nvm::PmemPool;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

/// Chunk size; matches Ralloc's superblock so fragmentation behaviour is
/// comparable.
pub const CHUNK_SIZE: usize = 64 * 1024;

/// Per-chunk metadata stride: 64 B header {class, block_size} + one
/// allocation byte per possible block (64 KiB / 8 B = 8192).
pub const CHUNK_META: usize = 64 + 8192;

/// Pool header size.
pub const HDR: usize = 4096;

/// Offset of the used-chunks watermark.
pub const USED_OFF: usize = 0;
/// First byte available for allocator-specific persistent state
/// (e.g. PMDK's redo log and free-list heads).
pub const CUSTOM_OFF: usize = 64;

/// Size classes shared with Ralloc (reuse keeps comparisons apples-to-
/// apples); index 0 is large.
pub use ralloc::size_class::{
    class_block_size, class_max_count, is_small_class, size_class_of, NUM_CLASSES,
};

/// Chunk-area geometry derived from a pool.
#[derive(Debug, Clone, Copy)]
pub struct ChunkGeo {
    /// Total chunks available.
    pub max_chunks: usize,
    /// Offset of chunk-metadata record 0.
    pub meta_off: usize,
    /// Offset of chunk 0.
    pub chunks_off: usize,
}

impl ChunkGeo {
    /// Compute geometry for a pool of `pool_len` bytes.
    pub fn new(pool_len: usize) -> ChunkGeo {
        let mut max_chunks = (pool_len - HDR) / (CHUNK_META + CHUNK_SIZE);
        loop {
            let chunks_off = (HDR + max_chunks * CHUNK_META).next_multiple_of(CHUNK_SIZE);
            if chunks_off + max_chunks * CHUNK_SIZE <= pool_len {
                return ChunkGeo { max_chunks, meta_off: HDR, chunks_off };
            }
            max_chunks -= 1;
        }
    }

    /// Pool length that provides at least `capacity` bytes of chunks.
    pub fn pool_len_for_capacity(capacity: usize) -> usize {
        let chunks = capacity.div_ceil(CHUNK_SIZE).max(2);
        let chunks_off = (HDR + chunks * CHUNK_META).next_multiple_of(CHUNK_SIZE);
        chunks_off + chunks * CHUNK_SIZE
    }

    /// Offset of chunk `i`'s metadata record.
    #[inline]
    pub fn meta(&self, i: usize) -> usize {
        self.meta_off + i * CHUNK_META
    }

    /// Offset of chunk `i`'s allocation byte for block `blk`.
    #[inline]
    pub fn alloc_byte(&self, i: usize, blk: u32) -> usize {
        self.meta(i) + 64 + blk as usize
    }

    /// Offset of chunk `i`.
    #[inline]
    pub fn chunk(&self, i: usize) -> usize {
        self.chunks_off + i * CHUNK_SIZE
    }

    /// Chunk index containing pool offset `off`, if in the chunk area.
    #[inline]
    pub fn chunk_index_of(&self, off: usize) -> Option<usize> {
        if off < self.chunks_off || off >= self.chunks_off + self.max_chunks * CHUNK_SIZE {
            return None;
        }
        Some((off - self.chunks_off) / CHUNK_SIZE)
    }
}

/// Carve `n` fresh chunks by bumping the persistent watermark.
pub fn carve(pool: &PmemPool, geo: &ChunkGeo, n: usize) -> Option<usize> {
    // SAFETY: header word, 8-aligned.
    let used = unsafe { pool.atomic_u64(USED_OFF) };
    loop {
        let u = used.load(Ordering::Acquire);
        if u as usize + n > geo.max_chunks {
            return None;
        }
        if used
            .compare_exchange(u, u + n as u64, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            pool.persist(USED_OFF, 8);
            return Some(u as usize);
        }
    }
}

/// Read the watermark.
pub fn used_chunks(pool: &PmemPool) -> usize {
    // SAFETY: header word.
    unsafe { pool.atomic_u64(USED_OFF) }.load(Ordering::Acquire) as usize
}

/// Set a chunk's class/block-size header and persist it.
pub fn set_chunk_class(pool: &PmemPool, geo: &ChunkGeo, i: usize, class: u32, bsize: u64) {
    let off = geo.meta(i);
    // SAFETY: metadata words, 8-aligned.
    unsafe {
        pool.atomic_u64(off).store(class as u64, Ordering::Relaxed);
        pool.atomic_u64(off + 8).store(bsize, Ordering::Release);
    }
    pool.persist(off, 16);
}

/// Read a chunk's (class, block size).
pub fn chunk_class(pool: &PmemPool, geo: &ChunkGeo, i: usize) -> (u32, u64) {
    let off = geo.meta(i);
    // SAFETY: metadata words.
    unsafe {
        (
            pool.atomic_u64(off).load(Ordering::Relaxed) as u32,
            pool.atomic_u64(off + 8).load(Ordering::Relaxed),
        )
    }
}

/// The eagerly persisted per-block allocation state write that defines
/// these baselines' cost profile: one byte store + flush + fence.
pub fn set_alloc_state(pool: &PmemPool, geo: &ChunkGeo, chunk: usize, blk: u32, allocated: bool) {
    let off = geo.alloc_byte(chunk, blk);
    // SAFETY: in-bounds byte in the metadata area; racing writers target
    // distinct blocks (each block's state is owned by its alloc/freer).
    unsafe { std::ptr::write_volatile(pool.base().add(off), allocated as u8) };
    pool.persist(off, 1);
}

/// Read a block's persisted allocation state.
pub fn alloc_state(pool: &PmemPool, geo: &ChunkGeo, chunk: usize, blk: u32) -> bool {
    // SAFETY: in-bounds.
    unsafe { std::ptr::read_volatile(pool.base().add(geo.alloc_byte(chunk, blk))) != 0 }
}

/// Helper used by both baselines to locate a freed pointer.
pub fn locate(pool: &PmemPool, geo: &ChunkGeo, ptr: *mut u8) -> (usize, u32, u64, u32) {
    let off = (ptr as usize)
        .checked_sub(pool.base() as usize)
        .expect("free: pointer below pool");
    let chunk = geo.chunk_index_of(off).expect("free: pointer outside chunk area");
    let (class, bsize) = chunk_class(pool, geo, chunk);
    let blk = ((off - geo.chunk(chunk)) / bsize.max(1) as usize) as u32;
    (chunk, blk, bsize, class)
}

/// The free chunk spans that large blocks come from, `(first chunk,
/// length)`: volatile, rebuilt by [`rebuild`] after a crash.
#[derive(Default)]
pub struct Spans(Mutex<Vec<(usize, usize)>>);

impl Spans {
    /// Allocate a large block of `size` bytes: the first free span that
    /// fits (its rest stays free), else fresh chunks carved off the
    /// watermark. The head's class word and allocation byte are persisted.
    /// Returns the head chunk, or `None` when the pool is full.
    pub fn take(&self, pool: &PmemPool, geo: &ChunkGeo, size: usize) -> Option<usize> {
        let span = size.div_ceil(CHUNK_SIZE);
        let head = {
            let mut free = self.0.lock();
            match free.iter().position(|&(_, n)| n >= span) {
                Some(p) => {
                    let (first, n) = free[p];
                    if n == span {
                        free.swap_remove(p);
                    } else {
                        free[p] = (first + span, n - span);
                    }
                    first
                }
                None => carve(pool, geo, span)?,
            }
        };
        set_chunk_class(pool, geo, head, 0, size as u64);
        set_alloc_state(pool, geo, head, 0, true);
        Some(head)
    }

    /// Free the large block of `size` bytes at chunk `head`: persist its
    /// cleared allocation byte, then make its span reusable.
    pub fn give(&self, pool: &PmemPool, geo: &ChunkGeo, head: usize, size: u64) {
        set_alloc_state(pool, geo, head, 0, false);
        self.0.lock().push((head, (size as usize).div_ceil(CHUNK_SIZE)));
    }
}

/// Rebuild the free state from the persisted chunk headers and allocation
/// bytes (post-crash), which are authoritative: `spans` becomes the large
/// spans whose head byte is clear, and `free(class, off)` is called for
/// every small block whose byte is clear, with its pool offset.
pub fn rebuild(pool: &PmemPool, geo: &ChunkGeo, spans: &Spans, mut free: impl FnMut(u32, usize)) {
    let mut spans = spans.0.lock();
    spans.clear();
    let used = used_chunks(pool);
    let mut i = 0usize;
    while i < used {
        let (class, bsize) = chunk_class(pool, geo, i);
        if class == 0 && bsize > 0 {
            let span = (bsize as usize).div_ceil(CHUNK_SIZE).min(used - i);
            if !alloc_state(pool, geo, i, 0) {
                spans.push((i, span));
            }
            i += span;
            continue;
        }
        if is_small_class(class) && bsize == class_block_size(class) as u64 {
            for blk in 0..class_max_count(class) {
                if !alloc_state(pool, geo, i, blk) {
                    free(class, geo.chunk(i) + blk as usize * bsize as usize);
                }
            }
        }
        // Uninitialized chunk headers (carved but never classed) are
        // unreachable: conservatively skip (they leak until reuse, as in
        // the real systems without GC).
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::Mode;

    #[test]
    fn geometry_fits_pool() {
        let len = ChunkGeo::pool_len_for_capacity(8 << 20);
        let g = ChunkGeo::new(len);
        assert!(g.max_chunks >= 128);
        assert!(g.chunk(g.max_chunks - 1) + CHUNK_SIZE <= len);
        assert!(g.meta(g.max_chunks - 1) + CHUNK_META <= g.chunks_off);
    }

    #[test]
    fn carve_respects_capacity() {
        let pool = PmemPool::new(ChunkGeo::pool_len_for_capacity(256 * 1024), Mode::Direct);
        let g = ChunkGeo::new(pool.len());
        let mut got = 0;
        while carve(&pool, &g, 1).is_some() {
            got += 1;
        }
        assert_eq!(got, g.max_chunks);
        assert_eq!(used_chunks(&pool), g.max_chunks);
    }

    #[test]
    fn alloc_state_roundtrip_and_persists() {
        let pool = PmemPool::new(ChunkGeo::pool_len_for_capacity(1 << 20), Mode::Tracked);
        let g = ChunkGeo::new(pool.len());
        set_alloc_state(&pool, &g, 0, 7, true);
        assert!(alloc_state(&pool, &g, 0, 7));
        pool.crash();
        assert!(alloc_state(&pool, &g, 0, 7), "allocation byte must survive crash");
    }

    #[test]
    fn chunk_class_persists() {
        let pool = PmemPool::new(ChunkGeo::pool_len_for_capacity(1 << 20), Mode::Tracked);
        let g = ChunkGeo::new(pool.len());
        set_chunk_class(&pool, &g, 3, 8, 64);
        pool.crash();
        assert_eq!(chunk_class(&pool, &g, 3), (8, 64));
    }
}
