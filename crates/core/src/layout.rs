//! Persistent heap geometry (paper §4.2, Figure 2).
//!
//! A Ralloc heap is one contiguous pool divided into three regions:
//!
//! ```text
//! +--------------------+---------------------+------------------------+
//! | metadata (16 KiB)  | descriptor region   | superblock region      |
//! | dirty flag, roots, | 64 B per superblock | size/used + superblock |
//! | size classes, free | (1:64Ki ratio)      | array, 64 KiB units    |
//! | list head          |                     |                        |
//! +--------------------+---------------------+------------------------+
//! ```
//!
//! The *i*-th descriptor corresponds to the *i*-th superblock, so either
//! can be found from the other with shift/mask arithmetic. All layout is
//! a pure function of the pool length, so nothing about it needs to be
//! persisted beyond the pool length itself (stored in the header for
//! validation). **Bold** fields from the paper's Figure 2 — the only ones
//! flushed during normal operation — are: the dirty indicator, `used`,
//! the persistent roots, and each descriptor's size-class/block-size.
//!
//! The pool's committed prefix is the heap's one frontier: the metadata
//! and the whole descriptor array always lie under it, and a grow
//! commits more of the superblock array before `used` may cover it. No
//! header word records the frontier. What backs the prefix — the file
//! length, or what a crash image holds — is what an open checks `used`
//! against ([`Geometry::check_image`]), so `used` stays the only growth
//! word persisted, as in the paper.

use crate::shard::SHARDS;
use crate::size_class::SB_SIZE;

/// Magic number identifying a Ralloc heap image ("RALLOC\0" + format
/// version). The low byte is the metadata-layout version and must be
/// bumped whenever the metadata region's layout changes, so an image
/// from another build is refused instead of silently misread (there is
/// no in-place migration). v1: single partial-list head per class. v2: 16
/// head slots per class. v3: reserve/commit capacity model — the header
/// records the *reserved* span in `POOL_LEN_OFF` and a persisted
/// committed frontier word. v4: persistent flight recorder carved from
/// the metadata region's tail slack. v5: a second persisted frontier
/// word for the descriptor region. v6: the partial-list heads are stored
/// shard-major, so no two shards' heads share a cache line (see
/// [`Geometry::partial_head`]). v7: only the first [`SHARDS`] head slots
/// of a class are lists. v8: no frontier word — the committed prefix is
/// the frontier, bytes 48–63 are reserved, and a descriptor past `used`
/// may be stale rather than zero. v9: every superblock of a live large
/// span reads FULL, which is all a shrink reads (this build).
pub const MAGIC: u64 = 0x52_41_4C_4C_4F_43_00_09;

/// Descriptor stride in bytes (one cache line, paper §4.2).
pub const DESC_SIZE: usize = 64;

/// Number of persistent root slots (paper §4.2: 1024).
pub const NUM_ROOTS: usize = 1024;

// ---- metadata-region field offsets ----

/// Heap magic (u64).
pub const MAGIC_OFF: usize = 0;
/// *Reserved* pool length in bytes (u64) — the fixed virtual span the
/// geometry is computed from. An image's file may be shorter (only the
/// committed prefix is saved); reopening re-reserves this much.
pub const POOL_LEN_OFF: usize = 8;
/// Dirty indicator (u64: 1 = dirty). Persisted. Stands in for the paper's
/// robust `pthread_mutex_t`.
pub const DIRTY_OFF: usize = 16;
/// Superblock capacity (u64), for validation on reopen.
pub const MAX_SB_OFF: usize = 24;
/// Number of superblocks carved so far — the paper's `used` word.
/// Persisted (CAS + flush + fence on every expansion).
pub const USED_SB_OFF: usize = 32;
/// Superblock free-list head (`Counted`). Transient: reconstructed by
/// recovery, written back only by a clean shutdown.
pub const FREE_LIST_OFF: usize = 40;
// Bytes 48..64 held the persisted frontier words up to v7; they stay
// reserved so that no later offset moves.
/// Persistent roots: `NUM_ROOTS` u64 slots, each an offset+1 into the
/// superblock region (0 = null). Persisted on `set_root`.
pub const ROOTS_OFF: usize = 64;
/// Head slots the metadata region holds per size class. The first
/// [`SHARDS`] are the partial lists; the rest is padding from when the
/// shard count was an option, kept so that no later offset moves.
const HEAD_SLOTS: usize = 16;
/// Per-shard, per-class partial-list heads (`Counted`), `HEAD_SLOTS * 40`
/// slots, shard-major. Transient: reset and rebuilt by recovery.
pub const PARTIAL_HEADS_OFF: usize = ROOTS_OFF + NUM_ROOTS * 8;

/// Total metadata-region size (fixed, independent of heap size).
pub const META_SIZE: usize = 16 * 1024;

const _: () = assert!(SHARDS as usize <= HEAD_SLOTS);
const _: () = assert!(PARTIAL_HEADS_OFF + 40 * HEAD_SLOTS * 8 <= META_SIZE);
// One shard's 40 heads are exactly five cache lines of their own.
const _: () = assert!(PARTIAL_HEADS_OFF.is_multiple_of(64) && (40 * 8usize).is_multiple_of(64));

// ---- persistent flight-recorder ring (v4) ----
//
// The partial-list heads end at byte 13376, leaving 3008 bytes of
// metadata-region tail slack; the flight ring lives in that slack, so it
// costs no region geometry.

/// Byte offset of the flight-ring header (64-byte aligned).
pub const FLIGHT_OFF: usize = PARTIAL_HEADS_OFF + 40 * HEAD_SLOTS * 8;
/// Ring header size: magic + capacity + reserved words, one cache line.
pub const FLIGHT_HDR_SIZE: usize = 64;
/// Byte offset of flight record slot 0.
pub const FLIGHT_RECORDS_OFF: usize = FLIGHT_OFF + FLIGHT_HDR_SIZE;
/// One flight record: seq + checksum framing and a (kind, tid, t_ms, a, b)
/// payload. Two records per cache line; a slot never straddles lines.
pub const FLIGHT_REC_SIZE: usize = 32;
/// Ring capacity in records — everything that fits in the slack.
pub const FLIGHT_CAP: usize = (META_SIZE - FLIGHT_RECORDS_OFF) / FLIGHT_REC_SIZE;
/// Ring-header magic ("FLTREC" + version), at `FLIGHT_OFF`.
pub const FLIGHT_MAGIC: u64 = 0x46_4C_54_52_45_43_00_01;

const _: () = assert!(FLIGHT_OFF.is_multiple_of(64));
const _: () = assert!(FLIGHT_RECORDS_OFF + FLIGHT_CAP * FLIGHT_REC_SIZE <= META_SIZE);
const _: () = assert!(FLIGHT_CAP >= 64, "flight ring uselessly small");

/// Derived region offsets for a pool of a given length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total pool bytes.
    pub pool_len: usize,
    /// Capacity in superblocks.
    pub max_sb: usize,
    /// Byte offset of descriptor 0.
    pub desc_off: usize,
    /// Byte offset of superblock 0 (64 KiB-aligned offset).
    pub sb_off: usize,
}

impl Geometry {
    /// Compute geometry from a pool length. The superblock array starts at
    /// the first 64 KiB-aligned offset past the descriptors; `max_sb` is
    /// the largest capacity that fits.
    pub fn from_pool_len(pool_len: usize) -> Geometry {
        assert!(
            pool_len >= META_SIZE + SB_SIZE * 2,
            "pool too small for a Ralloc heap: {pool_len}"
        );
        // Solve max_sb: META + 64*max_sb rounded up to 64K + 64K*max_sb <= len.
        let mut max_sb = (pool_len - META_SIZE) / (DESC_SIZE + SB_SIZE);
        loop {
            let sb_off = (META_SIZE + max_sb * DESC_SIZE).next_multiple_of(SB_SIZE);
            if sb_off + max_sb * SB_SIZE <= pool_len {
                return Geometry { pool_len, max_sb, desc_off: META_SIZE, sb_off };
            }
            max_sb -= 1;
        }
    }

    /// Pool length needed for a superblock-region capacity of at least
    /// `capacity` bytes.
    pub fn pool_len_for_capacity(capacity: usize) -> usize {
        let sbs = capacity.div_ceil(SB_SIZE).max(2);
        let sb_off = (META_SIZE + sbs * DESC_SIZE).next_multiple_of(SB_SIZE);
        sb_off + sbs * SB_SIZE
    }

    /// Byte offset of descriptor `i`.
    #[inline]
    pub fn desc(&self, i: usize) -> usize {
        debug_assert!(i < self.max_sb);
        self.desc_off + i * DESC_SIZE
    }

    /// Byte offset of superblock `i`.
    #[inline]
    pub fn sb(&self, i: usize) -> usize {
        debug_assert!(i < self.max_sb);
        self.sb_off + i * SB_SIZE
    }

    /// Superblocks fully covered by a committed prefix of `len` bytes
    /// (clamped to capacity; a partially covered superblock does not
    /// count).
    #[inline]
    pub fn sb_of(&self, len: usize) -> usize {
        (len.saturating_sub(self.sb_off) / SB_SIZE).min(self.max_sb)
    }

    /// The committed prefix (bytes) that covers the first `sbs`
    /// superblocks.
    #[inline]
    pub fn len_for_sb(&self, sbs: usize) -> usize {
        debug_assert!(sbs <= self.max_sb);
        self.sb_off + sbs * SB_SIZE
    }

    /// Check that an image of `len` bytes backs a heap whose header says
    /// `used`; `Ok` carries the superblocks it covers. The one check of
    /// the frontier, shared by an open (before anything is mapped),
    /// recovery, the checker and `rinspect dump`.
    ///
    /// The image must reach the superblock array, so the metadata and
    /// every descriptor are in it, and cover every `used` superblock. A
    /// grow commits before `used` may rise past the old prefix, and a
    /// shrink decommits only once the lowered `used` is durable, so at
    /// every crash point the committed prefix covers the durable `used`:
    /// a failure means the image was truncated or the header corrupted.
    pub fn check_image(&self, len: usize, used: usize) -> Result<usize, String> {
        if len < self.sb_off {
            return Err(format!(
                "the superblock array at byte {} exceeds the image ({len} bytes): truncated",
                self.sb_off
            ));
        }
        let covered = self.sb_of(len);
        if used > covered {
            return Err(format!(
                "used {used} superblocks exceeds the image ({len} bytes), which covers only \
                 {covered}: truncated"
            ));
        }
        Ok(covered)
    }

    /// Map a byte offset inside the superblock region to its superblock
    /// index ("simple bit manipulation", paper §4.2), with one compare:
    /// an offset below the region wraps to an index far past `max_sb`.
    #[inline]
    pub fn sb_index_of(&self, off: usize) -> Option<usize> {
        let i = off.wrapping_sub(self.sb_off) / SB_SIZE;
        (i < self.max_sb).then_some(i)
    }

    /// Byte offset of root slot `i`.
    #[inline]
    pub fn root(&self, i: usize) -> usize {
        debug_assert!(i < NUM_ROOTS);
        ROOTS_OFF + i * 8
    }

    /// Byte offset of the partial-list head for shard `shard` of `class`.
    /// Shard-major (v6): a thread's pushes and pops CAS only its home
    /// shard's five lines, never the line another shard's heads live on.
    #[inline]
    pub fn partial_head(&self, class: u32, shard: u32) -> usize {
        debug_assert!(class < 40);
        debug_assert!(shard < SHARDS);
        PARTIAL_HEADS_OFF + (shard as usize * 40 + class as usize) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let g = Geometry::from_pool_len(8 << 20);
        assert!(g.desc_off >= META_SIZE);
        assert!(g.sb_off >= g.desc_off + g.max_sb * DESC_SIZE);
        assert_eq!(g.sb_off % SB_SIZE, 0);
        assert!(g.sb_off + g.max_sb * SB_SIZE <= g.pool_len);
        assert!(g.max_sb >= 100);
    }

    #[test]
    fn capacity_round_trip() {
        for cap in [128 * 1024, 1 << 20, 10 << 20, 1 << 30] {
            let len = Geometry::pool_len_for_capacity(cap);
            let g = Geometry::from_pool_len(len);
            assert!(
                g.max_sb * SB_SIZE >= cap,
                "cap {cap}: got {} sbs",
                g.max_sb
            );
        }
    }

    #[test]
    fn desc_and_sb_correspondence() {
        let g = Geometry::from_pool_len(4 << 20);
        for i in 0..g.max_sb {
            let off = g.sb(i);
            assert_eq!(g.sb_index_of(off), Some(i));
            assert_eq!(g.sb_index_of(off + SB_SIZE - 1), Some(i));
            assert_eq!(g.desc(i), g.desc_off + i * DESC_SIZE);
        }
        assert_eq!(g.sb_index_of(0), None);
        assert_eq!(g.sb_index_of(g.sb_off - 1), None);
        assert_eq!(g.sb_index_of(g.sb_off + g.max_sb * SB_SIZE), None);
    }

    #[test]
    fn descriptor_ratio_matches_paper() {
        // 64 B descriptor per 64 KiB superblock = size/1024 (paper §4.3).
        assert_eq!(SB_SIZE / DESC_SIZE, 1024);
    }

    #[test]
    #[should_panic]
    fn tiny_pool_rejected() {
        Geometry::from_pool_len(1024);
    }

    /// The frontier's arithmetic over a geometry: what
    /// [`Geometry::sb_of`] and [`Geometry::len_for_sb`] answer, and where
    /// [`Geometry::check_image`] draws its line.
    #[test]
    fn committed_views_round_trip_and_clamp() {
        let g = Geometry::from_pool_len(64 << 20);
        assert_eq!(g.len_for_sb(0), g.sb_off, "zero superblocks: the array's base");
        assert_eq!(g.sb_of(0), 0, "a prefix below sb_off covers nothing");
        for sbs in [0usize, 1, 7, g.max_sb] {
            let len = g.len_for_sb(sbs);
            assert_eq!(g.sb_of(len), sbs);
            // A partially-covered superblock does not count.
            if sbs < g.max_sb {
                assert_eq!(g.sb_of(len + SB_SIZE - 1), sbs);
            }
            assert_eq!(g.check_image(len, sbs), Ok(sbs));
        }
        assert_eq!(g.sb_of(usize::MAX), g.max_sb, "clamped to capacity");
        assert!(g.len_for_sb(g.max_sb) <= g.pool_len, "full commit fits the pool");
        let short = g.check_image(g.len_for_sb(7) - 64, 7).unwrap_err();
        assert!(short.contains("exceeds the image") && short.contains("covers only 6"), "{short}");
        let cut = g.check_image(g.sb_off - 64, 0).unwrap_err();
        assert!(cut.contains("exceeds the image"), "{cut}");
    }

    #[test]
    fn flight_ring_fits_the_metadata_slack() {
        // The ring must start exactly where the partial heads end, stay
        // inside the metadata region, and keep slots cache-line interior.
        assert_eq!(FLIGHT_OFF, PARTIAL_HEADS_OFF + 40 * HEAD_SLOTS * 8);
        assert_eq!(FLIGHT_OFF % 64, 0);
        assert_eq!(64 % FLIGHT_REC_SIZE, 0, "slots must tile cache lines");
        // (Ring-fits-the-slack is a compile-time `const _` assert next
        // to the constants themselves.)
        // The format version is the low byte of the magic.
        assert_eq!(MAGIC & 0xFF, 9);
    }

    #[test]
    #[should_panic(expected = "metadata-format version 6")]
    fn a_v6_image_is_refused_by_name() {
        // A clean v6 image may keep superblocks on head slots this build
        // never walks (it could run 16 shards), so it is not adopted.
        let heap = crate::Ralloc::create(1 << 20, crate::RallocConfig::default());
        heap.close().unwrap();
        let mut image = heap.pool().persistent_image();
        image[MAGIC_OFF] = 6; // little-endian low byte of MAGIC
        let _ = crate::Ralloc::from_image(&image, crate::RallocConfig::default());
    }

    #[test]
    fn partial_shard_heads_are_disjoint_and_in_metadata() {
        let g = Geometry::from_pool_len(8 << 20);
        let mut seen = std::collections::HashSet::new();
        for class in 0..40u32 {
            for shard in 0..SHARDS {
                let off = g.partial_head(class, shard);
                assert!(off >= PARTIAL_HEADS_OFF && off + 8 <= META_SIZE);
                assert_eq!(off % 8, 0);
                assert!(seen.insert(off), "head slot reused: class {class} shard {shard}");
            }
        }
    }

    #[test]
    fn different_shards_heads_never_share_a_cache_line() {
        let g = Geometry::from_pool_len(8 << 20);
        let line = |class, shard| g.partial_head(class, shard) / 64;
        for (ca, cb) in (0..40u32).flat_map(|a| (0..40u32).map(move |b| (a, b))) {
            for (sa, sb) in (0..SHARDS).flat_map(|a| (0..a).map(move |b| (a, b))) {
                assert_ne!(line(ca, sa), line(cb, sb), "class {ca}/shard {sa} vs class {cb}/shard {sb}");
            }
        }
        // ... nor a line with the words on either side of the region.
        assert!((ROOTS_OFF + NUM_ROOTS * 8 - 8) / 64 < line(0, 0));
        assert!(line(39, SHARDS - 1) < FLIGHT_OFF / 64);
    }
}
