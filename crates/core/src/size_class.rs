//! Size classes (paper §4.2).
//!
//! Ralloc inherits LRMalloc's segregated-fit organization: 39 small size
//! classes covering 8 B..14 KiB, plus class 0 for large allocations that
//! are carved directly out of the superblock region in 64 KiB units. Every
//! superblock holds blocks of exactly one class, which is what lets the
//! recovery GC infer the size of any block from one persisted per-
//! superblock field — the key to a flush-free `malloc` fast path.
//!
//! A class also sizes its thread-cache bin ([`cache_capacity`]): one
//! superblock's population, but never fewer than [`MIN_BIN_BLOCKS`] slots.

/// Superblock size: 64 KiB, as in the paper.
pub const SB_SIZE: usize = 64 * 1024;

/// Largest "small" block; anything bigger goes through the large path.
pub const MAX_SMALL: usize = 14336;

/// Number of small classes (1..=39). Class 0 is the large class.
pub const NUM_SMALL_CLASSES: usize = 39;

/// Total classes including the large class 0.
pub const NUM_CLASSES: usize = NUM_SMALL_CLASSES + 1;

/// Sentinel stored in a descriptor's `size_class` field for superblocks
/// that are interior to a multi-superblock (large) allocation. Persisted
/// at large-allocation time so that post-crash conservative tracing never
/// interprets stale small-class metadata *inside* a live large block as a
/// separate block (see `recovery` module docs).
pub const CLASS_CONTINUATION: u32 = u32::MAX;

/// Block size for each class; index 0 is the large class (no fixed size).
///
/// Spacing mirrors LRMalloc/jemalloc: ×8 steps up to 64, then four steps
/// per power-of-two group.
pub const CLASS_SIZES: [u32; NUM_CLASSES] = [
    0, // class 0: large
    8, 16, 24, 32, 40, 48, 56, 64, // ×8
    80, 96, 112, 128, // ×16
    160, 192, 224, 256, // ×32
    320, 384, 448, 512, // ×64
    640, 768, 896, 1024, // ×128
    1280, 1536, 1792, 2048, // ×256
    2560, 3072, 3584, 4096, // ×512
    5120, 6144, 7168, 8192, // ×1024
    10240, 12288, 14336, // ×2048
];

/// Lookup table from `ceil(size/8)` to class index, built at compile time.
const LUT_LEN: usize = MAX_SMALL / 8 + 1;
static SIZE_TO_CLASS: [u8; LUT_LEN] = build_lut();

const fn build_lut() -> [u8; LUT_LEN] {
    let mut lut = [0u8; LUT_LEN];
    let mut class = 1usize;
    let mut i = 0usize; // i indexes ceil(size/8); size = i*8
    while i < LUT_LEN {
        while CLASS_SIZES[class] < (i * 8) as u32 {
            class += 1;
        }
        lut[i] = class as u8;
        i += 1;
    }
    lut
}

/// The smallest class whose blocks hold `size` bytes. `None` if `size`
/// needs the large path. `size == 0` is served from the 8-byte class,
/// giving each zero-size allocation a unique address like C `malloc(0)`.
#[inline]
pub fn size_class_of(size: usize) -> Option<u32> {
    if size > MAX_SMALL {
        return None;
    }
    let idx = size.div_ceil(8);
    Some(SIZE_TO_CLASS[idx] as u32)
}

/// Block size of a class (small classes only).
#[inline]
pub fn class_block_size(class: u32) -> u32 {
    debug_assert!((1..NUM_CLASSES as u32).contains(&class));
    CLASS_SIZES[class as usize]
}

/// Blocks per superblock for each class (0 for the large class), built at
/// compile time: a fill asks twice and should not divide to find out.
static CLASS_MAX_COUNT: [u32; NUM_CLASSES] = {
    let mut counts = [0u32; NUM_CLASSES];
    let mut class = 1;
    while class < NUM_CLASSES {
        counts[class] = SB_SIZE as u32 / CLASS_SIZES[class];
        class += 1;
    }
    counts
};

/// Blocks per superblock for a small class.
#[inline]
pub fn class_max_count(class: u32) -> u32 {
    debug_assert!(is_small_class(class));
    CLASS_MAX_COUNT[class as usize]
}

/// True if `class` names a valid *small* class.
#[inline]
pub fn is_small_class(class: u32) -> bool {
    (1..NUM_CLASSES as u32).contains(&class)
}

/// The fewest slots a thread-cache bin has, whatever its class.
///
/// A bin of one superblock's population is emptied again one free after
/// the flush that left it nearly empty; for the seven classes of
/// 5 120–14 336 B (12 down to 4 blocks per superblock) that made every
/// ~5th malloc a fill. 16 slots cost at most 3.5 superblocks per bin
/// (≈ 0.97 MiB per thread across the seven) and cut `churn`'s fills per
/// 1 000 pairs from ≈ 210 to ≈ 36; 32 would spend most of the ledger's
/// `space_amp` bound on one workload. jemalloc floors its small bins the
/// same way (`tcache_nslots_small_min`).
pub const MIN_BIN_BLOCKS: u32 = 16;

/// Thread-cache bin capacity for a small class, in blocks: at least one
/// superblock's population (LRMalloc's CacheBin sizing, which every class
/// of ≤ 4 096 B keeps exactly) and at least [`MIN_BIN_BLOCKS`]. A fill
/// that takes every block of a superblock always fits, a full bin flushed
/// back can empty whole superblocks, and a tight malloc/free pair
/// oscillates inside the bin without ever touching a superblock anchor.
#[inline]
pub fn cache_capacity(class: u32) -> u32 {
    class_max_count(class).max(MIN_BIN_BLOCKS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_39_small_classes() {
        assert_eq!(CLASS_SIZES.len(), 40);
        assert_eq!(CLASS_SIZES[1], 8);
        assert_eq!(CLASS_SIZES[39], MAX_SMALL as u32);
    }

    #[test]
    fn max_count_table_is_the_quotient() {
        for class in 1..NUM_CLASSES as u32 {
            assert_eq!(class_max_count(class), SB_SIZE as u32 / class_block_size(class));
        }
    }

    #[test]
    fn sizes_strictly_increasing() {
        for w in CLASS_SIZES[1..].windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn all_sizes_8_aligned() {
        for &s in &CLASS_SIZES[1..] {
            assert_eq!(s % 8, 0, "class size {s} not 8-aligned");
        }
    }

    #[test]
    fn class_of_exact_sizes() {
        for (i, &s) in CLASS_SIZES.iter().enumerate().skip(1) {
            assert_eq!(size_class_of(s as usize), Some(i as u32), "size {s}");
        }
    }

    #[test]
    fn class_of_is_tight() {
        // Every size maps to the smallest class that fits.
        for size in 0..=MAX_SMALL {
            let c = size_class_of(size).unwrap();
            assert!(class_block_size(c) as usize >= size);
            if c > 1 {
                assert!(
                    (class_block_size(c - 1) as usize) < size,
                    "size {size} should use class {}",
                    c - 1
                );
            }
        }
    }

    #[test]
    fn large_sizes_rejected() {
        assert_eq!(size_class_of(MAX_SMALL + 1), None);
        assert_eq!(size_class_of(1 << 20), None);
    }

    #[test]
    fn zero_size_uses_smallest_class() {
        assert_eq!(size_class_of(0), Some(1));
    }

    #[test]
    fn max_count_sane() {
        assert_eq!(class_max_count(1), 8192); // 64K / 8
        assert_eq!(class_max_count(8), 1024); // 64K / 64
        assert_eq!(class_max_count(39), 4); // 64K / 14336 = 4.57 -> 4
        for c in 1..NUM_CLASSES as u32 {
            let mc = class_max_count(c);
            assert!(mc >= 4, "class {c} has only {mc} blocks");
            assert!(mc as usize * class_block_size(c) as usize <= SB_SIZE);
        }
    }

    #[test]
    fn cache_capacity_holds_one_superblock() {
        // ... and at least MIN_BIN_BLOCKS slots, where that is more.
        for c in 1..NUM_CLASSES as u32 {
            let (cap, mc) = (cache_capacity(c), class_max_count(c));
            assert!(cap >= mc, "class {c}: a whole-superblock fill must fit");
            assert!(cap >= MIN_BIN_BLOCKS, "class {c}: {cap} slots");
            if mc >= MIN_BIN_BLOCKS {
                assert_eq!(cap, mc, "class {c}: LRMalloc's sizing where it already has 16");
            }
            // A bin never holds more than four superblocks' worth.
            assert!(cap as usize * class_block_size(c) as usize <= 4 * SB_SIZE);
        }
        // The classes the floor changes are exactly the seven above 4 KiB.
        let floored: Vec<u32> =
            (1..NUM_CLASSES as u32).filter(|&c| cache_capacity(c) != class_max_count(c)).collect();
        assert_eq!(floored, (33..=39).collect::<Vec<_>>());
        assert_eq!(class_block_size(32), 4096);
    }

    #[test]
    fn continuation_sentinel_is_not_a_class() {
        assert!(!is_small_class(CLASS_CONTINUATION));
        assert!(!is_small_class(0));
        assert!(is_small_class(1));
        assert!(is_small_class(39));
        assert!(!is_small_class(40));
    }
}
