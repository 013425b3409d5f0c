//! `stats` counts a large span only when recovery's rule would keep it:
//! a freed large block below a live small one is free space, not a span.

use ralloc::{Ralloc, RallocConfig, SB_SIZE};

#[test]
fn a_freed_large_block_counts_as_free_superblocks() {
    let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
    let large = heap.malloc(200 << 10);
    let small = heap.malloc(64);
    assert!(!large.is_null() && !small.is_null());
    heap.free(large);
    heap.set_root_raw(0, small);
    heap.close().expect("clean close");
    let image = heap.pool().persistent_image();

    let stats = rinspect::stats(&image).expect("stats");
    let span = (200usize << 10).div_ceil(SB_SIZE);
    assert_eq!(stats.used_sb, span + 1, "the 64 B block's superblock sits above the freed span");
    assert_eq!((stats.large_spans, stats.large_superblocks), (0, 0), "{}", stats.to_text());
    assert_eq!((stats.free_superblocks, stats.invalid_superblocks), (span, 0), "{}", stats.to_text());
    assert_eq!(stats.classes.iter().map(|c| c.superblocks).sum::<usize>(), 1);
}
