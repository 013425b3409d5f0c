//! `dump` judges each frontier word as an open would (`Frontier::check`):
//! an intact image's words cover what it uses, and a truncated or
//! corrupt one's are refused with the reason an open gives.

use ralloc::layout::DESC_COMMITTED_LEN_OFF;
use ralloc::{Ralloc, RallocConfig, SB_SIZE};

#[test]
fn dump_judges_each_frontier_word_like_an_open() {
    let cfg = RallocConfig { initial_capacity: Some(1 << 20), ..RallocConfig::default() };
    let heap = Ralloc::create(8 << 20, cfg);
    assert!(!heap.malloc(64).is_null());
    heap.close().unwrap();
    let image = heap.pool().persistent_image();
    let (covered, max) = (heap.committed_superblocks(), heap.max_superblocks());
    let dump = rinspect::dump(&image);
    for name in ["superblock", "descriptor"] {
        let line = format!("{name} frontier: ");
        let line = dump.lines().find(|l| l.starts_with(&line)).unwrap_or_else(|| panic!("{dump}"));
        assert!(line.ends_with(&format!("ok: covers {covered} of {max} superblocks")), "{line}");
    }

    let cut = rinspect::dump(&image[..image.len() - SB_SIZE]);
    assert!(cut.contains("superblock frontier: ") && cut.contains("truncated"), "{cut}");

    let mut bad = image.clone();
    bad[DESC_COMMITTED_LEN_OFF..DESC_COMMITTED_LEN_OFF + 8].fill(0);
    let bad = rinspect::dump(&bad);
    assert!(bad.contains("descriptor frontier: 0  REFUSED: descriptor frontier 0 outside"), "{bad}");
}
