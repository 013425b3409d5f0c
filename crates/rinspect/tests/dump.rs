//! `dump` judges the committed prefix — the image itself — as an open
//! would (`Geometry::check_image`): an intact image covers what it uses,
//! and a truncated one is refused with the reason an open gives.

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
    let lines: Vec<_> = dump.lines().filter(|l| l.starts_with("committed prefix: ")).collect();
    assert_eq!(lines.len(), 1, "one verdict line: {dump}");
    let want = format!("committed prefix: {} bytes  ok: covers {covered} of {max} superblocks", image.len());
    assert_eq!(lines[0], want);

    let cut = rinspect::dump(&image[..image.len() - SB_SIZE]);
    let line = cut.lines().find(|l| l.starts_with("committed prefix: ")).unwrap_or_else(|| panic!("{cut}"));
    assert!(line.contains("REFUSED: ") && line.contains("exceeds the image"), "{line}");
    assert!(line.ends_with("truncated"), "{line}");
}
