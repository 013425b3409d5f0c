//! Every inspector call takes a hostile image and answers: single bytes
//! of a closed heap's image, flipped from a seed, in the header, the
//! metadata and flight ring, and the descriptors and superblocks, never
//! make `dump`, `timeline`, `stats` or `check` panic. A refusal is an
//! answer.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ralloc::layout::{Geometry, META_SIZE, ROOTS_OFF};
use ralloc::{Ralloc, RallocConfig, SB_SIZE};

/// Flips per region; four regions.
const FLIPS: usize = 125;

/// A closed heap's image, geometry and used superblocks: rooted small
/// blocks of four classes, freed garbage between them and a rooted large
/// block.
fn closed_image() -> (Vec<u8>, Geometry, usize) {
    let heap = Ralloc::create(1 << 20, RallocConfig::tracked());
    for r in 0..32 {
        let p = heap.malloc(if r == 0 { 2 * SB_SIZE } else { 16 << (r % 4) });
        assert!(!p.is_null());
        heap.set_root_raw(r, p);
        let garbage = heap.malloc(48);
        heap.free(garbage);
    }
    heap.close().expect("clean close");
    (heap.pool().persistent_image(), heap.geometry(), heap.used_superblocks())
}

#[test]
fn single_byte_flips_never_panic_an_inspector() {
    let (image, geo, used) = closed_image();
    let regions = [
        ("header", 0..ROOTS_OFF),
        ("metadata and flight ring", ROOTS_OFF..META_SIZE),
        ("descriptors", geo.desc(0)..geo.desc(used)),
        ("superblocks", geo.sb(0)..geo.sb(used)),
    ];
    let mut rng = 0x5EED_F11E_u64;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for (name, range) in regions {
        assert!(range.start < range.end && range.end <= image.len(), "{name}: {range:?}");
        for _ in 0..FLIPS {
            let off = range.start + next() as usize % range.len();
            let mask = (next() % 255 + 1) as u8;
            let mut img = image.clone();
            img[off] ^= mask;
            let flip = format!("{name}: byte {off} ^ {mask:#04x}");
            let answered = catch_unwind(AssertUnwindSafe(|| {
                rinspect::dump(&img);
                rinspect::timeline(&img);
                let _ = rinspect::stats(&img);
                let _ = rinspect::check(&img);
            }));
            assert!(answered.is_ok(), "{flip}: an inspector panicked");
        }
    }
}

/// An anchor word whose state bits no heap packs, on a clean image that
/// `check` trusts without recovery: `stats` counts its superblock
/// invalid and `check` reports it, where both used to panic unpacking it.
#[test]
fn an_anchor_no_heap_packs_is_reported() {
    let (mut image, geo, used) = closed_image();
    // The last superblock carved: a small class's, past the large span.
    image[geo.desc(used - 1) + ralloc::descriptor::ANCHOR_OFF + 7] |= 0xC0;
    assert!(rinspect::stats(&image).expect("stats").invalid_superblocks >= 1);
    let outcome = rinspect::check(&image).expect("check");
    assert!(!outcome.recovered, "a closed image is checked as it is");
    assert!(outcome.report.violations.iter().any(|v| v.rule == "anchor"), "{:?}", outcome.report.violations);
}
