//! # rinspect — heap forensics for Ralloc pool files
//!
//! Opens a pool file **read-only** and answers the questions a crashed
//! (or misbehaving) deployment raises:
//!
//! * [`dump`] — raw header and geometry, tolerant of corrupt images
//!   (it parses bytes, it never adopts the heap);
//! * [`stats`] — per-size-class occupancy and fragmentation histograms
//!   from a full descriptor walk;
//! * [`timeline`] — the persistent flight recorder's event ring (the
//!   victim's last protocol steps, after a crash);
//! * [`check`] — adopt a *copy* of the image, run recovery if it is
//!   dirty, and run the full invariant checker
//!   ([`ralloc::checker::check_heap`]) against the result.
//!
//! ## Live pools
//!
//! [`snapshot`] takes a shared `flock` on the file. A *dead* pool grants
//! it (and the lock then excludes writers from reopening mid-inspection);
//! a *live* pool's writer holds the exclusive lock, so rinspect degrades
//! to an unlocked racy read — safe because every consumer of the bytes
//! is defensive: the flight scan drops checksum-failed records, `dump`
//! only reads header words, and `check`/`stats` operate on the private
//! copy, never on the writer's file. Nothing here ever writes the pool.

use std::io;
use std::path::Path;

use ralloc::anchor::{Anchor, SbState};
use ralloc::descriptor::{Census, Desc, Slot};
use ralloc::flight;
use ralloc::layout::{
    Geometry, DIRTY_OFF, FLIGHT_CAP, FLIGHT_MAGIC, FLIGHT_OFF, MAGIC, MAGIC_OFF, MAX_SB_OFF,
    META_SIZE, NUM_ROOTS, POOL_LEN_OFF, USED_SB_OFF,
};
use ralloc::{FlightScan, Ralloc, RallocConfig};
use std::sync::atomic::Ordering;

/// A read-only byte snapshot of a pool file.
pub struct Snapshot {
    pub image: Vec<u8>,
    /// True when a live writer held the exclusive lock and the bytes
    /// were read racily (crc-framed records make that safe to consume).
    pub live: bool,
}

/// Snapshot a pool file. Dead pools are read under a shared `flock`
/// (which also keeps writers out for the duration); live pools — whose
/// writer holds the exclusive lock — are read without a lock.
pub fn snapshot(path: &Path) -> io::Result<Snapshot> {
    match nvm::PoolGuard::acquire_shared(path) {
        Ok(guard) => {
            let image = std::fs::read(path)?;
            drop(guard);
            Ok(Snapshot { image, live: false })
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
            Ok(Snapshot { image: std::fs::read(path)?, live: true })
        }
        Err(e) => Err(e),
    }
}

fn word(image: &[u8], off: usize) -> Option<u64> {
    image
        .get(off..off + 8)
        .map(|b| u64::from_ne_bytes(b.try_into().unwrap()))
}

/// Raw header + geometry dump. Pure byte parsing: works on corrupt,
/// truncated, or down-level images (every field it could not read is
/// reported as such, and nothing panics).
pub fn dump(image: &[u8]) -> String {
    let mut s = String::new();
    s.push_str(&format!("image length:     {} bytes\n", image.len()));
    let Some(magic) = word(image, MAGIC_OFF) else {
        s.push_str("header:           too short for a Ralloc header (< 8 bytes)\n");
        return s;
    };
    let version = match magic {
        MAGIC => format!("v{} (current)", MAGIC & 0xFF),
        m if m & !0xFF == MAGIC & !0xFF => {
            format!("v{} (another format version: this build refuses it)", m & 0xFF)
        }
        _ => "not a Ralloc image".to_string(),
    };
    s.push_str(&format!("magic:            {magic:#018x}  {version}\n"));
    if magic != MAGIC {
        return s;
    }
    let pool_len = word(image, POOL_LEN_OFF).unwrap_or(0);
    let dirty = word(image, DIRTY_OFF);
    let max_sb = word(image, MAX_SB_OFF);
    let used_sb = word(image, USED_SB_OFF);
    s.push_str(&format!("reserved span:    {pool_len} bytes\n"));
    s.push_str(&format!(
        "dirty:            {}\n",
        match dirty {
            Some(0) => "0 (clean close)".into(),
            Some(1) => "1 (crash or live writer: recovery required)".into(),
            Some(v) => format!("{v} (corrupt)"),
            None => "<unreadable>".into(),
        }
    ));
    s.push_str(&format!(
        "max superblocks:  {}\n",
        max_sb.map_or("<unreadable>".into(), |v| v.to_string())
    ));
    s.push_str(&format!(
        "used superblocks: {}\n",
        used_sb.map_or("<unreadable>".into(), |v| v.to_string())
    ));
    if pool_len >= Geometry::pool_len_for_capacity(1) as u64 {
        let geo = Geometry::from_pool_len(pool_len as usize);
        s.push_str(&format!(
            "geometry:         metadata [0, {}), descriptors [{}, {}), superblocks [{}, ...)\n",
            META_SIZE,
            geo.desc(0),
            geo.sb(0),
            geo.sb(0),
        ));
        // The committed prefix (the image itself), judged as an open
        // would judge it.
        let verdict = match geo.check_image(image.len(), used_sb.unwrap_or(0) as usize) {
            Ok(covered) => format!("ok: covers {covered} of {} superblocks", geo.max_sb),
            Err(why) => format!("REFUSED: {why}"),
        };
        s.push_str(&format!("committed prefix: {} bytes  {verdict}\n", image.len()));
    } else {
        s.push_str("geometry:         none (the reserved span is no heap's)\n");
    }
    let roots_set = (0..NUM_ROOTS)
        .filter(|&i| {
            // Root slots sit at geo-independent metadata offsets.
            word(image, ralloc::layout::ROOTS_OFF + i * 8).is_some_and(|v| ralloc::Link::<48>(v).target().is_some())
        })
        .count();
    s.push_str(&format!("roots set:        {roots_set} of {NUM_ROOTS}\n"));
    match word(image, FLIGHT_OFF) {
        Some(FLIGHT_MAGIC) => {
            let scan = flight::scan_image(image);
            let range = match (scan.events.first(), scan.events.last()) {
                (Some(a), Some(z)) => format!("seq {}..={}", a.seq, z.seq),
                _ => "empty".into(),
            };
            s.push_str(&format!(
                "flight ring:      {} record(s) ({range}), {} torn, capacity {}\n",
                scan.events.len(),
                scan.torn,
                FLIGHT_CAP
            ));
        }
        _ => s.push_str("flight ring:      absent (unwritten)\n"),
    }
    s
}

/// The flight timeline of an image ([`flight::scan_image`]): the ring's
/// surviving records in sequence order plus the torn count.
pub fn timeline(image: &[u8]) -> FlightScan {
    flight::scan_image(image)
}

/// Adopt a **copy** of the image (the caller's file is never written)
/// for stats/check. Corrupt images make adoption panic; that panic is
/// caught and returned as an error string.
fn adopt_copy(image: &[u8]) -> Result<(Ralloc, bool), String> {
    let image = image.to_vec();
    std::panic::catch_unwind(move || Ralloc::from_image(&image, RallocConfig::default()))
        .map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("adoption panicked");
            format!("image refused: {msg}")
        })
}

/// Occupancy histogram bucket count (eighths of a superblock's blocks).
const OCC_BUCKETS: usize = 8;

/// Per-size-class usage derived from a descriptor walk.
#[derive(Debug, Default, Clone)]
pub struct ClassStats {
    pub superblocks: usize,
    pub blocks_used: u64,
    pub blocks_free: u64,
    pub block_size: u64,
    /// Superblocks bucketed by used-fraction: index i counts those with
    /// used/max in [i/8, (i+1)/8) (full superblocks land in the last).
    pub occupancy: [usize; OCC_BUCKETS],
}

/// Heap-wide stats from walking every carved descriptor.
#[derive(Debug, Default, Clone)]
pub struct HeapStats {
    pub dirty: bool,
    pub used_sb: usize,
    pub committed_sb: usize,
    /// Live large blocks and their superblocks: the census's claim over
    /// FULL heads, the rule `check` holds the heap to.
    pub large_spans: usize,
    pub large_superblocks: usize,
    /// Superblocks outside live spans that read EMPTY.
    pub free_superblocks: usize,
    /// Superblocks that are neither live nor EMPTY.
    pub invalid_superblocks: usize,
    /// Indexed by size class (0 unused; classes start at 1).
    pub classes: Vec<ClassStats>,
}

impl HeapStats {
    /// Fraction of blocks free across partial/full small superblocks —
    /// the internal-fragmentation headline.
    pub fn frag_ratio(&self) -> f64 {
        let (used, free) = self.classes.iter().fold((0u64, 0u64), |(u, f), c| {
            (u + c.blocks_used, f + c.blocks_free)
        });
        if used + free == 0 {
            0.0
        } else {
            free as f64 / (used + free) as f64
        }
    }

    /// Render as an aligned text table with occupancy sparklines.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "dirty: {}   superblocks: {} used / {} committed   large: {} span(s) over {} sb   \
             free: {}   invalid: {}\n",
            self.dirty,
            self.used_sb,
            self.committed_sb,
            self.large_spans,
            self.large_superblocks,
            self.free_superblocks,
            self.invalid_superblocks,
        );
        s.push_str(&format!(
            "small-block fragmentation: {:.1}% of blocks free in live superblocks\n",
            self.frag_ratio() * 100.0
        ));
        s.push_str("class  blksz     sbs    used blks    free blks  occupancy (empty->full)\n");
        for (class, c) in self.classes.iter().enumerate() {
            if c.superblocks == 0 {
                continue;
            }
            let bars: String = c
                .occupancy
                .iter()
                .map(|&n| {
                    // Log-ish glyph ramp so one huge bucket doesn't blank
                    // the rest.
                    match n {
                        0 => '.',
                        1..=2 => ':',
                        3..=9 => '+',
                        _ => '#',
                    }
                })
                .collect();
            s.push_str(&format!(
                "{class:>5}  {:>5}  {:>6}  {:>11}  {:>11}  [{bars}]\n",
                c.block_size, c.superblocks, c.blocks_used, c.blocks_free
            ));
        }
        s
    }
}

/// Walk every carved descriptor of the image and aggregate per-class
/// occupancy. The image is adopted as a private copy; dirty images are
/// walked as-is (anchors are best-effort after a crash — run [`check`]
/// for the recovered truth).
pub fn stats(image: &[u8]) -> Result<HeapStats, String> {
    let (heap, dirty) = adopt_copy(image)?;
    let pool = heap.pool();
    let geo = Geometry::from_pool_len(pool.len());
    let used = heap.used_superblocks();
    let mut out = HeapStats {
        dirty,
        used_sb: used,
        committed_sb: heap.committed_superblocks(),
        classes: vec![ClassStats::default(); ralloc::size_class::NUM_CLASSES],
        ..Default::default()
    };
    // Recovery's span rule with the checker's head test: a span is live
    // when its head reads FULL.
    let census = Census::take(pool, &geo, used);
    let anchor = |i: usize| Anchor::decode(Desc::new(pool, &geo, i as u32).anchor_word().load(Ordering::Acquire));
    let claim = census.claim(census.heads().filter(|&head| anchor(head).is_some_and(|a| a.state == SbState::Full)));
    out.large_spans = claim.spans.len();
    out.large_superblocks = claim.spans.iter().map(|s| s.len()).sum();
    for (idx, slot) in census.slots.iter().enumerate() {
        match (anchor(idx), *slot) {
            _ if claim.claimed[idx] => {}
            (Some(a), _) if a.state == SbState::Empty => out.free_superblocks += 1,
            (Some(a), Slot::Small { class, blocks, size, .. }) => {
                let (max, free) = (blocks as u64, (a.count as u64).min(blocks as u64));
                let c = &mut out.classes[class as usize];
                c.superblocks += 1;
                c.block_size = size as u64;
                c.blocks_free += free;
                c.blocks_used += max - free;
                let bucket = (((max - free) * OCC_BUCKETS as u64) / max).min(OCC_BUCKETS as u64 - 1);
                c.occupancy[bucket as usize] += 1;
            }
            // Neither live nor EMPTY: a phantom head, an orphaned
            // continuation, garbage or an anchor no heap packs; `check`
            // judges them.
            _ => out.invalid_superblocks += 1,
        }
    }
    Ok(out)
}

/// The verdict of [`check`].
#[derive(Debug)]
pub struct CheckOutcome {
    /// The image needed (and received) recovery before checking.
    pub recovered: bool,
    pub report: ralloc::CheckReport,
}

/// Adopt a private copy of the image, run recovery if it is dirty, and
/// run the full structural-invariant checker. The pool file is never
/// written: recovery mutates only the in-memory copy.
pub fn check(image: &[u8]) -> Result<CheckOutcome, String> {
    let (heap, dirty) = adopt_copy(image)?;
    if dirty {
        // No filter functions are registered post-mortem, so roots trace
        // conservatively — exactly what recovery promises to support.
        heap.recover();
    }
    Ok(CheckOutcome { recovered: dirty, report: ralloc::check_heap(&heap) })
}
