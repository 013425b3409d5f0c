//! Opening a heap: create it fresh in anonymous pages, map its file, or
//! adopt in-memory bytes, and decide whether it needs recovery.
//!
//! The one decision this module owns is **what is accepted as a heap**:
//! a current-format header consistent with the bytes actually present is
//! adopted; a Ralloc image of another format version, truncated, or past
//! its own reservation is refused with a message (never re-initialized,
//! never migrated). Anything else is not a heap: in memory
//! ([`Ralloc::from_image`]) it is initialized fresh, but a non-empty
//! *file* is somebody's data and is refused before it is mapped.
//! No `pub(crate)` surface: the public [`Ralloc`] constructors are it.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use nvm::{PmemPool, PoolGuard, CACHE_LINE};
use telemetry::{EventKind, Registry};

use crate::config::RallocConfig;
use crate::flight::{self, FlightRecorder, FlightScan};
use crate::heap::{HeapInner, Ralloc};
use crate::layout::{
    Geometry, DIRTY_OFF, FLIGHT_HDR_SIZE, FLIGHT_OFF, MAGIC, MAGIC_OFF, MAX_SB_OFF, META_SIZE,
    POOL_LEN_OFF, ROOTS_OFF, USED_SB_OFF,
};
use crate::size_class::SB_SIZE;
use crate::stats::SlowStats;

static NEXT_HEAP_ID: AtomicU64 = AtomicU64::new(1);

/// The header bytes [`probe_header`] reads: every word before the roots.
const HEADER_LEN: usize = ROOTS_OFF;

/// What the first bytes of an image of `len` bytes say, decided from
/// plain values before any pool exists: `Ok(Some(reserved span))` for a
/// current-format heap those bytes can back, `Ok(None)` for bytes that
/// are no heap at all, and `Err(reason)` for a Ralloc image that is
/// refused rather than silently re-initialized or adopted:
///
/// * another format version — erasing a user's durable heap because they
///   upgraded is data loss;
/// * a reserved span that is no heap's (`pool length mismatch`), shorter
///   than the image (it can never legally outgrow the reservation it was
///   carved from), or holding another superblock count than the header
///   records (`geometry mismatch`);
/// * an image too short for its own superblock array or its `used`
///   superblocks ([`Geometry::check_image`]).
///
/// Both open paths decide here; the file path returns the reason, the
/// image path (which returns no `Result`) panics with it. A word past the
/// end of a short image reads as 0, as it would from the pool.
fn probe_header(header: &[u8], len: usize) -> Result<Option<usize>, String> {
    let word = |off: usize| {
        header.get(off..off + 8).map_or(0, |b| u64::from_ne_bytes(b.try_into().expect("8 bytes")))
    };
    match word(MAGIC_OFF) {
        MAGIC => {}
        magic if magic & !0xFF == MAGIC & !0xFF => {
            return Err(format!(
                "ralloc image has metadata-format version {} but this build \
                 requires {}; re-create the pool (no in-place migration)",
                magic & 0xFF,
                MAGIC & 0xFF,
            ))
        }
        _ => return Ok(None),
    }
    let reserved = word(POOL_LEN_OFF) as usize;
    if !reserved.is_multiple_of(CACHE_LINE) || reserved < META_SIZE + 2 * SB_SIZE {
        return Err(format!(
            "pool length mismatch: a reserved span of {reserved} bytes is no heap's"
        ));
    }
    if len > reserved {
        return Err(format!(
            "{len} bytes but its header records a reserved span of only \
             {reserved}: refusing a corrupt heap image"
        ));
    }
    let geo = Geometry::from_pool_len(reserved);
    let max_sb = word(MAX_SB_OFF);
    if max_sb != geo.max_sb as u64 {
        return Err(format!(
            "geometry mismatch: the header records {max_sb} superblocks but its \
             {reserved}-byte span holds {}",
            geo.max_sb
        ));
    }
    geo.check_image(len, word(USED_SB_OFF) as usize)
        .map_err(|why| format!("refusing a corrupt or truncated heap image: {why}"))?;
    Ok(Some(reserved))
}

/// Lock `path` (creating it if absent) and size up what it holds:
/// `(guard, file length, reserved span its header records)`. Length 0 is
/// a fresh pool — acquiring creates the file, so emptiness, not
/// existence, distinguishes a fresh pool from one to adopt.
///
/// The exclusive advisory lock comes first: two live processes on one
/// pool file silently race each other's stores. The guard is held for
/// the heap's lifetime and auto-released by the kernel if this process
/// dies; a second opener gets a distinct "pool busy" (`WouldBlock`)
/// error.
///
/// Opening writes through, so everything that can be refused from the
/// length and the header is refused here, before the file is mapped,
/// extended or initialized: bytes that are no Ralloc header (a wrong
/// path, a file shorter than a header) or not a whole number of cache
/// lines (every frontier is one; mapping would pad the file) are
/// `InvalidData`, and so is every header [`probe_header`] refuses, each
/// with its reason. Every refusal names the path.
fn open_existing(path: &Path) -> io::Result<(PoolGuard, usize, usize)> {
    use std::os::unix::fs::FileExt;
    let guard = PoolGuard::acquire(path)?;
    let file_len = guard.file().metadata()?.len() as usize;
    if file_len == 0 {
        return Ok((guard, 0, 0));
    }
    let mut header = [0u8; HEADER_LEN];
    let whole = file_len.is_multiple_of(CACHE_LINE)
        && guard.file().read_exact_at(&mut header, 0).is_ok();
    let refuse = |why: String| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: {why}", path.display()))
    };
    let reserved = if whole { probe_header(&header, file_len).map_err(refuse)? } else { None };
    let reserved = reserved
        .ok_or_else(|| refuse("not empty and not a ralloc heap: refusing it".to_string()))?;
    Ok((guard, file_len, reserved))
}

impl Ralloc {
    /// Create a fresh in-memory heap whose superblock region can hold at
    /// least `capacity` bytes.
    ///
    /// `capacity` (or [`RallocConfig::max_capacity`], whichever is
    /// larger) fixes the heap's *reserved* virtual span;
    /// [`RallocConfig::initial_capacity`] chooses how much of it is
    /// committed upfront (default: all of it, the historical fixed-pool
    /// behavior). A heap with a small initial commitment grows its
    /// frontier on demand and only returns null once the *reserved*
    /// ceiling is exhausted.
    pub fn create(capacity: usize, cfg: RallocConfig) -> Ralloc {
        let (reserved, committed) = Self::capacity_plan(capacity, &cfg);
        let pool = PmemPool::with_reserve(reserved, committed, cfg.mode, cfg.flush_model);
        Self::fresh(pool, &cfg)
    }

    /// Resolve a `create` capacity request and its config into
    /// `(reserved span, initial committed length)`.
    fn capacity_plan(capacity: usize, cfg: &RallocConfig) -> (usize, usize) {
        let max_cap = cfg.max_capacity.unwrap_or(capacity).max(capacity);
        let init_cap = cfg.initial_capacity.unwrap_or(max_cap).min(max_cap);
        let reserved = Geometry::pool_len_for_capacity(max_cap);
        let geo = Geometry::from_pool_len(reserved);
        let init_sb = init_cap.div_ceil(SB_SIZE).clamp(1, geo.max_sb);
        (reserved, geo.len_for_sb(init_sb))
    }

    /// The paper's `init(path, size)`: map the heap file if it exists
    /// (returning whether a *dirty* restart — i.e. recovery — is needed),
    /// or create it fresh. A fresh or clean start returns `false`.
    ///
    /// The heap *is* its file, `MAP_SHARED`: every store lands in the OS
    /// page cache, so the heap survives the death of the process *at any
    /// instruction* with exactly the stores that had executed — no save
    /// step, no cooperation — and reopens dirty unless [`Ralloc::close`]
    /// ran. This is also the substrate the fork/SIGKILL crash harness
    /// (`crates/crashtest`) runs on.
    ///
    /// The file holds only the committed prefix (file length == committed
    /// frontier throughout, and nothing else records the frontier); the
    /// heap's reserved span is re-read from the image header, so a grown
    /// heap reopens with the same geometry and
    /// the same room to keep growing. A second live process on the same
    /// file gets a "pool busy" (`WouldBlock`) error; a non-empty file
    /// that is not a heap, is a heap of another format version, is
    /// longer than the span its header reserves, or whose header's
    /// geometry or `used` the file cannot back (a truncated image) is
    /// refused with `InvalidData`, before it is mapped, and left as it
    /// was.
    ///
    /// A file's persistence is the page cache, not a model of one:
    /// [`nvm::Mode::Tracked`] (simulated power failure) belongs to
    /// [`Ralloc::create`] / [`Ralloc::from_image`] and is refused here
    /// with `InvalidInput`.
    pub fn open_file(
        path: &Path,
        capacity: usize,
        cfg: RallocConfig,
    ) -> io::Result<(Ralloc, bool)> {
        if cfg.mode != nvm::Mode::Direct {
            let why = "a file heap is Mode::Direct; Mode::Tracked simulates NVM in anonymous pages";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        }
        let (guard, file_len, reserved) = open_existing(path)?;
        let map = |reserved, committed| PmemPool::map_file(guard, reserved, committed, cfg.flush_model);
        if file_len > 0 {
            Ok(Self::adopt(map(reserved, file_len)?, &cfg))
        } else {
            let (reserved, committed) = Self::capacity_plan(capacity, &cfg);
            Ok((Self::fresh(map(reserved, committed)?, &cfg), false))
        }
    }

    /// Adopt a raw pool image (e.g. a crash image remapped at a new base
    /// address). Returns the heap and whether it is dirty. The image may
    /// be shorter than the heap's reserved span (only the committed
    /// prefix is ever part of an image); the reservation is
    /// re-established from the header. Bytes that are not a heap are
    /// initialized as a fresh one: unlike a file, bytes in memory cannot
    /// be destroyed.
    ///
    /// A recognizable header is checked exactly as on the file path: a
    /// reserved span *shorter* than the image (the committed prefix can
    /// never legally outgrow the reservation, so foreign bytes were
    /// appended or the header is corrupt), a geometry the header's
    /// `max_sb` does not describe, or a `used` the image cannot back (a
    /// truncated image) is refused.
    ///
    /// # Panics
    /// On such a corrupt image, and on an image of another format version
    /// (this function has no `Result` to carry the refusal).
    pub fn from_image(image: &[u8], cfg: RallocConfig) -> (Ralloc, bool) {
        let probed = probe_header(image, image.len());
        let Some(reserved) = probed.unwrap_or_else(|why| panic!("heap image: {why}")) else {
            let pool = PmemPool::from_image_reserving(image, image.len(), cfg.mode);
            return (Self::fresh(pool, &cfg), false);
        };
        Self::adopt(PmemPool::from_image_reserving(image, reserved, cfg.mode), &cfg)
    }

    fn fresh(pool: PmemPool, cfg: &RallocConfig) -> Ralloc {
        let geo = Geometry::from_pool_len(pool.len());
        // A fresh pool prefix reaches the superblock array's base (the
        // smallest legal frontier): it is either planned by
        // `capacity_plan` (>= one superblock) or a whole non-heap image.
        assert!(pool.committed_len() >= geo.len_for_sb(0), "fresh pool too short");
        flight::init_ring(&pool);
        // SAFETY: fresh pool, exclusive access, metadata offsets in bounds.
        unsafe {
            pool.write_u64(MAGIC_OFF, MAGIC);
            pool.write_u64(POOL_LEN_OFF, pool.len() as u64);
            pool.write_u64(MAX_SB_OFF, geo.max_sb as u64);
            pool.write_u64(USED_SB_OFF, 0);
            pool.write_u64(DIRTY_OFF, 1);
        }
        let heap = Self::build(pool, geo, cfg, FlightScan::default());
        heap.inner.persist(0, 64);
        heap.inner.persist(FLIGHT_OFF, FLIGHT_HDR_SIZE);
        heap.inner.emit(EventKind::Open, 0, 0);
        heap
    }

    /// Adopt a pool whose header [`probe_header`] accepted.
    fn adopt(pool: PmemPool, cfg: &RallocConfig) -> (Ralloc, bool) {
        let geo = Geometry::from_pool_len(pool.len());
        // SAFETY: header read.
        let used = unsafe { pool.read_u64(USED_SB_OFF) } as usize;
        // Both open paths have run this check on the header before the
        // pool existed, so it fails only on a caller that skipped it.
        if let Err(why) = geo.check_image(pool.committed_len(), used) {
            panic!("refusing a corrupt or truncated heap image: {why}");
        }
        // SAFETY: 8-aligned metadata word.
        let dirty = unsafe { pool.atomic_u64(DIRTY_OFF) }.load(Ordering::Acquire) == 1;
        // Scan the flight ring *before* this process records anything:
        // what's in it now is the previous run's last steps — after a
        // crash, the victim's pre-crash timeline.
        let preopen = flight::scan_pool(&pool);
        let heap = Self::build(pool, geo, cfg, preopen);
        // Mark dirty for the duration of this run (the paper's robust
        // mutex acquire): any crash from here on requires recovery.
        // SAFETY: 8-aligned metadata word.
        unsafe { heap.inner.pool.atomic_u64(DIRTY_OFF) }.store(1, Ordering::Release);
        heap.inner.persist(DIRTY_OFF, 8);
        // A ring whose header is lost (a crash between `fresh`'s header
        // and ring persists, a flipped byte) scans empty, so it would stay
        // empty for the pool's whole life while every record still paid
        // its flush. Start it over before this run's first record.
        if !flight::ring_intact(&heap.inner.pool) {
            flight::init_ring(&heap.inner.pool);
            heap.inner.persist(FLIGHT_OFF, META_SIZE - FLIGHT_OFF);
        }
        heap.inner.emit(EventKind::Open, dirty as u64, 0);
        (heap, dirty)
    }

    /// Wire a pool whose header is written (fresh) or validated (adopted)
    /// into a live heap.
    fn build(
        pool: PmemPool,
        geo: Geometry,
        cfg: &RallocConfig,
        preopen_flight: FlightScan,
    ) -> Ralloc {
        let telemetry = Registry::new();
        let slow = SlowStats::registered(&telemetry);
        let flight =
            (!cfg.transient).then(|| FlightRecorder::new(preopen_flight.resume_ticket()));
        // The torn count from the adoption scan becomes a counter so
        // harnesses can assert on dropped records.
        telemetry.counter("flight_torn_records").add(preopen_flight.torn);
        Ralloc {
            inner: Arc::new(HeapInner {
                pool,
                geo,
                id: NEXT_HEAP_ID.fetch_add(1, Ordering::Relaxed),
                transient: cfg.transient,
                generation: AtomicU64::new(crate::tcache::fresh_generation()),
                exit_drains: AtomicUsize::new(0),
                closed: AtomicBool::new(false),
                root_fns: Mutex::new(HashMap::new()),
                slow,
                telemetry,
                flight,
                preopen_flight,
                sampler: Mutex::new(None),
            }),
        }
    }
}
