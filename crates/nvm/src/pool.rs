//! The simulated persistent-memory pool.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::ops::Range;
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::JoinHandle;

use parking_lot::{Mutex, MutexGuard};

use crate::crash::CrashInjector;
use crate::flush::FlushModel;
use crate::stats::PmemStats;
use crate::sys::{self, page_up, Reservation};
use crate::{line_down, line_up, CACHE_LINE};

/// How the pool simulates persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Loads/stores go straight to memory; flush/fence are compiler fences
    /// plus the [`FlushModel`] latency. No crash simulation. This is the
    /// performance-measurement configuration.
    Direct,
    /// The pool maintains a shadow *persistent image*. A cache line enters
    /// the shadow only when flushed and then fenced (until a
    /// [`CrashInjector`] fires). [`PmemPool::crash`] reverts the volatile
    /// image to the shadow. This is the crash-semantics-testing configuration.
    Tracked,
}

/// What survives a simulated power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStyle {
    /// Only lines that were explicitly flushed and fenced survive — the
    /// strict pmemcheck/Yat model and the worst case for recovery code.
    StrictFlushOnly,
    /// In addition, each dirty-but-unflushed line survives with probability
    /// `survive_permille`/1000, modelling spontaneous cache eviction on
    /// real hardware. Deterministic given `seed` and the crash point.
    RandomEviction {
        /// Per-line survival probability in permille (0..=1000).
        survive_permille: u32,
        /// RNG seed (xorshift) so failures reproduce.
        seed: u64,
    },
}

struct TrackState {
    /// The persistent image: what NVM would contain after power loss. A
    /// second reservation the size of the pool's, mapped whole at
    /// creation (untouched pages cost nothing) and zeroed alongside
    /// every range the pool decommits.
    shadow: Reservation,
    /// Lines flushed (content captured at flush time) but not yet fenced.
    pending: HashMap<usize, [u8; CACHE_LINE]>,
    /// Set at the injector's fire, until a crash: nothing changes the
    /// shadow meanwhile.
    frozen: Option<Frozen>,
}

/// A power failure at the fire: the committed prefix then, its lines
/// that differed from the shadow, with their volatile contents, and the
/// fire's event index.
struct Frozen {
    len: usize,
    dirty: Vec<(usize, [u8; CACHE_LINE])>,
    event: u64,
}

impl TrackState {
    fn shadow(&self) -> &[u8] {
        // SAFETY: the shadow is mapped read-write over its whole span when
        // the pool is built and stays so; it changes only through
        // `shadow_mut`, whose `&mut self` excludes this borrow.
        unsafe { std::slice::from_raw_parts(self.shadow.base(), self.shadow.size()) }
    }

    fn shadow_mut(&mut self) -> &mut [u8] {
        // SAFETY: as for `shadow`; `&mut self` makes the borrow exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.shadow.base(), self.shadow.size()) }
    }
}

fn raw_fd(f: &fs::File) -> i32 {
    use std::os::fd::AsRawFd;
    f.as_raw_fd()
}

/// Advisory exclusive lock on a pool file ([`fs::File::try_lock`]),
/// preventing two live processes from mapping the same pool — a
/// silent-corruption hazard the kill-based crash harness would otherwise
/// trip constantly. The kernel releases the lock automatically when the
/// holder dies (including by `SIGKILL`), which is exactly what lets the
/// harness reopen a pool right after killing its victim.
#[derive(Debug)]
pub struct PoolGuard {
    file: fs::File,
}

impl PoolGuard {
    /// Open (creating if absent) and exclusively lock `path`. A pool held
    /// by another live process yields [`io::ErrorKind::WouldBlock`] with a
    /// "pool busy" message.
    pub fn acquire(path: &Path) -> io::Result<PoolGuard> {
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Self::lock(file, path, fs::File::try_lock, "pool busy", "locked by another process")
    }

    /// Open `path` read-only under a *shared* advisory lock
    /// ([`fs::File::try_lock_shared`]) — the inspector's open path. Any
    /// number of readers coexist, but a pool mapped live by a writer
    /// (which holds the exclusive lock) yields
    /// [`io::ErrorKind::WouldBlock`]; the caller can then degrade to an
    /// unlocked racy snapshot read. While the shared
    /// lock is held, no writer can acquire the pool — a dead pool under
    /// inspection stays dead.
    pub fn acquire_shared(path: &Path) -> io::Result<PoolGuard> {
        let file = fs::OpenOptions::new().read(true).open(path)?;
        Self::lock(file, path, fs::File::try_lock_shared, "pool live", "exclusively locked by a writer")
    }

    /// Take the non-blocking lock `try_lock` on `file`, naming the
    /// contended case `"{state}: {path} is {held}"`.
    fn lock(
        file: fs::File,
        path: &Path,
        try_lock: fn(&fs::File) -> Result<(), fs::TryLockError>,
        state: &str,
        held: &str,
    ) -> io::Result<PoolGuard> {
        match try_lock(&file) {
            Ok(()) => Ok(PoolGuard { file }),
            Err(fs::TryLockError::WouldBlock) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("{state}: {} is {held}", path.display()),
            )),
            Err(fs::TryLockError::Error(e)) => Err(e),
        }
    }

    /// The locked file.
    pub fn file(&self) -> &fs::File {
        &self.file
    }
}

/// A region of simulated NVM.
///
/// The region is one [`Reservation`] of address space, 2 MiB-aligned. All
/// offsets are relative to [`PmemPool::base`]; persistent data structures
/// must store *offsets* (or self-relative pointers), never absolute
/// addresses, because a reload maps the image at a different base —
/// exactly the position-independence discipline the paper's `pptr`
/// enforces.
///
/// ## Reserve/commit capacity model
///
/// The pool's **reserved** span ([`PmemPool::len`]) is fixed at creation
/// and is address space only: inaccessible (`PROT_NONE`) until a commit
/// first reaches it (the 2 MiB chunk it ends in, for anonymous memory),
/// so creating, opening, shrinking and dropping a pool
/// cost system calls and work in proportion to the bytes *used*, never to
/// the bytes reserved.
///
/// The pool knows one frontier: its **committed prefix**
/// ([`PmemPool::committed_len`]: the mapped pages, the file length, what
/// accesses, flushes and crash images may cover). [`PmemPool::commit`]
/// raises it, mapping the pages it has not reached before with one
/// `mmap`, and [`PmemPool::decommit`] lowers it — the only two ways it
/// moves, each one [`CrashInjector`] event. Nothing else records the prefix: it
/// is the file length, or what [`PmemPool::persistent_image`] returns,
/// so a heap that persists only its `used` word reads its frontier back
/// from the image after any crash. Pools built through
/// [`PmemPool::new`] are fully committed.
///
/// ## What backs the committed prefix
///
/// * **Simulated NVM** ([`PmemPool::with_reserve`],
///   [`PmemPool::from_image_reserving`]): private anonymous zero pages
///   advised `MADV_HUGEPAGE` ([`Reservation::map`]), materialized by the
///   OS on first touch a 2 MiB chunk at a time, as the paper's DAX
///   mappings of Optane are (4 KiB pages where the host's THP mode is
///   `never`). Durability across process
///   death is *modelled* (shadow image; [`PmemPool::persistent_image`]
///   is the way out), not real. A range, once mapped, stays mapped until
///   the pool is dropped, but the memory of a decommitted range's whole
///   pages goes back to the kernel ([`PmemPool::discard`], or on a thread
///   of the pool's own: [`PmemPool::discard_behind`]) and the next commit
///   over it needs no system call.
/// * **A real file** ([`PmemPool::map_file`]): the file, `MAP_SHARED`,
///   unadvised. Stores land in the OS page cache, which survives the death of the
///   process — the property the SIGKILL harness tests against. The
///   invariant maintained throughout: **file length == committed
///   frontier** (commit extends the file before publishing, decommit
///   truncates after unmapping), so a reopen can equate the two.
///
/// Both are built by the same steps — reserve, then map page ranges as
/// the frontier first reaches them — and differ in what `map` is handed
/// and in what a released tail becomes.
#[repr(C)]
pub struct PmemPool {
    /// First: a heap's hit path reads the base as the pool's first word.
    span: Reservation,
    /// The committed frontier: the backed prefix (the file length for
    /// mapped pools).
    committed: AtomicUsize,
    /// The locked file mapped over the committed prefix, held for the
    /// pool's lifetime; `None` for simulated NVM (anonymous pages).
    file: Option<PoolGuard>,
    /// Page-aligned end of the mapped prefix (`>=` the committed
    /// frontier; equal to its page for a file, a huge-page boundary or
    /// the span's end otherwise). The lock serializes
    /// mapping and file-length changes against each other (the frontier
    /// word itself stays lock-free for readers).
    mapped: Mutex<usize>,
    /// The page release [`PmemPool::discard_behind`] started, until joined.
    release: Mutex<Option<JoinHandle<()>>>,
    flush_model: FlushModel,
    stats: PmemStats,
    /// The shadow image and its pending lines: `Some` for
    /// [`Mode::Tracked`] alone.
    tracked: Option<Mutex<TrackState>>,
    /// Last, off the line whose first word a heap's hit path reads: every
    /// persistence event writes its count.
    inj: CrashInjector,
}

// SAFETY: the pool hands out raw pointers and the collaborating allocator
// performs all concurrent access through atomics; the pool's own mutable
// state is behind a Mutex. `crash` and `decommit` require
// external quiescence, which the allocator layer guarantees (recovery is
// offline, paper §3).
unsafe impl Send for PmemPool {}
// SAFETY: as for `Send` above: every shared access goes through atomics
// or the Mutex.
unsafe impl Sync for PmemPool {}

impl PmemPool {
    /// Create a zeroed pool of `len` bytes (rounded up to a cache line).
    pub fn new(len: usize, mode: Mode) -> Self {
        Self::with_reserve(len, len, mode, FlushModel::default())
    }

    /// Create a pool with a `reserved` virtual span of which only the
    /// first `committed` bytes are initially usable. The cost does not
    /// depend on `reserved`: the span is reserved address space, the
    /// committed prefix is mapped as anonymous zero pages, and no byte of
    /// either is touched here — pages take memory when first stored to.
    /// Grow the usable prefix later with [`PmemPool::commit`].
    ///
    /// # Panics
    /// If the address space cannot be reserved.
    pub fn with_reserve(reserved: usize, committed: usize, mode: Mode, flush_model: FlushModel) -> Self {
        Self::build(reserved, committed, None, mode, flush_model)
            .unwrap_or_else(|e| panic!("pmem pool reservation of {reserved} bytes failed: {e}"))
    }

    /// Map a pool over a real file: a reservation of `reserved` bytes
    /// with the file `MAP_SHARED`-mapped over the first `committed` bytes
    /// (the file is sized to `committed`; a fresh file grows to it, an
    /// adopted file must already be it). Stores become
    /// durable-across-process-death immediately via page-cache coherence —
    /// this is the configuration the SIGKILL crash harness runs on,
    /// and the closest thing to DAX this host can do.
    ///
    /// Mapped pools are [`Mode::Direct`] only: `Tracked`'s shadow image
    /// models what a *power failure* keeps, but a mapped pool's survival
    /// story is the page cache (process crash), and mixing the two would
    /// claim strictness the mapping cannot deliver.
    ///
    /// The `guard`'s lock is held for the pool's lifetime; its file is the
    /// one mapped.
    pub fn map_file(guard: PoolGuard, reserved: usize, committed: usize, flush_model: FlushModel) -> io::Result<Self> {
        Self::build(reserved, committed, Some(guard), Mode::Direct, flush_model)
    }

    /// Reserve the span and map its committed prefix — over `file`
    /// (sized to `committed` first) or as anonymous pages.
    fn build(
        reserved: usize,
        committed: usize,
        file: Option<PoolGuard>,
        mode: Mode,
        flush_model: FlushModel,
    ) -> io::Result<Self> {
        let len = line_up(reserved.max(CACHE_LINE));
        let committed = line_up(committed.max(CACHE_LINE));
        assert!(committed <= len, "committed {committed} exceeds reserved {len}");
        let tracked = match mode {
            Mode::Direct => None,
            // The committed frontier bounds what flush/crash ever touch
            // of the shadow.
            Mode::Tracked => {
                let shadow = Reservation::reserve(len)?;
                // SAFETY: fresh reservation, nothing uses it yet.
                unsafe { shadow.map(0, len, None)? };
                Some(Mutex::new(TrackState { shadow, pending: HashMap::new(), frozen: None }))
            }
        };
        let pool = PmemPool {
            span: Reservation::reserve(len)?,
            committed: AtomicUsize::new(committed),
            file,
            mapped: Mutex::new(0),
            release: Mutex::new(None),
            flush_model,
            stats: PmemStats::default(),
            tracked,
            inj: CrashInjector::default(),
        };
        pool.map_to(&mut pool.mapped.lock(), committed)?;
        Ok(pool)
    }

    /// Back the pool up to `hi`: extend the file first, so no store can
    /// target a page past its end, then map the pages beyond `mapped` —
    /// anonymous ones on to the next huge-page boundary. A chunk that a
    /// mapping covers only in part when it is first stored to gets 4 KiB
    /// pages for good, which a decommit then frees one by one: the seven
    /// that doubling grows left in a 512 MiB heap cost about 1 ms of the
    /// release of its tail.
    fn map_to(&self, mapped: &mut usize, hi: usize) -> io::Result<()> {
        let file = self.file.as_ref().map(PoolGuard::file);
        if let Some(file) = file {
            file.set_len(hi as u64)?;
        }
        if hi > *mapped {
            let hi = if file.is_some() { hi } else { hi.next_multiple_of(sys::HUGE_PAGE).min(self.len()) };
            // SAFETY: bare reservation, which nothing can be using yet.
            unsafe { self.span.map(*mapped, hi, file.map(raw_fd))? };
            *mapped = page_up(hi);
        }
        Ok(())
    }

    /// Write a mapped pool's dirty pages back to its file (`msync`). A
    /// no-op for anonymous pools (their durability is modelled).
    /// Process-crash durability never needs this — the page cache already
    /// has the stores — but a clean close syncs so even an OS-level crash
    /// keeps the closed image.
    pub fn sync(&self) -> io::Result<()> {
        if self.file.is_some() {
            // SAFETY: committed prefix of a live mapping.
            unsafe { sys::msync(self.base(), page_up(self.committed_len()), sys::MS_SYNC)? };
        }
        Ok(())
    }

    /// Base address of the mapping. Valid until the pool is dropped.
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.span.base()
    }

    /// Size of the *reserved* region in bytes (the fixed virtual span;
    /// geometry is a pure function of this).
    #[inline]
    pub fn len(&self) -> usize {
        self.span.size()
    }

    /// True if the pool has zero capacity (never true in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The committed frontier: bytes `0..committed_len()` are backed, and
    /// accesses, flushes and crash images are confined to them.
    #[inline]
    pub fn committed_len(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Grow the committed prefix to at least `new_len` bytes (rounded up
    /// to a cache line). Monotonic — a smaller request is a no-op.
    /// Returns the resulting frontier.
    ///
    /// Committing only makes memory *usable*: an anonymous chunk takes
    /// memory at its first store, a whole huge page of it where the host
    /// allows. Like [`PmemPool::decommit`], one [`CrashInjector`] event,
    /// taken before the prefix moves: it is the step a caller orders its
    /// own persisted state after (the allocator commits, then persists a
    /// `used` that covers the new space), and a crash there leaves the old
    /// prefix. Once it returns, the new prefix is part of every crash image.
    ///
    /// # Panics
    /// If `new_len` exceeds the reserved span.
    pub fn commit(&self, new_len: usize) -> usize {
        let new_len = line_up(new_len);
        assert!(new_len <= self.len(), "commit({new_len}) beyond the reserved span {}", self.len());
        drop(self.crash_point());
        let cur = self.committed_len();
        if new_len <= cur {
            return cur;
        }
        // Map the new pages (extending a file first) *before* publishing
        // the frontier, so no store can target pages that aren't backed
        // yet. The lock serializes concurrent grows (and the shrink path)
        // — a racing grow re-mapping pages another already published
        // would wipe them — and the frontier is published under it, so a
        // later, smaller request sees it before it would size the file.
        // The file-length invariant means a kill anywhere in here leaves
        // file_len >= every published frontier, and reopen takes the file
        // length as the frontier.
        let mut mapped = self.mapped.lock();
        if new_len > self.committed_len() {
            self.join_release();
            self.map_to(&mut mapped, new_len).expect("pool commit failed");
        }
        self.committed.fetch_max(new_len, Ordering::AcqRel).max(new_len)
    }

    /// Shrink the committed prefix to `new_len` bytes (rounded up to a
    /// cache line), releasing the tail. A growing request is a no-op.
    /// Like [`PmemPool::commit`], one [`CrashInjector`] event, and the
    /// caller must be quiescent: no access may reach the released range
    /// (a close/recovery-time operation; the allocator persists its
    /// lowered `used` first, so a crash at any point leaves a prefix at
    /// least as large as every persisted use of the space).
    ///
    /// A later commit over the released range reads zeros, exactly like
    /// never-committed reservation. An anonymous tail stays mapped, and
    /// the returned range is what is left to give back: its whole pages go
    /// to the kernel with [`PmemPool::discard`] (before it returns) or
    /// [`PmemPool::discard_behind`], so the next commit needs no system
    /// call. A file's tail is unmapped into bare reservation — only the
    /// rest of the frontier's own page is zeroed — and the file truncated
    /// here (the returned range is empty, as for a no-op).
    ///
    /// In [`Mode::Tracked`] the released range is also dropped from the
    /// persistent image (unless it is frozen): pending (flushed-unfenced)
    /// lines in it are discarded and the shadow's range is zeroed too, so
    /// no stale data can resurrect through a crash after a re-grow.
    pub fn decommit(&self, new_len: usize) -> Range<usize> {
        let new_len = line_up(new_len.max(CACHE_LINE));
        self.join_release();
        let tracked = self.crash_point();
        let cur = self.committed.fetch_min(new_len, Ordering::AcqRel);
        if new_len >= cur {
            return cur..cur; // monotone in the shrink direction: no-op
        }
        let Some(guard) = &self.file else {
            if let Some(mut st) = tracked {
                st.pending.retain(|line, _| line + CACHE_LINE <= new_len || *line >= cur);
                // SAFETY: all of the shadow is mapped anonymous and ours
                // under the lock.
                unsafe { st.shadow.discard(new_len, cur) };
            }
            return new_len..cur;
        };
        // Return a file's tail pages to bare reservation, then truncate
        // it to keep file length == frontier. A kill between the two
        // leaves the file long over (stale, unreferenced) space past the
        // durable `used`, which the next shrink gives back.
        let mut mapped = self.mapped.lock();
        // SAFETY: mapped pages above the lowered frontier; quiescence is
        // the caller's contract. (Mapped pools have no tracked state.)
        unsafe { self.span.release(new_len, *mapped) }.expect("pool page release failed");
        *mapped = page_up(new_len);
        guard.file().set_len(new_len as u64).expect("pool file shrink failed");
        new_len..new_len
    }

    /// Give the memory of `range`, which [`PmemPool::decommit`] returned,
    /// back to the kernel before returning.
    pub fn discard(&self, range: Range<usize>) {
        if self.decommitted(&range) {
            // SAFETY: mapped anonymous pages above the committed frontier,
            // which no access reaches.
            unsafe { self.span.discard(range.start, range.end) };
        }
    }

    /// [`PmemPool::discard`] without the wait: the sub-page edges are
    /// zeroed here, the whole pages go back on a thread of their own moved
    /// off the caller's CPU ([`sys::Home::place`]), or here if none starts.
    /// Every later commit, decommit, discard, [`PmemPool::crash`] and
    /// the drop joins it before touching the range, so a commit still
    /// reads zero; all but the drop resume its panic.
    pub fn discard_behind(&self, range: Range<usize>) {
        if !self.decommitted(&range) {
            return;
        }
        // SAFETY: as in `discard`.
        let (first, last) = unsafe { self.span.zero_edges(range.start, range.end) };
        let (at, len) = (self.base() as usize + first, last - first);
        // SAFETY: whole pages of the decommitted range, which nothing
        // touches before the release is joined.
        let release = move || unsafe { sys::discard_pages(at as *mut u8, len) };
        let home = sys::Home::here();
        let spawned = std::thread::Builder::new().name("pmem-release".into()).spawn(move || {
            if let Some(home) = home {
                home.place(1);
            }
            release()
        });
        match spawned {
            Ok(thread) => *self.release.lock() = Some(thread),
            Err(_) => release(),
        }
    }

    /// Join any earlier release, check that `range` is empty or decommitted
    /// anonymous memory, and say whether it has anything to give back.
    fn decommitted(&self, range: &Range<usize>) -> bool {
        self.join_release();
        assert!(
            range.is_empty()
                || self.file.is_none() && range.start >= self.committed_len() && range.end <= *self.mapped.lock(),
            "discard({range:?}): not a decommitted anonymous range"
        );
        !range.is_empty()
    }

    /// Wait for the release [`PmemPool::discard_behind`] started, if any,
    /// and resume its panic.
    fn join_release(&self) {
        let mut release = self.release.lock();
        if let Some(Err(panic)) = release.take().map(JoinHandle::join) {
            resume_unwind(panic);
        }
    }

    /// One persistence event for the pool's crash injector, under the
    /// track lock of a [`Mode::Tracked`] pool, so that a fire freezes the
    /// image before any other thread's next event. Returns the tracked
    /// state, locked, unless it is frozen: the caller's only way to change
    /// the image.
    #[inline]
    fn crash_point(&self) -> Option<MutexGuard<'_, TrackState>> {
        let mut tracked = self.tracked.as_ref().map(|t| t.lock());
        if let Some(kill) = self.inj.tick() {
            if let Some(st) = tracked.as_mut().filter(|st| st.frozen.is_none()) {
                let len = self.committed_len();
                st.frozen = Some(Frozen { len, dirty: self.dirty(&st.shadow()[..len]), event: self.inj.observed() });
            }
            drop(tracked);
            self.inj.fire(kill);
        }
        tracked.filter(|st| st.frozen.is_none())
    }

    /// The lines of the committed prefix that differ from `shadow`, with
    /// their volatile contents, found a page at a time.
    fn dirty(&self, shadow: &[u8]) -> Vec<(usize, [u8; CACHE_LINE])> {
        // SAFETY: the committed prefix is mapped; bytes a racing thread
        // stores read as *some* value, as in a flush.
        let volatile = unsafe { std::slice::from_raw_parts(self.base(), shadow.len()) };
        let pages = volatile.chunks(sys::PAGE).zip(shadow.chunks(sys::PAGE));
        let mut dirty = Vec::new();
        for (page, (v, s)) in pages.enumerate().filter(|(_, (v, s))| v != s) {
            let lines = v.chunks(CACHE_LINE).zip(s.chunks(CACHE_LINE)).enumerate();
            for (i, (line, _)) in lines.filter(|(_, (v, s))| v != s) {
                dirty.push((page * sys::PAGE + i * CACHE_LINE, line.try_into().expect("a whole line")));
            }
        }
        dirty
    }

    /// The persistence mode: [`Mode::Tracked`] if the pool keeps a
    /// shadow image.
    #[inline]
    pub fn mode(&self) -> Mode {
        if self.tracked.is_some() { Mode::Tracked } else { Mode::Direct }
    }

    /// The pool's crash injector, disarmed until armed; it has counted
    /// every persistence event since the pool was built.
    #[inline]
    pub fn injector(&self) -> &CrashInjector {
        &self.inj
    }

    /// Persistence-operation counters.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// True if `off..off+len` lies within the committed prefix.
    #[inline]
    pub fn check_range(&self, off: usize, len: usize) -> bool {
        let committed = self.committed_len();
        off <= committed && len <= committed - off
    }

    /// Raw pointer to offset `off`.
    ///
    /// # Safety
    /// `off + size_of::<T>()` must be in bounds and `off` must satisfy
    /// `T`'s alignment relative to the (4 KiB-aligned) base. All access
    /// through the pointer must follow the usual aliasing rules (shared
    /// mutation only through atomics).
    #[inline]
    pub unsafe fn at<T>(&self, off: usize) -> *mut T {
        debug_assert!(self.check_range(off, std::mem::size_of::<T>()));
        debug_assert_eq!(off % std::mem::align_of::<T>(), 0);
        // SAFETY: `off` is in bounds per the fn contract, so the sum stays
        // inside the reservation.
        unsafe { self.base().add(off) as *mut T }
    }

    /// An atomic u64 view of the 8 bytes at offset `off`.
    ///
    /// # Safety
    /// `off` must be 8-aligned and in bounds; the location must only be
    /// accessed as an atomic u64 while shared.
    #[inline]
    pub unsafe fn atomic_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(self.check_range(off, 8));
        debug_assert_eq!(off % 8, 0);
        // SAFETY: in bounds and 8-aligned per the fn contract; the pool
        // outlives the borrow, and shared access is atomic-only.
        unsafe { &*(self.base().add(off) as *const AtomicU64) }
    }

    /// Read a u64 at `off` with a plain (non-atomic) load.
    ///
    /// # Safety
    /// `off` must be 8-aligned, in bounds, and not concurrently written.
    #[inline]
    pub unsafe fn read_u64(&self, off: usize) -> u64 {
        // SAFETY: aligned, in bounds and not concurrently written per the
        // fn contract.
        unsafe { std::ptr::read(self.at::<u64>(off)) }
    }

    /// Write a u64 at `off` with a plain (non-atomic) store.
    ///
    /// # Safety
    /// As for [`PmemPool::read_u64`], plus exclusivity of the write.
    #[inline]
    pub unsafe fn write_u64(&self, off: usize, v: u64) {
        // SAFETY: aligned, in bounds and exclusive per the fn contract.
        unsafe { std::ptr::write(self.at::<u64>(off), v) }
    }

    /// `clwb`-equivalent: request write-back of every cache line covering
    /// `off..off+len`. Not persistent until the next [`PmemPool::fence`].
    pub fn flush(&self, off: usize, len: usize) {
        assert!(self.check_range(off, len), "flush out of range");
        if len == 0 {
            return;
        }
        let first = line_down(off);
        let last = line_up(off + len);
        let lines = (last - first) / CACHE_LINE;
        match self.crash_point() {
            // The data already lives in (cache-coherent) DRAM; only
            // compile-time order the stores.
            None => std::sync::atomic::compiler_fence(Ordering::SeqCst),
            Some(mut st) => {
                for line in (first..last).step_by(CACHE_LINE) {
                    let mut buf = [0u8; CACHE_LINE];
                    // SAFETY: line..line+64 is in bounds; racing reads of
                    // bytes being concurrently stored yield *some* byte
                    // values, which is exactly the nondeterminism a real
                    // asynchronous write-back has.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            self.base().add(line),
                            buf.as_mut_ptr(),
                            CACHE_LINE,
                        );
                    }
                    st.pending.insert(line, buf);
                }
            }
        }
        // One flush call covers one contiguous line run; adjacent CLWBs
        // pipeline, so the model charges once per run, not per line.
        let charged = self.flush_model.charge_flush_run(lines);
        self.stats.record_flush(lines, charged);
    }

    /// `sfence`-equivalent: all previously flushed lines become persistent.
    pub fn fence(&self) {
        match self.crash_point() {
            None => std::sync::atomic::fence(Ordering::SeqCst),
            Some(mut st) => {
                let pending = std::mem::take(&mut st.pending);
                for (line, buf) in pending {
                    st.shadow_mut()[line..line + CACHE_LINE].copy_from_slice(&buf);
                }
            }
        }
        let charged = self.flush_model.charge_fence();
        self.stats.record_fence(charged);
    }

    /// Flush + fence in one call (the common "persist" idiom).
    pub fn persist(&self, off: usize, len: usize) {
        self.flush(off, len);
        self.fence();
    }

    /// True if a power failure now keeps the `len` bytes at `off` as they
    /// read: in [`Mode::Tracked`] they equal the shadow's, or the injector
    /// has frozen the image, which no later persist reaches. Not a
    /// persistence event. Always true in [`Mode::Direct`].
    pub fn is_durable(&self, off: usize, len: usize) -> bool {
        let Some(tracked) = &self.tracked else { return true };
        assert!(self.check_range(off, len), "is_durable out of range");
        let st = tracked.lock();
        // SAFETY: the committed prefix is mapped; racing bytes read as in a flush.
        let volatile = unsafe { std::slice::from_raw_parts(self.base().add(off), len) };
        st.frozen.is_some() || volatile == &st.shadow()[off..off + len]
    }

    /// Simulate a full-system power failure with the strict model: the
    /// pool, committed prefix included, becomes its
    /// [`PmemPool::persistent_image`] (everything not explicitly
    /// flushed-and-fenced is lost), and thaws. Another style's image is
    /// [`PmemPool::crash_image`]'s, read without reverting the pool.
    ///
    /// The caller must guarantee quiescence (no thread touching the pool),
    /// mirroring the paper's fail-stop model in which a crash halts all
    /// threads. Panics in [`Mode::Direct`].
    pub fn crash(&self) {
        let tracked = self.tracked.as_ref().expect("crash simulation requires Mode::Tracked");
        self.join_release();
        let image = self.persistent_image();
        let len = image.len();
        let mut st = tracked.lock();
        st.frozen = None;
        st.pending.clear();
        let cur = self.committed.swap(len, Ordering::AcqRel);
        // SAFETY: quiescent per contract; an anonymous pool keeps every
        // range it ever committed mapped, so `[0, max(len, cur))` is.
        unsafe {
            std::ptr::copy_nonoverlapping(image.as_ptr(), self.base(), len);
            std::ptr::write_bytes(self.base().add(len), 0, cur.saturating_sub(len));
        }
    }

    /// The image a power failure would leave under `style`, at the
    /// injector's fire if it has fired, else now, without causing one: the
    /// shadow's committed prefix, plus each line that differs from it with
    /// a [`CrashStyle::RandomEviction`]'s odds, drawn from its seed and the
    /// event index (the injector's count then), so two crash points in one
    /// fence epoch lose different lines. In [`Mode::Direct`], the volatile
    /// prefix (a clean shutdown).
    pub fn crash_image(&self, style: CrashStyle) -> Vec<u8> {
        let Some(tracked) = &self.tracked else {
            // SAFETY: reading the committed prefix; racing bytes as in a
            // flush.
            return unsafe { std::slice::from_raw_parts(self.base(), self.committed_len()).to_vec() };
        };
        let st = tracked.lock();
        let len = st.frozen.as_ref().map_or_else(|| self.committed_len(), |f| f.len);
        let mut image = st.shadow()[..len].to_vec();
        if let CrashStyle::RandomEviction { survive_permille, seed } = style {
            let now = || (self.dirty(&st.shadow()[..len]), self.inj.observed());
            let (dirty, event) = st.frozen.as_ref().map_or_else(now, |f| (f.dirty.clone(), f.event));
            let mut rng = (seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
            for (line, bytes) in dirty {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                if rng % 1000 < survive_permille as u64 {
                    image[line..line + CACHE_LINE].copy_from_slice(&bytes);
                }
            }
        }
        image
    }

    /// [`PmemPool::crash_image`] under [`CrashStyle::StrictFlushOnly`]:
    /// what survives a crash now, or at the fire.
    pub fn persistent_image(&self) -> Vec<u8> {
        self.crash_image(CrashStyle::StrictFlushOnly)
    }

    /// Adopt an in-memory image (used to simulate a remap at a new base
    /// address without touching the filesystem): the image becomes the
    /// committed prefix of a pool reserving `reserved` bytes (at least
    /// the image's length), and — being what survived — its persistent
    /// image too.
    pub fn from_image_reserving(image: &[u8], reserved: usize, mode: Mode) -> Self {
        let len = image.len();
        let pool = Self::with_reserve(reserved.max(len), len, mode, FlushModel::default());
        // SAFETY: the committed prefix of a fresh pool: mapped, at least
        // `len` bytes, and no other users yet.
        copy_stored(unsafe { std::slice::from_raw_parts_mut(pool.base(), len) }, image);
        if let Some(t) = &pool.tracked {
            copy_stored(&mut t.lock().shadow_mut()[..len], image);
        }
        pool
    }
}

/// Copy `src` into `dst`, which reads zero, but for the pages of `src`
/// that are zero: they stay unbacked (most of a crash image is).
fn copy_stored(dst: &mut [u8], src: &[u8]) {
    const ZERO: [u8; sys::PAGE] = [0; sys::PAGE];
    for (dst, src) in dst.chunks_mut(sys::PAGE).zip(src.chunks(sys::PAGE)) {
        if src != &ZERO[..src.len()] {
            dst.copy_from_slice(src);
        }
    }
}

impl Drop for PmemPool {
    fn drop(&mut self) {
        // A release thread stores into the span, which the fields unmap.
        // Its panic is dropped: a drop must not panic.
        let _ = self.release.lock().take().map(JoinHandle::join);
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("len", &self.len())
            .field("committed", &self.committed_len())
            .field("mode", &self.mode())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decommit down to `len` and give the tail's pages back; returns the
    /// frontier.
    fn decommit(pool: &PmemPool, len: usize) -> usize {
        pool.discard(pool.decommit(len));
        pool.committed_len()
    }

    fn write_bytes(pool: &PmemPool, off: usize, bytes: &[u8]) {
        // SAFETY: the tests write inside the committed prefix, single-threaded.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), pool.base().add(off), bytes.len());
        }
    }

    fn read_byte(pool: &PmemPool, off: usize) -> u8 {
        // SAFETY: the tests read inside the committed prefix.
        unsafe { *pool.base().add(off) }
    }

    #[test]
    fn new_pool_is_zeroed_and_aligned() {
        let pool = PmemPool::new(1 << 16, Mode::Direct);
        assert_eq!(pool.base() as usize % 4096, 0);
        for off in [0usize, 1, 4095, (1 << 16) - 1] {
            assert_eq!(read_byte(&pool, off), 0);
        }
    }

    #[test]
    fn unflushed_writes_lost_on_crash() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 128, &[7; 8]);
        pool.crash();
        assert_eq!(read_byte(&pool, 128), 0, "unflushed line must not survive");
    }

    #[test]
    fn flushed_and_fenced_writes_survive() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 128, &[7; 8]);
        pool.flush(128, 8);
        pool.fence();
        write_bytes(&pool, 256, &[9; 8]); // dirty, unflushed
        pool.crash();
        assert_eq!(read_byte(&pool, 128), 7);
        assert_eq!(read_byte(&pool, 256), 0);
    }

    #[test]
    fn flush_without_fence_is_lost() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 64, &[3; 4]);
        pool.flush(64, 4);
        // no fence
        pool.crash();
        assert_eq!(read_byte(&pool, 64), 0);
    }

    #[test]
    fn flush_captures_content_at_flush_time() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 64, &[1; 4]);
        pool.flush(64, 4);
        write_bytes(&pool, 64, &[2; 4]); // after clwb, before sfence
        pool.fence();
        pool.crash();
        // Strict model: the flush-time value persisted.
        assert_eq!(read_byte(&pool, 64), 1);
    }

    #[test]
    fn flush_spans_multiple_lines() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 60, &[5; 8]); // straddles line 0 and line 64
        pool.persist(60, 8);
        pool.crash();
        assert_eq!(read_byte(&pool, 60), 5);
        assert_eq!(read_byte(&pool, 67), 5);
        assert_eq!(pool.stats().snapshot().flush_lines, 2);
    }

    #[test]
    fn crash_is_line_granular_not_torn() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 0, &[1; 64]);
        pool.persist(0, 64);
        write_bytes(&pool, 0, &[2; 64]); // dirty whole line again
        pool.crash();
        // Whole line reverts to the persisted value — no partial line.
        for i in 0..64 {
            assert_eq!(read_byte(&pool, i), 1);
        }
    }

    #[test]
    fn random_eviction_can_persist_unflushed() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 0, &[9; 64]);
        let evicted = |survive_permille| pool.crash_image(CrashStyle::RandomEviction { survive_permille, seed: 42 });
        assert_eq!(evicted(1000)[0], 9, "p=1.0 eviction must persist the line");
        assert_eq!(evicted(0)[0], 0, "p=0 behaves like strict");
    }

    /// Map `file` (locking it) with `reserved` bytes of span and its
    /// first `committed` bytes backed.
    fn map(file: &Path, reserved: usize, committed: usize) -> PmemPool {
        let guard = PoolGuard::acquire(file).unwrap();
        PmemPool::map_file(guard, reserved, committed, FlushModel::free()).unwrap()
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("nvm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("pool.img");
        // The file is the pool: no save step, dropping is enough.
        write_bytes(&map(&file, 4096, 4096), 100, b"hello");
        let pool = map(&file, 4096, 4096);
        assert_eq!(read_byte(&pool, 100), b'h');
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_image_differs_from_clean_image() {
        let pool = PmemPool::new(4096, Mode::Tracked);
        write_bytes(&pool, 0, &[1; 8]);
        pool.persist(0, 8);
        write_bytes(&pool, 512, &[2; 8]); // unflushed
        let k = pool.persistent_image();
        assert_eq!(read_byte(&pool, 512), 2);
        assert_eq!(k[512], 0);
        assert_eq!(k[0], 1);
    }

    #[test]
    fn from_image_maps_at_new_base() {
        let pool = PmemPool::new(4096, Mode::Direct);
        write_bytes(&pool, 8, &[0xAB; 8]);
        let img = pool.persistent_image();
        let pool2 = PmemPool::from_image_reserving(&img, img.len(), Mode::Direct);
        assert_eq!(read_byte(&pool2, 8), 0xAB);
    }

    #[test]
    fn injector_fires_through_pool() {
        let pool = PmemPool::with_reserve(4096, 4096, Mode::Tracked, FlushModel::free());
        let inj = pool.injector();
        inj.arm(1);
        pool.flush(0, 8); // event 1: budget 1 -> 0
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.fence()));
        assert!(r.is_err() && inj.fired());
    }

    /// A pool's injector starts disarmed and counts from the pool's
    /// creation: 1 000 events fire nothing, on either mode.
    #[test]
    fn a_pool_injector_starts_disarmed() {
        for mode in [Mode::Direct, Mode::Tracked] {
            let pool = PmemPool::new(4096, mode);
            for i in 0..500 {
                pool.flush(i % 64 * CACHE_LINE, 8);
                pool.fence();
            }
            assert!(!pool.injector().fired(), "{mode:?}");
            assert_eq!(pool.injector().observed(), 1000, "{mode:?}");
        }
    }

    #[test]
    fn atomic_view_reads_plain_writes() {
        let pool = PmemPool::new(4096, Mode::Direct);
        // SAFETY: offset 16 is in bounds and 8-aligned.
        unsafe {
            pool.write_u64(16, 0xDEADBEEF);
            assert_eq!(pool.atomic_u64(16).load(Ordering::Relaxed), 0xDEADBEEF);
            assert_eq!(pool.read_u64(16), 0xDEADBEEF);
        }
    }

    #[test]
    fn stats_count_flushes_and_fences() {
        let pool = PmemPool::new(4096, Mode::Direct);
        pool.flush(0, 1);
        pool.flush(0, 65);
        pool.fence();
        let s = pool.stats().snapshot();
        assert_eq!(s.flush_calls, 2);
        assert_eq!(s.flush_lines, 1 + 2);
        assert_eq!(s.fences, 1);
    }

    #[test]
    fn reserve_starts_uncommitted_and_commit_grows_monotonically() {
        let pool = PmemPool::with_reserve(1 << 20, 4096, Mode::Direct, FlushModel::free());
        assert_eq!(pool.len(), 1 << 20);
        assert_eq!(pool.committed_len(), 4096);
        assert!(pool.check_range(0, 4096));
        assert!(!pool.check_range(4096, 1), "uncommitted tail must be out of range");
        assert_eq!(pool.commit(8192), 8192);
        assert!(pool.check_range(4096, 4096));
        // Shrinking requests are no-ops (frontier is monotone).
        assert_eq!(pool.commit(4096), 8192);
        assert_eq!(pool.committed_len(), 8192);
        // Committed space is zeroed like the rest of the pool.
        assert_eq!(read_byte(&pool, 8191), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the reserved span")]
    fn commit_beyond_reserved_panics() {
        let pool = PmemPool::with_reserve(1 << 16, 4096, Mode::Direct, FlushModel::free());
        pool.commit((1 << 16) + 64);
    }

    #[test]
    #[should_panic(expected = "flush out of range")]
    fn flush_beyond_frontier_is_rejected() {
        let pool = PmemPool::with_reserve(1 << 16, 4096, Mode::Direct, FlushModel::free());
        pool.flush(4096, 64);
    }

    #[test]
    fn crash_and_images_are_confined_to_the_committed_prefix() {
        let pool = PmemPool::with_reserve(1 << 16, 4096, Mode::Tracked, FlushModel::free());
        write_bytes(&pool, 128, &[7; 8]);
        pool.persist(128, 8);
        assert_eq!(pool.persistent_image().len(), 4096, "image = committed prefix");
        pool.commit(8192);
        write_bytes(&pool, 4096, &[9; 8]); // committed but never flushed
        pool.crash();
        assert_eq!(read_byte(&pool, 128), 7, "persisted line survives");
        assert_eq!(read_byte(&pool, 4096), 0, "unflushed line past the old frontier is lost");
        // The frontier itself is volatile pool state and survives the
        // in-process crash monotonically.
        assert_eq!(pool.committed_len(), 8192);
        assert_eq!(pool.persistent_image().len(), 8192);
    }

    #[test]
    fn grown_pool_round_trips_through_file_with_reservation() {
        let dir = std::env::temp_dir().join(format!("nvm-grow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("grown.img");
        {
            let pool = map(&file, 1 << 20, 4096);
            pool.commit(12288);
            write_bytes(&pool, 8192, b"tail");
        }
        assert_eq!(std::fs::metadata(&file).unwrap().len(), 12288, "file = frontier");
        let pool = map(&file, 1 << 20, 12288);
        assert_eq!(pool.len(), 1 << 20, "reservation re-established");
        assert_eq!(pool.committed_len(), 12288, "frontier = file length");
        assert_eq!(read_byte(&pool, 8192), b't');
        // The tail stays growable.
        pool.commit(1 << 20);
        assert!(pool.check_range(0, 1 << 20));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decommit_releases_tail_and_regrow_reads_zero_pages() {
        let pool = PmemPool::with_reserve(1 << 20, 4096, Mode::Tracked, FlushModel::free());
        pool.commit(16384);
        write_bytes(&pool, 8192, &[0xAA; 64]);
        pool.persist(8192, 64);
        assert_eq!(pool.committed_len(), 16384);
        // Shrink back below the persisted data.
        assert_eq!(decommit(&pool, 4096), 4096);
        assert_eq!(pool.committed_len(), 4096);
        assert!(!pool.check_range(4096, 1), "released tail must be out of range");
        assert_eq!(pool.persistent_image().len(), 4096, "image = shrunken prefix");
        // Growing requests through decommit are no-ops.
        assert_eq!(decommit(&pool, 1 << 20), 4096);
        // Recommit: the released range reads zero, in both the volatile
        // image and the persistent shadow.
        pool.commit(16384);
        assert_eq!(read_byte(&pool, 8192), 0, "stale volatile data resurrected");
        pool.crash();
        assert_eq!(read_byte(&pool, 8192), 0, "stale shadow data resurrected");
    }

    /// Where the tail starts in the tests below: past a prefix that
    /// stands in for the heap's metadata and descriptors.
    const TAIL: usize = 128 << 10;

    /// Fill the pool from `TAIL` up to `hi`, decommit down to the
    /// unaligned `lo`, re-commit, and check every byte: the kept prefix
    /// intact, the released range zero — before and, in tracked mode,
    /// after a crash (the shadow must not resurrect it).
    fn release_and_regrow(pool: PmemPool, lo: usize, hi: usize) {
        assert!(!lo.is_multiple_of(4096) && !hi.is_multiple_of(4096));
        assert!(lo.is_multiple_of(64) && hi.is_multiple_of(64));
        assert_eq!(pool.commit(hi), hi);
        write_bytes(&pool, TAIL, &vec![0xAA; hi - TAIL]);
        pool.persist(TAIL, hi - TAIL);
        let mapped = *pool.mapped.lock();
        assert_eq!(decommit(&pool, lo), lo);
        assert!(!pool.check_range(lo, 1), "released tail must be out of range");
        // Only a file's tail gives pages up; an anonymous one is recycled.
        assert_eq!(*pool.mapped.lock(), if pool.file.is_some() { page_up(lo) } else { mapped });
        let check = |what: &str| {
            // SAFETY: `[TAIL, hi)` is committed again before each call.
            let bytes = unsafe { std::slice::from_raw_parts(pool.base().add(TAIL), hi - TAIL) };
            let (kept, released) = bytes.split_at(lo - TAIL);
            assert!(kept.iter().all(|&b| b == 0xAA), "{what}: bytes below the release changed");
            assert!(released.iter().all(|&b| b == 0), "{what}: released bytes resurrected");
        };
        assert_eq!(pool.commit(hi), hi);
        check("volatile image");
        if pool.mode() == Mode::Tracked {
            pool.crash();
            check("persistent image");
        }
    }

    fn reserve(mode: Mode) -> PmemPool {
        PmemPool::with_reserve(1 << 20, 4096, mode, FlushModel::free())
    }

    #[test]
    fn unaligned_tail_release_regrows_zero_and_keeps_the_prefix() {
        let (lo, hi) = (TAIL + 4096 + 128, TAIL + 9 * 4096 + 640);
        release_and_regrow(reserve(Mode::Direct), lo, hi);
        release_and_regrow(reserve(Mode::Tracked), lo, hi);
        // Both edges inside one page.
        release_and_regrow(reserve(Mode::Tracked), lo, lo + 64);
    }

    #[test]
    fn unaligned_releases_of_a_mapped_file_regrow_zero() {
        let dir = std::env::temp_dir().join(format!("nvm-release-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (lo, hi) = (TAIL + 4096 + 128, TAIL + 9 * 4096 + 640);
        release_and_regrow(map(&dir.join("tail"), 1 << 20, 4096), lo, hi);
        let len = std::fs::metadata(dir.join("tail")).unwrap().len();
        assert_eq!(len, hi as u64, "file length == frontier");
        let file = std::fs::read(dir.join("tail")).unwrap();
        assert!(file[TAIL..lo].iter().all(|&b| b == 0xAA), "the file's kept bytes");
        assert!(file[lo..].iter().all(|&b| b == 0), "the file's released bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decommit_discards_pending_flushes_beyond_the_new_frontier() {
        let pool = PmemPool::with_reserve(1 << 16, 8192, Mode::Tracked, FlushModel::free());
        write_bytes(&pool, 4096, &[7; 8]);
        pool.flush(4096, 8); // flushed but NOT fenced
        decommit(&pool, 4096);
        pool.commit(8192);
        pool.fence(); // must not resurrect the dropped pending line
        pool.crash();
        assert_eq!(read_byte(&pool, 4096), 0);
    }

    /// A commit is one injector event, taken before the prefix moves:
    /// a crash there leaves the old prefix, so the image a recovery sees
    /// is the one before the grow (what keeps a carve ordered ahead of
    /// its grow visible).
    #[test]
    fn a_commit_is_one_injector_event() {
        let pool = PmemPool::with_reserve(1 << 16, 4096, Mode::Tracked, FlushModel::free());
        let inj = pool.injector();
        let before = inj.observed();
        assert_eq!(pool.commit(8192), 8192);
        assert_eq!(inj.observed(), before + 1, "a commit is one injector event");
        inj.arm(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.commit(16384)));
        assert!(r.is_err() && inj.fired());
        assert_eq!(pool.committed_len(), 8192, "a crash at the commit moved the prefix");
        pool.crash();
        assert_eq!(pool.persistent_image().len(), 8192);
    }

    const HUGE: usize = sys::HUGE_PAGE;

    /// A fully committed pool of `chunks` huge-page chunks.
    fn chunks(chunks: usize, mode: Mode) -> PmemPool {
        PmemPool::with_reserve(chunks * HUGE, chunks * HUGE, mode, FlushModel::free())
    }

    /// `AnonHugePages` of the mapping that holds `off`.
    fn huge_kb(pool: &PmemPool, off: usize) -> usize {
        sys::tests::smaps_kb(&sys::tests::smaps_entry(pool.base().wrapping_add(off)), "AnonHugePages")
    }

    #[test]
    fn a_store_into_a_simulated_pool_backs_its_chunk_with_a_huge_page() {
        let pool = chunks(4, Mode::Direct);
        let at = HUGE + 4096 + 8;
        write_bytes(&pool, at, &[0x5A; 8]);
        assert_eq!(read_byte(&pool, at + 7), 0x5A);
        assert_eq!(read_byte(&pool, at + 8), 0);
        if !sys::tests::huge_pages_on() {
            eprintln!("transparent huge pages are off here: checked the values only");
            return;
        }
        assert!(huge_kb(&pool, at) >= 2048, "no huge page behind a stored-to chunk");
    }

    /// An anonymous decommit gives the memory of the whole pages it
    /// releases back at once, in the volatile image and in a tracked
    /// pool's shadow, and the released bytes read zero when re-committed,
    /// through a crash too.
    #[test]
    fn an_anonymous_decommit_frees_its_pages_and_reads_zero_after_a_commit() {
        let (lo, end) = (HUGE - 4096 + 64, 3 * HUGE);
        for mode in [Mode::Direct, Mode::Tracked] {
            let pool = chunks(3, mode);
            write_bytes(&pool, 0, &vec![0xAA; end]);
            pool.persist(0, end);
            let shadow = pool.tracked.as_ref().map(|t| t.lock().shadow.base() as *const u8);
            let images = [Some(pool.base() as *const u8), shadow];
            let whole_chunks = |base: *const u8| sys::mincore(base.wrapping_add(HUGE), 2 * HUGE).unwrap();
            for base in images.into_iter().flatten() {
                assert!(whole_chunks(base).iter().all(|&r| r), "{mode:?}: stored-to pages are not resident");
            }
            assert_eq!(decommit(&pool, lo), lo);
            if mode == Mode::Tracked {
                pool.crash();
            }
            for base in images.into_iter().flatten() {
                assert!(whole_chunks(base).iter().all(|&r| !r), "{mode:?}: released pages are resident");
            }
            assert_eq!(pool.commit(end), end);
            let check = |what: &str| {
                // SAFETY: `[0, end)` was committed again just above.
                let bytes = unsafe { std::slice::from_raw_parts(pool.base(), end) };
                assert!(bytes[..lo].iter().all(|&b| b == 0xAA), "{mode:?} {what}: kept bytes changed");
                assert!(bytes[lo..].iter().all(|&b| b == 0), "{mode:?} {what}: released bytes resurrected");
            };
            check("volatile image");
            if mode == Mode::Tracked {
                pool.crash();
                check("persistent image");
            }
        }
    }

    /// Thread A fires the injector; thread B, let go only after the fire,
    /// stores, flushes and fences a line. No style's image has that line,
    /// while a line dirty at the fire still survives a full eviction, and
    /// the crash thaws the pool.
    #[test]
    fn a_fence_after_the_fire_reaches_no_crash_image() {
        let pool = PmemPool::with_reserve(1 << 16, 1 << 16, Mode::Tracked, FlushModel::free());
        let inj = pool.injector();
        write_bytes(&pool, 0, &[1; 64]);
        let (fired, after_fire) = std::sync::mpsc::channel();
        let (a, b) = (&pool, &pool);
        std::thread::scope(|s| {
            s.spawn(|| {
                inj.arm(0);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.fence()));
                assert!(r.is_err() && inj.fired());
                fired.send(()).unwrap();
            });
            s.spawn(move || {
                after_fire.recv().unwrap();
                write_bytes(b, 4096, &[7; 64]);
                b.persist(4096, 64);
            });
        });
        assert!(inj.fired());
        let evict_all = CrashStyle::RandomEviction { survive_permille: 1000, seed: 1 };
        let styles = [CrashStyle::StrictFlushOnly, evict_all, CrashStyle::RandomEviction { survive_permille: 500, seed: 2 }];
        for style in styles {
            assert_eq!(pool.crash_image(style)[4096], 0, "{style:?}: a fence after the fire reached the image");
        }
        assert_eq!(pool.crash_image(evict_all)[0], 1, "a line dirty at the fire did not survive eviction");
        pool.crash();
        assert_eq!((read_byte(&pool, 0), read_byte(&pool, 4096)), (0, 0));
        write_bytes(&pool, 128, &[3; 8]);
        pool.persist(128, 8);
        assert_eq!(pool.persistent_image()[128], 3, "the crash did not thaw the pool");
    }

    /// Two crash points in one fence epoch see the same dirty lines; a
    /// `RandomEviction` draw keyed by the fire's event index keeps a
    /// different subset of them at each.
    #[test]
    fn random_eviction_draws_apart_at_two_crash_points_of_one_epoch() {
        let image_at = |budget| {
            let pool = PmemPool::with_reserve(1 << 16, 1 << 16, Mode::Tracked, FlushModel::free());
            let inj = pool.injector();
            write_bytes(&pool, 0, &[7; 64 * CACHE_LINE]);
            inj.arm(budget);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (0..4).for_each(|i| pool.flush(i * 64, 8))));
            assert!(r.is_err() && inj.fired());
            pool.crash_image(CrashStyle::RandomEviction { survive_permille: 500, seed: 3 })
        };
        let (a, b) = (image_at(1), image_at(2));
        assert_eq!(a.len(), b.len());
        assert!(a[..64 * CACHE_LINE] != b[..64 * CACHE_LINE], "one eviction draw per fence epoch");
    }

    /// A range is durable once its bytes are flushed and fenced, not
    /// before, and not after a later store; never-written bytes are, and
    /// every range is once the fire froze the image. Direct keeps no
    /// shadow and says yes.
    #[test]
    fn is_durable_reads_the_shadow_until_the_fire() {
        let pool = PmemPool::with_reserve(1 << 16, 1 << 16, Mode::Tracked, FlushModel::free());
        let inj = pool.injector();
        assert!(pool.is_durable(0, 256), "never-written bytes read zero in both images");
        write_bytes(&pool, 64, &[5; 16]);
        assert!(!pool.is_durable(64, 16) && pool.is_durable(80, 48), "only the written bytes differ");
        pool.flush(64, 16);
        assert!(!pool.is_durable(64, 16), "a flush without a fence is not durable");
        let events = inj.observed();
        pool.fence();
        assert!(pool.is_durable(64, 16));
        assert_eq!(inj.observed(), events + 1, "is_durable is no persistence event");
        write_bytes(&pool, 70, &[6]);
        assert!(!pool.is_durable(64, 16), "a store after the persist");
        inj.arm(0);
        assert!(std::panic::catch_unwind(|| pool.fence()).is_err() && inj.fired());
        assert!(pool.is_durable(64, 16), "the frozen image takes no persist, so nothing can be asked of it");
        let direct = PmemPool::new(1 << 16, Mode::Direct);
        write_bytes(&direct, 0, &[1; 8]);
        assert!(direct.is_durable(0, 8));
    }

    #[test]
    fn a_file_pool_gets_no_huge_page_advice() {
        let dir = std::env::temp_dir().join(format!("nvm-hg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = map(&dir.join("pool"), 4 * HUGE, HUGE);
        let anon = chunks(1, Mode::Direct);
        let flags = |p: &PmemPool| sys::tests::vm_flags(&sys::tests::smaps_entry(p.base())).contains(&"hg");
        assert!(!flags(&file), "a file mapping was advised MADV_HUGEPAGE");
        if sys::tests::thp_mode().is_some() {
            assert!(flags(&anon), "an anonymous mapping was not advised MADV_HUGEPAGE");
        }
        drop(file);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracked_crash_drops_unflushed_lines_of_a_huge_page() {
        let pool = chunks(2, Mode::Tracked);
        write_bytes(&pool, HUGE, &vec![0xAA; HUGE]);
        let kept = HUGE + 4096..HUGE + 4096 + CACHE_LINE;
        pool.persist(kept.start, CACHE_LINE);
        if sys::tests::huge_pages_on() {
            assert!(huge_kb(&pool, HUGE) >= 2048, "the stored-to chunk is not a huge page");
        }
        pool.crash();
        for off in HUGE..2 * HUGE {
            let want = if kept.contains(&off) { 0xAA } else { 0 };
            assert_eq!(read_byte(&pool, off), want, "byte {off} after the crash");
        }
    }

    #[test]
    fn shared_guard_coexists_with_readers_but_not_writers() {
        let dir = std::env::temp_dir().join(format!("nvm-shguard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool");
        std::fs::write(&path, b"x").unwrap();
        // Two shared readers coexist.
        let r1 = PoolGuard::acquire_shared(&path).expect("first shared lock");
        let _r2 = PoolGuard::acquire_shared(&path).expect("second shared lock");
        // A writer is excluded while any reader holds the pool.
        let err = PoolGuard::acquire(&path).expect_err("writer must be excluded");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(r1);
        drop(_r2);
        // And a live writer excludes shared readers.
        let w = PoolGuard::acquire(&path).expect("writer after readers left");
        let err = PoolGuard::acquire_shared(&path).expect_err("reader vs live writer");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(w);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adjacent_lines_in_one_persist_charged_once_per_run() {
        // CLWB pipelining: one persist of 4 adjacent lines is charged as
        // ONE full flush plus 3 cheap pipelined followers + one fence —
        // not 4 independent full flushes.
        let m = FlushModel::optane();
        let pool = PmemPool::with_reserve(4096, 4096, Mode::Direct, m);
        let before = pool.stats().snapshot();
        pool.persist(0, 4 * CACHE_LINE);
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(d.flush_lines, 4, "all four lines flushed");
        assert_eq!(d.flush_calls, 1, "one contiguous run");
        let run = m.flush_ns + 3 * m.pipelined_line_ns;
        assert!(run < 4 * m.flush_ns, "pipelined run must beat per-line charging");
        assert_eq!(
            d.modeled_ns,
            run + m.fence_ns,
            "a 4-line run must cost one full charge + pipelined followers"
        );
        // A *separate* persist is a new run and pays the full charge again.
        pool.persist(0, CACHE_LINE);
        let d2 = pool.stats().snapshot().since(&before);
        assert_eq!(d2.modeled_ns, run + m.flush_ns + 2 * m.fence_ns);
    }
}
