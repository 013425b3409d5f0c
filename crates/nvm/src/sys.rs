//! Minimal raw-syscall layer for the OS facilities the pool and the
//! crash-testing substrate need and `std` does not expose: address-space
//! reservations and file mappings (`mmap`/`munmap`/`msync`, wrapped as
//! [`Reservation`]), page backing and residency (`madvise`/`mincore`),
//! CPU placement for helper threads
//! (`sched_getaffinity`/`sched_setaffinity`/`getcpu`), and the `kill`
//! with which a crash injector's victim SIGKILLs itself at an exact
//! event. File locks, process ids and child processes are std's.
//!
//! The workspace builds offline with no `libc` crate, so these are
//! direct `syscall` instructions on x86_64 Linux. Every wrapper returns
//! `io::Result`, translating the kernel's negative-errno convention into
//! `io::Error::from_raw_os_error`. No other target is supported: no CI
//! job or installed toolchain ever built the stub that used to stand in
//! there, and file mappings never worked on it.

use std::io;

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("nvm::sys issues raw x86_64 Linux syscalls; the only supported target is x86_64-unknown-linux-gnu");

// ------------------------------------------------------------ constants

pub const PROT_NONE: usize = 0x0;
pub const PROT_READ: usize = 0x1;
pub const PROT_WRITE: usize = 0x2;

pub const MAP_SHARED: usize = 0x01;
pub const MAP_PRIVATE: usize = 0x02;
pub const MAP_FIXED: usize = 0x10;
pub const MAP_ANONYMOUS: usize = 0x20;
/// Don't reserve swap for the mapping (cheap large reservations).
pub const MAP_NORESERVE: usize = 0x4000;

pub const MS_SYNC: usize = 4;

/// `madvise` advice: free the range's pages. A private anonymous page
/// reads zero when next touched; a shared file page re-reads the file.
pub const MADV_DONTNEED: usize = 4;
/// `madvise` advice: back the range with transparent huge pages.
pub const MADV_HUGEPAGE: usize = 14;

pub const SIGKILL: i32 = 9;

mod nr {
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const MSYNC: usize = 26;
    pub const MINCORE: usize = 27;
    pub const MADVISE: usize = 28;
    pub const KILL: usize = 62;
    pub const SCHED_SETAFFINITY: usize = 203;
    pub const SCHED_GETAFFINITY: usize = 204;
    pub const GETCPU: usize = 309;
}

/// Raw 6-argument syscall. Returns the kernel's raw result (negative
/// errno on failure).
///
/// # Safety
/// The caller is responsible for the semantics of the specific
/// syscall: pointer arguments must be valid for the kernel's access.
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: the `syscall` instruction clobbers rcx/r11; all
    // argument registers follow the x86_64 Linux ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `mmap(addr, len, prot, flags, fd, offset)`.
///
/// # Safety
/// With `MAP_FIXED` the caller must own the target address range;
/// the returned mapping aliases the file (or fresh anonymous pages)
/// and all access must respect the usual aliasing discipline.
pub unsafe fn mmap(
    addr: *mut u8,
    len: usize,
    prot: usize,
    flags: usize,
    fd: i32,
    offset: usize,
) -> io::Result<*mut u8> {
    // SAFETY: forwarded to the kernel; contract per fn docs.
    let r = unsafe {
        syscall6(nr::MMAP, addr as usize, len, prot, flags, fd as isize as usize, offset)
    };
    check(r).map(|p| p as *mut u8)
}

/// `munmap(addr, len)`.
///
/// # Safety
/// The range must be a mapping this process owns and no longer uses.
pub unsafe fn munmap(addr: *mut u8, len: usize) -> io::Result<()> {
    // SAFETY: per fn contract.
    let r = unsafe { syscall6(nr::MUNMAP, addr as usize, len, 0, 0, 0, 0) };
    check(r).map(|_| ())
}

/// `msync(addr, len, flags)` — write a shared mapping's dirty pages
/// back to the file.
///
/// # Safety
/// The range must lie within a live mapping.
pub unsafe fn msync(addr: *mut u8, len: usize, flags: usize) -> io::Result<()> {
    // SAFETY: per fn contract.
    let r = unsafe { syscall6(nr::MSYNC, addr as usize, len, flags, 0, 0, 0) };
    check(r).map(|_| ())
}

/// `madvise(addr, len, advice)`. `addr` must be page-aligned.
///
/// # Safety
/// The range must lie within a mapping this process owns, and an advice
/// that changes contents (such as `MADV_DONTNEED`) may only be given
/// for memory nothing uses.
pub unsafe fn madvise(addr: *mut u8, len: usize, advice: usize) -> io::Result<()> {
    // SAFETY: per fn contract.
    let r = unsafe { syscall6(nr::MADVISE, addr as usize, len, advice, 0, 0, 0) };
    check(r).map(|_| ())
}

/// Give the whole pages `[addr, addr + len)` of a private anonymous
/// mapping back to the kernel (`MADV_DONTNEED`), or zero them by stores
/// where the kernel refuses: the range reads zero either way.
///
/// # Safety
/// `addr` must be page-aligned, the range whole pages of a private
/// anonymous mapping of this process, and nothing may access it
/// concurrently.
pub unsafe fn discard_pages(addr: *mut u8, len: usize) {
    // SAFETY: per fn contract; stores stand in only where the advice failed.
    if len > 0 && unsafe { madvise(addr, len, MADV_DONTNEED) }.is_err() {
        // SAFETY: as above.
        unsafe { std::ptr::write_bytes(addr, 0, len) };
    }
}

/// `mincore(addr, len)`: whether each page of `[addr, addr + len)` is
/// resident (`addr` page-aligned). An anonymous page is once anything
/// maps it, a read of the shared zero page included; a file page is
/// while the page cache holds it.
pub fn mincore(addr: *const u8, len: usize) -> io::Result<Vec<bool>> {
    let mut vec = vec![0u8; page_up(len) / PAGE];
    // SAFETY: the kernel only writes `vec`, one byte per page of the range,
    // and reads no memory of ours.
    let r = unsafe { syscall6(nr::MINCORE, addr as usize, len, vec.as_mut_ptr() as usize, 0, 0, 0) };
    check(r).map(|_| vec.iter().map(|&b| b & 1 != 0).collect())
}

/// A CPU mask as the affinity calls take it: room for 1 024 CPUs, the
/// size of glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// `sched_getaffinity(tid)` — the CPUs thread `tid` (0: the calling
/// thread) may run on, ascending.
pub fn sched_getaffinity(tid: i32) -> io::Result<Vec<usize>> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes, into
    // `mask`.
    let r = unsafe {
        let len = std::mem::size_of_val(&mask);
        syscall6(nr::SCHED_GETAFFINITY, tid as usize, len, mask.as_mut_ptr() as usize, 0, 0, 0)
    };
    check(r)?;
    Ok((0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 != 0).collect())
}

/// `sched_setaffinity(tid, cpus)` — let thread `tid` (0: the calling
/// thread) run on `cpus` only; the kernel moves it at once if it runs on
/// another. A CPU past the mask is `EINVAL`, as the kernel refuses one it
/// does not have.
pub fn sched_setaffinity(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus {
        *mask.get_mut(c / 64).ok_or_else(|| io::Error::from_raw_os_error(22))? |= 1 << (c % 64);
    }
    // SAFETY: the kernel only reads `mask`, `size_of_val(&mask)` bytes.
    let r = unsafe {
        let len = std::mem::size_of_val(&mask);
        syscall6(nr::SCHED_SETAFFINITY, tid as usize, len, mask.as_ptr() as usize, 0, 0, 0)
    };
    check(r).map(|_| ())
}

/// `getcpu()` — the CPU the calling thread runs on (it may move right
/// after, unless its affinity holds one CPU).
pub fn getcpu() -> io::Result<usize> {
    let mut cpu: u32 = 0;
    // SAFETY: the kernel writes one `u32`, into `cpu`; the node and cache
    // pointers are null, which it skips.
    let r = unsafe { syscall6(nr::GETCPU, &mut cpu as *mut u32 as usize, 0, 0, 0, 0, 0) };
    check(r).map(|_| cpu as usize)
}

/// The calling thread's CPU and the CPUs it may use, read before it
/// starts helpers: a spawned thread starts on its parent's CPU, and a host
/// that does not balance load (`sched_load_balance` 0) never moves it.
pub struct Home {
    cpu: usize,
    allowed: Vec<usize>,
}

impl Home {
    pub fn here() -> Option<Home> {
        let (cpu, allowed) = getcpu().ok().zip(sched_getaffinity(0).ok())?;
        Some(Home { cpu, allowed })
    }

    /// Move the calling thread, helper `w`, to [`helper_cpu`]'s CPU unless
    /// it runs there. A refusal leaves it where it is: slower, not wrong.
    pub fn place(&self, w: usize) {
        let want = helper_cpu(&self.allowed, self.cpu, w);
        if getcpu().is_ok_and(|now| now != want) {
            let _ = sched_setaffinity(0, &[want]);
        }
    }
}

/// The CPU helper `w` belongs on: the `w`-th of the `allowed` CPUs after
/// the one its parent runs on (`cpu0`), wrapping, so that up to one helper
/// per allowed CPU no two share one.
pub fn helper_cpu(allowed: &[usize], cpu0: usize, w: usize) -> usize {
    let i0 = allowed.iter().position(|&c| c == cpu0).unwrap_or(0);
    allowed[(i0 + w) % allowed.len()]
}

/// `kill(pid, sig)`.
pub fn kill(pid: i32, sig: i32) -> io::Result<()> {
    // SAFETY: no memory arguments.
    let r = unsafe { syscall6(nr::KILL, pid as usize, sig as usize, 0, 0, 0, 0) };
    check(r).map(|_| ())
}

/// OS page size assumed for mappings (x86_64 Linux).
pub const PAGE: usize = 4096;

/// A transparent huge page (x86_64), every [`Reservation`]'s alignment.
pub const HUGE_PAGE: usize = 2 << 20;

/// Round `n` up to a page boundary.
#[inline]
pub const fn page_up(n: usize) -> usize {
    (n + PAGE - 1) & !(PAGE - 1)
}

/// Round `n` down to a page boundary.
#[inline]
pub const fn page_down(n: usize) -> usize {
    n & !(PAGE - 1)
}

/// An owned span of address space, the backing of every pool image.
///
/// [`Reservation::reserve`] claims addresses only — creating one costs
/// three system calls, whatever its size. [`Reservation::map`] makes a
/// page range usable (file pages, or anonymous zero pages that take
/// memory when first touched), [`Reservation::zero`] clears a mapped
/// range by stores, leaving its pages in place,
/// [`Reservation::discard`] clears an anonymous range by giving its pages
/// to the kernel, leaving it mapped, and [`Reservation::release`] takes a
/// range's pages away again. Offsets are relative to
/// [`Reservation::base`]; dropping the value unmaps the span.
#[repr(C)]
pub struct Reservation {
    base: *mut u8,
    len: usize,
}

impl Reservation {
    /// Reserve `len` bytes of address space and nothing else: inaccessible
    /// (`PROT_NONE`), no memory, no swap accounting. The base is
    /// [`HUGE_PAGE`]-aligned: one huge page more is reserved and the slack
    /// around the span unmapped again.
    pub fn reserve(len: usize) -> io::Result<Reservation> {
        let (flags, span) = (MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, page_up(len));
        // SAFETY: a fresh mapping at a kernel-chosen address aliases nothing.
        let raw = unsafe { mmap(std::ptr::null_mut(), span + HUGE_PAGE, PROT_NONE, flags, -1, 0) }?;
        let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
        // SAFETY: the slack on either side of the span, inside the fresh
        // mapping. Errors are dropped: an empty head is refused, and a
        // failed trim only leaves address space reserved.
        unsafe {
            munmap(raw, head).ok();
            munmap(raw.add(head + span), HUGE_PAGE - head).ok();
        }
        Ok(Reservation { base: raw.wrapping_add(head), len })
    }

    /// First byte of the span ([`HUGE_PAGE`]-aligned).
    #[inline]
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Bytes reserved.
    #[inline]
    pub fn size(&self) -> usize {
        self.len
    }

    /// Make `[lo, hi)` (`lo` page-aligned, `hi` rounded up to a page)
    /// readable and writable: backed by `fd` from file offset `lo` on
    /// (shared, so stores reach the file's page cache), or by fresh
    /// anonymous zero pages advised `MADV_HUGEPAGE`: where the host's THP
    /// mode allows, the first store into a [`HUGE_PAGE`] the mapping
    /// covers whole backs all of it.
    ///
    /// # Safety
    /// Whatever the range's pages held is replaced, so nothing may still
    /// use it; a mapped `fd` must stay at least `hi` bytes long while the
    /// range is accessed.
    pub unsafe fn map(&self, lo: usize, hi: usize, fd: Option<i32>) -> io::Result<()> {
        let hi = page_up(hi);
        assert!(lo.is_multiple_of(PAGE), "map({lo}, {hi}) must start on a page");
        assert!(hi <= page_up(self.len), "map({lo}, {hi}) outside the span");
        if hi <= lo {
            return Ok(());
        }
        let (flags, fd) = match fd {
            Some(fd) => (MAP_SHARED, fd),
            None => (MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1),
        };
        // SAFETY: inside our own span; the rest is the caller's contract.
        // The advice changes no byte, and a refusal leaves 4 KiB pages.
        unsafe {
            mmap(self.base.add(lo), hi - lo, PROT_READ | PROT_WRITE, flags | MAP_FIXED, fd, lo)?;
            if fd < 0 {
                madvise(self.base.add(lo), hi - lo, MADV_HUGEPAGE).ok();
            }
        }
        Ok(())
    }

    /// Take the pages of `[lo, hi)` away: the whole pages inside go back
    /// to bare reservation untouched (inaccessible until the next
    /// [`Reservation::map`], which brings fresh ones), and the sub-page
    /// edges, whose pages stay, are zeroed by stores — so every byte of
    /// the range reads zero when next accessible.
    ///
    /// # Safety
    /// `[lo, hi)` must be mapped and nothing may access it concurrently.
    pub unsafe fn release(&self, lo: usize, hi: usize) -> io::Result<()> {
        assert!(lo <= hi && hi <= page_up(self.len), "release({lo}, {hi}) outside the span");
        // SAFETY: per fn contract.
        let (first, last) = unsafe { self.zero_edges(lo, hi) };
        if last == first {
            return Ok(());
        }
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED;
        // SAFETY: whole pages of our own span, unused per the contract.
        unsafe { mmap(self.base.add(first), last - first, PROT_NONE, flags, -1, 0) }.map(|_| ())
    }

    /// Zero `[lo, hi)` of an anonymous mapping and free its memory: the
    /// whole pages inside go back to the kernel ([`discard_pages`]) and
    /// the sub-page edges are zeroed by stores. The range stays mapped, so
    /// it needs no [`Reservation::map`] before its next use, and a page of
    /// it read later is a fresh zero page (a fresh huge page in an advised
    /// chunk).
    ///
    /// # Safety
    /// `[lo, hi)` must be mapped private and anonymous (a shared file page
    /// would re-read the file, not zero), and nothing may access it
    /// concurrently.
    pub unsafe fn discard(&self, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= page_up(self.len), "discard({lo}, {hi}) outside the span");
        // SAFETY: per fn contract.
        let (first, last) = unsafe { self.zero_edges(lo, hi) };
        // SAFETY: `[first, last)` is whole pages inside the range, per fn contract.
        unsafe { discard_pages(self.base.add(first), last - first) };
    }

    /// Zero the sub-page edges of `[lo, hi)` by stores and return the run
    /// of whole pages between them (empty when the range lies in one page).
    ///
    /// # Safety
    /// As for [`Reservation::zero`].
    pub unsafe fn zero_edges(&self, lo: usize, hi: usize) -> (usize, usize) {
        let first = page_up(lo).min(hi);
        let last = page_down(hi).max(first);
        // SAFETY: both edges are inside the range, per fn contract.
        unsafe {
            self.zero(lo, first);
            self.zero(last, hi);
        }
        (first, last)
    }

    /// Zero `[lo, hi)` by stores; the pages stay where they are. A page
    /// that already reads zero is left alone, so a clean file page is not
    /// dirtied and a file page nobody wrote is not allocated; the pages in
    /// between are cleared a whole run at a time.
    ///
    /// # Safety
    /// `[lo, hi)` must be mapped and nothing may access it concurrently.
    pub unsafe fn zero(&self, lo: usize, hi: usize) {
        static ZEROS: [u8; PAGE] = [0; PAGE];
        // `run..at` is the run of pages seen so far that need clearing.
        let (mut run, mut at) = (lo, lo);
        while at < hi {
            let end = page_up(at + 1).min(hi);
            // SAFETY: `[at, end)` is inside the range, per fn contract.
            let page = unsafe { std::slice::from_raw_parts(self.base.add(at), end - at) };
            if *page == ZEROS[..page.len()] {
                // SAFETY: `[run, at)` is inside the range, per fn contract.
                unsafe { std::ptr::write_bytes(self.base.add(run), 0, at - run) };
                run = end;
            }
            at = end;
        }
        // SAFETY: `[run, hi)` is inside the range, per fn contract.
        unsafe { std::ptr::write_bytes(self.base.add(run), 0, hi - run) };
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        // SAFETY: the span came from `reserve(self.len)` and every mapping
        // inside it was placed by `map`/`release`. Nothing useful to do
        // on failure.
        unsafe { munmap(self.base, self.len).ok() };
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The host's transparent-huge-page mode line, if the kernel has them.
    pub(crate) fn thp_mode() -> Option<String> {
        std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()
    }

    /// Whether advised anonymous memory gets huge pages on this host.
    pub(crate) fn huge_pages_on() -> bool {
        thp_mode().is_some_and(|mode| !mode.contains("[never]"))
    }

    /// The `/proc/self/smaps` entry of the mapping that holds `addr`: its
    /// header line and its fields.
    pub(crate) fn smaps_entry(addr: *const u8) -> String {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
        let range = |line: &str| {
            let (lo, hi) = line.split(' ').next()?.split_once('-')?;
            Some(usize::from_str_radix(lo, 16).ok()?..usize::from_str_radix(hi, 16).ok()?)
        };
        let (mut entry, mut inside) = (String::new(), false);
        for line in smaps.lines() {
            if let Some(r) = range(line) {
                if inside {
                    break;
                }
                inside = r.contains(&(addr as usize));
            }
            if inside {
                entry.push_str(line);
                entry.push('\n');
            }
        }
        assert!(!entry.is_empty(), "no mapping holds {addr:?}");
        entry
    }

    /// A `kB` field of an smaps entry.
    pub(crate) fn smaps_kb(entry: &str, field: &str) -> usize {
        entry
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':')?.trim().strip_suffix(" kB")?.parse().ok())
            .unwrap_or_else(|| panic!("no {field} in\n{entry}"))
    }

    /// The `VmFlags` of an smaps entry.
    pub(crate) fn vm_flags(entry: &str) -> Vec<&str> {
        let flags = entry.lines().find_map(|l| l.strip_prefix("VmFlags:"));
        flags.expect("VmFlags").split_whitespace().collect()
    }

    #[test]
    fn a_thread_pinned_to_each_allowed_cpu_runs_there() {
        let allowed = sched_getaffinity(0).unwrap();
        assert!(!allowed.is_empty());
        // A thread of its own, so the test harness's thread keeps its mask.
        std::thread::spawn(move || {
            for &cpu in &allowed {
                sched_setaffinity(0, &[cpu]).unwrap();
                assert_eq!(sched_getaffinity(0).unwrap(), [cpu]);
                assert_eq!(getcpu().unwrap(), cpu, "pinned to CPU {cpu}");
            }
            let err = sched_setaffinity(0, &[1 << 20]).expect_err("a CPU past the mask");
            assert_eq!(err.raw_os_error(), Some(22), "EINVAL");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zero_clears_dirty_runs_between_clean_pages_and_nothing_outside() {
        let span = Reservation::reserve(8 * PAGE).unwrap();
        let (lo, hi) = (100, 8 * PAGE - 7);
        // SAFETY: the span is ours and mapped before it is accessed.
        unsafe {
            span.map(0, 8 * PAGE, None).unwrap();
            let bytes = std::slice::from_raw_parts_mut(span.base(), 8 * PAGE);
            // Dirty: both edges, a two-page run, a lone byte late in a page.
            bytes[..PAGE].fill(0xAA);
            bytes[2 * PAGE..4 * PAGE].fill(0xBB);
            bytes[5 * PAGE + 4000] = 0xCC;
            bytes[7 * PAGE..].fill(0xDD);
            span.zero(lo, hi);
            assert!(bytes[..lo].iter().all(|&b| b == 0xAA), "bytes below the range changed");
            assert!(bytes[lo..hi].iter().all(|&b| b == 0), "range not cleared");
            assert!(bytes[hi..].iter().all(|&b| b == 0xDD), "bytes above the range changed");
        }
    }

    #[test]
    fn reserve_is_huge_page_aligned_and_its_trimmed_slack_is_unmapped() {
        // A test running alongside may map into the slack between the trim
        // and the probe, so one clean probe out of a few is the claim.
        let trimmed = (0..4).any(|_| {
            let span = Reservation::reserve(5 * PAGE).unwrap();
            assert_eq!(span.base() as usize % HUGE_PAGE, 0, "base {:?}", span.base());
            assert!(mincore(span.base(), 5 * PAGE).is_ok(), "the span itself is not mapped");
            let past = mincore(span.base().wrapping_add(5 * PAGE), PAGE);
            past.is_err_and(|e| e.raw_os_error() == Some(12)) // ENOMEM: nothing mapped
        });
        assert!(trimmed, "the slack past the span is still mapped");
    }

    #[test]
    fn huge_page_advice_backs_a_whole_chunk_at_one_store_and_bad_advice_is_refused() {
        const CHUNKS: usize = 3;
        let (len, pages) = (CHUNKS * HUGE_PAGE, HUGE_PAGE / PAGE);
        let span = Reservation::reserve(len).unwrap();
        // SAFETY: the span is ours and mapped before it is accessed.
        unsafe {
            span.map(0, len, None).unwrap();
            assert!(mincore(span.base(), len).unwrap().iter().all(|&r| !r), "fresh pages are resident");
            let at = span.base().add(HUGE_PAGE + 5 * PAGE + 7);
            at.write(0x5A);
            assert_eq!(at.read(), 0x5A);
            let resident = mincore(span.base(), len).unwrap();
            let (before, rest) = resident.split_at(pages);
            let (chunk, after) = rest.split_at(pages);
            assert!(before.iter().chain(after).all(|&r| !r), "a store backed another chunk");
            if huge_pages_on() {
                assert!(chunk.iter().all(|&r| r), "one store did not back its whole chunk");
            } else {
                eprintln!("transparent huge pages are off here: one store backs one page");
                let backed: Vec<_> = (0..pages).filter(|&p| chunk[p]).collect();
                assert_eq!(backed, [5]);
            }
            let err = madvise(span.base(), PAGE, 12345).expect_err("unknown advice must fail");
            assert_eq!(err.raw_os_error(), Some(22), "EINVAL");
        }
    }

    #[test]
    fn anonymous_map_round_trip() {
        // SAFETY: fresh anonymous mapping, unmapped at the end.
        unsafe {
            let p = mmap(
                std::ptr::null_mut(),
                8192,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
            .expect("anon mmap");
            assert_eq!(p as usize % 4096, 0);
            std::ptr::write(p, 0xAB);
            assert_eq!(std::ptr::read(p), 0xAB);
            munmap(p, 8192).expect("munmap");
        }
    }
}
