//! The surfaces under test and the three ways a worker can call them.
//!
//! Workload loops are written once against [`Ctx`]. [`Plain`] forwards
//! straight to the allocator (throughput windows: no clock reads),
//! [`Sampled`] times one operation in 16 into a [`LinHist`] (latency
//! windows), and [`Traced`] wraps every operation and every allocator
//! call in a span (the per-layer run). All three monomorphize, so the
//! untimed loop carries no trace of the other two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::time::Instant;

use galloc::RallocGlobal;
use ralloc::Ralloc;

use crate::span::{Kind, SpanBuf};
use crate::stats::LinHist;

/// An allocator surface. `size` is passed back on `free` because the
/// `GlobalAlloc` surfaces need the layout; the handle API ignores it.
pub trait Alloc: Sync {
    fn malloc(&self, size: usize) -> *mut u8;
    fn free(&self, p: *mut u8, size: usize);
}

impl Alloc for Ralloc {
    #[inline]
    fn malloc(&self, size: usize) -> *mut u8 {
        Ralloc::malloc(self, size)
    }

    #[inline]
    fn free(&self, p: *mut u8, _size: usize) {
        Ralloc::free(self, p)
    }
}

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size.max(1), 8).expect("ledger sizes are small and 8-aligned")
}

/// `galloc::RallocGlobal` called as a `GlobalAlloc` (not installed as the
/// process allocator: the ledger's own bookkeeping stays on `System`).
pub struct Global;

impl Alloc for Global {
    #[inline]
    fn malloc(&self, size: usize) -> *mut u8 {
        // SAFETY: the layout has non-zero size.
        unsafe { RallocGlobal.alloc(layout(size)) }
    }

    #[inline]
    fn free(&self, p: *mut u8, size: usize) {
        // SAFETY: `p` came from `Global::malloc(size)`, same layout.
        unsafe { RallocGlobal.dealloc(p, layout(size)) }
    }
}

/// The host's malloc, as a calibration baseline.
pub struct Sys;

impl Alloc for Sys {
    #[inline]
    fn malloc(&self, size: usize) -> *mut u8 {
        // SAFETY: the layout has non-zero size.
        unsafe { System.alloc(layout(size)) }
    }

    #[inline]
    fn free(&self, p: *mut u8, size: usize) {
        // SAFETY: `p` came from `Sys::malloc(size)`, same layout.
        unsafe { System.dealloc(p, layout(size)) }
    }
}

/// How a window runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Plain,
    Sampled,
    Traced,
}

pub trait Ctx {
    fn malloc(&mut self, size: usize) -> *mut u8;
    fn free(&mut self, p: *mut u8, size: usize);
    /// One workload operation made of several calls (a pair, a KV op).
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R;
    /// An operation that is exactly one `malloc`.
    fn op_malloc(&mut self, size: usize) -> *mut u8;
    /// An operation that is exactly one `free`.
    fn op_free(&mut self, p: *mut u8, size: usize);
    /// Time spent waiting on the workload's own hand-off queue.
    fn handoff<R>(&mut self, f: impl FnOnce() -> R) -> R;
    /// True when a traced window has used up its span quota.
    fn exhausted(&self) -> bool {
        false
    }
}

pub struct Plain<'a, A>(pub &'a A);

impl<A: Alloc> Ctx for Plain<'_, A> {
    #[inline]
    fn malloc(&mut self, size: usize) -> *mut u8 {
        self.0.malloc(size)
    }

    #[inline]
    fn free(&mut self, p: *mut u8, size: usize) {
        self.0.free(p, size)
    }

    #[inline]
    fn op<R>(&mut self, _kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline]
    fn op_malloc(&mut self, size: usize) -> *mut u8 {
        self.0.malloc(size)
    }

    #[inline]
    fn op_free(&mut self, p: *mut u8, size: usize) {
        self.0.free(p, size)
    }

    #[inline]
    fn handoff<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One operation in `SAMPLE_EVERY` is timed, on average.
pub const SAMPLE_EVERY: u32 = 16;

pub struct Sampled<'a, A> {
    alloc: &'a A,
    hist: &'a mut LinHist,
    /// What one clock-read pair adds to a timed operation (calibrated).
    clock_ns: u64,
    /// Operations left until the next timed one.
    gap: u32,
    lcg: u64,
}

impl<'a, A: Alloc> Sampled<'a, A> {
    pub fn new(alloc: &'a A, hist: &'a mut LinHist, clock_ns: u64, lane: u64) -> Self {
        Sampled {
            alloc,
            hist,
            clock_ns,
            gap: 1,
            lcg: lane.wrapping_mul(2) | 1,
        }
    }

    #[inline]
    fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.gap -= 1;
        if self.gap != 0 {
            return f(self);
        }
        // The gap is uniform on 1..=31 (mean 16), not fixed: workloads
        // repeat with short periods, and a fixed stride would only ever
        // time the same step of the period.
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.gap = 1 + (self.lcg >> 33) as u32 % (2 * SAMPLE_EVERY - 1);
        let t0 = Instant::now();
        let r = f(self);
        let ns = t0.elapsed().as_nanos() as u64;
        self.hist.record(ns.saturating_sub(self.clock_ns));
        r
    }
}

impl<A: Alloc> Ctx for Sampled<'_, A> {
    #[inline]
    fn malloc(&mut self, size: usize) -> *mut u8 {
        self.alloc.malloc(size)
    }

    #[inline]
    fn free(&mut self, p: *mut u8, size: usize) {
        self.alloc.free(p, size)
    }

    #[inline]
    fn op<R>(&mut self, _kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        self.timed(f)
    }

    #[inline]
    fn op_malloc(&mut self, size: usize) -> *mut u8 {
        self.timed(|c| c.alloc.malloc(size))
    }

    #[inline]
    fn op_free(&mut self, p: *mut u8, size: usize) {
        self.timed(|c| c.alloc.free(p, size))
    }

    #[inline]
    fn handoff<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

pub struct Traced<'a, A> {
    pub alloc: &'a A,
    pub buf: &'a mut SpanBuf,
}

impl<A: Alloc> Ctx for Traced<'_, A> {
    #[inline]
    fn malloc(&mut self, size: usize) -> *mut u8 {
        let a = self.alloc;
        self.buf.span(Kind::Malloc, || a.malloc(size))
    }

    #[inline]
    fn free(&mut self, p: *mut u8, size: usize) {
        let a = self.alloc;
        self.buf.span(Kind::Free, || a.free(p, size))
    }

    #[inline]
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        let open = self.buf.begin(kind);
        let r = f(self);
        self.buf.end(open);
        r
    }

    #[inline]
    fn op_malloc(&mut self, size: usize) -> *mut u8 {
        self.malloc(size)
    }

    #[inline]
    fn op_free(&mut self, p: *mut u8, size: usize) {
        self.free(p, size)
    }

    #[inline]
    fn handoff<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.buf.span(Kind::Handoff, f)
    }

    #[inline]
    fn exhausted(&self) -> bool {
        self.buf.is_full()
    }
}

/// Address-derived signature written into every 64th live block and
/// checked when it is freed.
#[inline]
pub fn signature(p: *mut u8) -> u64 {
    (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EA1_ED00_B10C_C0DE
}

/// Low pointer bit marking a slot whose block carries a signature (block
/// addresses are at least 8-aligned).
pub const SIGNED: usize = 1;

/// Sign `p` when `counter` says so; returns the slot word to store.
///
/// # Safety
/// `p` must be a live, 8-aligned block of at least 8 bytes that the
/// caller owns until it frees it.
#[inline]
pub unsafe fn maybe_sign(p: *mut u8, counter: u64) -> usize {
    if counter.is_multiple_of(64) {
        // SAFETY: the caller's contract.
        unsafe { (p as *mut u64).write(signature(p)) };
        p as usize | SIGNED
    } else {
        p as usize
    }
}

/// Split a slot word into the block and whether its signature is intact
/// (unsigned blocks are trivially intact).
///
/// # Safety
/// `slot` must be a word returned by [`maybe_sign`] whose block is still
/// live and owned by the caller.
#[inline]
pub unsafe fn check_signed(slot: usize) -> (*mut u8, bool) {
    let p = (slot & !SIGNED) as *mut u8;
    if slot & SIGNED == 0 {
        return (p, true);
    }
    // SAFETY: the caller's contract.
    (p, unsafe { (p as *const u64).read() } == signature(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_round_trip_and_detect_tearing() {
        let a = Sys;
        let p = a.malloc(64);
        // SAFETY: `p` is a live 64-byte block owned by this test.
        unsafe {
            let unsigned = maybe_sign(p, 1);
            assert_eq!(check_signed(unsigned), (p, true));
            let signed = maybe_sign(p, 128);
            assert_eq!(signed & SIGNED, SIGNED);
            assert_eq!(check_signed(signed), (p, true));
            (p as *mut u64).write(0xDEAD);
            assert_eq!(check_signed(signed), (p, false));
        }
        a.free(p, 64);
    }

    #[test]
    fn sampled_times_one_op_in_sixteen_and_traced_nests() {
        let a = Sys;
        let mut hist = LinHist::default();
        let mut cx = Sampled::new(&a, &mut hist, 0, 0);
        for _ in 0..8000 {
            let p = cx.op_malloc(32);
            cx.op(Kind::Pair, |c| c.free(p, 32));
        }
        let expect = 16_000 / SAMPLE_EVERY as u64;
        assert!(
            (expect * 8 / 10..expect * 12 / 10).contains(&hist.count()),
            "{}",
            hist.count()
        );

        let mut buf = SpanBuf::new(0, Instant::now(), 32);
        buf.open_window(32);
        let mut cx = Traced {
            alloc: &a,
            buf: &mut buf,
        };
        cx.op(Kind::Set, |c| {
            let p = c.malloc(16);
            c.free(p, 16);
        });
        let p = cx.op_malloc(16);
        cx.op_free(p, 16);
        let kinds: Vec<Kind> = buf.spans().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Set,
                Kind::Malloc,
                Kind::Free,
                Kind::Malloc,
                Kind::Free
            ]
        );
    }
}
