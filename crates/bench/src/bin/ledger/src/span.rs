//! In-memory spans around every call the ledger makes into a layer.
//!
//! A traced worker records `(kind, start, duration, parent, op id)` for
//! each workload operation and for each allocator call inside it; the
//! buffers are analysed and written out as JSONL only after the run.
//! Reading the clock is the dominant cost of a span, so it is calibrated
//! on empty spans ([`Calib`]) and subtracted: `inner` is what an empty
//! span measures about itself, `total` what it costs its enclosing span.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::{median, LinHist};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// Calibration only.
    Empty,
    /// fastpath: one free + malloc of the same ring slot.
    Pair,
    /// kv operations.
    Get,
    Set,
    /// Allocator calls.
    Malloc,
    Free,
    /// prodcon: time inside the hand-off queue (the generator's own cost).
    Handoff,
}

pub const KINDS: [Kind; 7] = [
    Kind::Empty,
    Kind::Pair,
    Kind::Get,
    Kind::Set,
    Kind::Malloc,
    Kind::Free,
    Kind::Handoff,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Empty => "empty",
            Kind::Pair => "pair",
            Kind::Get => "get",
            Kind::Set => "set",
            Kind::Malloc => "malloc",
            Kind::Free => "free",
            Kind::Handoff => "handoff",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the buffer's epoch.
    pub start_ns: u64,
    pub dur_ns: u32,
    /// Index of the enclosing span in the same buffer, or `NO_PARENT`.
    pub parent: u32,
    /// Spans of one workload operation share this id (unique per thread).
    pub op: u32,
    pub kind: Kind,
}

/// One thread's span store: preallocated and pre-touched, so recording
/// never allocates or page-faults inside a timed region.
pub struct SpanBuf {
    pub tid: usize,
    epoch: Instant,
    spans: Vec<Span>,
    /// Recording stops at this length (the current window's quota).
    limit: usize,
    cur: u32,
    op: u32,
}

impl SpanBuf {
    pub fn new(tid: usize, epoch: Instant, capacity: usize) -> SpanBuf {
        let blank = Span {
            start_ns: 0,
            dur_ns: 0,
            parent: NO_PARENT,
            op: 0,
            kind: Kind::Empty,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        SpanBuf {
            tid,
            epoch,
            spans,
            limit: 0,
            cur: NO_PARENT,
            op: 0,
        }
    }

    /// Allow `quota` more spans (bounded by the capacity).
    pub fn open_window(&mut self, quota: usize) {
        self.limit = (self.spans.len() + quota).min(self.spans.capacity());
    }

    /// True once the window's quota is used up; traced windows end early
    /// then, so no operation runs half-traced.
    #[inline]
    pub fn is_full(&self) -> bool {
        // Leave room for an operation's child spans.
        self.spans.len() + 4 > self.limit
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span of `kind`; `None` once the quota is used up. A
    /// top-level span starts a new op. The clock is read last here and
    /// first in [`SpanBuf::end`], so bookkeeping stays outside the span.
    #[inline]
    pub fn begin(&mut self, kind: Kind) -> Option<Open> {
        if self.spans.len() >= self.limit {
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.cur;
        if parent == NO_PARENT {
            self.op = self.op.wrapping_add(1);
        }
        self.spans.push(Span {
            start_ns: 0,
            dur_ns: 0,
            parent,
            op: self.op,
            kind,
        });
        self.cur = idx;
        Some(Open {
            idx,
            parent,
            t0: Instant::now(),
        })
    }

    #[inline]
    pub fn end(&mut self, open: Option<Open>) {
        let Some(Open { idx, parent, t0 }) = open else {
            return;
        };
        let dur = t0.elapsed();
        self.cur = parent;
        let s = &mut self.spans[idx as usize];
        s.start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        s.dur_ns = dur.as_nanos().min(u32::MAX as u128) as u32;
    }

    /// Run `f` inside a span of `kind`.
    #[inline]
    pub fn span<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let open = self.begin(kind);
        let r = f();
        self.end(open);
        r
    }
}

/// A span that has begun and not yet ended.
pub struct Open {
    idx: u32,
    parent: u32,
    t0: Instant,
}

/// Clock cost of one span, from empty spans.
#[derive(Clone, Copy, Debug)]
pub struct Calib {
    /// Median duration an empty span reports.
    pub inner_ns: f64,
    /// Wall time one empty span adds to whatever encloses it.
    pub total_ns: f64,
}

pub fn calibrate() -> Calib {
    const N: usize = 20_000;
    let epoch = Instant::now();
    let mut totals = Vec::new();
    let mut inners = Vec::new();
    for _ in 0..5 {
        let mut buf = SpanBuf::new(0, epoch, N + 8);
        buf.open_window(N);
        let t0 = Instant::now();
        for _ in 0..N {
            buf.span(Kind::Empty, || std::hint::black_box(()));
        }
        totals.push(t0.elapsed().as_nanos() as f64 / N as f64);
        let durs: Vec<f64> = buf.spans().iter().map(|s| s.dur_ns as f64).collect();
        inners.push(median(&durs));
    }
    Calib {
        inner_ns: median(&inners),
        total_ns: median(&totals),
    }
}

/// What the per-layer metrics need from a set of span buffers.
#[derive(Default)]
pub struct SpanStats {
    /// Corrected durations per kind, indexed by `Kind as usize`.
    pub hist: [LinHist; KINDS.len()],
    /// Same, split by recording thread (prodcon: tid 0 produces, 1 consumes).
    pub hist_by_tid: Vec<[LinHist; KINDS.len()]>,
    /// Σ corrected duration of top-level operation spans.
    pub op_ns: f64,
    /// Σ corrected duration of allocator calls nested in those operations.
    pub child_ns: f64,
    /// Σ self time (operation − children) of top-level operation spans.
    pub self_ns: f64,
    pub recorded: usize,
}

/// Corrected durations of one span and its direct children:
/// `(duration, self time)`. `children` holds the children's raw durations.
pub fn corrected(raw_ns: f64, children: &[f64], c: Calib) -> (f64, f64) {
    let dur = (raw_ns - c.inner_ns - children.len() as f64 * c.total_ns).max(0.0);
    let kids: f64 = children.iter().map(|&k| (k - c.inner_ns).max(0.0)).sum();
    (dur, (dur - kids).max(0.0))
}

pub fn analyze(bufs: &[SpanBuf], c: Calib) -> SpanStats {
    let mut st = SpanStats::default();
    for buf in bufs {
        let spans = buf.spans();
        let mut by_tid: [LinHist; KINDS.len()] = Default::default();
        // Children follow their parent contiguously (spans are pushed at
        // entry), so one forward pass with a small scratch list suffices.
        let mut kids = Vec::new();
        let mut i = 0;
        while i < spans.len() {
            let s = spans[i];
            kids.clear();
            let mut j = i + 1;
            while j < spans.len() && spans[j].parent != NO_PARENT {
                if spans[j].parent == i as u32 {
                    kids.push(spans[j].dur_ns as f64);
                }
                let d = (spans[j].dur_ns as f64 - c.inner_ns).max(0.0);
                st.hist[spans[j].kind as usize].record(d as u64);
                by_tid[spans[j].kind as usize].record(d as u64);
                j += 1;
            }
            let (dur, own) = corrected(s.dur_ns as f64, &kids, c);
            st.hist[s.kind as usize].record(dur as u64);
            by_tid[s.kind as usize].record(dur as u64);
            if !kids.is_empty() || matches!(s.kind, Kind::Pair | Kind::Get | Kind::Set) {
                st.op_ns += dur;
                st.self_ns += own;
                st.child_ns += dur - own;
            }
            st.recorded += j - i;
            i = j;
        }
        if st.hist_by_tid.len() <= buf.tid {
            st.hist_by_tid.resize_with(buf.tid + 1, Default::default);
        }
        for (into, from) in st.hist_by_tid[buf.tid].iter_mut().zip(&by_tid) {
            into.merge(from);
        }
    }
    st
}

/// Write at most `per_thread` spans of each buffer as JSON lines.
pub fn write_jsonl(path: &Path, bufs: &[SpanBuf], per_thread: usize) -> io::Result<usize> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    for buf in bufs {
        for (i, s) in buf.spans().iter().take(per_thread).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{{\"tid\": {}, \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                buf.tid,
                s.kind.name(),
                s.start_ns,
                s.start_ns + s.dur_ns as u64,
                s.op
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: Calib = Calib {
        inner_ns: 20.0,
        total_ns: 50.0,
    };

    #[test]
    fn self_time_is_span_minus_children_minus_clock_cost() {
        // An op measured at 1000 ns with two children measured at 220 and
        // 120 ns: the op really took 1000 − 20 − 2·50 = 880, its children
        // 200 + 100, so 580 ns is the op's own.
        assert_eq!(corrected(1000.0, &[220.0, 120.0], C), (880.0, 580.0));
        // No children: only the span's own clock read comes off.
        assert_eq!(corrected(100.0, &[], C), (80.0, 80.0));
        // Never negative, however small the raw reading.
        assert_eq!(corrected(10.0, &[5.0], C), (0.0, 0.0));
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_share_an_op() {
        let mut buf = SpanBuf::new(3, Instant::now(), 64);
        buf.open_window(64);
        for _ in 0..2 {
            let set = buf.begin(Kind::Set);
            buf.span(Kind::Malloc, || ());
            buf.span(Kind::Free, || ());
            buf.end(set);
        }
        let s = buf.spans();
        assert_eq!(s.len(), 6);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert_eq!((s[3].parent, s[4].parent, s[5].parent), (NO_PARENT, 3, 3));
        assert!(s[0].op == s[1].op && s[1].op == s[2].op && s[3].op != s[0].op);
        assert!(s[1].start_ns >= s[0].start_ns);
        assert!(s[0].dur_ns >= s[1].dur_ns + s[2].dur_ns);

        let st = analyze(
            std::slice::from_ref(&buf),
            Calib {
                inner_ns: 0.0,
                total_ns: 0.0,
            },
        );
        assert_eq!(st.recorded, 6);
        assert_eq!(st.hist[Kind::Set as usize].count(), 2);
        assert_eq!(st.hist[Kind::Malloc as usize].count(), 2);
        assert_eq!(st.hist_by_tid[3][Kind::Free as usize].count(), 2);
        assert!((st.op_ns - st.self_ns - st.child_ns).abs() < 1e-9);
    }

    #[test]
    fn quota_stops_recording_without_stopping_the_work() {
        let mut buf = SpanBuf::new(0, Instant::now(), 8);
        buf.open_window(6);
        assert!(!buf.is_full());
        let mut ran = 0;
        for _ in 0..10 {
            buf.span(Kind::Pair, || ran += 1);
        }
        assert_eq!(ran, 10);
        assert_eq!(buf.spans().len(), 6);
        assert!(buf.is_full());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = SpanBuf::new(1, Instant::now(), 16);
        buf.open_window(16);
        let get = buf.begin(Kind::Get);
        buf.span(Kind::Malloc, || ());
        buf.end(get);
        let dir = std::env::temp_dir().join(format!("ledger-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        assert_eq!(write_jsonl(&path, &[buf], 100).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines[0].get("name").unwrap().as_str(), Some("get"));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
