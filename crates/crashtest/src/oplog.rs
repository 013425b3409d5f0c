//! Persisted per-thread operation log: the ground truth the visibility
//! oracles check recovered structures against.
//!
//! The log lives **in the same heap** as the structure under test, at its
//! own root, so it survives exactly the crashes the structure survives —
//! no side files, no clock skew between "what the log says happened" and
//! "what the pool says happened".
//!
//! Each workload thread owns one [`ThreadLog`]: a fixed array of 32-byte
//! records written strictly in order, never recycled. An operation is
//! bracketed:
//!
//! 1. operands and `STARTED` header are written and persisted **before**
//!    the structure operation executes;
//! 2. the result and `ACKED` header are written and persisted **after**
//!    it returns.
//!
//! So after a kill, a record is `ACKED` ⇒ the op fully happened and its
//! effect must be *exactly-once* visible; `STARTED` ⇒ the op may have
//! executed any prefix of its stores and must be *at-most-once* visible;
//! `EMPTY` ⇒ the op never began. Because each thread is sequential, only
//! a thread's last non-empty record can be `STARTED`.

use std::sync::atomic::{AtomicU64, Ordering};

use ralloc::{AtomicLink, Link, PersistentAllocator, Ralloc, Trace, Tracer};

/// Maximum workload threads a log directory can register.
pub const MAX_THREADS: usize = 8;

/// Records per thread log. A workload that fills its log simply stops
/// (the child then exits cleanly if the kill never lands).
pub const LOG_CAP: usize = 4096;

/// `res` value meaning "no result" (empty dequeue/pop, absent remove).
pub const RES_NONE: u64 = u64::MAX;

/// Record states (low byte of the header word).
pub const EMPTY: u64 = 0;
pub const STARTED: u64 = 1;
pub const ACKED: u64 = 2;

/// Operation kinds (header byte 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Enqueue = 1,
    Dequeue = 2,
    Push = 3,
    Pop = 4,
    Insert = 5,
    Remove = 6,
    /// Allocator churn (malloc/write/free cycle): no structure effect,
    /// logged so the harness can count progress.
    Churn = 7,
}

impl OpKind {
    fn from_u8(v: u8) -> Option<OpKind> {
        use OpKind::*;
        [Enqueue, Dequeue, Push, Pop, Insert, Remove, Churn].into_iter().find(|k| *k as u8 == v)
    }
}

/// One logged operation. 32 bytes, 32-byte aligned within the array, so
/// a record never straddles more than one cache line boundary and a
/// single `persist` covers it.
#[repr(C)]
pub struct OpRec {
    /// `state | kind << 8`. Written *after* the operands (program order),
    /// so a visible header implies visible operands.
    hdr: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    res: AtomicU64,
}

/// A thread's private slice of the log.
#[repr(C)]
pub struct ThreadLog {
    records: [OpRec; LOG_CAP],
}

/// Root block: slot `t` holds a `Link<48>` to thread `t`'s log.
#[repr(C)]
pub struct OpLogDir {
    slots: [AtomicLink<48>; MAX_THREADS],
}

// SAFETY: a directory's slots are its only links, each to a thread log.
unsafe impl Trace for OpLogDir {
    fn trace(&self, t: &mut Tracer<'_>) {
        for s in &self.slots {
            t.visit_link::<ThreadLog>(s.load());
        }
    }
}

// SAFETY: a log's records hold values, never references.
unsafe impl Trace for ThreadLog {
    fn trace(&self, _t: &mut Tracer<'_>) {
        // Records hold values, never references: leaf block.
    }
}

/// Create the directory plus `threads` logs and register the directory
/// as root `root`. Called once, before the workload starts.
pub fn create(heap: &Ralloc, root: usize, threads: usize) -> *mut OpLogDir {
    assert!(threads <= MAX_THREADS);
    let dir = heap.malloc(std::mem::size_of::<OpLogDir>()) as *mut OpLogDir;
    assert!(!dir.is_null(), "heap exhausted creating op-log directory");
    // SAFETY: fresh blocks, exclusively owned until published.
    unsafe {
        for s in &(*dir).slots {
            s.store(Link::NONE);
        }
        for t in 0..threads {
            let log = heap.malloc(std::mem::size_of::<ThreadLog>()) as *mut ThreadLog;
            assert!(!log.is_null(), "heap exhausted creating thread log");
            std::ptr::write_bytes(log as *mut u8, 0, std::mem::size_of::<ThreadLog>());
            heap.persist(log as *const u8, std::mem::size_of::<ThreadLog>());
            (*dir).slots[t].store(Link::new(Some((log as usize - heap.region_base()) as u64), 0));
        }
    }
    heap.persist(dir as *const u8, std::mem::size_of::<OpLogDir>());
    heap.set_root::<OpLogDir>(root, dir);
    dir
}

/// Re-attach to the directory after a crash (None if it was never
/// published — the child died during setup, before any op could ack).
pub fn attach(heap: &Ralloc, root: usize) -> Option<*mut OpLogDir> {
    let dir = heap.get_root::<OpLogDir>(root);
    (!dir.is_null()).then_some(dir)
}

/// Thread `t`'s log in directory `dir`, if its slot names one.
///
/// # Safety
/// `dir` is a live directory whose slots were published.
unsafe fn log_of(heap: &Ralloc, dir: *mut OpLogDir, t: usize) -> Option<*mut ThreadLog> {
    // SAFETY: the caller's contract.
    let slot = unsafe { (*dir).slots[t].load() };
    slot.target().map(|off| (heap.region_base() + off as usize) as *mut ThreadLog)
}

/// Sequential writer for one thread's log (child side).
pub struct OpWriter {
    heap: Ralloc,
    log: *mut ThreadLog,
    /// Index of the next record to start.
    n: usize,
}

// SAFETY: each writer is owned by exactly one workload thread.
unsafe impl Send for OpWriter {}

impl OpWriter {
    /// Writer for thread `tid` of directory `dir` (a pointer from
    /// [`create`]/[`attach`], valid for the heap's lifetime).
    #[allow(clippy::not_unsafe_ptr_arg_deref)]
    pub fn new(heap: &Ralloc, dir: *mut OpLogDir, tid: usize) -> OpWriter {
        // SAFETY: slots were published by `create` before threads spawned.
        let log = unsafe { log_of(heap, dir, tid) }.unwrap_or_else(|| panic!("thread {tid} has no log slot"));
        OpWriter { heap: heap.clone(), log, n: 0 }
    }

    #[inline]
    fn rec(&self) -> &OpRec {
        // SAFETY: the log block is live for the heap's lifetime (the
        // index is checked: a write past a full log panics).
        unsafe { &(*self.log).records[self.n] }
    }

    /// True if the log is full (the workload thread should stop).
    pub fn full(&self) -> bool {
        self.n >= LOG_CAP
    }

    /// Persist a `STARTED` record for the op about to run (callers stop
    /// at a [`full`](OpWriter::full) log).
    pub fn begin(&mut self, kind: OpKind, a: u64, b: u64) {
        let r = self.rec();
        r.a.store(a, Ordering::Relaxed);
        r.b.store(b, Ordering::Relaxed);
        r.res.store(RES_NONE, Ordering::Relaxed);
        r.hdr.store(STARTED | (kind as u64) << 8, Ordering::Release);
        self.heap
            .persist(r as *const OpRec as *const u8, std::mem::size_of::<OpRec>());
    }

    /// Persist the `ACKED` record for the op `begin` opened.
    pub fn ack(&mut self, res: u64) {
        let r = self.rec();
        let hdr = r.hdr.load(Ordering::Relaxed);
        debug_assert_eq!(hdr & 0xff, STARTED);
        r.res.store(res, Ordering::Relaxed);
        r.hdr.store((hdr & !0xff) | ACKED, Ordering::Release);
        self.heap
            .persist(r as *const OpRec as *const u8, std::mem::size_of::<OpRec>());
        self.n += 1;
    }
}

/// A decoded record (oracle side).
#[derive(Debug, Clone, Copy)]
pub struct LogOp {
    pub kind: OpKind,
    pub a: u64,
    pub b: u64,
    pub res: u64,
    pub acked: bool,
}

/// Read every thread's log back (parent side, post-recovery). Index =
/// thread id; scanning stops at the first `EMPTY` record. A corrupt
/// header (torn kill inside the header store is impossible — it is one
/// aligned word — so this means a real bug) is reported as an error.
#[allow(clippy::not_unsafe_ptr_arg_deref)]
pub fn read_logs(heap: &Ralloc, dir: *mut OpLogDir) -> Result<Vec<Vec<LogOp>>, String> {
    let mut out = Vec::new();
    for t in 0..MAX_THREADS {
        // SAFETY: quiescent post-mortem read.
        let Some(log) = (unsafe { log_of(heap, dir, t) }) else {
            continue;
        };
        let mut ops = Vec::new();
        for i in 0..LOG_CAP {
            // SAFETY: in-bounds record of a live log block.
            let r = unsafe { &(*log).records[i] };
            let hdr = r.hdr.load(Ordering::Acquire);
            let state = hdr & 0xff;
            if state == EMPTY {
                break;
            }
            let kind = OpKind::from_u8((hdr >> 8) as u8)
                .ok_or_else(|| format!("thread {t} record {i}: bad kind in header {hdr:#x}"))?;
            if state != STARTED && state != ACKED {
                return Err(format!("thread {t} record {i}: bad state {state}"));
            }
            let acked = state == ACKED;
            ops.push(LogOp {
                kind,
                a: r.a.load(Ordering::Acquire),
                b: r.b.load(Ordering::Acquire),
                res: r.res.load(Ordering::Acquire),
                acked,
            });
            if !acked && i + 1 < LOG_CAP {
                // A sequential thread can have at most one in-flight op,
                // and only as its last record.
                // SAFETY: `i + 1 < LOG_CAP`, a record of the same live log.
                let nxt = unsafe { &(*log).records[i + 1] };
                if nxt.hdr.load(Ordering::Acquire) & 0xff != EMPTY {
                    return Err(format!(
                        "thread {t}: STARTED record {i} is not the last record"
                    ));
                }
                break;
            }
        }
        out.push(ops);
    }
    Ok(out)
}
