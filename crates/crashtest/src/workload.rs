//! Multi-threaded victim workloads, one per structure under test, plus
//! the allocator-protocol churn storm. Runs inside the forked child; the
//! parent replays the per-thread op-log against the recovered structure
//! through `crate::oracle`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pds::{NmTree, PKv, PQueue, PRbTree, PStack};
use ralloc::Ralloc;

use crate::oplog::{self, OpKind, OpLogDir, OpWriter, RES_NONE};
use crate::oracle::{self, MapSemantics};
use crate::rng::XorShift;

/// Root index of the structure under test.
pub const STRUCT_ROOT: usize = 0;
/// Root index of the op-log directory.
pub const OPLOG_ROOT: usize = 1;

/// Which structure the victim exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Recoverable MS queue ([`PQueue`]).
    Queue,
    /// Recoverable Treiber stack ([`PStack`]).
    Stack,
    /// Recoverable chained hash map ([`PKv`]) with 8-byte values.
    Kv,
    /// Recoverable Natarajan–Mittal tree ([`NmTree`]).
    NmTree,
    /// Op-logged red-black tree ([`PRbTree`]).
    RbTree,
    /// Allocator-protocol storm: large/small malloc-free churn driving
    /// frontier growth, threaded through a [`PQueue`] for the oracle.
    Churn,
    /// Producer/consumer split: producers malloc and hand blocks over a
    /// channel, consumers free them — 100 % remote frees, cached or
    /// mid-flush at the moment of the kill. Threaded through a
    /// [`PQueue`] for the oracle.
    ProdCon,
}

impl Structure {
    /// Every structure, in sweep order.
    pub const ALL: [Structure; 7] = [
        Structure::Queue,
        Structure::Stack,
        Structure::Kv,
        Structure::NmTree,
        Structure::RbTree,
        Structure::Churn,
        Structure::ProdCon,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Structure::Queue => "queue",
            Structure::Stack => "stack",
            Structure::Kv => "kv",
            Structure::NmTree => "nmtree",
            Structure::RbTree => "rbtree",
            Structure::Churn => "churn",
            Structure::ProdCon => "prodcon",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Structure> {
        Structure::ALL.into_iter().find(|x| x.name() == s)
    }
}

/// Live handle to whichever structure the run uses.
enum Handle {
    Queue(PQueue),
    Stack(PStack),
    Kv(PKv),
    NmTree(NmTree),
    RbTree(PRbTree),
}

impl Handle {
    fn create(heap: &Ralloc, s: Structure) -> Handle {
        match s {
            Structure::Queue | Structure::Churn | Structure::ProdCon => {
                Handle::Queue(PQueue::create(heap, STRUCT_ROOT))
            }
            Structure::Stack => Handle::Stack(PStack::create(heap, STRUCT_ROOT)),
            Structure::Kv => Handle::Kv(PKv::create(heap, STRUCT_ROOT, KV_BUCKETS)),
            Structure::NmTree => Handle::NmTree(NmTree::create(heap, STRUCT_ROOT)),
            Structure::RbTree => Handle::RbTree(PRbTree::create(heap, STRUCT_ROOT)),
        }
    }
}

/// Child-side setup: create the structure and the op-log, fully
/// persisted, before any workload op runs.
pub fn setup(heap: &Ralloc, s: Structure, threads: usize) -> *mut OpLogDir {
    // The handle is recreated per worker via `attach` on an already
    // healthy (freshly created) structure, so dropping it here is fine —
    // create() leaves everything persisted and rooted.
    let _ = Handle::create(heap, s);
    oplog::create(heap, OPLOG_ROOT, threads)
}

/// Run the workload: `threads` workers, each logging every op. Returns
/// when every worker finished or filled its log (if the armed kill never
/// fires).
pub fn run(heap: &Ralloc, s: Structure, dir: *mut OpLogDir, threads: usize, seed: u64, ops: usize) {
    if s == Structure::ProdCon {
        return run_prodcon(heap, dir, threads, seed, ops);
    }
    let handle = match s {
        Structure::Queue | Structure::Churn | Structure::ProdCon => {
            Handle::Queue(PQueue::attach(heap, STRUCT_ROOT).unwrap())
        }
        Structure::Stack => Handle::Stack(PStack::attach(heap, STRUCT_ROOT).unwrap()),
        Structure::Kv => Handle::Kv(PKv::attach(heap, STRUCT_ROOT).unwrap()),
        Structure::NmTree => Handle::NmTree(NmTree::attach(heap, STRUCT_ROOT).unwrap()),
        Structure::RbTree => Handle::RbTree(PRbTree::attach(heap, STRUCT_ROOT).unwrap()),
    };
    let dir = dir as usize;
    std::thread::scope(|sc| {
        for tid in 0..threads {
            let handle = &handle;
            let heap = heap.clone();
            sc.spawn(move || {
                let mut w = OpWriter::new(&heap, dir as *mut OpLogDir, tid);
                let mut rng = XorShift::new(seed ^ (0x9E37 + tid as u64 * 0x1_0001));
                worker(&heap, s, handle, tid as u64, &mut w, &mut rng, ops);
            });
        }
    });
}

/// The producer/consumer storm: thread pairs (2i, 2i+1) share a bounded
/// channel; the even thread allocates and hands blocks over, the odd
/// thread frees them. Every handed-over block is freed by a thread that
/// does not own its superblock, so remote frees run for the whole window
/// — a SIGKILL lands with them in consumers' bins or mid-flush, and
/// recovery must reclaim them by reachability. An odd leftover
/// thread churns locally so every log sees traffic.
fn run_prodcon(heap: &Ralloc, dir: *mut OpLogDir, threads: usize, seed: u64, ops: usize) {
    let q = PQueue::attach(heap, STRUCT_ROOT).unwrap();
    let dir = dir as usize;
    std::thread::scope(|sc| {
        for pair in 0..threads / 2 {
            let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(256);
            let (ptid, ctid) = (2 * pair, 2 * pair + 1);
            let (qp, heap_p) = (&q, heap.clone());
            sc.spawn(move || {
                let mut w = OpWriter::new(&heap_p, dir as *mut OpLogDir, ptid);
                let mut rng = XorShift::new(seed ^ (0x9E37 + ptid as u64 * 0x1_0001));
                let mut seq: u64 = 0;
                for _ in 0..ops {
                    if w.full() {
                        break;
                    }
                    if rng.next_u64() % 10 < 8 {
                        let size = 64 + (rng.next_u64() as usize % 4000);
                        w.begin(OpKind::Churn, size as u64, 0);
                        let p = heap_p.malloc(size);
                        assert!(!p.is_null(), "prodcon malloc failed");
                        // SAFETY: freshly allocated block of `size` bytes.
                        unsafe {
                            *p = 0xAB;
                            *p.add(size - 1) = 0xCD;
                        }
                        w.ack(0);
                        if tx.send(p as usize).is_err() {
                            heap_p.free(p); // consumer exited: reclaim locally
                        }
                    } else {
                        seq += 1;
                        let v = ((ptid as u64) << 32) | seq;
                        w.begin(OpKind::Enqueue, v, 0);
                        assert!(qp.enqueue(v), "enqueue failed: heap exhausted");
                        w.ack(0);
                    }
                }
            });
            let (qc, heap_c) = (&q, heap.clone());
            sc.spawn(move || {
                let mut w = OpWriter::new(&heap_c, dir as *mut OpLogDir, ctid);
                let mut rng = XorShift::new(seed ^ (0x9E37 + ctid as u64 * 0x1_0001));
                for p in rx {
                    // Remote free: this thread never allocated from p's
                    // superblock. Drain past a full log so producers
                    // never wedge on a closed channel mid-run.
                    heap_c.free(p as *mut u8);
                    if !w.full() && rng.next_u64().is_multiple_of(16) {
                        w.begin(OpKind::Dequeue, 0, 0);
                        let res = qc.dequeue().unwrap_or(RES_NONE);
                        w.ack(res);
                    }
                }
            });
        }
        if threads % 2 == 1 {
            let tid = threads - 1;
            let heap_s = heap.clone();
            sc.spawn(move || {
                let mut w = OpWriter::new(&heap_s, dir as *mut OpLogDir, tid);
                let mut rng = XorShift::new(seed ^ (0x9E37 + tid as u64 * 0x1_0001));
                for _ in 0..ops {
                    if w.full() {
                        break;
                    }
                    let size = 64 + (rng.next_u64() as usize % 4000);
                    w.begin(OpKind::Churn, size as u64, 0);
                    let p = heap_s.malloc(size);
                    assert!(!p.is_null(), "prodcon malloc failed");
                    // SAFETY: freshly allocated block of `size` bytes.
                    unsafe {
                        *p = 0xAB;
                        *p.add(size - 1) = 0xCD;
                    }
                    heap_s.free(p);
                    w.ack(0);
                }
            });
        }
    });
}

/// Keys per thread for the map workloads: small enough that removes and
/// re-inserts of the same key are common.
const KEYS_PER_THREAD: u64 = 64;

/// Buckets of the `kv` structure's map.
const KV_BUCKETS: usize = 512;

fn worker(
    heap: &Ralloc,
    s: Structure,
    handle: &Handle,
    tid: u64,
    w: &mut OpWriter,
    rng: &mut XorShift,
    ops: usize,
) {
    let mut seq: u64 = 0;
    for i in 0..ops {
        if w.full() {
            break;
        }
        let r = rng.next_u64();
        match (s, handle) {
            (Structure::Queue, Handle::Queue(q)) => {
                if r % 10 < 6 {
                    seq += 1;
                    let v = (tid << 32) | seq;
                    w.begin(OpKind::Enqueue, v, 0);
                    assert!(q.enqueue(v), "enqueue failed: heap exhausted");
                    w.ack(0);
                } else {
                    w.begin(OpKind::Dequeue, 0, 0);
                    let res = q.dequeue().unwrap_or(RES_NONE);
                    w.ack(res);
                }
            }
            (Structure::Churn, Handle::Queue(q)) => {
                match r % 10 {
                    // Allocator storm: transient blocks, occasionally
                    // huge, to hammer cache fill/flush and the
                    // reserve/commit frontier (grow storm).
                    0..=3 => {
                        let size = if r.is_multiple_of(97) {
                            256 * 1024 + (rng.next_u64() as usize % (1 << 20))
                        } else {
                            64 + (rng.next_u64() as usize % 4000)
                        };
                        w.begin(OpKind::Churn, size as u64, 0);
                        let p = heap.malloc(size);
                        assert!(!p.is_null(), "churn malloc failed");
                        // Touch first and last byte so the pages are real.
                        // SAFETY: freshly allocated block of `size` bytes.
                        unsafe {
                            *p = 0xAB;
                            *p.add(size - 1) = 0xCD;
                        }
                        heap.free(p);
                        w.ack(0);
                    }
                    4..=7 => {
                        seq += 1;
                        let v = (tid << 32) | seq;
                        w.begin(OpKind::Enqueue, v, 0);
                        assert!(q.enqueue(v), "enqueue failed: heap exhausted");
                        w.ack(0);
                    }
                    _ => {
                        w.begin(OpKind::Dequeue, 0, 0);
                        let res = q.dequeue().unwrap_or(RES_NONE);
                        w.ack(res);
                    }
                }
            }
            (Structure::Stack, Handle::Stack(st)) => {
                if r % 10 < 6 {
                    seq += 1;
                    let v = (tid << 32) | seq;
                    w.begin(OpKind::Push, v, 0);
                    assert!(st.push(v), "push failed: heap exhausted");
                    w.ack(0);
                } else {
                    w.begin(OpKind::Pop, 0, 0);
                    let res = st.pop().unwrap_or(RES_NONE);
                    w.ack(res);
                }
            }
            (Structure::Kv, Handle::Kv(m)) => {
                let key = (tid << 32) | (r % KEYS_PER_THREAD);
                if r % 10 < 7 {
                    let val = i as u64 + 1;
                    w.begin(OpKind::Insert, key, val);
                    m.set(key, &val.to_le_bytes());
                    w.ack(1);
                } else {
                    w.begin(OpKind::Remove, key, 0);
                    let res = m.delete(key).map_or(RES_NONE, |v| kv_value(&v));
                    w.ack(res);
                }
            }
            (Structure::NmTree, Handle::NmTree(t)) => {
                let key = (tid << 32) | (r % KEYS_PER_THREAD);
                if r % 10 < 7 {
                    let val = i as u64 + 1;
                    w.begin(OpKind::Insert, key, val);
                    let inserted = t.insert(key, val);
                    w.ack(inserted as u64);
                } else {
                    w.begin(OpKind::Remove, key, 0);
                    let res = t.remove(key).unwrap_or(RES_NONE);
                    w.ack(res);
                }
            }
            (Structure::RbTree, Handle::RbTree(t)) => {
                let key = (tid << 32) | (r % KEYS_PER_THREAD);
                if r % 10 < 7 {
                    let val = i as u64 + 1;
                    w.begin(OpKind::Insert, key, val);
                    t.insert(key, val);
                    w.ack(1);
                } else {
                    w.begin(OpKind::Remove, key, 0);
                    let res = t.remove(key).unwrap_or(RES_NONE);
                    w.ack(res);
                }
            }
            _ => unreachable!("structure/handle mismatch"),
        }
    }
}

/// Parent-side: register the recovery trace filters for both roots
/// **before** [`Ralloc::recover`] sweeps (an unregistered root is traced
/// conservatively and its children could be misclassified).
pub fn register_filters(heap: &Ralloc, s: Structure) {
    match s {
        Structure::Queue | Structure::Churn | Structure::ProdCon => {
            let _ = heap.get_root::<pds::QueueHead>(STRUCT_ROOT);
        }
        Structure::Stack => {
            let _ = heap.get_root::<pds::StackHead>(STRUCT_ROOT);
        }
        Structure::Kv => {
            let _ = heap.get_root::<pds::KvHead>(STRUCT_ROOT);
        }
        Structure::NmTree => {
            let _ = heap.get_root::<pds::NmNode>(STRUCT_ROOT);
        }
        Structure::RbTree => {
            let _ = heap.get_root::<pds::TreeLogHead>(STRUCT_ROOT);
        }
    }
    let _ = heap.get_root::<OpLogDir>(OPLOG_ROOT);
}

/// Parent-side: attach the recovered structure and run its oracle
/// against the decoded logs.
pub fn verify_structure(
    heap: &Ralloc,
    s: Structure,
    logs: &[Vec<oplog::LogOp>],
) -> Result<(), String> {
    match s {
        Structure::Queue | Structure::Churn | Structure::ProdCon => {
            let q = PQueue::attach(heap, STRUCT_ROOT)
                .ok_or("queue root missing after recovery")?;
            oracle::check_conservation(logs, &q.snapshot(), false)
        }
        Structure::Stack => {
            let st = PStack::attach(heap, STRUCT_ROOT)
                .ok_or("stack root missing after recovery")?;
            oracle::check_conservation(logs, &st.snapshot(), true)
        }
        Structure::Kv => {
            let m = PKv::attach(heap, STRUCT_ROOT)?;
            let mut entries = BTreeMap::new();
            for (k, v) in m.snapshot() {
                if v.len() != 8 {
                    return Err(format!("kv key {k:#x} holds {} bytes, not 8", v.len()));
                }
                entries.insert(k, kv_value(&v));
            }
            oracle::check_map(logs, &entries, MapSemantics::Upsert)
        }
        Structure::NmTree => {
            let t = NmTree::attach(heap, STRUCT_ROOT)
                .ok_or("nmtree root missing after recovery")?;
            let mut entries = BTreeMap::new();
            for k in t.keys() {
                entries.insert(k, t.get(k).ok_or("nmtree key without value")?);
            }
            oracle::check_map(logs, &entries, MapSemantics::InsertIfAbsent)
        }
        Structure::RbTree => {
            let t = PRbTree::attach(heap, STRUCT_ROOT)?;
            t.validate();
            let mut entries = BTreeMap::new();
            for k in t.keys() {
                entries.insert(k, t.get(k).ok_or("rbtree key without value")?);
            }
            oracle::check_map(logs, &entries, MapSemantics::Upsert)
        }
    }
}

/// The `u64` a `kv` value's 8 bytes hold.
fn kv_value(v: &[u8]) -> u64 {
    u64::from_le_bytes(v.try_into().expect("a kv value is 8 bytes"))
}

/// Used by the seed-replay check: total persistence-relevant progress
/// the child made, as one number (records begun across all threads).
pub fn oplog_totals(logs: &[Vec<oplog::LogOp>]) -> (usize, usize, usize) {
    let total: usize = logs.iter().map(Vec::len).sum();
    let acked: usize = logs
        .iter()
        .map(|l| l.iter().filter(|o| o.acked).count())
        .sum();
    (total, acked, total - acked)
}

/// Cross-thread unique value helper for ad-hoc callers (examples).
pub fn unique_value(tid: u64, counter: &AtomicU64) -> u64 {
    (tid << 32) | counter.fetch_add(1, Ordering::Relaxed)
}
