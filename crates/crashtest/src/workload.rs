//! Every structure's crash contract, in one table ([`Contract`]): how the
//! victim builds the structure and drives it with logged operations, which
//! filter recovery needs for its root, and the oracle that judges what a
//! crash left of it. The SIGKILL path (`crate::run_once`) and the
//! in-process tracked sweep (`crate::tracked_sweep`) both read it.

use std::collections::BTreeMap;

use pds::{NmTree, PKv, PQueue, PRbTree, PStack};
use ralloc::{Ralloc, Trace};

use crate::oplog::{self, LogOp, OpKind, OpLogDir, OpWriter, RES_NONE};
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
    /// Every structure, in sweep order (the contract table's order).
    pub const ALL: [Structure; 7] = [
        Structure::Queue,
        Structure::Stack,
        Structure::Kv,
        Structure::NmTree,
        Structure::RbTree,
        Structure::Churn,
        Structure::ProdCon,
    ];

    /// This structure's crash contract.
    pub fn contract(self) -> &'static Contract {
        &CONTRACTS[self as usize]
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        self.contract().name
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Structure> {
        Structure::ALL.into_iter().find(|x| x.name() == s)
    }

    /// The victim's sequence: create the structure and an op-log for
    /// `threads` threads (all persisted), `arm` the crash, then run
    /// `threads` workers of up to `ops` logged ops each. Returns once
    /// every worker's thread has exited; re-raises a worker's panic.
    pub fn victim(self, heap: &Ralloc, threads: usize, seed: u64, ops: usize, arm: impl FnOnce()) {
        (self.contract().create)(heap);
        let dir = oplog::create(heap, OPLOG_ROOT, threads) as usize;
        arm();
        (self.contract().run)(heap, Run { dir, threads, seed, ops })
    }
}

/// One structure's crash contract.
pub struct Contract {
    /// CLI name.
    pub name: &'static str,
    /// Build the structure at [`STRUCT_ROOT`], persisted and rooted.
    create: fn(&Ralloc),
    /// Attach to the structure and run every worker's logged ops.
    run: fn(&Ralloc, Run),
    /// Register the filter of the structure's root.
    filter: fn(&Ralloc),
    /// The oracle: attach the recovered structure and check it against
    /// the decoded logs.
    pub(crate) judge: fn(&Ralloc, &[Vec<LogOp>]) -> Result<(), String>,
}

/// The table, in [`Structure::ALL`]'s order. `churn` and `prodcon` thread
/// their oracle through a queue, so they share its create, filter and
/// judge.
static CONTRACTS: [Contract; 7] = [
    Contract {
        name: "queue",
        create: create_queue,
        run: |heap, run| {
            run.each(heap, &PQueue::attach(heap, STRUCT_ROOT).expect("created at setup"), |q, w, _, r| {
                w.push_or_pop(r, [OpKind::Enqueue, OpKind::Dequeue], |v| q.enqueue(v), || q.dequeue())
            })
        },
        filter: filter::<pds::QueueHead>,
        judge: judge_queue,
    },
    Contract {
        name: "stack",
        create: |heap| drop(PStack::create(heap, STRUCT_ROOT)),
        run: |heap, run| {
            run.each(heap, &PStack::attach(heap, STRUCT_ROOT).expect("created at setup"), |st, w, _, r| {
                w.push_or_pop(r, [OpKind::Push, OpKind::Pop], |v| st.push(v), || st.pop())
            })
        },
        filter: filter::<pds::StackHead>,
        judge: |heap, logs| {
            let st = PStack::attach(heap, STRUCT_ROOT).ok_or("stack root missing after recovery")?;
            oracle::check_conservation(logs, &st.snapshot(), true)
        },
    },
    Contract {
        name: "kv",
        create: |heap| drop(PKv::create(heap, STRUCT_ROOT, KV_BUCKETS)),
        run: |heap, run| {
            run.each(heap, &PKv::attach(heap, STRUCT_ROOT).expect("created at setup"), |m, w, i, r| {
                let set = |k, v: u64| {
                    m.set(k, &v.to_le_bytes());
                    1
                };
                w.insert_or_remove(i, r, set, |k| m.delete(k).map(|v| kv_value(&v)))
            })
        },
        filter: filter::<pds::KvHead>,
        judge: |heap, logs| {
            let mut entries = BTreeMap::new();
            for (k, v) in PKv::attach(heap, STRUCT_ROOT)?.snapshot() {
                if v.len() != 8 {
                    return Err(format!("kv key {k:#x} holds {} bytes, not 8", v.len()));
                }
                entries.insert(k, kv_value(&v));
            }
            oracle::check_map(logs, &entries, MapSemantics::Upsert)
        },
    },
    Contract {
        name: "nmtree",
        create: |heap| drop(NmTree::create(heap, STRUCT_ROOT)),
        run: |heap, run| {
            run.each(heap, &NmTree::attach(heap, STRUCT_ROOT).expect("created at setup"), |t, w, i, r| {
                w.insert_or_remove(i, r, |k, v| t.insert(k, v) as u64, |k| t.remove(k))
            })
        },
        filter: filter::<pds::NmNode>,
        judge: |heap, logs| {
            let t = NmTree::attach(heap, STRUCT_ROOT).ok_or("nmtree root missing after recovery")?;
            let entries = entries(t.keys(), |k| t.get(k))?;
            oracle::check_map(logs, &entries, MapSemantics::InsertIfAbsent)
        },
    },
    Contract {
        name: "rbtree",
        create: |heap| drop(PRbTree::create(heap, STRUCT_ROOT)),
        run: |heap, run| {
            run.each(heap, &PRbTree::attach(heap, STRUCT_ROOT).expect("created at setup"), |t, w, i, r| {
                let insert = |k, v| {
                    t.insert(k, v);
                    1
                };
                w.insert_or_remove(i, r, insert, |k| t.remove(k))
            })
        },
        filter: filter::<pds::TreeLogHead>,
        judge: |heap, logs| {
            let t = PRbTree::attach(heap, STRUCT_ROOT)?;
            t.validate();
            let entries = entries(t.keys(), |k| t.get(k))?;
            oracle::check_map(logs, &entries, MapSemantics::Upsert)
        },
    },
    Contract {
        name: "churn",
        create: create_queue,
        run: |heap, run| {
            run.each(heap, &PQueue::attach(heap, STRUCT_ROOT).expect("created at setup"), |q, w, _, r| match r % 10 {
                // Allocator storm: transient blocks, occasionally huge,
                // to hammer cache fill/flush and the reserve/commit
                // frontier (grow storm).
                0..=3 => {
                    let p = if r.is_multiple_of(97) {
                        let size = 256 * 1024 + (w.rng.next_u64() as usize % (1 << 20));
                        w.logged_block(size)
                    } else {
                        w.small_block()
                    };
                    w.heap.free(p);
                    w.log.ack(0);
                }
                4..=7 => w.produce(OpKind::Enqueue, |v| q.enqueue(v)),
                _ => w.consume(OpKind::Dequeue, || q.dequeue()),
            })
        },
        filter: filter::<pds::QueueHead>,
        judge: judge_queue,
    },
    Contract {
        name: "prodcon",
        create: create_queue,
        run: run_prodcon,
        filter: filter::<pds::QueueHead>,
        judge: judge_queue,
    },
];

fn create_queue(heap: &Ralloc) {
    PQueue::create(heap, STRUCT_ROOT);
}

fn judge_queue(heap: &Ralloc, logs: &[Vec<LogOp>]) -> Result<(), String> {
    let q = PQueue::attach(heap, STRUCT_ROOT).ok_or("queue root missing after recovery")?;
    oracle::check_conservation(logs, &q.snapshot(), false)
}

/// Register `T`'s filter for the structure's root.
fn filter<T: Trace>(heap: &Ralloc) {
    let _ = heap.get_root::<T>(STRUCT_ROOT);
}

/// A recovered map's entries, every key with its value.
fn entries(keys: Vec<u64>, get: impl Fn(u64) -> Option<u64>) -> Result<BTreeMap<u64, u64>, String> {
    keys.into_iter()
        .map(|k| get(k).map(|v| (k, v)).ok_or_else(|| format!("key {k:#x} without value")))
        .collect()
}

/// Register the recovery trace filters for both roots **before**
/// [`Ralloc::recover`] sweeps (an unregistered root is traced
/// conservatively and its children could be misclassified).
pub fn register_filters(heap: &Ralloc, s: Structure) {
    (s.contract().filter)(heap);
    let _ = heap.get_root::<OpLogDir>(OPLOG_ROOT);
}

/// One workload run's shape, as [`Contract::run`] receives it.
#[derive(Clone, Copy)]
struct Run {
    /// The op-log directory's address (a pointer is not `Send`).
    dir: usize,
    threads: usize,
    seed: u64,
    ops: usize,
}

impl Run {
    /// Every thread runs `op` on `h` up to `ops` times, with a fresh RNG
    /// draw each time, until its log fills.
    fn each<H: Sync>(self, heap: &Ralloc, h: &H, op: fn(&H, &mut Worker<'_>, usize, u64)) {
        std::thread::scope(|sc| {
            let workers = (0..self.threads).map(|tid| {
                sc.spawn(move || {
                    let mut w = self.worker(heap, tid);
                    for i in 0..self.ops {
                        if w.log.full() {
                            break;
                        }
                        let r = w.rng.next_u64();
                        op(h, &mut w, i, r);
                    }
                })
            });
            crate::driver::join(workers.collect());
        })
    }

    /// Thread `tid`'s writer and RNG.
    fn worker(self, heap: &Ralloc, tid: usize) -> Worker<'_> {
        Worker {
            heap,
            tid: tid as u64,
            log: OpWriter::new(heap, self.dir as *mut OpLogDir, tid),
            rng: XorShift::new(self.seed ^ (0x9E37 + tid as u64 * 0x1_0001)),
            seq: 0,
        }
    }
}

/// A worker thread's logging state.
struct Worker<'h> {
    heap: &'h Ralloc,
    tid: u64,
    log: OpWriter,
    rng: XorShift,
    /// The last unique value's sequence number.
    seq: u64,
}

impl Worker<'_> {
    /// A logged push of this thread's next unique value (`tid << 32 | seq`).
    fn produce(&mut self, kind: OpKind, push: impl FnOnce(u64) -> bool) {
        self.seq += 1;
        let v = (self.tid << 32) | self.seq;
        self.log.begin(kind, v, 0);
        assert!(push(v), "{kind:?} failed: heap exhausted");
        self.log.ack(0);
    }

    /// A logged pop, acked with the value taken (or [`RES_NONE`]).
    fn consume(&mut self, kind: OpKind, pop: impl FnOnce() -> Option<u64>) {
        self.log.begin(kind, 0, 0);
        let res = pop().unwrap_or(RES_NONE);
        self.log.ack(res);
    }

    /// A logged push (60 %, drawn from `r`) or pop, of the two `kinds`.
    fn push_or_pop(&mut self, r: u64, kinds: [OpKind; 2], push: impl FnOnce(u64) -> bool, pop: impl FnOnce() -> Option<u64>) {
        if r % 10 < 6 {
            self.produce(kinds[0], push);
        } else {
            self.consume(kinds[1], pop);
        }
    }

    /// A logged insert (70 %) or remove of one of this thread's
    /// [`KEYS_PER_THREAD`] keys, both drawn from `r`; op `i` inserts
    /// `i + 1`. `insert` returns the ack, `remove` the value removed.
    fn insert_or_remove(
        &mut self,
        i: usize,
        r: u64,
        insert: impl FnOnce(u64, u64) -> u64,
        remove: impl FnOnce(u64) -> Option<u64>,
    ) {
        let key = (self.tid << 32) | (r % KEYS_PER_THREAD);
        if r % 10 < 7 {
            let val = i as u64 + 1;
            self.log.begin(OpKind::Insert, key, val);
            let res = insert(key, val);
            self.log.ack(res);
        } else {
            self.log.begin(OpKind::Remove, key, 0);
            let res = remove(key).unwrap_or(RES_NONE);
            self.log.ack(res);
        }
    }

    /// Begin a logged `Churn` op and malloc `size` bytes, touching the
    /// first and last so the pages are real. The caller acks.
    fn logged_block(&mut self, size: usize) -> *mut u8 {
        self.log.begin(OpKind::Churn, size as u64, 0);
        let p = self.heap.malloc(size);
        assert!(!p.is_null(), "malloc of {size} bytes failed");
        // SAFETY: freshly allocated block of `size` bytes.
        unsafe {
            *p = 0xAB;
            *p.add(size - 1) = 0xCD;
        }
        p
    }

    /// A logged malloc of 64..4 064 bytes, drawn from the RNG.
    fn small_block(&mut self) -> *mut u8 {
        let size = 64 + (self.rng.next_u64() as usize % 4000);
        self.logged_block(size)
    }
}

/// The producer/consumer storm: thread pairs (2i, 2i+1) share a bounded
/// channel; the even thread allocates and hands blocks over, the odd
/// thread frees them. Every handed-over block is freed by a thread that
/// does not own its superblock, so remote frees run for the whole window
/// — a SIGKILL lands with them in consumers' bins or mid-flush, and
/// recovery must reclaim them by reachability. An odd leftover
/// thread churns locally so every log sees traffic.
fn run_prodcon(heap: &Ralloc, run: Run) {
    let q = &PQueue::attach(heap, STRUCT_ROOT).expect("created at setup");
    std::thread::scope(|sc| {
        let mut workers = Vec::new();
        for pair in 0..run.threads / 2 {
            let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(256);
            workers.push(sc.spawn(move || {
                let mut w = run.worker(heap, 2 * pair);
                for _ in 0..run.ops {
                    if w.log.full() {
                        break;
                    }
                    if w.rng.next_u64() % 10 < 8 {
                        let p = w.small_block();
                        w.log.ack(0);
                        if tx.send(p as usize).is_err() {
                            heap.free(p); // consumer exited: reclaim locally
                        }
                    } else {
                        w.produce(OpKind::Enqueue, |v| q.enqueue(v));
                    }
                }
            }));
            workers.push(sc.spawn(move || {
                let mut w = run.worker(heap, 2 * pair + 1);
                for p in rx {
                    // Remote free: this thread never allocated from p's
                    // superblock. Drain past a full log so producers
                    // never wedge on a closed channel mid-run.
                    heap.free(p as *mut u8);
                    if !w.log.full() && w.rng.next_u64().is_multiple_of(16) {
                        w.consume(OpKind::Dequeue, || q.dequeue());
                    }
                }
            }));
        }
        if run.threads % 2 == 1 {
            workers.push(sc.spawn(move || {
                let mut w = run.worker(heap, run.threads - 1);
                for _ in 0..run.ops {
                    if w.log.full() {
                        break;
                    }
                    let p = w.small_block();
                    heap.free(p);
                    w.log.ack(0);
                }
            }));
        }
        crate::driver::join(workers);
    });
}

/// Keys per thread for the map workloads: small enough that removes and
/// re-inserts of the same key are common.
const KEYS_PER_THREAD: u64 = 64;

/// Buckets of the `kv` structure's map.
const KV_BUCKETS: usize = 512;

/// The `u64` a `kv` value's 8 bytes hold.
fn kv_value(v: &[u8]) -> u64 {
    u64::from_le_bytes(v.try_into().expect("a kv value is 8 bytes"))
}
