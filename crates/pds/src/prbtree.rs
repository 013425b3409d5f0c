//! A recoverable red-black tree: persistent op-log + transient index.
//!
//! [`RbTree`] is a sequential DRAM-pointer structure (the Vacation OLTP
//! workload mutates it under locks), so it cannot live in a persistent
//! region directly — its child pointers are raw addresses and its
//! rebalancing rotates several of them non-atomically. [`PRbTree`] makes
//! it recoverable the way real PM applications wrap index structures
//! (and the way the paper's memcached port treats its hash table): the
//! *log* is persistent, the *index* is a cache.
//!
//! * A persistent **append-only op-log** lives in the Ralloc heap,
//!   reachable from a registered root. Each record is immutable after
//!   publication; publication is a single head-word store, and the
//!   record is persisted *before* the head, so a crash exposes either
//!   the whole op or nothing.
//! * A transient [`RbTree`] over [`SystemAlloc`] serves reads. On
//!   [`PRbTree::attach`] it is rebuilt by replaying the log oldest-first.
//!
//! All mutations hold one mutex (matching Vacation's locking discipline),
//! which also serializes log appends — the head word needs no ABA
//! counter.

use std::sync::atomic::{AtomicU64, Ordering};

use baselines::SystemAlloc;
use parking_lot::Mutex;
use ralloc::{Link, PersistentAllocator, Ralloc, Trace, Tracer};

use crate::{block, offset};

const OP_INSERT: u64 = 0;
const OP_REMOVE: u64 = 1;

/// Log anchor block (registered as a root). `head` is a `Link<48>` to the
/// newest record (no target = empty log).
#[repr(C)]
pub struct TreeLogHead {
    head: AtomicU64,
}

/// One logged mutation. Immutable once reachable from the head.
#[repr(C)]
struct TreeLogRec {
    op: u64,
    key: u64,
    value: u64,
    /// The previously-newest record (no target = end).
    next: Link<48>,
}

// SAFETY: `head` is the anchor's only link.
unsafe impl Trace for TreeLogHead {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<TreeLogRec>(Link(self.head.load(Ordering::Relaxed)));
    }
}

// SAFETY: `next` is a record's only link.
unsafe impl Trace for TreeLogRec {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<TreeLogRec>(self.next);
    }
}

/// A recoverable `u64 → u64` ordered map: crash-consistent op-log on a
/// Ralloc heap, lock-protected transient red-black index for service.
pub struct PRbTree {
    heap: Ralloc,
    anchor: *mut TreeLogHead,
    index: Mutex<RbTree<SystemAlloc>>,
}

// SAFETY: the persistent side is append-only behind atomics; the
// transient index is mutex-protected.
unsafe impl Send for PRbTree {}
// SAFETY: as above.
unsafe impl Sync for PRbTree {}

use crate::RbTree;

impl PRbTree {
    /// Create a fresh tree whose log anchor is registered as root `root`.
    pub fn create(heap: &Ralloc, root: usize) -> PRbTree {
        let anchor = heap.malloc(std::mem::size_of::<TreeLogHead>()) as *mut TreeLogHead;
        assert!(!anchor.is_null(), "heap exhausted creating tree log anchor");
        // SAFETY: fresh block, exclusively owned.
        unsafe { (*anchor).head.store(Link::<48>::NONE.0, Ordering::Relaxed) };
        heap.persist(anchor as *const u8, std::mem::size_of::<TreeLogHead>());
        heap.set_root::<TreeLogHead>(root, anchor);
        PRbTree {
            heap: heap.clone(),
            anchor,
            index: Mutex::new(RbTree::new(SystemAlloc::new())),
        }
    }

    /// Re-attach to a tree persisted at root `root`, rebuilding the
    /// transient index by replaying the log oldest-first. Refuses a
    /// missing root and a record whose op is neither insert nor remove.
    pub fn attach(heap: &Ralloc, root: usize) -> Result<PRbTree, String> {
        let anchor = heap.get_root::<TreeLogHead>(root);
        if anchor.is_null() {
            return Err(format!("no tree log at root {root}"));
        }
        let mut ops = Vec::new();
        // SAFETY: the anchor and every record reachable from it were
        // persisted before publication and retained by recovery.
        let mut cur = Link(unsafe { (*anchor).head.load(Ordering::Acquire) });
        while let Some(r) = block::<TreeLogRec>(heap.region_base(), cur) {
            // SAFETY: as above.
            let r = unsafe { &*r };
            ops.push((r.op, r.key, r.value));
            cur = r.next;
        }
        let mut index = RbTree::new(SystemAlloc::new());
        for &(op, key, value) in ops.iter().rev() {
            match op {
                OP_INSERT => {
                    index.insert(key, value);
                }
                OP_REMOVE => {
                    index.remove(key);
                }
                other => return Err(format!("corrupt tree log: unknown op {other}")),
            }
        }
        Ok(PRbTree { heap: heap.clone(), anchor, index: Mutex::new(index) })
    }

    /// Append one record to the persistent log. Caller must hold the
    /// index lock (appends are serialized by it).
    fn append(&self, op: u64, key: u64, value: u64) {
        // SAFETY: anchor is live for the tree's lifetime.
        let head = unsafe { &(*self.anchor).head };
        let rec = self.heap.malloc(std::mem::size_of::<TreeLogRec>()) as *mut TreeLogRec;
        assert!(!rec.is_null(), "heap exhausted appending tree log record");
        // SAFETY: we own the unpublished record.
        unsafe {
            (*rec).op = op;
            (*rec).key = key;
            (*rec).value = value;
            (*rec).next = Link(head.load(Ordering::Acquire));
        }
        self.heap.persist(rec as *const u8, std::mem::size_of::<TreeLogRec>());
        head.store(Link::<48>::new(offset(self.heap.region_base(), rec), 0).0, Ordering::Release);
        self.heap.persist(head as *const AtomicU64 as *const u8, 8);
    }

    /// Insert or update `key → value`; returns the previous value.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        let mut index = self.index.lock();
        self.append(OP_INSERT, key, value);
        index.insert(key, value)
    }

    /// Remove `key`; returns the previous value.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let mut index = self.index.lock();
        if !index.contains(key) {
            return None;
        }
        self.append(OP_REMOVE, key, 0);
        index.remove(key)
    }

    /// Read the value for `key`.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.index.lock().get(key)
    }

    /// All keys in ascending order.
    pub fn keys(&self) -> Vec<u64> {
        self.index.lock().keys()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.lock().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check red-black invariants of the transient index; returns black
    /// height.
    pub fn validate(&self) -> usize {
        self.index.lock().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ralloc::RallocConfig;

    fn heap() -> Ralloc {
        Ralloc::create(16 << 20, RallocConfig::tracked())
    }

    /// Number of records in the persistent log.
    fn log_len(t: &PRbTree) -> usize {
        let mut n = 0;
        // SAFETY: published records are immutable.
        let mut cur = Link(unsafe { (*t.anchor).head.load(Ordering::Acquire) });
        while let Some(r) = block::<TreeLogRec>(t.heap.region_base(), cur) {
            n += 1;
            // SAFETY: as above.
            cur = unsafe { (*r).next };
        }
        n
    }

    #[test]
    fn basic_ordered_map_semantics() {
        let h = heap();
        let t = PRbTree::create(&h, 0);
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(8, 80), None);
        assert_eq!(t.insert(5, 55), Some(50));
        assert_eq!(t.get(5), Some(55));
        assert_eq!(t.remove(3), Some(30));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.keys(), vec![5, 8]);
        assert_eq!(log_len(&t), 5); // the no-op remove is not logged
        t.validate();
    }

    #[test]
    fn concurrent_disjoint_keys() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let t = PRbTree::create(&h, 0);
        let n_threads = 8u64;
        let per = 500u64;
        std::thread::scope(|sc| {
            for tid in 0..n_threads {
                let t = &t;
                sc.spawn(move || {
                    for i in 0..per {
                        let k = tid * per + i;
                        t.insert(k, k + 1);
                        if i % 4 == 0 {
                            t.remove(k);
                        }
                    }
                });
            }
        });
        t.validate();
        for tid in 0..n_threads {
            for i in 0..per {
                let k = tid * per + i;
                let expect = (i % 4 != 0).then_some(k + 1);
                assert_eq!(t.get(k), expect, "key {k}");
            }
        }
    }

    /// Every thread inserts, updates, removes and reads on one tree. Each
    /// thread owns a key stripe (`k * THREADS + tid`), so the stripes
    /// interleave along every root-to-leaf path, and every op appends to
    /// the one log; a per-thread model predicts every result and the
    /// final contents, the index must stay a red-black tree, and the
    /// replayed log must hold the same map.
    #[test]
    fn mixed_operations_on_every_thread_match_per_thread_models() {
        use std::collections::BTreeMap;
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        const KEYS: u64 = 256;
        const RUNS: u64 = 8;
        let run = |seed: u64| -> Result<(), String> {
            let h = Ralloc::create(64 << 20, RallocConfig::default());
            let tree = PRbTree::create(&h, 0);
            let models = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let tree = &tree;
                        s.spawn(move || {
                            let mut model = BTreeMap::new();
                            let mut x = (seed * THREADS + tid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            for i in 0..OPS {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                let key = ((x >> 8) % KEYS) * THREADS + tid;
                                let (got, want) = match x % 3 {
                                    0 => (tree.insert(key, i), model.insert(key, i)),
                                    1 => (tree.remove(key), model.remove(&key)),
                                    _ => (tree.get(key), model.get(&key).copied()),
                                };
                                if got != want {
                                    return Err(format!("run {seed}: op {} on {key} = {got:?}, not {want:?}", x % 3));
                                }
                            }
                            Ok(model)
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect::<Result<Vec<_>, _>>()
            })?;
            let want: BTreeMap<u64, u64> = models.into_iter().flatten().collect();
            if tree.keys() != want.keys().copied().collect::<Vec<_>>() {
                return Err(format!("run {seed}: the tree's keys differ from the models'"));
            }
            if let Some((k, v)) = want.iter().find(|(k, v)| tree.get(**k) != Some(**v)) {
                return Err(format!("run {seed}: get({k}) != Some({v})"));
            }
            tree.validate();
            // The log holds the same map: a lost or misordered append
            // shows when it is replayed.
            let replayed = PRbTree::attach(&h, 0)?;
            if replayed.keys() != tree.keys() || want.iter().any(|(k, v)| replayed.get(*k) != Some(*v)) {
                return Err(format!("run {seed}: the replayed log differs from the tree"));
            }
            Ok(())
        };
        crate::runs_within_5s("tree", RUNS, run);
    }

    #[test]
    fn survives_crash_and_recovery() {
        let h = heap();
        let t = PRbTree::create(&h, 0);
        for k in 0..150 {
            t.insert(k, k * 10);
        }
        for k in 0..30 {
            t.remove(k);
        }
        h.crash_simulated();
        let stats = h.recover();
        // Anchor + 150 insert records + 30 remove records.
        assert_eq!(stats.reachable_blocks, 181);
        let t = PRbTree::attach(&h, 0).unwrap();
        assert_eq!(t.len(), 120);
        assert_eq!(log_len(&t), 180);
        t.validate();
        for k in 0..150 {
            let expect = (k >= 30).then_some(k * 10);
            assert_eq!(t.get(k), expect);
        }
        // Still operational after recovery.
        t.insert(1, 11);
        assert_eq!(t.get(1), Some(11));
    }

    #[test]
    fn position_independent_across_remap() {
        let h = heap();
        let t = PRbTree::create(&h, 0);
        for k in 0..64 {
            t.insert(k, k ^ 0xFF);
        }
        let image = h.pool().persistent_image();
        drop((t, h));
        let (h2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
        assert!(dirty);
        // Register the root's trace filter before the recovery sweep.
        let _ = h2.get_root::<TreeLogHead>(0);
        h2.recover();
        let t2 = PRbTree::attach(&h2, 0).unwrap();
        assert_eq!(t2.len(), 64);
        assert_eq!(t2.get(9), Some(9 ^ 0xFF));
        t2.validate();
    }
}
