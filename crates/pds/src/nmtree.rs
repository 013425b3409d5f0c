//! The lock-free external binary search tree of Natarajan & Mittal
//! (PPoPP'14), used by the paper's second recovery experiment (Fig. 6b).
//!
//! The tree is *external*: internal nodes route, leaves carry key/value
//! pairs. Deletion marks **edges** rather than nodes: the edge to the
//! victim leaf is *flagged*, the edge to its sibling is *tagged*, and the
//! grandparent edge is swung over the sibling with a single CAS. Helping
//! makes every operation lock-free.
//!
//! Persistence/recoverability adaptations (this crate):
//!
//! * child edges store `(superblock-region offset + 1) << 2 | marks`, so
//!   the whole structure is position-independent and a [`ralloc::Trace`]
//!   filter can enumerate children precisely (mark bits are masked off —
//!   exactly the pointer-tagging problem filter functions were invented
//!   for, paper §4.5.1);
//! * unlinked nodes go to a retire list and return to the allocator only
//!   at [`NmTree::quiesce`], the "limbo list layered above free" the
//!   paper describes (§3, §5.2): a crash simply loses the transient
//!   retire list and GC reclaims its nodes.
//!
//! Durable linearizability: nodes are persisted before publication and
//! every successful edge CAS is followed by a persist of that edge
//! (flag/tag CASes included), giving the buffered-durable behaviour the
//! paper's model permits.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use ralloc::{PersistentAllocator, Ralloc, Trace, Tracer};

const FLAG: u64 = 1;
const TAG: u64 = 2;
const MARKS: u64 = 3;

/// Keys must be below this; two infinity sentinels sit above.
pub const MAX_KEY: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

#[inline]
fn edge_pack(off1: u64, marks: u64) -> u64 {
    (off1 << 2) | marks
}

#[inline]
fn edge_off1(word: u64) -> u64 {
    word >> 2
}

#[inline]
fn edge_marks(word: u64) -> u64 {
    word & MARKS
}

/// Tree node; leaves have both child edges zero.
#[repr(C)]
pub struct NmNode {
    key: u64,
    value: u64,
    left: AtomicU64,
    right: AtomicU64,
}

// SAFETY: `left` and `right` are a node's only links.
unsafe impl Trace for NmNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        for edge in [&self.left, &self.right] {
            let w = edge.load(Ordering::Relaxed);
            if let Some(off) = edge_off1(w).checked_sub(1) {
                t.visit_region_offset::<NmNode>(off);
            }
        }
    }
}

struct SeekRecord {
    ancestor: *mut NmNode,
    successor: *mut NmNode,
    parent: *mut NmNode,
    leaf: *mut NmNode,
}

/// A recoverable lock-free external BST of `u64 -> u64` on a Ralloc heap.
pub struct NmTree {
    heap: Ralloc,
    /// Root sentinel R (key INF2); registered as a persistent root.
    r: *mut NmNode,
    /// Sentinel S (key INF1), R's left child.
    s: *mut NmNode,
    /// Unlinked nodes awaiting a quiescent point.
    retired: Mutex<Vec<usize>>,
}

// SAFETY: shared mutation is via atomics; the retire list is locked.
unsafe impl Send for NmTree {}
// SAFETY: as above.
unsafe impl Sync for NmTree {}

impl NmTree {
    fn alloc_node(heap: &Ralloc, key: u64, value: u64) -> *mut NmNode {
        let n = heap.malloc(std::mem::size_of::<NmNode>()) as *mut NmNode;
        assert!(!n.is_null(), "heap exhausted in NmTree");
        // SAFETY: fresh block.
        unsafe {
            (*n).key = key;
            (*n).value = value;
            (*n).left = AtomicU64::new(0);
            (*n).right = AtomicU64::new(0);
        }
        n
    }

    #[inline]
    fn off1(&self, node: *mut NmNode) -> u64 {
        (node as usize - self.heap.region_base()) as u64 + 1
    }

    #[inline]
    fn node(&self, off1: u64) -> *mut NmNode {
        debug_assert_ne!(off1, 0);
        (self.heap.region_base() + (off1 - 1) as usize) as *mut NmNode
    }

    fn persist_node(&self, n: *mut NmNode) {
        self.heap.persist(n as *const u8, std::mem::size_of::<NmNode>());
    }

    fn persist_edge(&self, e: &AtomicU64) {
        self.heap.persist(e as *const AtomicU64 as *const u8, 8);
    }

    /// Create a fresh tree registered at root slot `root`.
    pub fn create(heap: &Ralloc, root: usize) -> NmTree {
        let r = Self::alloc_node(heap, INF2, 0);
        let s = Self::alloc_node(heap, INF1, 0);
        let leaf_inf1 = Self::alloc_node(heap, INF1, 0);
        let leaf_inf2a = Self::alloc_node(heap, INF2, 0);
        let leaf_inf2b = Self::alloc_node(heap, INF2, 0);
        let tree = NmTree { heap: heap.clone(), r, s, retired: Mutex::new(Vec::new()) };
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            (*s).left.store(edge_pack(tree.off1(leaf_inf1), 0), Ordering::Relaxed);
            (*s).right.store(edge_pack(tree.off1(leaf_inf2a), 0), Ordering::Relaxed);
            (*r).left.store(edge_pack(tree.off1(s), 0), Ordering::Relaxed);
            (*r).right.store(edge_pack(tree.off1(leaf_inf2b), 0), Ordering::Relaxed);
        }
        for n in [leaf_inf1, leaf_inf2a, leaf_inf2b, s, r] {
            tree.persist_node(n);
        }
        heap.set_root::<NmNode>(root, r);
        tree
    }

    /// Re-attach to a tree persisted at `root` (clean restart or after
    /// recovery); registers the filter function.
    pub fn attach(heap: &Ralloc, root: usize) -> Option<NmTree> {
        let r = heap.get_root::<NmNode>(root);
        if r.is_null() {
            return None;
        }
        let tree = NmTree {
            heap: heap.clone(),
            r,
            s: std::ptr::null_mut(),
            retired: Mutex::new(Vec::new()),
        };
        // S is R's left child by construction.
        // SAFETY: R is live.
        let s_off1 = edge_off1(unsafe { (*r).left.load(Ordering::Acquire) });
        let s = tree.node(s_off1);
        Some(NmTree { s, ..tree })
    }

    #[inline]
    fn is_leaf(&self, n: *mut NmNode) -> bool {
        // SAFETY: tree nodes stay mapped for the heap's lifetime.
        unsafe {
            edge_off1((*n).left.load(Ordering::Acquire)) == 0
                && edge_off1((*n).right.load(Ordering::Acquire)) == 0
        }
    }

    #[inline]
    fn child_edge(&self, n: *mut NmNode, key: u64) -> &AtomicU64 {
        // SAFETY: node is live.
        unsafe {
            if key < (*n).key {
                &(*n).left
            } else {
                &(*n).right
            }
        }
    }

    /// The paper's `seek`: returns the terminal leaf for `key`, its
    /// parent, and the deepest *untagged* edge (ancestor → successor)
    /// above it, which is where a physical removal must swing.
    fn seek(&self, key: u64) -> SeekRecord {
        // Sentinel structure is immortal; interior nodes stay mapped
        // until quiesce, which requires external quiescence.
        {
            let mut rec = SeekRecord {
                ancestor: self.r,
                successor: self.s,
                parent: self.s,
                leaf: std::ptr::null_mut(),
            };
            // Edge parent(S) -> first node on the search path.
            let mut parent_field = self.child_edge(self.s, key).load(Ordering::Acquire);
            rec.leaf = self.node(edge_off1(parent_field));
            // Probe below: zero iff rec.leaf is an actual leaf.
            let mut current_field = self.child_edge(rec.leaf, key).load(Ordering::Acquire);
            let mut current = edge_off1(current_field);
            while current != 0 {
                // The (ancestor, successor) pair tracks the deepest edge
                // into the path that is not tagged for removal.
                if edge_marks(parent_field) & TAG == 0 {
                    rec.ancestor = rec.parent;
                    rec.successor = rec.leaf;
                }
                rec.parent = rec.leaf;
                rec.leaf = self.node(current);
                parent_field = current_field;
                current_field = self.child_edge(rec.leaf, key).load(Ordering::Acquire);
                current = edge_off1(current_field);
            }
            rec
        }
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let rec = self.seek(key);
        // SAFETY: leaf stays mapped.
        unsafe {
            if (*rec.leaf).key == key {
                Some((*rec.leaf).value)
            } else {
                None
            }
        }
    }

    /// Insert `key -> value`; false if the key already exists.
    pub fn insert(&self, key: u64, value: u64) -> bool {
        assert!(key <= MAX_KEY);
        let mut new_leaf: *mut NmNode = std::ptr::null_mut();
        let mut new_internal: *mut NmNode = std::ptr::null_mut();
        loop {
            let rec = self.seek(key);
            // SAFETY: leaf stays mapped.
            let leaf_key = unsafe { (*rec.leaf).key };
            if leaf_key == key {
                if !new_leaf.is_null() {
                    self.heap.free(new_leaf as *mut u8);
                    self.heap.free(new_internal as *mut u8);
                }
                return false;
            }
            if new_leaf.is_null() {
                new_leaf = Self::alloc_node(&self.heap, key, value);
                new_internal = Self::alloc_node(&self.heap, 0, 0);
            }
            // Order the two leaves under the new internal node.
            // SAFETY: we own new_internal until the CAS publishes it.
            unsafe {
                let (lkey, l_off1, r_off1) = if key < leaf_key {
                    (leaf_key, self.off1(new_leaf), self.off1(rec.leaf))
                } else {
                    (key, self.off1(rec.leaf), self.off1(new_leaf))
                };
                (*new_internal).key = lkey;
                (*new_internal).left.store(edge_pack(l_off1, 0), Ordering::Relaxed);
                (*new_internal).right.store(edge_pack(r_off1, 0), Ordering::Relaxed);
            }
            self.persist_node(new_leaf);
            self.persist_node(new_internal);
            let edge = self.child_edge(rec.parent, key);
            let expected = edge_pack(self.off1(rec.leaf), 0);
            match edge.compare_exchange(
                expected,
                edge_pack(self.off1(new_internal), 0),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.persist_edge(edge);
                    return true;
                }
                Err(actual) => {
                    // Help an in-flight deletion at this edge, then retry.
                    if edge_off1(actual) == self.off1(rec.leaf)
                        && edge_marks(actual) != 0
                    {
                        self.cleanup(key, &rec);
                    }
                }
            }
        }
    }

    /// Remove a key; returns its value if it was present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let mut injected = false;
        let mut victim: *mut NmNode = std::ptr::null_mut();
        let mut value = 0u64;
        loop {
            let rec = self.seek(key);
            if !injected {
                // SAFETY: leaf stays mapped.
                unsafe {
                    if (*rec.leaf).key != key {
                        return None;
                    }
                    value = (*rec.leaf).value;
                }
                let edge = self.child_edge(rec.parent, key);
                let expected = edge_pack(self.off1(rec.leaf), 0);
                match edge.compare_exchange(
                    expected,
                    edge_pack(self.off1(rec.leaf), FLAG),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.persist_edge(edge);
                        injected = true;
                        victim = rec.leaf;
                        if self.cleanup(key, &rec) {
                            return Some(value);
                        }
                    }
                    Err(actual) => {
                        if edge_off1(actual) == self.off1(rec.leaf) && edge_marks(actual) != 0 {
                            self.cleanup(key, &rec);
                        }
                    }
                }
            } else {
                if rec.leaf != victim {
                    // Someone helped finish our removal.
                    return Some(value);
                }
                if self.cleanup(key, &rec) {
                    return Some(value);
                }
            }
        }
    }

    /// Physically remove the flagged leaf recorded in `rec` (the paper's
    /// `cleanup`): tag the sibling edge to freeze it, then swing the
    /// ancestor edge over the surviving sibling with one CAS.
    fn cleanup(&self, key: u64, rec: &SeekRecord) -> bool {
        let ancestor_edge = self.child_edge(rec.ancestor, key);
        // SAFETY: parent stays mapped (retire-until-quiesce discipline).
        let (child_edge, sibling_edge) = unsafe {
            if key < (*rec.parent).key {
                (&(*rec.parent).left, &(*rec.parent).right)
            } else {
                (&(*rec.parent).right, &(*rec.parent).left)
            }
        };
        let child_word = child_edge.load(Ordering::Acquire);
        // Normally the key-side edge carries the flag; when helping a
        // deletion injected on the *other* side, the survivor is the
        // key-side child instead.
        let (sib_edge, mut sib_word) = if edge_marks(child_word) & FLAG != 0 {
            (sibling_edge, sibling_edge.load(Ordering::Acquire))
        } else {
            (child_edge, child_word)
        };
        // Tag the sibling edge: a tagged edge can no longer be the target
        // of an insert or a flag, freezing its value.
        loop {
            if edge_marks(sib_word) & TAG != 0 {
                break;
            }
            match sib_edge.compare_exchange_weak(
                sib_word,
                sib_word | TAG,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    sib_word |= TAG;
                    break;
                }
                Err(w) => sib_word = w,
            }
        }
        self.persist_edge(sib_edge);
        // Swing the ancestor edge from the successor to the surviving
        // sibling, dropping the tag but preserving any flag the sibling
        // itself carries (its own deletion will be completed later).
        let expected = edge_pack(self.off1(rec.successor), 0);
        let new_word = edge_pack(edge_off1(sib_word), edge_marks(sib_word) & FLAG);
        match ancestor_edge.compare_exchange(expected, new_word, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                self.persist_edge(ancestor_edge);
                // Exactly one thread wins this CAS; it retires the dead
                // parent and the flagged victim leaf.
                let victim_word = if std::ptr::eq(sib_edge, child_edge) {
                    sibling_edge.load(Ordering::Acquire)
                } else {
                    child_edge.load(Ordering::Acquire)
                };
                let mut retired = self.retired.lock();
                retired.push(rec.parent as usize);
                if let Some(off) = edge_off1(victim_word).checked_sub(1) {
                    if edge_marks(victim_word) & FLAG != 0 {
                        retired.push(self.node(off + 1) as usize);
                    }
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Return retired nodes to the allocator. Caller must guarantee no
    /// concurrent operations (the paper's quiescent-interval reclamation,
    /// §3). Returns how many nodes were freed.
    pub fn quiesce(&self) -> usize {
        let mut retired = self.retired.lock();
        let n = retired.len();
        for addr in retired.drain(..) {
            self.heap.free(addr as *mut u8);
        }
        n
    }

    /// In-order keys (offline use: tests and verification).
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.walk(self.r, &mut out);
        out
    }

    fn walk(&self, n: *mut NmNode, out: &mut Vec<u64>) {
        if self.is_leaf(n) {
            // SAFETY: offline traversal.
            let key = unsafe { (*n).key };
            if key <= MAX_KEY {
                out.push(key);
            }
            return;
        }
        // SAFETY: offline traversal.
        unsafe {
            for edge in [&(*n).left, &(*n).right] {
                let w = edge.load(Ordering::Relaxed);
                if let Some(off) = edge_off1(w).checked_sub(1) {
                    self.walk(self.node(off + 1), out);
                }
            }
        }
    }

    /// Number of live keys (O(n), offline use).
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// True if no real keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ralloc::RallocConfig;

    fn heap() -> Ralloc {
        Ralloc::create(32 << 20, RallocConfig::tracked())
    }

    #[test]
    fn insert_get_remove() {
        let h = heap();
        let t = NmTree::create(&h, 0);
        assert_eq!(t.get(10), None);
        assert!(t.insert(10, 100));
        assert!(!t.insert(10, 101), "duplicate insert must fail");
        assert_eq!(t.get(10), Some(100));
        assert_eq!(t.remove(10), Some(100));
        assert_eq!(t.remove(10), None);
        assert_eq!(t.get(10), None);
    }

    #[test]
    fn ordered_iteration() {
        let h = heap();
        let t = NmTree::create(&h, 0);
        for k in [5u64, 3, 9, 1, 7, 2, 8] {
            assert!(t.insert(k, k * 10));
        }
        assert_eq!(t.keys(), vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn random_ops_match_model() {
        use rand::prelude::*;
        let h = heap();
        let t = NmTree::create(&h, 0);
        let mut model = std::collections::BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4000 {
            let k = rng.gen_range(0..500u64);
            if rng.gen_bool(0.6) {
                assert_eq!(t.insert(k, k), !model.contains_key(&k));
                model.entry(k).or_insert(k);
            } else {
                assert_eq!(t.remove(k), model.remove(&k));
            }
        }
        assert_eq!(t.keys(), model.keys().copied().collect::<Vec<_>>());
        t.quiesce();
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let t = NmTree::create(&h, 0);
        let n_threads = 8u64;
        let per = 2000u64;
        std::thread::scope(|s| {
            for tid in 0..n_threads {
                let t = &t;
                s.spawn(move || {
                    for i in 0..per {
                        assert!(t.insert(tid * per + i, i));
                    }
                });
            }
        });
        assert_eq!(t.keys(), (0..n_threads * per).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mixed_ops_conserve_keys() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let t = NmTree::create(&h, 0);
        // Pre-populate evens; threads insert odds and delete evens.
        for k in (0..8000u64).step_by(2) {
            t.insert(k, k);
        }
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let k = tid * 2000 + i * 2;
                        assert_eq!(t.remove(k), Some(k), "evens deleted exactly once");
                        assert!(t.insert(k + 1, k), "odds inserted exactly once");
                    }
                });
            }
        });
        let keys = t.keys();
        assert_eq!(keys, (0..8000u64).filter(|k| k % 2 == 1).collect::<Vec<_>>());
        t.quiesce();
    }

    #[test]
    fn survives_crash_and_recovery() {
        let h = heap();
        let t = NmTree::create(&h, 0);
        for k in 0..300u64 {
            t.insert(k * 3, k);
        }
        h.crash_simulated();
        let stats = h.recover();
        // 300 data leaves + 300 internals + 5 sentinel nodes.
        assert_eq!(stats.reachable_blocks, 605);
        let t = NmTree::attach(&h, 0).unwrap();
        assert_eq!(t.len(), 300);
        for k in 0..300u64 {
            assert_eq!(t.get(k * 3), Some(k));
        }
        // Still operational after recovery.
        assert!(t.insert(1_000_000, 1));
        assert_eq!(t.remove(1_000_000), Some(1));
    }

    #[test]
    fn removed_keys_stay_removed_across_crash() {
        let h = heap();
        let t = NmTree::create(&h, 0);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        for k in 0..50u64 {
            assert_eq!(t.remove(k), Some(k));
        }
        h.crash_simulated();
        h.recover();
        let t = NmTree::attach(&h, 0).unwrap();
        assert_eq!(t.keys(), (50..100).collect::<Vec<_>>());
        // Retired-but-unfreed nodes from before the crash were garbage
        // collected; the heap can reuse them.
        for _ in 0..100 {
            assert!(!h.malloc(32).is_null());
        }
    }
}
