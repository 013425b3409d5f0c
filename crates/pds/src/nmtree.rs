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
//! * child edges are [`Link<48>`]s, a superblock-region offset with the
//!   edge's marks in the tag, so the whole structure is
//!   position-independent and a [`ralloc::Trace`] filter can enumerate
//!   children precisely (the marks are not part of the target — exactly
//!   the pointer-tagging problem filter functions were invented for,
//!   paper §4.5.1);
//! * unlinked nodes go to a retire list and return to the allocator only
//!   at [`NmTree::quiesce`], the "limbo list layered above free" the
//!   paper describes (§3, §5.2): a crash simply loses the transient
//!   retire list and GC reclaims its nodes.
//!
//! Durable linearizability: nodes are persisted where they are written,
//! and every edge CAS goes through the crate's persist-before-publish
//! `cas_link`, which asserts an insert's two fresh nodes durable and
//! persists the edge it swung (flags included); a tag, which a helper may
//! have set, is persisted with `persist_link`. That gives the
//! buffered-durable behaviour the paper's model permits.

use parking_lot::Mutex;
use ralloc::{AtomicLink, Link, PersistentAllocator, Ralloc, Trace, Tracer};

use crate::{block, cas_link, fresh, offset, persist_link};

/// Edge marks, in a link's tag.
const FLAG: u64 = 1;
const TAG: u64 = 2;

/// Keys must be below this; two infinity sentinels sit above.
pub const MAX_KEY: u64 = u64::MAX - 2;
const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

/// Tree node; leaves have both child edges empty. `key` and `value` are
/// stored before the edge CAS that publishes the node, and a node is freed
/// only at [`NmTree::quiesce`]: no store races a read of a reached node.
#[repr(C)]
pub struct NmNode {
    key: u64,
    value: u64,
    left: AtomicLink<48>,
    right: AtomicLink<48>,
}

// SAFETY: `left` and `right` are a node's only links.
unsafe impl Trace for NmNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        for edge in [&self.left, &self.right] {
            t.visit_link::<NmNode>(edge.load());
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
    /// `heap.region_base()`, read once: the base of every link.
    base: usize,
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
            (*n).left = AtomicLink::new(Link::NONE);
            (*n).right = AtomicLink::new(Link::NONE);
        }
        n
    }

    /// An unmarked edge to `n`.
    #[inline]
    fn edge(&self, n: *mut NmNode) -> Link<48> {
        Link::new(offset(self.base, n), 0)
    }

    fn persist_node(&self, n: *mut NmNode) {
        self.heap.persist(n as *const u8, std::mem::size_of::<NmNode>());
    }

    /// Create a fresh tree registered at root slot `root`.
    pub fn create(heap: &Ralloc, root: usize) -> NmTree {
        let r = Self::alloc_node(heap, INF2, 0);
        let s = Self::alloc_node(heap, INF1, 0);
        let leaf_inf1 = Self::alloc_node(heap, INF1, 0);
        let leaf_inf2a = Self::alloc_node(heap, INF2, 0);
        let leaf_inf2b = Self::alloc_node(heap, INF2, 0);
        let tree = NmTree { heap: heap.clone(), base: heap.region_base(), r, s, retired: Mutex::new(Vec::new()) };
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            (*s).left.store(tree.edge(leaf_inf1));
            (*s).right.store(tree.edge(leaf_inf2a));
            (*r).left.store(tree.edge(s));
            (*r).right.store(tree.edge(leaf_inf2b));
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
        let base = heap.region_base();
        // S is R's left child by construction.
        // SAFETY: R is live.
        let s = block(base, unsafe { (*r).left.load() }).expect("R links S");
        Some(NmTree { heap: heap.clone(), base, r, s, retired: Mutex::new(Vec::new()) })
    }

    #[inline]
    fn is_leaf(&self, n: *mut NmNode) -> bool {
        // SAFETY: tree nodes stay mapped for the heap's lifetime.
        unsafe {
            (*n).left.load().target().is_none() && (*n).right.load().target().is_none()
        }
    }

    #[inline]
    fn child_edge(&self, n: *mut NmNode, key: u64) -> &AtomicLink<48> {
        // SAFETY: a reached node is unchanged until quiesce (see `NmNode`).
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
            let mut parent_field = self.child_edge(self.s, key).load();
            rec.leaf = block(self.base, parent_field).expect("S has children");
            // Probe below: empty iff rec.leaf is an actual leaf.
            let mut current_field = self.child_edge(rec.leaf, key).load();
            while let Some(current) = block(self.base, current_field) {
                // The (ancestor, successor) pair tracks the deepest edge
                // into the path that is not tagged for removal.
                if parent_field.tag() & TAG == 0 {
                    rec.ancestor = rec.parent;
                    rec.successor = rec.leaf;
                }
                rec.parent = rec.leaf;
                rec.leaf = current;
                parent_field = current_field;
                current_field = self.child_edge(rec.leaf, key).load();
            }
            rec
        }
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let rec = self.seek(key);
        // SAFETY: a reached node is unchanged until quiesce (see `NmNode`).
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
            // SAFETY: a reached node is unchanged until quiesce (see `NmNode`).
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
                let (lkey, l, r) = if key < leaf_key {
                    (leaf_key, new_leaf, rec.leaf)
                } else {
                    (key, rec.leaf, new_leaf)
                };
                (*new_internal).key = lkey;
                (*new_internal).left.store(self.edge(l));
                (*new_internal).right.store(self.edge(r));
            }
            self.persist_node(new_leaf);
            self.persist_node(new_internal);
            let edge = self.child_edge(rec.parent, key);
            let expected = self.edge(rec.leaf);
            let published = [fresh(new_leaf), fresh(new_internal)];
            match cas_link(&self.heap, edge, expected, self.edge(new_internal), &published) {
                Ok(_) => return true,
                Err(actual) => {
                    // Help an in-flight deletion at this edge, then retry.
                    if actual.target() == expected.target() && actual.tag() != 0 {
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
                // SAFETY: a reached node is unchanged until quiesce (see `NmNode`).
                unsafe {
                    if (*rec.leaf).key != key {
                        return None;
                    }
                    value = (*rec.leaf).value;
                }
                let edge = self.child_edge(rec.parent, key);
                let expected = self.edge(rec.leaf);
                match cas_link(&self.heap, edge, expected, Link::new(expected.target(), FLAG), &[]) {
                    Ok(_) => {
                        injected = true;
                        victim = rec.leaf;
                        if self.cleanup(key, &rec) {
                            return Some(value);
                        }
                    }
                    Err(actual) => {
                        if actual.target() == expected.target() && actual.tag() != 0 {
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
        // SAFETY: a reached node is unchanged until quiesce (see `NmNode`).
        let (child_edge, sibling_edge) = unsafe {
            if key < (*rec.parent).key {
                (&(*rec.parent).left, &(*rec.parent).right)
            } else {
                (&(*rec.parent).right, &(*rec.parent).left)
            }
        };
        let child_word = child_edge.load();
        // Normally the key-side edge carries the flag; when helping a
        // deletion injected on the *other* side, the survivor is the
        // key-side child instead.
        let (sib_edge, mut sib_word) = if child_word.tag() & FLAG != 0 {
            (sibling_edge, sibling_edge.load())
        } else {
            (child_edge, child_word)
        };
        // Tag the sibling edge: a tagged edge can no longer be the target
        // of an insert or a flag, freezing its value.
        while sib_word.tag() & TAG == 0 {
            let tagged = Link::new(sib_word.target(), sib_word.tag() | TAG);
            match sib_edge.compare_exchange(sib_word, tagged) {
                Ok(_) => sib_word = tagged,
                Err(w) => sib_word = w,
            }
        }
        // Another thread may have tagged it.
        persist_link(&self.heap, sib_edge);
        // Swing the ancestor edge from the successor to the surviving
        // sibling, dropping the tag but preserving any flag the sibling
        // itself carries (its own deletion will be completed later).
        let expected = self.edge(rec.successor);
        let new_word = Link::new(sib_word.target(), sib_word.tag() & FLAG);
        match cas_link(&self.heap, ancestor_edge, expected, new_word, &[]) {
            Ok(_) => {
                // Exactly one thread wins this CAS; it retires the dead
                // parent and the flagged victim leaf.
                let victim_word = if std::ptr::eq(sib_edge, child_edge) { sibling_edge } else { child_edge }.load();
                let mut retired = self.retired.lock();
                retired.push(rec.parent as usize);
                if let Some(victim) = block::<NmNode>(self.base, victim_word) {
                    if victim_word.tag() & FLAG != 0 {
                        retired.push(victim as usize);
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
                if let Some(child) = block(self.base, edge.load()) {
                    self.walk(child, out);
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

    /// Every thread inserts and removes on one tree, so flags, tags and
    /// the ancestor swing of one thread's removal race other threads'
    /// inserts and removals on neighbouring edges. Each thread owns its
    /// keys (`tid << 32 | k`), so a per-thread model predicts every result
    /// and the final contents. A lost edge update drops or resurrects a
    /// key, or loops a seek forever: the runs go on a thread of their own,
    /// and the test fails if they have not reported in 5 s.
    #[test]
    fn mixed_operations_on_every_thread_match_per_thread_models() {
        use std::collections::BTreeMap;
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        const KEYS: u64 = 256;
        // A run under ThreadSanitizer takes about ten times as long.
        const RUNS: u64 = if cfg!(tsan) { 2 } else { 8 };
        let run = |seed: u64| -> Result<(), String> {
            let h = Ralloc::create(64 << 20, RallocConfig::default());
            let tree = NmTree::create(&h, 0);
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
                                let key = (tid << 32) | ((x >> 8) % KEYS);
                                if x & 1 == 0 {
                                    let fresh = !model.contains_key(&key);
                                    if tree.insert(key, i) != fresh {
                                        return Err(format!("run {seed}: insert({key:#x}) != {fresh}"));
                                    }
                                    model.entry(key).or_insert(i);
                                } else {
                                    let want = model.remove(&key);
                                    let got = tree.remove(key);
                                    if got != want {
                                        return Err(format!("run {seed}: remove({key:#x}) = {got:?}, not {want:?}"));
                                    }
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
                return Err(format!("run {seed}: get({k:#x}) != Some({v})"));
            }
            tree.quiesce();
            Ok(())
        };
        crate::runs_within_5s("tree", RUNS, run);
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
