//! A red-black tree over a pluggable allocator — the "relation" structure
//! of the Vacation OLTP workload (paper §6.3; STAMP implements its
//! simulated database as a set of red-black trees).
//!
//! Classic CLRS implementation with an allocated NIL sentinel. The tree
//! is sequential; Vacation wraps each relation in a lock, as the
//! lock-based STAMP port does. What the benchmark measures is the
//! allocator underneath: every insert/remove allocates/frees a node.

use ralloc::PersistentAllocator;

const RED: u8 = 0;
const BLACK: u8 = 1;

#[repr(C)]
struct Node {
    key: u64,
    value: u64,
    /// The left (0) and right (1) children: every rebalancing step has a
    /// mirror image, and one body serves both sides.
    child: [*mut Node; 2],
    parent: *mut Node,
    color: u8,
}

/// A sequential red-black tree of `u64 -> u64` over allocator `A`.
pub struct RbTree<A: PersistentAllocator> {
    alloc: A,
    nil: *mut Node,
    root: *mut Node,
    len: usize,
}

// SAFETY: the tree is externally synchronized (callers lock); raw node
// pointers never escape.
unsafe impl<A: PersistentAllocator> Send for RbTree<A> {}

impl<A: PersistentAllocator> RbTree<A> {
    /// Create an empty tree.
    pub fn new(alloc: A) -> RbTree<A> {
        let nil = alloc.malloc(std::mem::size_of::<Node>()) as *mut Node;
        assert!(!nil.is_null(), "allocator exhausted creating RB sentinel");
        // SAFETY: fresh block.
        unsafe { nil.write(Node { key: 0, value: 0, child: [nil, nil], parent: nil, color: BLACK }) };
        RbTree { alloc, nil, root: nil, len: 0 }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn find(&self, key: u64) -> *mut Node {
        let mut cur = self.root;
        // SAFETY: tree-internal pointers are valid or nil.
        unsafe {
            while cur != self.nil && key != (*cur).key {
                cur = (*cur).child[(key > (*cur).key) as usize];
            }
        }
        cur
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<u64> {
        let n = self.find(key);
        // SAFETY: a found node is live.
        (n != self.nil).then(|| unsafe { (*n).value })
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key) != self.nil
    }

    /// Which child of its parent `n` is: 0 unless it is not the left one.
    ///
    /// # Safety
    /// `n` and its parent are nodes of this tree or `nil`.
    unsafe fn side(&self, n: *mut Node) -> usize {
        // SAFETY: the caller's contract.
        unsafe { ((*(*n).parent).child[0] != n) as usize }
    }

    /// Rotate `x` down to side `d` (0 left, 1 right): its child on the
    /// other side takes its place.
    unsafe fn rotate(&mut self, x: *mut Node, d: usize) {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            let y = (*x).child[1 - d];
            (*x).child[1 - d] = (*y).child[d];
            if (*y).child[d] != self.nil {
                (*(*y).child[d]).parent = x;
            }
            self.transplant(x, y);
            (*y).child[d] = x;
            (*x).parent = y;
        }
    }

    /// Insert or update; returns the previous value if the key existed.
    /// Allocates exactly one node per new key.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        // SAFETY: standard CLRS insertion over tree-internal pointers.
        unsafe {
            let mut parent = self.nil;
            let mut cur = self.root;
            while cur != self.nil {
                parent = cur;
                if key == (*cur).key {
                    let old = (*cur).value;
                    (*cur).value = value;
                    self.alloc.persist(&(*cur).value as *const u64 as *const u8, 8);
                    return Some(old);
                }
                cur = (*cur).child[(key > (*cur).key) as usize];
            }
            let z = self.alloc.malloc(std::mem::size_of::<Node>()) as *mut Node;
            assert!(!z.is_null(), "allocator exhausted in RbTree::insert");
            z.write(Node { key, value, child: [self.nil, self.nil], parent, color: RED });
            self.alloc.persist(z as *const u8, std::mem::size_of::<Node>());
            if parent == self.nil {
                self.root = z;
            } else {
                (*parent).child[(key > (*parent).key) as usize] = z;
            }
            self.len += 1;
            self.insert_fixup(z);
            None
        }
    }

    unsafe fn insert_fixup(&mut self, mut z: *mut Node) {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            while (*(*z).parent).color == RED {
                let gp = (*(*z).parent).parent;
                let d = self.side((*z).parent);
                let uncle = (*gp).child[1 - d];
                if (*uncle).color == RED {
                    (*(*z).parent).color = BLACK;
                    (*uncle).color = BLACK;
                    (*gp).color = RED;
                    z = gp;
                } else {
                    if z == (*(*z).parent).child[1 - d] {
                        z = (*z).parent;
                        self.rotate(z, d);
                    }
                    (*(*z).parent).color = BLACK;
                    (*(*(*z).parent).parent).color = RED;
                    self.rotate((*(*z).parent).parent, 1 - d);
                }
            }
            (*self.root).color = BLACK;
        }
    }

    unsafe fn transplant(&mut self, u: *mut Node, v: *mut Node) {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            if (*u).parent == self.nil {
                self.root = v;
            } else {
                let d = self.side(u);
                (*(*u).parent).child[d] = v;
            }
            (*v).parent = (*u).parent;
        }
    }

    /// Remove a key; returns its value if present. Frees the node.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let z = self.find(key);
        if z == self.nil {
            return None;
        }
        // SAFETY: standard CLRS deletion.
        unsafe {
            let value = (*z).value;
            let [left, right] = (*z).child;
            let mut y = z;
            let mut y_color = (*y).color;
            let x;
            if left == self.nil || right == self.nil {
                x = if left == self.nil { right } else { left };
                self.transplant(z, x);
            } else {
                y = right;
                while (*y).child[0] != self.nil {
                    y = (*y).child[0];
                }
                y_color = (*y).color;
                x = (*y).child[1];
                if (*y).parent == z {
                    (*x).parent = y;
                } else {
                    self.transplant(y, x);
                    (*y).child[1] = right;
                    (*right).parent = y;
                }
                self.transplant(z, y);
                (*y).child[0] = left;
                (*left).parent = y;
                (*y).color = (*z).color;
            }
            if y_color == BLACK {
                self.remove_fixup(x);
            }
            self.alloc.free(z as *mut u8);
            self.len -= 1;
            Some(value)
        }
    }

    unsafe fn remove_fixup(&mut self, mut x: *mut Node) {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            while x != self.root && (*x).color == BLACK {
                let d = self.side(x);
                let mut w = (*(*x).parent).child[1 - d];
                if (*w).color == RED {
                    (*w).color = BLACK;
                    (*(*x).parent).color = RED;
                    self.rotate((*x).parent, d);
                    w = (*(*x).parent).child[1 - d];
                }
                if (*(*w).child[0]).color == BLACK && (*(*w).child[1]).color == BLACK {
                    (*w).color = RED;
                    x = (*x).parent;
                } else {
                    if (*(*w).child[1 - d]).color == BLACK {
                        (*(*w).child[d]).color = BLACK;
                        (*w).color = RED;
                        self.rotate(w, 1 - d);
                        w = (*(*x).parent).child[1 - d];
                    }
                    (*w).color = (*(*x).parent).color;
                    (*(*x).parent).color = BLACK;
                    (*(*w).child[1 - d]).color = BLACK;
                    self.rotate((*x).parent, d);
                    x = self.root;
                }
            }
            (*x).color = BLACK;
        }
    }

    /// In-order key walk (tests).
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = Vec::new();
        let mut cur = self.root;
        // SAFETY: offline traversal.
        unsafe {
            while cur != self.nil || !stack.is_empty() {
                while cur != self.nil {
                    stack.push(cur);
                    cur = (*cur).child[0];
                }
                let n = stack.pop().unwrap();
                out.push((*n).key);
                cur = (*n).child[1];
            }
        }
        out
    }

    /// Check the red-black invariants; panics with a description on
    /// violation. Returns the tree's black height.
    pub fn validate(&self) -> usize {
        // SAFETY: offline traversal.
        unsafe {
            assert_eq!((*self.root).color, BLACK, "root must be black");
            self.validate_node(self.root, u64::MIN, u64::MAX)
        }
    }

    unsafe fn validate_node(&self, n: *mut Node, lo: u64, hi: u64) -> usize {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            if n == self.nil {
                return 1;
            }
            let k = (*n).key;
            let [left, right] = (*n).child;
            assert!(k >= lo && k <= hi, "BST order violated at {k}");
            if (*n).color == RED {
                assert_eq!((*left).color, BLACK, "red-red at {k}");
                assert_eq!((*right).color, BLACK, "red-red at {k}");
            }
            let lh = self.validate_node(left, lo, k.saturating_sub(1));
            let rh = self.validate_node(right, k.saturating_add(1), hi);
            assert_eq!(lh, rh, "black height differs under {k}");
            lh + ((*n).color == BLACK) as usize
        }
    }
}

impl<A: PersistentAllocator> Drop for RbTree<A> {
    fn drop(&mut self) {
        // Free all nodes iteratively (post-order via stack).
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            if n == self.nil {
                continue;
            }
            // SAFETY: exclusive access during drop.
            stack.extend(unsafe { (*n).child });
            self.alloc.free(n as *mut u8);
        }
        self.alloc.free(self.nil as *mut u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::SystemAlloc;
    use ralloc::{Ralloc, RallocConfig};
    use rand::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut t = RbTree::new(SystemAlloc::new());
        assert_eq!(t.get(5), None);
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.remove(5), Some(51));
        assert_eq!(t.remove(5), None);
        assert!(t.is_empty());
    }

    #[test]
    fn sorted_iteration() {
        let mut t = RbTree::new(SystemAlloc::new());
        let mut keys: Vec<u64> = (0..500).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(7));
        for &k in &keys {
            t.insert(k, k * 2);
        }
        assert_eq!(t.keys(), (0..500).collect::<Vec<_>>());
        t.validate();
    }

    #[test]
    fn invariants_under_random_ops() {
        let mut t = RbTree::new(SystemAlloc::new());
        let mut model = std::collections::BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5000 {
            let k = rng.gen_range(0..600u64);
            if rng.gen_bool(0.6) {
                assert_eq!(t.insert(k, k), model.insert(k, k));
            } else {
                assert_eq!(t.remove(k), model.remove(&k));
            }
        }
        t.validate();
        assert_eq!(t.len(), model.len());
        assert_eq!(t.keys(), model.keys().copied().collect::<Vec<_>>());
    }

    #[test]
    fn works_over_ralloc() {
        let mut t = RbTree::new(Ralloc::create(8 << 20, RallocConfig::default()));
        for k in 0..2000u64 {
            t.insert(k.wrapping_mul(2654435761) % 10000, k);
        }
        t.validate();
        // Churn: delete and reinsert.
        let keys = t.keys();
        for &k in keys.iter().step_by(2) {
            t.remove(k);
        }
        t.validate();
        for &k in keys.iter().step_by(2) {
            t.insert(k, 1);
        }
        t.validate();
        assert_eq!(t.keys(), keys);
    }
}
