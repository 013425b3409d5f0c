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
    left: *mut Node,
    right: *mut Node,
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
        unsafe {
            (*nil).color = BLACK;
            (*nil).left = nil;
            (*nil).right = nil;
            (*nil).parent = nil;
            (*nil).key = 0;
            (*nil).value = 0;
        }
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
            while cur != self.nil {
                if key == (*cur).key {
                    return cur;
                }
                cur = if key < (*cur).key { (*cur).left } else { (*cur).right };
            }
        }
        self.nil
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<u64> {
        let n = self.find(key);
        if n == self.nil {
            None
        } else {
            // SAFETY: found node is live.
            Some(unsafe { (*n).value })
        }
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key) != self.nil
    }

    unsafe fn rotate_left(&mut self, x: *mut Node) {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            let y = (*x).right;
            (*x).right = (*y).left;
            if (*y).left != self.nil {
                (*(*y).left).parent = x;
            }
            (*y).parent = (*x).parent;
            if (*x).parent == self.nil {
                self.root = y;
            } else if x == (*(*x).parent).left {
                (*(*x).parent).left = y;
            } else {
                (*(*x).parent).right = y;
            }
            (*y).left = x;
            (*x).parent = y;
        }
    }

    unsafe fn rotate_right(&mut self, x: *mut Node) {
        // SAFETY: the caller passes nodes of this tree or `nil`, all
        // allocated while the tree lives.
        unsafe {
            let y = (*x).left;
            (*x).left = (*y).right;
            if (*y).right != self.nil {
                (*(*y).right).parent = x;
            }
            (*y).parent = (*x).parent;
            if (*x).parent == self.nil {
                self.root = y;
            } else if x == (*(*x).parent).right {
                (*(*x).parent).right = y;
            } else {
                (*(*x).parent).left = y;
            }
            (*y).right = x;
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
                cur = if key < (*cur).key { (*cur).left } else { (*cur).right };
            }
            let z = self.alloc.malloc(std::mem::size_of::<Node>()) as *mut Node;
            assert!(!z.is_null(), "allocator exhausted in RbTree::insert");
            (*z).key = key;
            (*z).value = value;
            (*z).left = self.nil;
            (*z).right = self.nil;
            (*z).parent = parent;
            (*z).color = RED;
            self.alloc.persist(z as *const u8, std::mem::size_of::<Node>());
            if parent == self.nil {
                self.root = z;
            } else if key < (*parent).key {
                (*parent).left = z;
            } else {
                (*parent).right = z;
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
                if (*z).parent == (*gp).left {
                    let uncle = (*gp).right;
                    if (*uncle).color == RED {
                        (*(*z).parent).color = BLACK;
                        (*uncle).color = BLACK;
                        (*gp).color = RED;
                        z = gp;
                    } else {
                        if z == (*(*z).parent).right {
                            z = (*z).parent;
                            self.rotate_left(z);
                        }
                        (*(*z).parent).color = BLACK;
                        (*(*(*z).parent).parent).color = RED;
                        self.rotate_right((*(*z).parent).parent);
                    }
                } else {
                    let uncle = (*gp).left;
                    if (*uncle).color == RED {
                        (*(*z).parent).color = BLACK;
                        (*uncle).color = BLACK;
                        (*gp).color = RED;
                        z = gp;
                    } else {
                        if z == (*(*z).parent).left {
                            z = (*z).parent;
                            self.rotate_right(z);
                        }
                        (*(*z).parent).color = BLACK;
                        (*(*(*z).parent).parent).color = RED;
                        self.rotate_left((*(*z).parent).parent);
                    }
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
            } else if u == (*(*u).parent).left {
                (*(*u).parent).left = v;
            } else {
                (*(*u).parent).right = v;
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
            let mut y = z;
            let mut y_color = (*y).color;
            let x;
            if (*z).left == self.nil {
                x = (*z).right;
                self.transplant(z, (*z).right);
            } else if (*z).right == self.nil {
                x = (*z).left;
                self.transplant(z, (*z).left);
            } else {
                y = (*z).right;
                while (*y).left != self.nil {
                    y = (*y).left;
                }
                y_color = (*y).color;
                x = (*y).right;
                if (*y).parent == z {
                    (*x).parent = y;
                } else {
                    self.transplant(y, (*y).right);
                    (*y).right = (*z).right;
                    (*(*y).right).parent = y;
                }
                self.transplant(z, y);
                (*y).left = (*z).left;
                (*(*y).left).parent = y;
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
                if x == (*(*x).parent).left {
                    let mut w = (*(*x).parent).right;
                    if (*w).color == RED {
                        (*w).color = BLACK;
                        (*(*x).parent).color = RED;
                        self.rotate_left((*x).parent);
                        w = (*(*x).parent).right;
                    }
                    if (*(*w).left).color == BLACK && (*(*w).right).color == BLACK {
                        (*w).color = RED;
                        x = (*x).parent;
                    } else {
                        if (*(*w).right).color == BLACK {
                            (*(*w).left).color = BLACK;
                            (*w).color = RED;
                            self.rotate_right(w);
                            w = (*(*x).parent).right;
                        }
                        (*w).color = (*(*x).parent).color;
                        (*(*x).parent).color = BLACK;
                        (*(*w).right).color = BLACK;
                        self.rotate_left((*x).parent);
                        x = self.root;
                    }
                } else {
                    let mut w = (*(*x).parent).left;
                    if (*w).color == RED {
                        (*w).color = BLACK;
                        (*(*x).parent).color = RED;
                        self.rotate_right((*x).parent);
                        w = (*(*x).parent).left;
                    }
                    if (*(*w).right).color == BLACK && (*(*w).left).color == BLACK {
                        (*w).color = RED;
                        x = (*x).parent;
                    } else {
                        if (*(*w).left).color == BLACK {
                            (*(*w).right).color = BLACK;
                            (*w).color = RED;
                            self.rotate_left(w);
                            w = (*(*x).parent).left;
                        }
                        (*w).color = (*(*x).parent).color;
                        (*(*x).parent).color = BLACK;
                        (*(*w).left).color = BLACK;
                        self.rotate_right((*x).parent);
                        x = self.root;
                    }
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
                    cur = (*cur).left;
                }
                let n = stack.pop().unwrap();
                out.push((*n).key);
                cur = (*n).right;
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
            assert!(k >= lo && k <= hi, "BST order violated at {k}");
            if (*n).color == RED {
                assert_eq!((*(*n).left).color, BLACK, "red-red at {k}");
                assert_eq!((*(*n).right).color, BLACK, "red-red at {k}");
            }
            let lh = self.validate_node((*n).left, lo, k.saturating_sub(1));
            let rh = self.validate_node((*n).right, k.saturating_add(1), hi);
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
            unsafe {
                stack.push((*n).left);
                stack.push((*n).right);
            }
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
