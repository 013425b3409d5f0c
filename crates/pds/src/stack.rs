//! A recoverable Treiber stack (paper §6.4, Figure 6a).
//!
//! The stack is a lock-free LIFO whose head cell and nodes all live in a
//! Ralloc heap. The head packs a 16-bit ABA counter with a 48-bit
//! superblock-region offset, CAS-able in one word; node `next` links are
//! plain region offsets (immutable once the node is published). A
//! [`ralloc::Trace`] filter makes recovery tracing precise, and because
//! every stored link is an offset, the structure is position-independent
//! (it survives remapping at a different base address).
//!
//! Durable linearizability (paper §2.2 responsibility of the app): a push
//! persists the node before swinging the head, then persists the head;
//! a pop persists the head after swinging it. (Strictly a pop's
//! linearization is the CAS; the trailing persist gives buffered-durable
//! behaviour, which the paper's model permits.)

use std::sync::atomic::{AtomicU64, Ordering};

use ralloc::{PersistentAllocator, Ralloc, Trace, Tracer};

const OFF_BITS: u32 = 48;
const OFF_MASK: u64 = (1u64 << OFF_BITS) - 1;

#[inline]
fn pack(off1: u64, ctr: u64) -> u64 {
    debug_assert!(off1 <= OFF_MASK);
    (ctr << OFF_BITS) | off1
}

#[inline]
fn unpack(word: u64) -> (u64, u64) {
    (word & OFF_MASK, word >> OFF_BITS)
}

/// Head cell: lives in the heap, registered as a persistent root.
#[repr(C)]
pub struct StackHead {
    /// {counter:16 | node region-offset + 1:48}; 0 offset = empty.
    head: AtomicU64,
}

/// A stack node: 64-bit value plus an offset link.
#[repr(C)]
pub struct StackNode {
    value: u64,
    /// Region offset + 1 of the next node (0 = end). Immutable after
    /// publication.
    next: u64,
}

// SAFETY: `head` is the cell's only link.
unsafe impl Trace for StackHead {
    fn trace(&self, t: &mut Tracer<'_>) {
        let (off1, _) = unpack(self.head.load(Ordering::Relaxed));
        if let Some(off) = off1.checked_sub(1) {
            t.visit_region_offset::<StackNode>(off);
        }
    }
}

// SAFETY: `next` is a node's only link.
unsafe impl Trace for StackNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        if let Some(off) = self.next.checked_sub(1) {
            t.visit_region_offset::<StackNode>(off);
        }
    }
}

/// A persistent, recoverable, lock-free stack of `u64`s on a Ralloc heap.
pub struct PStack {
    heap: Ralloc,
    head: *mut StackHead,
}

// SAFETY: all shared mutation goes through atomics in the heap.
unsafe impl Send for PStack {}
// SAFETY: as above.
unsafe impl Sync for PStack {}

impl PStack {
    /// Create a fresh stack whose head is registered as root `root`.
    pub fn create(heap: &Ralloc, root: usize) -> PStack {
        let head = heap.malloc(std::mem::size_of::<StackHead>()) as *mut StackHead;
        assert!(!head.is_null(), "heap exhausted creating stack head");
        // SAFETY: fresh block, exclusively owned.
        unsafe { (*head).head = AtomicU64::new(pack(0, 0)) };
        heap.persist(head as *const u8, std::mem::size_of::<StackHead>());
        heap.set_root::<StackHead>(root, head);
        PStack { heap: heap.clone(), head }
    }

    /// Re-attach to a stack persisted at root `root` (after a clean
    /// restart or a recovery). Registers the filter functions.
    pub fn attach(heap: &Ralloc, root: usize) -> Option<PStack> {
        let head = heap.get_root::<StackHead>(root);
        if head.is_null() {
            return None;
        }
        Some(PStack { heap: heap.clone(), head })
    }

    #[inline]
    fn head_word(&self) -> &AtomicU64 {
        // SAFETY: head cell is live for the stack's lifetime.
        unsafe { &(*self.head).head }
    }

    #[inline]
    fn to_addr(&self, off: u64) -> usize {
        self.heap.region_base() + off as usize
    }

    #[inline]
    fn to_off(&self, addr: usize) -> u64 {
        (addr - self.heap.region_base()) as u64
    }

    /// Push a value. Lock-free; persists the node, then the head.
    pub fn push(&self, value: u64) -> bool {
        let node = self.heap.malloc(std::mem::size_of::<StackNode>()) as *mut StackNode;
        if node.is_null() {
            return false;
        }
        let node_off1 = self.to_off(node as usize) + 1;
        loop {
            let h = self.head_word().load(Ordering::Acquire);
            let (top1, ctr) = unpack(h);
            // SAFETY: we own the unpublished node.
            unsafe {
                (*node).value = value;
                (*node).next = top1;
            }
            self.heap
                .persist(node as *const u8, std::mem::size_of::<StackNode>());
            let nh = pack(node_off1, (ctr + 1) & 0xFFFF);
            if self
                .head_word()
                .compare_exchange_weak(h, nh, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.heap
                    .persist(self.head as *const u8, std::mem::size_of::<StackHead>());
                return true;
            }
        }
    }

    /// Pop the most recently pushed value, freeing its node.
    pub fn pop(&self) -> Option<u64> {
        loop {
            let h = self.head_word().load(Ordering::Acquire);
            let (top1, ctr) = unpack(h);
            let top_off = top1.checked_sub(1)?;
            let node = self.to_addr(top_off) as *mut StackNode;
            // SAFETY: node memory stays mapped (pool-backed); the ABA
            // counter invalidates our CAS if the node was recycled.
            let (value, next1) = unsafe { ((*node).value, (*node).next) };
            let nh = pack(next1, (ctr + 1) & 0xFFFF);
            if self
                .head_word()
                .compare_exchange_weak(h, nh, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.heap
                    .persist(self.head as *const u8, std::mem::size_of::<StackHead>());
                self.heap.free(node as *mut u8);
                return Some(value);
            }
        }
    }

    /// Number of nodes (O(n), offline use: tests and recovery checks).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let (mut cur1, _) = unpack(self.head_word().load(Ordering::Acquire));
        while let Some(off) = cur1.checked_sub(1) {
            n += 1;
            // SAFETY: offline traversal of a quiescent stack.
            cur1 = unsafe { (*(self.to_addr(off) as *const StackNode)).next };
        }
        n
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        unpack(self.head_word().load(Ordering::Acquire)).0 == 0
    }

    /// Snapshot the values top-to-bottom (offline use).
    pub fn snapshot(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut cur1, _) = unpack(self.head_word().load(Ordering::Acquire));
        while let Some(off) = cur1.checked_sub(1) {
            // SAFETY: offline traversal.
            let node = unsafe { &*(self.to_addr(off) as *const StackNode) };
            out.push(node.value);
            cur1 = node.next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ralloc::RallocConfig;

    fn heap() -> Ralloc {
        Ralloc::create(16 << 20, RallocConfig::tracked())
    }

    #[test]
    fn lifo_semantics() {
        let h = heap();
        let s = PStack::create(&h, 0);
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn attach_finds_existing() {
        let h = heap();
        {
            let s = PStack::create(&h, 5);
            s.push(42);
        }
        let s = PStack::attach(&h, 5).expect("root set");
        assert_eq!(s.snapshot(), vec![42]);
        assert!(PStack::attach(&h, 6).is_none());
    }

    #[test]
    fn concurrent_push_pop_conserves_elements() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let s = PStack::create(&h, 0);
        let n_threads = 8u64;
        let per = 5000u64;
        std::thread::scope(|sc| {
            for t in 0..n_threads {
                let s = &s;
                sc.spawn(move || {
                    for i in 0..per {
                        assert!(s.push(t * per + i));
                    }
                });
            }
        });
        let mut popped: Vec<u64> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    let s = &s;
                    sc.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = s.pop() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        popped.sort_unstable();
        let expect: Vec<u64> = (0..n_threads * per).collect();
        assert_eq!(popped, expect, "every pushed element pops exactly once");
    }

    #[test]
    fn survives_crash_and_recovery() {
        let h = heap();
        let s = PStack::create(&h, 0);
        for i in 0..500 {
            s.push(i);
        }
        h.crash_simulated();
        let stats = h.recover();
        // 500 nodes + 1 head cell reachable.
        assert_eq!(stats.reachable_blocks, 501);
        let s = PStack::attach(&h, 0).unwrap();
        assert_eq!(s.len(), 500);
        let vals = s.snapshot();
        assert_eq!(vals[0], 499);
        assert_eq!(vals[499], 0);
        // Still operational.
        s.push(1000);
        assert_eq!(s.pop(), Some(1000));
    }

    #[test]
    fn popped_nodes_are_collected_not_resurrected() {
        let h = heap();
        let s = PStack::create(&h, 0);
        for i in 0..100 {
            s.push(i);
        }
        for _ in 0..60 {
            s.pop();
        }
        h.crash_simulated();
        let stats = h.recover();
        assert_eq!(stats.reachable_blocks, 41, "40 nodes + head");
        let s = PStack::attach(&h, 0).unwrap();
        assert_eq!(s.len(), 40);
    }

    #[test]
    fn position_independent_across_remap() {
        let h = heap();
        let s = PStack::create(&h, 0);
        for i in 0..64 {
            s.push(i * 7);
        }
        let image = h.pool().persistent_image();
        drop((s, h));
        // Reopen at a (virtually certain) different base address.
        let (h2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
        assert!(dirty);
        let _ = h2.get_root::<StackHead>(0); // register filter, paper-style
        h2.recover();
        let s2 = PStack::attach(&h2, 0).unwrap();
        assert_eq!(s2.len(), 64);
        assert_eq!(s2.snapshot()[0], 63 * 7);
    }
}
