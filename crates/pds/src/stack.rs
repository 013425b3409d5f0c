//! A recoverable Treiber stack (paper §6.4, Figure 6a).
//!
//! The stack is a lock-free LIFO whose head cell and nodes all live in a
//! Ralloc heap. The head is a [`Link<48>`]: a superblock-region offset with
//! a 16-bit ABA counter in its tag, CAS-able in one word; node `next` links
//! are `Link<48>`s with tag 0 (immutable once the node is published). A
//! [`ralloc::Trace`] filter makes recovery tracing precise, and because
//! every stored link is an offset, the structure is position-independent
//! (it survives remapping at a different base address).
//!
//! Durable linearizability (paper §2.2 responsibility of the app): a push
//! persists the node before swinging the head, then persists the head;
//! a pop persists the head after swinging it. (Strictly a pop's
//! linearization is the CAS; the trailing persist gives buffered-durable
//! behaviour, which the paper's model permits.)

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ralloc::{AtomicLink, Link, PersistentAllocator, Ralloc, Trace, Tracer};

use crate::{block, offset};

/// Head cell: lives in the heap, registered as a persistent root.
#[repr(C)]
pub struct StackHead {
    /// The top node, tagged with an ABA counter; no target = empty.
    head: AtomicLink<48>,
}

/// A stack node: 64-bit value plus a link, both atomic: a `pop` reads
/// them from a node another thread may have freed and reused meanwhile.
/// `value` is Relaxed: the head's release CAS and acquire load order it.
#[repr(C)]
pub struct StackNode {
    value: AtomicU64,
    /// The next node (no target = end). Unchanged after publication.
    next: AtomicLink<48>,
}

// SAFETY: `head` is the cell's only link.
unsafe impl Trace for StackHead {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<StackNode>(self.head.load());
    }
}

// SAFETY: `next` is a node's only link.
unsafe impl Trace for StackNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<StackNode>(self.next.load());
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
        unsafe { (*head).head.store(Link::NONE) };
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
    fn head_word(&self) -> &AtomicLink<48> {
        // SAFETY: head cell is live for the stack's lifetime.
        unsafe { &(*self.head).head }
    }

    /// Push a value. Lock-free; persists the node, then the head.
    pub fn push(&self, value: u64) -> bool {
        let node = self.heap.malloc(std::mem::size_of::<StackNode>()) as *mut StackNode;
        if node.is_null() {
            return false;
        }
        let to_node = offset(self.heap.region_base(), node);
        loop {
            let h = self.head_word().load();
            // SAFETY: we own the unpublished node (a stale `pop` may read it).
            unsafe {
                (*node).value.store(value, Relaxed);
                (*node).next.store(Link::new(h.target(), 0));
            }
            self.heap
                .persist(node as *const u8, std::mem::size_of::<StackNode>());
            if self.head_word().compare_exchange(h, h.advance(to_node)).is_ok() {
                self.heap
                    .persist(self.head as *const u8, std::mem::size_of::<StackHead>());
                return true;
            }
        }
    }

    /// Pop the most recently pushed value, freeing its node.
    pub fn pop(&self) -> Option<u64> {
        loop {
            let h = self.head_word().load();
            let node = block::<StackNode>(self.heap.region_base(), h)?;
            // SAFETY: node memory stays mapped (pool-backed); the ABA
            // counter invalidates our CAS if the node was recycled.
            let (value, next) = unsafe { ((*node).value.load(Relaxed), (*node).next.load()) };
            if self.head_word().compare_exchange(h, h.advance(next.target())).is_ok() {
                self.heap
                    .persist(self.head as *const u8, std::mem::size_of::<StackHead>());
                self.heap.free(node as *mut u8);
                return Some(value);
            }
        }
    }

    /// Number of nodes (O(n), offline use: tests and recovery checks).
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.head_word().load().target().is_none()
    }

    /// Snapshot the values top-to-bottom (offline use).
    pub fn snapshot(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = self.head_word().load();
        while let Some(node) = block::<StackNode>(self.heap.region_base(), cur) {
            // SAFETY: offline traversal of a quiescent stack.
            let node = unsafe { &*node };
            out.push(node.value.load(Relaxed));
            cur = node.next.load();
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

    /// Every thread both pushes and pops, so a pop's window between its
    /// head read and its CAS overlaps other threads' pops, frees and
    /// pushes of the same node (which `concurrent_push_pop_conserves_elements`,
    /// with its separate phases, never reaches). Each run checks that every
    /// value pushed comes out once, by a pop or by the final drain. A
    /// head CAS that succeeds on a recycled node loses values or links a
    /// cycle, and then the drain spins forever: the runs go on a thread
    /// of their own, and the test fails if they have not reported in 5 s.
    #[test]
    fn mixed_operations_on_every_thread_conserve_values() {
        const THREADS: u64 = 4;
        const OPS: u64 = 20_000;
        // A run under ThreadSanitizer takes about ten times as long.
        const RUNS: u64 = if cfg!(tsan) { 2 } else { 8 };
        let run = |seed: u64| -> Result<(), String> {
            let h = Ralloc::create(64 << 20, RallocConfig::default());
            let st = PStack::create(&h, 0);
            let logs: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let st = &st;
                        s.spawn(move || {
                            let (mut put, mut got) = (Vec::new(), Vec::new());
                            let mut x = (seed * THREADS + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            for i in 0..OPS {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                if x & 1 == 0 {
                                    assert!(st.push(t * OPS + i));
                                    put.push(t * OPS + i);
                                } else if let Some(v) = st.pop() {
                                    got.push(v);
                                }
                            }
                            (put, got)
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            let mut put: Vec<u64> = logs.iter().flat_map(|(p, _)| p.iter().copied()).collect();
            let mut got: Vec<u64> = logs.iter().flat_map(|(_, g)| g.iter().copied()).collect();
            while let Some(v) = st.pop() {
                got.push(v);
                if got.len() > put.len() {
                    return Err(format!("run {seed}: more values out than in"));
                }
            }
            put.sort_unstable();
            got.sort_unstable();
            if put != got {
                return Err(format!("run {seed}: {} values in, {} out", put.len(), got.len()));
            }
            Ok(())
        };
        crate::runs_within_5s("stack", RUNS, run);
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
