//! A recoverable Michael–Scott queue (PODC'96), generic over the
//! allocator: Prod-con (paper Fig. 5d) runs it on every allocator, and
//! the kill harness (`crates/crashtest`) runs it on a Ralloc heap.
//!
//! The anchor cell and the nodes live in the allocator's memory. Every
//! link is a [`Link<48>`]: the target's offset from `region_base()`
//! with a 16-bit ABA counter in its tag. On a Ralloc heap that is a
//! superblock-region offset, so the queue is position-independent and a
//! [`ralloc::Trace`] filter traces it precisely. A dequeued node goes to the queue's own free chain, never
//! back to the allocator, so reading a dequeued node's `next` is safe on
//! any allocator; [`PQueue::destroy`] returns every node.
//!
//! Durable linearizability is the application's obligation (paper §2.2),
//! kept by the crate's persist-before-publish primitive (`cas_link`; see
//! the crate docs). An enqueue persists its node and links it with a
//! `cas_link` on the predecessor's `next`, which asserts the node durable
//! and persists the link; only then does it swing the tail hint and
//! persist it (`persist_link`: recovery never follows the hint, and
//! [`PQueue::attach`] re-derives the tail from the chain). A dequeue's
//! `cas_link` on the head persists it.
//!
//! **An acked enqueue's value is reachable from the head after a crash.**
//! The harness acks an op after the call returns.
//! * *SIGKILL* (`crashtest`'s `MAP_SHARED` pool file): every executed
//!   store is in the file, persisted or not, so the image is the volatile
//!   queue at the kill. The enqueue's CAS linked its node into the chain
//!   from the head, and the head moves only along `next`, past a node only
//!   by the dequeue that returns its value.
//! * *Power failure* (`Mode::Tracked`: only persisted lines survive): every
//!   link from the durable head to the node must be durable too. The
//!   node and its own link are persisted before `enqueue` returns. Every
//!   other link on that path was behind the tail when this enqueue's CAS
//!   linked behind it, and online the tail moves only over a durable link
//!   (`attach` sets it from the recovered chain): that link's enqueuer
//!   moves it after its `cas_link` persisted the link, and `help_tail`
//!   persists the link it passes before its CAS, whoever helps: an
//!   enqueuer helping a lagging tail, or a dequeuer helping the tail off
//!   the dummy it is about to retire. So every link before a tail is
//!   durable, and the acked value is reachable from the durable head
//!   (`tests::a_helped_tail_never_outruns_a_durable_link` stalls an
//!   enqueuer between its link and its persist to check this).
//!
//! **No node on the untraced free chain holds a live value.** Only the
//! dequeuer whose head CAS moved past a node retires it, whose value left
//! when it became the dummy. The head is persisted past it first and never
//! returns. The tail is read before the head re-check, and while the head
//! reads `h` its dummy is not retired, so a tail naming it names this life
//! of it, and `dequeue` helps it off before its CAS. A stale CAS on `next`
//! fails on the counter; a popped node is rewritten and persisted before
//! it is relinked. Recovery may free the chain; [`PQueue::attach`] empties it.
//!
//! **The filters must be registered before recovery.** Links are
//! [`Link<48>`] offsets, not tagged [`ralloc::Pptr`]s, so a conservative
//! scan of the anchor finds no reference: without the [`QueueHead`]
//! filter every node is swept as free, and the next mallocs overwrite the
//! values. Hence
//! `crashtest::register_filters` calls `get_root::<QueueHead>` before
//! `recover`, as any caller must.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ralloc::{AtomicLink, Link, PersistentAllocator, Ralloc, Trace, Tracer};

use crate::{block, cas_link, fresh, offset, persist_link, store_link};

/// Queue anchor cell: lives in the allocator's memory, registered as a
/// persistent root by [`PQueue::create`]. All three words are
/// [`Link<48>`]s tagged with an ABA counter; the head always points at the
/// current dummy node. `free` heads the queue's private free chain (a
/// counted Treiber stack), which keeps every node **type-stable**: a
/// racing enqueuer may still CAS a retired node's `next`, safe only
/// because the memory stays a `QueueNode` whose counter keeps advancing.
/// The chain is transient: its two-word publish (node link + list head)
/// cannot be crash-atomic, so it is not traced and [`PQueue::attach`]
/// resets it (a clean restart leaks it until the next recovery).
#[repr(C)]
pub struct QueueHead {
    head: AtomicLink<48>,
    tail: AtomicLink<48>,
    free: AtomicLink<48>,
}

/// A queue node. `next` is a CAS-able counted [`Link<48>`]; `value` is
/// atomic, a `dequeue` may read it while an `enqueue` reuses the node, and
/// Relaxed: the `next` link's release CAS and acquire load order it.
#[repr(C)]
pub struct QueueNode {
    value: AtomicU64,
    next: AtomicLink<48>,
}

// SAFETY: the chain from the dummy (head) covers every live node and
// whatever the tail hint names; the free chain holds no live value.
unsafe impl Trace for QueueHead {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<QueueNode>(self.head.load());
    }
}

// SAFETY: `next` is a node's only link.
unsafe impl Trace for QueueNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_link::<QueueNode>(self.next.load());
    }
}

/// A persistent, lock-free FIFO queue of `u64`s over allocator `A`,
/// recoverable when `A` is a Ralloc heap.
///
/// There is no `Drop`: a rooted queue must outlive its handle. A queue
/// built by [`PQueue::new`] is returned to its allocator by
/// [`PQueue::destroy`].
pub struct PQueue<A: PersistentAllocator = Ralloc> {
    alloc: A,
    /// `alloc.region_base()`, read once: the base of every link.
    base: usize,
    anchor: *mut QueueHead,
}

// SAFETY: all shared mutation goes through atomics in the anchor and the
// nodes, which stay allocated (type-stable) while the handle lives.
unsafe impl<A: PersistentAllocator> Send for PQueue<A> {}
// SAFETY: as above.
unsafe impl<A: PersistentAllocator> Sync for PQueue<A> {}

impl<A: PersistentAllocator> PQueue<A> {
    /// Build an unrooted queue, its dummy node drawn from `alloc` and
    /// persisted.
    pub fn new(alloc: A) -> PQueue<A> {
        let dummy = alloc.malloc(std::mem::size_of::<QueueNode>()) as *mut QueueNode;
        assert!(!dummy.is_null(), "allocator exhausted creating queue dummy");
        let anchor = alloc.malloc(std::mem::size_of::<QueueHead>()) as *mut QueueHead;
        assert!(!anchor.is_null(), "allocator exhausted creating queue anchor");
        let base = alloc.region_base();
        let to_dummy = Link::<48>::new(offset(base, dummy), 0);
        // SAFETY: fresh blocks, exclusively owned.
        unsafe {
            (*dummy).value.store(0, Relaxed);
            (*dummy).next.store(Link::NONE);
            (*anchor).head.store(to_dummy);
            (*anchor).tail.store(to_dummy);
            (*anchor).free.store(Link::NONE);
        }
        alloc.persist(dummy as *const u8, std::mem::size_of::<QueueNode>());
        PQueue { alloc, base, anchor }
    }

    /// Return every node — queued, dummy and free-listed — and the anchor
    /// to the allocator. For a queue from [`PQueue::new`]; a rooted
    /// queue's root would dangle.
    pub fn destroy(self) {
        let release = |mut cur: Link<48>| {
            while let Some(node) = block::<QueueNode>(self.base, cur) {
                // SAFETY: the handle is consumed, so no other operation
                // runs; every node on either chain is still allocated.
                cur = unsafe { (*node).next.load() };
                self.alloc.free(node as *mut u8);
            }
        };
        release(self.words().head.load());
        release(self.words().free.load());
        self.alloc.free(self.anchor as *mut u8);
    }

    /// The anchor cell: its `head`, `tail` and `free` words.
    #[inline]
    fn words(&self) -> &QueueHead {
        // SAFETY: anchor cell is live for the queue's lifetime.
        unsafe { &*self.anchor }
    }

    /// Pop a retired node off the free list, or malloc a fresh one. A
    /// recycled node's `next` counter keeps advancing (never resets), so
    /// stale CASes from the node's previous life fail.
    fn alloc_node(&self) -> *mut QueueNode {
        loop {
            let f = self.words().free.load();
            let Some(node) = block::<QueueNode>(self.base, f) else {
                return self.alloc.malloc(std::mem::size_of::<QueueNode>()) as *mut QueueNode;
            };
            // SAFETY: type-stable node; the counter invalidates stale pops.
            let next = unsafe { (*node).next.load() };
            if self.words().free.compare_exchange(f, f.advance(next.target())).is_ok() {
                // Detach: advance the counter past the free-link value so
                // CASes expecting either the old live or free-link word
                // fail.
                // SAFETY: we own the popped node.
                unsafe { (*node).next.store(next.advance(None)) };
                return node;
            }
        }
    }

    /// Push a retired dummy onto the free list (type-stable reclamation).
    fn retire_node(&self, node: *mut QueueNode) {
        loop {
            let f = self.words().free.load();
            // SAFETY: we own the retired node (we won the head CAS).
            let next = unsafe { (*node).next.load() };
            // SAFETY: as above.
            unsafe { (*node).next.store(next.advance(f.target())) };
            if self.words().free.compare_exchange(f, f.advance(offset(self.base, node))).is_ok() {
                return;
            }
        }
    }

    /// Enqueue a value at the tail. Lock-free.
    pub fn enqueue(&self, value: u64) -> bool {
        let node = self.alloc_node();
        if node.is_null() {
            return false;
        }
        // SAFETY: we own the unpublished node (its `next` counter is
        // preserved from any previous life; see `alloc_node`).
        unsafe {
            (*node).value.store(value, Relaxed);
            (*node).next.store(Link::new(None, (*node).next.load().tag()));
        }
        self.alloc.persist(node as *const u8, std::mem::size_of::<QueueNode>());
        let to_node = offset(self.base, node);
        loop {
            let t = self.words().tail.load();
            let tail_node = block::<QueueNode>(self.base, t).expect("the tail names a node");
            // SAFETY: node memory stays mapped; counters invalidate stale
            // CASes.
            let next_ref = unsafe { &(*tail_node).next };
            let n = next_ref.load();
            if self.words().tail.load() != t {
                continue;
            }
            if n.target().is_none() {
                // Tail is last: link our node. The link is the
                // linearization point, durable before the tail hint moves
                // over it.
                if cas_link(&self.alloc, next_ref, n, n.advance(to_node), &[fresh(node)]).is_ok() {
                    let _ = self.words().tail.compare_exchange(t, t.advance(to_node));
                    persist_link(&self.alloc, &self.words().tail); // a hint
                    return true;
                }
            } else {
                self.help_tail(t, next_ref, n.target());
            }
        }
    }

    /// Swing the tail hint from `t` to `next`, the node that `link`, the
    /// tail node's `next`, was read to name, after persisting that link:
    /// it may be another thread's CAS that is not durable yet. Every tail
    /// move but the enqueuer's own goes through here (see the module docs).
    fn help_tail(&self, t: Link<48>, link: &AtomicLink<48>, next: Option<u64>) {
        persist_link(&self.alloc, link);
        let _ = self.words().tail.compare_exchange(t, t.advance(next));
    }

    /// Dequeue the oldest value, freeing the retired dummy node.
    pub fn dequeue(&self) -> Option<u64> {
        loop {
            let h = self.words().head.load();
            let t = self.words().tail.load();
            let dummy = block::<QueueNode>(self.base, h).expect("the head names the dummy");
            // SAFETY: pool memory stays mapped; the head counter
            // invalidates our CAS if the dummy was recycled.
            let n = unsafe { (*dummy).next.load() };
            if self.words().head.load() != h {
                continue;
            }
            let next_node = block::<QueueNode>(self.base, n)?; // no next: empty
            // SAFETY: as above.
            let value = unsafe { (*next_node).value.load(Relaxed) };
            if t.target() == h.target() {
                // Tail still on the dummy we're about to retire: help it
                // past first so it can never point at a freed node.
                // SAFETY: as above.
                self.help_tail(t, unsafe { &(*dummy).next }, n.target());
                continue;
            }
            if cas_link(&self.alloc, &self.words().head, h, h.advance(n.target()), &[]).is_ok() {
                self.retire_node(dummy);
                return Some(value);
            }
        }
    }

    /// Snapshot the values front-to-back (offline use).
    pub fn snapshot(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let h = self.words().head.load();
        let dummy = block::<QueueNode>(self.base, h).expect("the head names the dummy");
        // Skip the dummy; its value is retired.
        // SAFETY: offline traversal of a quiescent queue.
        let mut cur = unsafe { (*dummy).next.load() };
        while let Some(node) = block::<QueueNode>(self.base, cur) {
            // SAFETY: as above.
            let node = unsafe { &*node };
            out.push(node.value.load(Relaxed));
            cur = node.next.load();
        }
        out
    }
}

impl PQueue<Ralloc> {
    /// Create a fresh queue on `heap` whose anchor is persisted and
    /// registered as root `root`.
    pub fn create(heap: &Ralloc, root: usize) -> PQueue {
        let q = PQueue::new(heap.clone());
        heap.persist(q.anchor as *const u8, std::mem::size_of::<QueueHead>());
        heap.set_root::<QueueHead>(root, q.anchor);
        q
    }

    /// Re-attach to a queue persisted at root `root`, healing the tail
    /// hint from the chain (offline — the caller owns the quiescent
    /// post-recovery heap).
    pub fn attach(heap: &Ralloc, root: usize) -> Option<PQueue> {
        let anchor = heap.get_root::<QueueHead>(root);
        if anchor.is_null() {
            return None;
        }
        let q = PQueue { alloc: heap.clone(), base: heap.region_base(), anchor };
        // Walk from head to the last node and point the tail at it: a
        // crash may have left the hint arbitrarily stale (never ahead of
        // the chain, because a tail CAS only installs an already-linked
        // node).
        let mut cur = q.words().head.load();
        let mut last = cur.target();
        while let Some(node) = block::<QueueNode>(q.base, cur) {
            last = cur.target();
            // SAFETY: offline traversal of a quiescent queue.
            cur = unsafe { (*node).next.load() };
        }
        let t = q.words().tail.load();
        if t.target() != last {
            store_link(heap, &q.words().tail, t.advance(last), &[]); // a hint
        }
        // The free list is transient (see `QueueHead`): whatever the
        // word says now is a stale snapshot whose chain recovery has
        // already reclaimed. Reset, preserving the counter.
        let f = q.words().free.load();
        q.words().free.store(f.advance(None));
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::SystemAlloc;
    use ralloc::RallocConfig;
    use std::sync::atomic::Ordering;

    fn heap() -> Ralloc {
        Ralloc::create(16 << 20, RallocConfig::tracked())
    }

    #[test]
    fn fifo_semantics_over_system_alloc() {
        let q = PQueue::new(SystemAlloc::new());
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
        q.destroy();
    }

    #[test]
    fn works_over_ralloc() {
        let q = PQueue::new(Ralloc::create(8 << 20, RallocConfig::default()));
        for i in 0..10_000 {
            assert!(q.enqueue(i));
        }
        for i in 0..10_000 {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        q.destroy();
    }

    #[test]
    fn nodes_recycled_through_free_list() {
        let q = PQueue::new(Ralloc::create(1 << 20, RallocConfig::default()));
        // Far more operations than the pool could hold without reuse.
        for round in 0..100_000u64 {
            q.enqueue(round);
            assert_eq!(q.dequeue(), Some(round));
        }
        q.destroy();
    }

    /// Counts live blocks, so a test can tell that `destroy` returned
    /// every node, queued or free-listed, and the anchor.
    struct Counting(SystemAlloc, std::sync::atomic::AtomicIsize);

    impl PersistentAllocator for Counting {
        fn malloc(&self, size: usize) -> *mut u8 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.malloc(size)
        }
        fn free(&self, ptr: *mut u8) {
            self.1.fetch_sub(1, Ordering::Relaxed);
            self.0.free(ptr)
        }
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn destroy_returns_every_block() {
        let live = std::sync::Arc::new(Counting(SystemAlloc::new(), Default::default()));
        let q = PQueue::new(live.clone());
        for i in 0..1_000 {
            q.enqueue(i);
        }
        for _ in 0..600 {
            q.dequeue();
        }
        // 400 queued, the dummy, 600 retired, the anchor.
        assert_eq!(live.1.load(Ordering::Relaxed), 1_002);
        q.destroy();
        assert_eq!(live.1.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn spsc_transfers_all_values() {
        let q = PQueue::new(SystemAlloc::new());
        let n = 100_000u64;
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    q.enqueue(i);
                }
            });
            let mut got = Vec::with_capacity(n as usize);
            while got.len() < n as usize {
                if let Some(v) = q.dequeue() {
                    got.push(v);
                }
            }
            got
        });
        // FIFO per producer: strictly increasing.
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(got.len(), n as usize);
        q.destroy();
    }

    #[test]
    fn mpmc_conserves_elements() {
        use std::sync::atomic::AtomicUsize;
        let q = PQueue::new(SystemAlloc::new());
        let producers = 4u64;
        let per = 20_000u64;
        let total = (producers * per) as usize;
        let popped = AtomicUsize::new(0);
        let consumed: Vec<Vec<u64>> = std::thread::scope(|s| {
            for p in 0..producers {
                let q = &q;
                s.spawn(move || {
                    for i in 0..per {
                        q.enqueue(p * per + i);
                    }
                });
            }
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (q, popped) = (&q, &popped);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        // Shared progress counter: consumers stop when the
                        // group has drained everything, regardless of how
                        // the elements were distributed among them.
                        while popped.load(Ordering::Relaxed) < total {
                            if let Some(v) = q.dequeue() {
                                popped.fetch_add(1, Ordering::Relaxed);
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = consumed.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "duplicate or lost element");
        q.destroy();
    }

    /// Run `seed`: four threads each make `ops` random enqueues and
    /// dequeues on `q`, then the queue is drained. Every value enqueued
    /// must come out once, by a dequeue or by the drain.
    fn mixed_run<A: PersistentAllocator>(q: &PQueue<A>, seed: u64, ops: u64) -> Result<(), String> {
        const THREADS: u64 = 4;
        let logs: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
            let workers = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let (mut put, mut got) = (Vec::new(), Vec::new());
                        let mut x = (seed * THREADS + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        for i in 0..ops {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            if x & 1 == 0 {
                                assert!(q.enqueue(t * ops + i));
                                put.push(t * ops + i);
                            } else if let Some(v) = q.dequeue() {
                                got.push(v);
                            }
                        }
                        (put, got)
                    })
                })
                .collect();
            crate::join_all(workers)
        });
        let mut put: Vec<u64> = logs.iter().flat_map(|(p, _)| p.iter().copied()).collect();
        let mut got: Vec<u64> = logs.iter().flat_map(|(_, g)| g.iter().copied()).collect();
        while let Some(v) = q.dequeue() {
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
    }

    /// Every thread both enqueues and dequeues, so a dequeuer's window
    /// between its head re-check and its CAS overlaps other threads'
    /// retires, pops and enqueues of the same node (which
    /// `mpmc_conserves_elements`, with separate producers and consumers,
    /// never reaches). A tail swung onto a recycled dummy loses values or
    /// links a node to itself, and then the queue spins forever: the runs
    /// go on a thread of their own, and the test fails if they have not
    /// reported in 5 s.
    #[test]
    fn mixed_operations_on_every_thread_conserve_values() {
        // A run under ThreadSanitizer takes about ten times as long.
        const RUNS: u64 = if cfg!(tsan) { 2 } else { 8 };
        crate::runs_within_5s("queue", RUNS, |seed| {
            let q = PQueue::new(SystemAlloc::new());
            mixed_run(&q, seed, 20_000)?;
            q.destroy();
            Ok(())
        });
    }

    /// The same runs on a tracked heap, where every `cas_link` asserts
    /// that the node it links is durable: a node persist missing from any
    /// thread's path, a recycled node's included, panics at its site.
    #[test]
    fn mixed_operations_on_every_thread_of_a_tracked_heap_link_durable_nodes() {
        crate::runs_within_5s("queue", 4, |seed| mixed_run(&PQueue::create(&heap(), 0), seed, 10_000));
    }

    #[test]
    fn fifo_semantics() {
        let h = heap();
        let q = PQueue::create(&h, 0);
        assert!(q.snapshot().is_empty());
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.snapshot(), vec![1, 2, 3]);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn concurrent_mpmc_conserves_elements() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let q = PQueue::create(&h, 0);
        let n_threads = 4u64;
        let per = 4000u64;
        let done = std::sync::atomic::AtomicBool::new(false);
        let popped: Vec<u64> = std::thread::scope(|sc| {
            let producers: Vec<_> = (0..n_threads)
                .map(|t| {
                    let q = &q;
                    sc.spawn(move || {
                        for i in 0..per {
                            assert!(q.enqueue(t * per + i));
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..n_threads)
                .map(|_| {
                    let q = &q;
                    let done = &done;
                    sc.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match q.dequeue() {
                                Some(v) => got.push(v),
                                None if done.load(Ordering::Acquire) => break,
                                None => std::hint::spin_loop(),
                            }
                        }
                        got
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            done.store(true, Ordering::Release);
            consumers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut popped = popped;
        popped.sort_unstable();
        let expect: Vec<u64> = (0..n_threads * per).collect();
        assert_eq!(popped, expect, "every enqueued element dequeues exactly once");
    }

    #[test]
    fn per_producer_order_is_fifo() {
        let h = Ralloc::create(64 << 20, RallocConfig::default());
        let q = PQueue::create(&h, 0);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let q = &q;
                sc.spawn(move || {
                    for i in 0..2000 {
                        q.enqueue((t << 32) | i);
                    }
                });
            }
        });
        let mut last = [None::<u64>; 4];
        for v in q.snapshot() {
            let t = (v >> 32) as usize;
            let seq = v & 0xFFFF_FFFF;
            assert!(last[t].is_none_or(|p| p < seq), "producer {t} out of order");
            last[t] = Some(seq);
        }
    }

    #[test]
    fn survives_crash_and_recovery() {
        let h = heap();
        let q = PQueue::create(&h, 0);
        for i in 0..300 {
            q.enqueue(i);
        }
        for _ in 0..100 {
            q.dequeue();
        }
        h.crash_simulated();
        let stats = h.recover();
        // 200 live nodes + 1 dummy + 1 anchor; the 100 free-listed
        // retirees are unreachable by design and reclaimed here.
        assert_eq!(stats.reachable_blocks, 202);
        let q = PQueue::attach(&h, 0).unwrap();
        assert_eq!(q.snapshot(), (100..300).collect::<Vec<u64>>());
        // Still operational.
        q.enqueue(999);
        assert_eq!(q.dequeue(), Some(100));
    }

    #[test]
    fn attach_heals_stale_tail() {
        let h = heap();
        let q = PQueue::create(&h, 0);
        for i in 0..10 {
            q.enqueue(i);
        }
        // Sabotage the tail hint back to the dummy (simulating a crash
        // right after a link, before the tail swing persisted).
        q.words().tail.store(q.words().head.load());
        drop(q);
        let q = PQueue::attach(&h, 0).unwrap();
        q.enqueue(10);
        assert_eq!(q.snapshot(), (0..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn a_helped_tail_never_outruns_a_durable_link() {
        let h = heap();
        let q = PQueue::create(&h, 0);
        let size = std::mem::size_of::<QueueNode>();
        // Move the nodes to come off the dummy's cache line, whose
        // persists would otherwise carry the dummy's `next` along.
        for _ in 0..3 {
            h.malloc(size);
        }
        let t = q.words().tail.load();
        let dummy = block::<QueueNode>(q.base, t).unwrap();
        // A stalled enqueuer: its node is persisted and linked behind the
        // tail, but neither is the link persisted nor the tail moved.
        let node = q.alloc_node();
        // SAFETY: we own the popped node; the dummy is live.
        let link = unsafe {
            (*node).value.store(1, Relaxed);
            (*node).next.store(Link::new(None, (*node).next.load().tag()));
            &(*dummy).next
        };
        h.persist(node as *const u8, size);
        let to_node = offset(q.base, node);
        link.store(link.load().advance(to_node));
        // A dequeuer's help moves the tail onto it; the next enqueue links
        // behind it and is acked.
        q.help_tail(t, link, to_node);
        assert!(q.enqueue(2));
        let acked = block::<QueueNode>(q.base, q.words().tail.load()).unwrap() as usize;
        let line = |a: usize| a / 64;
        assert!(line(dummy as usize) != line(node as usize) && line(dummy as usize) != line(acked));
        h.crash_simulated();
        let _ = h.get_root::<QueueHead>(0);
        h.recover();
        let q = PQueue::attach(&h, 0).unwrap();
        assert_eq!(q.snapshot(), [1, 2], "the acked value must survive a power failure");
    }

    #[test]
    fn position_independent_across_remap() {
        let h = heap();
        let q = PQueue::create(&h, 0);
        for i in 0..64 {
            q.enqueue(i * 3);
        }
        let image = h.pool().persistent_image();
        drop((q, h));
        let (h2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
        assert!(dirty);
        let _ = h2.get_root::<QueueHead>(0);
        h2.recover();
        let q2 = PQueue::attach(&h2, 0).unwrap();
        assert_eq!(q2.snapshot().len(), 64);
        assert_eq!(q2.dequeue(), Some(0));
    }
}
