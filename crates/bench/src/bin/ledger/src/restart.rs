//! `restart`: build a heap from cold, lose every volatile structure,
//! recover, and check that recovery kept all and only the reachable
//! blocks.
//!
//! One cycle = create → populate on a worker thread that exits →
//! `recover_parallel` → verify → drop. Populate is the cold path of the
//! `heap` layer (carve, frontier growth from 4 MiB, descriptor persists)
//! and the only phase where `nvm` flushes are frequent; recovery does all
//! its work in `recovery`/`gc` and none in `tcache`.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ralloc::{check_heap, Mode, Pptr, Ralloc, RallocConfig, Trace, Tracer, SB_SIZE};

use crate::ctx::Ctx;
use crate::{new_heap, persistent_cfg};

pub const ROOTS: usize = 32;
pub const NODES_PER_ROOT: usize = 4000;
pub const ROOTED_NODES: u64 = (ROOTS * NODES_PER_ROOT) as u64;
pub const TARGET_SBS: usize = 8192;
pub const BULK_SIZE: usize = 4096;
const NODE_SIZE: usize = std::mem::size_of::<Node>();
const POST_RECOVERY_MALLOCS: usize = 10_000;

#[repr(C)]
pub struct Node {
    value: u64,
    next: Pptr<Node>,
}

// SAFETY: `next` is the only reference a node holds.
unsafe impl Trace for Node {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_pptr(&self.next);
    }
}

/// The same node read without type information: everything behind the
/// root block is scanned word by word for tagged pointers, which is what
/// recovery does for a root nobody registered a filter for.
#[repr(transparent)]
pub struct LooseNode(Node);

// SAFETY: visiting `next` conservatively reaches the same blocks.
unsafe impl Trace for LooseNode {
    fn trace(&self, t: &mut Tracer<'_>) {
        let next = self.0.next.as_ptr();
        if !next.is_null() {
            t.visit_conservative(next as usize);
        }
    }
}

fn node_value(root: usize, i: usize) -> u64 {
    ((root as u64) << 32 | i as u64) ^ 0xA110_C8ED_0B1E_C7ED
}

/// What a cycle builds before it "crashes".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fill {
    /// 32 × 4 000 rooted nodes, then 4 KiB blocks up to 8 192 superblocks.
    Standard,
    /// Only the rooted nodes: recovery is all mark, almost no sweep.
    MarkHeavy,
    /// One short list, then the bulk: recovery is all sweep.
    SweepHeavy,
}

impl Fill {
    /// `(lists, nodes per list)` this fill roots.
    pub fn lists(self) -> (usize, usize) {
        match self {
            Fill::SweepHeavy => (1, 100),
            _ => (ROOTS, NODES_PER_ROOT),
        }
    }
}

#[derive(Default, Clone, Copy)]
pub struct Populated {
    pub mallocs: u64,
    pub failed: u64,
    pub live_bytes: u64,
    /// Time spent inside [`Populator::step`].
    pub wall: Duration,
}

/// Builds a cycle's heap contents in resumable steps, so two heaps can be
/// populated in alternating chunks on one thread (single-threaded).
pub struct Populator<'h> {
    heap: &'h Ralloc,
    fill: Fill,
    loose: bool,
    root: usize,
    node: usize,
    head: *mut Node,
    bulk: u64,
    pub out: Populated,
}

impl<'h> Populator<'h> {
    pub fn new(heap: &'h Ralloc, fill: Fill, loose: bool) -> Self {
        let head = std::ptr::null_mut();
        Populator {
            heap,
            fill,
            loose,
            root: 0,
            node: 0,
            head,
            bulk: 0,
            out: Populated::default(),
        }
    }

    /// Make up to `budget` more mallocs through `cx`; false once the fill
    /// is complete.
    pub fn step<C: Ctx>(&mut self, cx: &mut C, budget: u64) -> bool {
        let t0 = Instant::now();
        let more = self.advance(cx, budget);
        self.out.wall += t0.elapsed();
        more
    }

    fn advance<C: Ctx>(&mut self, cx: &mut C, budget: u64) -> bool {
        let (roots, nodes) = self.fill.lists();
        let stop_at = self.out.mallocs.saturating_add(budget);
        while self.root < roots {
            if self.out.mallocs >= stop_at {
                return true;
            }
            let p = cx.op_malloc(NODE_SIZE) as *mut Node;
            self.out.mallocs += 1;
            if p.is_null() {
                self.out.failed += 1;
            } else {
                // SAFETY: `p` is a fresh block of NODE_SIZE bytes; the
                // Pptr is set in place because it is self-relative.
                unsafe {
                    (*p).value = node_value(self.root, self.node);
                    (*p).next = Pptr::null();
                    (*p).next.set(self.head);
                }
                self.head = p;
            }
            self.node += 1;
            if self.node == nodes {
                if self.loose {
                    self.heap
                        .set_root::<LooseNode>(self.root, self.head as *const LooseNode);
                } else {
                    self.heap.set_root::<Node>(self.root, self.head);
                }
                self.out.live_bytes += (nodes * NODE_SIZE) as u64;
                (self.root, self.node, self.head) = (self.root + 1, 0, std::ptr::null_mut());
            }
        }
        if self.fill == Fill::MarkHeavy {
            return false;
        }
        // Every third block is freed at once, so the sweep later meets
        // full, partial and empty superblocks.
        while self.heap.used_superblocks() < TARGET_SBS {
            if self.out.mallocs >= stop_at {
                return true;
            }
            let p = cx.op_malloc(BULK_SIZE);
            self.out.mallocs += 1;
            if p.is_null() {
                self.out.failed += 1;
                return false;
            }
            // The block is stored to, as an application would: the first
            // touch of its page is part of what a cold populate costs, on
            // the persistent heap and on its transient twin alike.
            // SAFETY: `p` is a fresh live block of BULK_SIZE ≥ 8 bytes.
            unsafe { (p as *mut u64).write(self.bulk) };
            if self.bulk.is_multiple_of(3) {
                cx.op_free(p, BULK_SIZE);
            } else {
                self.out.live_bytes += BULK_SIZE as u64;
            }
            self.bulk += 1;
        }
        false
    }
}

/// Build the cycle's heap contents through `cx` in one go.
pub fn populate<C: Ctx>(heap: &Ralloc, cx: &mut C, fill: Fill, loose: bool) -> Populated {
    let mut p = Populator::new(heap, fill, loose);
    while p.step(cx, u64::MAX) {}
    p.out
}

/// Checks made on a recovered heap; every miss is a failed operation.
#[derive(Default, Debug)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the plain walk over every rooted node took.
    pub walk_s: f64,
    pub first_malloc_us: f64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Walk the rooted lists (`roots` lists of `nodes` nodes), run the heap
/// checker, and allocate `post_mallocs` blocks after recovery: no rooted
/// value may be lost or changed, the reachable count must be exact, and
/// no fresh block may alias a live one.
pub fn verify(
    heap: &Ralloc,
    (roots, nodes): (usize, usize),
    loose: bool,
    reachable: u64,
    post_mallocs: usize,
) -> Verdict {
    let mut v = Verdict::default();
    v.check(reachable == (roots * nodes) as u64, || {
        format!(
            "recovery reports {reachable} reachable blocks, {} were rooted",
            roots * nodes
        )
    });
    let head = |r: usize| {
        if loose {
            heap.get_root::<LooseNode>(r) as *mut Node
        } else {
            heap.get_root::<Node>(r)
        }
    };
    // First a bare walk, timed: the cheapest way to visit every reachable
    // block, and the reference recovery time is compared to.
    let t0 = Instant::now();
    let mut visited = 0usize;
    for r in 0..roots {
        let mut at = head(r);
        while !at.is_null() && visited <= roots * nodes {
            visited += 1;
            // SAFETY: `at` came from a root or a `next` link of a list
            // this module built; recovery keeps reachable blocks intact.
            at = unsafe { std::hint::black_box(&*at) }.next.as_ptr();
        }
    }
    v.walk_s = t0.elapsed().as_secs_f64();
    let mut live = HashSet::with_capacity(roots * nodes);
    for r in 0..roots {
        let mut at = head(r);
        let mut i = nodes;
        while !at.is_null() && i > 0 {
            i -= 1;
            live.insert(at as usize);
            // SAFETY: `at` came from a root or a `next` link of a list
            // this module built; recovery keeps reachable blocks intact.
            let node = unsafe { &*at };
            v.check(node.value == node_value(r, i), || {
                format!("root {r} node {i} changed")
            });
            at = node.next.as_ptr();
        }
        v.check(i == 0 && at.is_null(), || {
            format!("root {r} list has the wrong length")
        });
    }
    let report = check_heap(heap);
    v.check(report.is_consistent(), || {
        format!("check_heap: {:?}", report.violations.first())
    });
    let t0 = Instant::now();
    let first = heap.malloc(NODE_SIZE);
    v.first_malloc_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut fresh = vec![first];
    fresh.extend((1..post_mallocs).map(|_| heap.malloc(NODE_SIZE)));
    for &p in &fresh {
        v.check(!p.is_null() && !live.contains(&(p as usize)), || {
            format!("post-recovery malloc returned {p:p}, which is null or live")
        });
    }
    for p in fresh.into_iter().filter(|p| !p.is_null()) {
        heap.free(p);
    }
    v
}

pub struct Cycle {
    /// Seconds `Ralloc::create` took.
    pub create_s: f64,
    pub populated: Populated,
    pub space_amp: f64,
    pub recover_s: f64,
    pub stats: ralloc::RecoveryStats,
    pub used_sbs: usize,
    pub verdict: Verdict,
}

/// One full cycle on a fresh persistent heap. `run_populate` runs on the
/// populate thread and chooses the context the allocator is called through.
pub fn cycle<R>(
    fill: Fill,
    loose: bool,
    workers: usize,
    run_populate: impl FnOnce(&Ralloc) -> (Populated, R) + Send,
) -> (Cycle, R)
where
    R: Send,
{
    let t0 = Instant::now();
    let heap = new_heap(persistent_cfg());
    let create_s = t0.elapsed().as_secs_f64();
    // The populating thread exits before recovery: its cache drains, so
    // recovery sees the quiescent heap its contract requires.
    let (populated, extra) = std::thread::scope(|s| {
        let populate = s.spawn(|| {
            crate::host::pin_worker(0);
            run_populate(&heap)
        });
        populate
            .join()
            .unwrap_or_else(|_| crate::fatal("populate panicked"))
    });
    let used_sbs = heap.used_superblocks();
    let space_amp = (used_sbs * SB_SIZE) as f64 / populated.live_bytes.max(1) as f64;
    let t0 = Instant::now();
    let stats = heap.recover_parallel(workers);
    let recover_s = t0.elapsed().as_secs_f64();
    let verdict = verify(
        &heap,
        fill.lists(),
        loose,
        stats.reachable_blocks,
        POST_RECOVERY_MALLOCS,
    );
    (
        Cycle {
            create_s,
            populated,
            space_amp,
            recover_s,
            stats,
            used_sbs,
            verdict,
        },
        extra,
    )
}

const CRASH_ROOTS: usize = 4;
const CRASH_NODES: usize = 500;
const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Capacity of the small `Mode::Tracked` heap (its shadow image doubles
/// the footprint, so it stays small).
pub const CRASH_CAPACITY: usize = 16 << 20;

/// One small cycle on a `Mode::Tracked` heap that really loses unflushed
/// lines: every node is persisted as it is linked, then one rooted value
/// is overwritten *without* a flush, and `crash_simulated()` must bring
/// the persisted value back.
pub fn crash_cycle() -> Verdict {
    let cfg = RallocConfig {
        mode: Mode::Tracked,
        initial_capacity: Some(crate::INITIAL_CAPACITY),
        max_capacity: Some(CRASH_CAPACITY),
        ..persistent_cfg()
    };
    let heap = Ralloc::create(crate::INITIAL_CAPACITY, cfg);
    let persist = |p: *const Node| {
        let off = p as usize - heap.pool().base() as usize;
        heap.pool().persist(off, NODE_SIZE);
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut heads = Vec::new();
            for r in 0..CRASH_ROOTS {
                let mut head: *mut Node = std::ptr::null_mut();
                for i in 0..CRASH_NODES {
                    let p = heap.malloc(NODE_SIZE) as *mut Node;
                    if p.is_null() {
                        continue;
                    }
                    // SAFETY: fresh block of NODE_SIZE bytes.
                    unsafe {
                        (*p).value = node_value(r, i);
                        (*p).next = Pptr::null();
                        (*p).next.set(head);
                    }
                    persist(p);
                    head = p;
                    // Unrooted garbage between the nodes, for the sweep.
                    let _ = heap.malloc(48);
                }
                heap.set_root::<Node>(r, head);
                heads.push(head as usize);
            }
            // Last store before the crash, never flushed.
            if let Some(&head) = heads.first().filter(|&&h| h != 0) {
                // SAFETY: root 0's head node, live and exclusively ours.
                unsafe { (*(head as *mut Node)).value = POISON };
            }
        });
    });
    heap.crash_simulated();
    for r in 0..CRASH_ROOTS {
        heap.get_root::<Node>(r);
    }
    let stats = heap.recover();
    let mut v = Verdict::default();
    let head = heap.get_root::<Node>(0);
    // SAFETY: root 0 is a live node when non-null.
    let survived = !head.is_null() && unsafe { (*head).value } == POISON;
    v.check(!survived, || {
        "an unflushed store survived crash_simulated()".into()
    });
    let rest = verify(
        &heap,
        (CRASH_ROOTS, CRASH_NODES),
        false,
        stats.reachable_blocks,
        1000,
    );
    v.attempted += rest.attempted;
    v.failed += rest.failed;
    v.notes.extend(rest.notes);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_crash_cycle_discards_unflushed_lines_and_keeps_the_rest() {
        let v = crash_cycle();
        assert_eq!(v.failed, 0, "{:?}", v.notes);
        assert!(v.attempted > (CRASH_ROOTS * CRASH_NODES) as u64);
    }
}
