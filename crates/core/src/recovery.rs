//! Offline recovery: trace, sweep, reconstruct (paper §4.5).
//!
//! Recovery runs while the heap is quiescent (after a crash there are no
//! application threads, paper §3) and performs steps 1–10 of §4.5, in
//! this order:
//!
//! 1.  remap (done by the caller when it opened the pool),
//! 2.  thread caches start empty (their *generation* was bumped),
//! 3.  the transient lists are left as they are: steps 8–9 store every head,
//! 4.  filter functions were registered by `get_root<T>` calls,
//! 5.  take the **census**, then trace all blocks reachable from the
//!     persistent roots;
//! 6.  claim the live large spans and decide the **live prefix**: `used`
//!     comes down onto it, durably, then the tail beyond it is
//!     decommitted, and its pages are handed to a thread of the pool's
//!     own ([`nvm::PmemPool::discard_behind`]);
//! 7.  sweep the live prefix keeping only traced blocks and update every
//!     descriptor's anchor, while that thread gives the tail's pages back
//!     to the kernel;
//! 8.  reconstruct the partial lists and
//! 9.  the superblock free list, one head store each;
//! 10. flush the committed prefix and fence, and return: the heap is
//!     durable, and nothing touches the tail's pages again before the
//!     next commit, decommit, crash or drop, each of which waits for the
//!     release first.
//!
//! ## The census (step 5)
//!
//! One pass over descriptors `0..used` decodes each superblock once
//! ([`Census`], the only decoder of a descriptor's identity): a small
//! class's block size, blocks per superblock and an exact multiply-shift
//! reciprocal, a large head's span, or nothing. The tracer, the claim
//! and the sweep all read it, so a visited pointer costs one table load
//! and one multiply, and the mark set is one flat bitmap sized from it.
//! The calling thread takes it alone ([`Census::take`], the one census
//! path): a pass over 8 192 descriptors costs about 0.12 ms, less than a
//! second worker's start-up.
//!
//! ## The live prefix (step 6)
//!
//! `keep` comes from the marks, not from a pass over `used`: each tracer
//! records the superblock past its highest marked small block and every
//! large head it marks, [`Census::claim`] judges only those heads, and
//! `keep` is the furthest small mark or claimed span's end, so a rejected
//! phantom never raises it. The marks are merged over `0..keep` alone.
//! [`HeapInner::lower_to`] (steps 2–3 of [`HeapInner::shrink_quiesced`])
//! makes `keep` the durable `used` and decommits the prefix down onto it.
//! The sweep then rebuilds only `0..keep`: a released superblock is never
//! listed, so no list needs surgery.
//!
//! Lowering `used` before the sweep is crash-safe because it changes no
//! recovery outcome. The roots and every persisted size field are what
//! the trace read, and recovery changes neither; every block the trace
//! reached, and every claimed span, lies below `keep`. A crash anywhere
//! after the lowered `used` is durable therefore leaves a dirty image
//! whose next recovery traces the same blocks, all of them inside its
//! smaller `used`, and rebuilds the same prefix: a pointer into the
//! released tail was refused by this trace (no mark there, or a rejected
//! phantom) and is refused by the next (beyond `used`). The anchors and
//! lists the sweep writes are transient and become durable only with the
//! write-back (step 10), so a crash before it loses only what the next
//! recovery redoes. The decommit follows the durable `used`, so the
//! committed prefix covers every durably-used superblock throughout. The
//! descriptors it leaves behind past `keep` stay stale and dead (see
//! [`HeapInner::lower_to`]).
//!
//! ## Parallel recovery (paper §6.4 future work, implemented here)
//!
//! The paper notes it is "straightforward to parallelize Step 5 across
//! persistent roots and Steps 6–9 across superblocks"; `recover_parallel`
//! runs only the trace concurrently: one worker per root, up to
//! `threads`, worker 0 the calling thread. The helpers are spawned at
//! entry, and each moves to a CPU of its own ([`Home::place`]: a thread
//! starts on its parent's CPU, and a host that does not balance load
//! never moves it). A helper waits for one thing, worker 0's census, on a
//! channel of its own; it then traces its roots and sends its tracer
//! back on a second channel. Worker 0 takes the census, hands it over,
//! yields until every helper has moved, traces its own roots, and waits
//! busily for each helper to finish before it takes that tracer. Only a
//! helper that panicked, and so sent nothing, is joined: its panic is
//! resumed with its own payload. A worker 0 that unwinds drops its
//! senders, which ends every helper's wait. Tracers take the roots at a
//! fixed stride, so every count in [`RecoveryStats`] depends on the image
//! and the worker count alone, with private mark sets OR-merged
//! afterwards (shared substructure costs duplicated scanning, never
//! correctness). Everything after the trace runs in order on the calling
//! thread: merge, claim, lower `used`, hand the tail to the pool's
//! release thread, sweep, publish, and write back and fence the committed
//! prefix (step 10: an `sfence` orders only its own core's write-backs,
//! and all of them are the caller's).
//!
//! The steps after the trace buy nothing from a second worker. On a
//! restart-shaped heap (8 192 superblocks, 32 of them live; a 2-vCPU
//! guest) a census split over two workers took 0.20–0.36 ms against
//! 0.14 ms on one, a split write-back 0.11–0.16 ms against 0.09 ms, and
//! the sweep takes 30–50 µs, while two workers cut the trace from 1.4 to
//! 0.75 ms. The census is taken after the spawn, not before it, which
//! keeps the helper's spawn and move off the critical path (census
//! first: `restart` `vs_reference` 0.435 → 0.389). A tracer returned
//! through the join handle would cost a join, which waits out the
//! helper's thread exit: 0.03–0.08 ms per recovery, `vs_reference`
//! 0.446 → 0.420. The 510 MiB tail's release (1.2 ms of `madvise` on two
//! workers, 2.4 ms on one) left the critical path for a 0.05–0.10 ms
//! thread spawn: `recover_parallel(2)` 2.52–2.62 → 1.34–1.39 ms, one
//! worker 4.06 → 1.90 ms (medians of 30 cycles), the walk after it no
//! slower.
//!
//! ## Deterministic publish (steps 8–9)
//!
//! The partial lists being rebuilt are *sharded* ([`crate::shard`]):
//! every partial superblock goes to shard
//! [`place_superblock`](crate::shard::place_superblock)`(sb)`, a pure
//! function of the superblock index, and the same shard is stamped as the
//! superblock's owner ([`Desc::set_owner`]). The one sweep yields the free
//! list and each (class, shard) list as one ascending chain, and
//! [`DescList::publish`] links each and stores its head once, keeping the
//! ABA counter. The sweep reads only the image and the merged marks, so
//! the rebuilt lists are the same bytes for any worker count (R1), and a
//! second recovery of a recovered heap changes no byte of metadata (R2).
//!
//! ## Large-block conflict rule (beyond the paper)
//!
//! Conservative tracing can mark a *stale* large-block head (a block that
//! was freed before the crash but whose class-0 descriptor still decodes).
//! If that phantom's span were honored it could swallow superblocks that
//! hold live small blocks — a safety violation, not just a leak. Recovery
//! therefore claims spans with [`Census::claim`], the rule the checker
//! and `rinspect` apply to FULL heads: a marked head is live only if its
//! interior superblocks all carry the `CONTINUATION` tag (persisted at
//! large-allocation time), which also means they hold no mark. Genuine
//! live large blocks always pass; conflicting phantoms are dropped and
//! counted in [`RecoveryStats::rejected_large_phantoms`]. Single-superblock
//! phantoms merely leak one superblock, matching the paper's
//! "conservative collection may leak, never corrupts" contract. The
//! sweep stores FULL into every superblock of a claimed span, so after
//! recovery, as online, a live span reads FULL throughout.

use std::cell::OnceCell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

use nvm::sys::Home;
use telemetry::EventKind;

use crate::anchor::{Anchor, SbState};
use crate::descriptor::{Census, Desc, Slot};
use crate::gc::{MarkSet, TraceFn, Tracer};
use crate::heap::HeapInner;
use crate::layout::NUM_ROOTS;
use crate::lists::DescList;
use crate::shard::{place_superblock, SHARDS};
use crate::size_class::NUM_CLASSES;

/// What recovery found and rebuilt.
///
/// Also published to the heap's metric [`telemetry::Registry`] (see
/// [`crate::Ralloc::telemetry`]) as `recovery_*` gauges plus a
/// `recovery_duration_ns` histogram (one sample per recovery), and to
/// the flight ring as a `recovery_reconcile` → `recovery_sweep` →
/// `recovery_splice` phase trace — this struct is the per-call return
/// value, the registry is the exportable view.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Blocks reachable from the persistent roots (kept allocated).
    pub reachable_blocks: u64,
    /// Bytes those blocks occupy.
    pub reachable_bytes: u64,
    /// Superblocks found free: those the sweep put on the free list plus
    /// the trailing run past the live prefix, which is released instead.
    pub free_superblocks: usize,
    /// Superblocks placed on partial lists.
    pub partial_superblocks: usize,
    /// Fully-allocated superblocks (incl. live large spans).
    pub full_superblocks: usize,
    /// Phantom large heads rejected by the conflict rule.
    pub rejected_large_phantoms: usize,
    /// Words examined by conservative scans (0 when all filters precise).
    pub conservative_words_scanned: u64,
    /// Tagged words accepted as candidate pointers during conservative
    /// scans.
    pub conservative_candidates: u64,
    /// Worker threads used (1 = the paper's sequential recovery).
    pub threads: usize,
    /// Superblocks the superblock frontier came down by: the free run
    /// past the live prefix (counted in `free_superblocks`, never listed)
    /// plus any committed-but-never-carved overshoot.
    pub shrunk_superblocks: usize,
    /// Wall-clock recovery time (the quantity of paper Figure 6).
    pub duration: Duration,
    /// Where `duration` went, phase by phase.
    pub phases: RecoveryPhases,
}

/// Wall time of each recovery phase on the calling thread, in run order.
/// The phases are contiguous laps of one clock, so they sum to
/// [`RecoveryStats::duration`]; published as `recovery_phase_*_ns` gauges
/// (last recovery) beside the `recovery_duration_ns` histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// Cache quiesce, frontier reload and validation, root gathering and
    /// the helpers' spawn.
    pub reconcile: Duration,
    /// The census alone ([`Census::take`]).
    pub census: Duration,
    /// Step 5: the census handed over, the wait for every helper to move
    /// off this CPU, this thread's trace and the wait for each helper to
    /// finish.
    pub mark: Duration,
    /// Claim the marked large heads' spans, find the live prefix and
    /// merge the mark sets over it.
    pub claim: Duration,
    /// Step 6: `used` lowered onto the live prefix (flushed and fenced),
    /// the tail decommitted, and its pages handed to the pool's release
    /// thread: this phase holds that thread's spawn, not the release.
    pub shrink: Duration,
    /// Steps 7–9: the live prefix's descriptors rebuilt and every list
    /// published, while the release thread gives the tail back.
    pub sweep: Duration,
    /// Step 10: the committed prefix flushed and fenced. No part of the
    /// tail's release: recovery returns without waiting for it.
    pub write_back: Duration,
}

impl RecoveryPhases {
    /// `(gauge name, wall time)` per phase, in run order.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("recovery_phase_reconcile_ns", self.reconcile),
            ("recovery_phase_census_ns", self.census),
            ("recovery_phase_mark_ns", self.mark),
            ("recovery_phase_claim_ns", self.claim),
            ("recovery_phase_shrink_ns", self.shrink),
            ("recovery_phase_sweep_ns", self.sweep),
            ("recovery_phase_write_back_ns", self.write_back),
        ]
    }
}

/// Run offline recovery with `threads` workers (1: the paper's sequential
/// recovery). Caller guarantees quiescence.
pub(crate) fn recover_with(inner: &HeapInner, threads: usize) -> RecoveryStats {
    let t0 = Instant::now();
    let pool = &inner.pool;
    let geo = &inner.geo;
    let used = inner.used_sb();
    let threads = threads.max(1);

    // Invalidate every thread cache populated before this point and wait
    // out thread-exit drains already in flight. Cached blocks are
    // unreachable from the roots, so the sweep below reclaims them — the
    // same semantics a real crash gives DRAM caches. Without the wait, a
    // just-joined worker's TLS destructor (which runs *after* its
    // `thread::scope` closure returns) could flush its bins into the
    // lists this function is about to rebuild.
    inner.quiesce_caches();

    // Reconcile: the used prefix — the only region recovery sweeps — and
    // its descriptors must lie inside the committed prefix. A grow commits
    // *before* any `used` bump that relies on it, so a violation here
    // means a corrupt or hand-truncated image, not a crash timing.
    if let Err(why) = geo.check_image(pool.committed_len(), used) {
        panic!("recovery: corrupt image: {why}");
    }
    inner.emit(EventKind::RecoveryReconcile, used as u64, threads as u64);

    // Gather the registered roots (step 4 already happened via get_root).
    let mut roots: Vec<(usize, Option<TraceFn>)> = Vec::new();
    {
        let root_fns = inner.root_fns.lock();
        for i in 0..NUM_ROOTS {
            if let Some(off) = inner.root(i).load().target() {
                let addr = pool.base() as usize + geo.sb(0) + off as usize;
                roots.push((addr, root_fns.get(&i).copied()));
            }
        }
    }
    let mut clock = Clock(t0);
    let mut phases = RecoveryPhases::default();
    let mut stats = RecoveryStats { threads, ..Default::default() };

    // Step 5, the one step that fans out: one worker per root, up to
    // `threads`, worker 0 the calling thread (see the module docs).
    let workers = threads.min(roots.len()).max(1);
    let home = if workers > 1 { Home::here() } else { None };
    let moved = AtomicUsize::new(0);
    let census = OnceCell::new();
    let (census, mut traced) = std::thread::scope(|s| {
        let (roots, home, moved) = (&roots, &home, &moved);
        let (census_txs, helpers): (Vec<_>, Vec<_>) = (1..workers)
            .map(|w| {
                let (census_tx, census_rx) = mpsc::channel();
                let (tracer_tx, tracer_rx) = mpsc::channel();
                let helper = s.spawn(move || {
                    if let Some(home) = home {
                        home.place(w);
                    }
                    moved.fetch_add(1, Ordering::Release);
                    // Disconnected: worker 0 unwound before the census.
                    let census = loop {
                        match census_rx.try_recv() {
                            Ok(census) => break census,
                            Err(TryRecvError::Empty) => std::thread::yield_now(),
                            Err(TryRecvError::Disconnected) => return,
                        }
                    };
                    let _ = tracer_tx.send(trace(census, roots, w, workers));
                });
                (census_tx, (tracer_rx, helper))
            })
            .collect();
        phases.reconcile = clock.lap();
        let census: &Census = census.get_or_init(|| Census::take(pool, geo, used));
        phases.census = clock.lap();
        for census_tx in census_txs {
            let _ = census_tx.send(census);
        }
        // A helper still on this CPU runs only once this thread yields it.
        while moved.load(Ordering::Acquire) < workers - 1 {
            std::thread::yield_now();
        }
        let mut traced = vec![trace(census, roots, 0, workers)];
        for (tracer_rx, helper) in helpers {
            // Busily: a waiter that sleeps may idle its core, and waking
            // one takes longer than the rest of the trace.
            while !helper.is_finished() {
                std::thread::yield_now();
            }
            // Only a helper that panicked is joined: a join waits out the
            // thread's exit, which the steps below overlap instead.
            match tracer_rx.recv() {
                Ok(tracer) => traced.push(tracer),
                Err(_) => resume_unwind(helper.join().expect_err("a helper that sent no tracer panicked")),
            }
        }
        (census, traced)
    });
    phases.mark = clock.lap();

    // The live prefix (see the module docs).
    let mut heads: Vec<usize> = traced.iter().flat_map(|t| t.heads.iter().copied()).collect();
    heads.sort_unstable();
    heads.dedup();
    let claim = census.claim(heads.iter().copied());
    let top = traced.iter().map(Tracer::top).max().unwrap_or(0);
    let keep = top.max(claim.spans.last().map_or(0, |s| s.end));
    let bits = census.bits_below(keep);
    let mut marks = std::mem::replace(&mut traced[0].marks, MarkSet::new(0));
    for t in &traced {
        marks.merge_from(&t.marks, bits);
        stats.conservative_words_scanned += t.cons_words_scanned;
        stats.conservative_candidates += t.cons_hits;
    }
    stats.reachable_blocks = heads.len() as u64;
    stats.reachable_bytes = claim.bytes;
    stats.rejected_large_phantoms = claim.phantoms.len();
    phases.claim = clock.lap();

    // Step 6: the live prefix becomes durable before anything is swept
    // (see the module docs for why that order is crash-safe), and the
    // tail's pages go back on the pool's own thread.
    let (shrunk, pages) = inner.lower_to(keep);
    pool.discard_behind(pages);
    stats.shrunk_superblocks = shrunk;
    stats.free_superblocks = used - keep;
    phases.shrink = clock.lap();

    // Steps 7-9, while the tail's pages go back: sweep `0..keep` and
    // publish every list.
    let swept = sweep(inner, census, &marks, &claim.claimed[..keep]);
    DescList::free_list(geo).publish(pool, geo, &swept.free);
    for (at, chain) in swept.partial.iter().enumerate() {
        let (class, s) = ((at / SHARDS as usize) as u32, (at % SHARDS as usize) as u32);
        DescList::partial_shard(geo, class, s).publish(pool, geo, chain);
    }
    stats.reachable_blocks += swept.blocks;
    stats.reachable_bytes += swept.bytes;
    stats.free_superblocks += swept.free.len();
    stats.partial_superblocks = swept.partial.iter().map(Vec::len).sum();
    stats.full_superblocks = swept.full;
    inner.emit(EventKind::RecoverySweep, stats.reachable_blocks, used as u64);
    inner.emit(EventKind::RecoverySplice, stats.partial_superblocks as u64, stats.free_superblocks as u64);
    phases.sweep = clock.lap();

    // Step 10: write everything back so a crash immediately after
    // recovery restarts from this reconstructed state. Only the committed
    // prefix exists to flush; the uncommitted reservation has no content
    // (and the pool would reject the range).
    if !inner.transient {
        pool.persist(0, pool.committed_len());
    }
    phases.write_back = clock.lap();
    stats.phases = phases;
    stats.duration = t0.elapsed();

    // Publish the exportable view: last-recovery gauges plus one
    // duration sample, so a telemetry snapshot carries recovery results
    // without holding this struct.
    let reg = &inner.telemetry;
    reg.gauge("recovery_reachable_blocks").set(stats.reachable_blocks as i64);
    reg.gauge("recovery_free_superblocks").set(stats.free_superblocks as i64);
    reg.gauge("recovery_partial_superblocks").set(stats.partial_superblocks as i64);
    reg.gauge("recovery_full_superblocks").set(stats.full_superblocks as i64);
    reg.gauge("recovery_threads").set(stats.threads as i64);
    reg.histogram("recovery_duration_ns").observe(stats.duration.as_nanos() as u64);
    for (name, d) in stats.phases.named() {
        reg.gauge(name).set(d.as_nanos() as i64);
    }

    stats
}

/// A phase clock: each lap is the time since the previous one, so the
/// phases tile `duration` with no gaps.
struct Clock(Instant);

impl Clock {
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let d = now - self.0;
        self.0 = now;
        d
    }
}

/// Worker `w`'s part of the trace (step 5): every `workers`-th root from
/// the `w`-th.
fn trace<'c>(census: &'c Census, roots: &[(usize, Option<TraceFn>)], w: usize, workers: usize) -> Tracer<'c> {
    let mut tracer = Tracer::new(census);
    for (addr, filter) in roots.iter().skip(w).step_by(workers) {
        tracer.visit_addr(*addr, *filter);
    }
    tracer.drain();
    tracer
}

/// What the sweep rebuilt: the free list and the list per (class, shard),
/// each ascending, the full superblocks, and the marked small blocks and
/// their bytes.
struct Swept {
    free: Vec<u32>,
    partial: Vec<Vec<u32>>,
    full: usize,
    blocks: u64,
    bytes: u64,
}

/// Rebuild descriptors `0..claimed.len()` (steps 7–9 for the live prefix):
/// per-superblock free chains, anchors, and list members; publishing is
/// the caller's. Partial superblocks are placed on shard
/// `place_superblock(i)`, a pure function of the index.
fn sweep(inner: &HeapInner, census: &Census, marks: &MarkSet, claimed: &[bool]) -> Swept {
    let pool = &inner.pool;
    let geo = &inner.geo;
    let shards = SHARDS as usize;
    let mut out = Swept { free: Vec::new(), partial: vec![Vec::new(); NUM_CLASSES * shards], full: 0, blocks: 0, bytes: 0 };
    for (i, &claimed) in claimed.iter().enumerate() {
        let d = Desc::new(pool, geo, i as u32);
        if claimed {
            // Live large block (head or interior): fully allocated.
            d.set_anchor(Anchor::full(1), Ordering::Relaxed);
            out.full += 1;
            continue;
        }
        // Unreached large heads, stale continuations, and garbage
        // descriptors all become free superblocks.
        let Slot::Small { class, bit, blocks: mc, size, .. } = census.slots[i] else {
            d.set_anchor(Anchor { avail: 0, count: 0, state: SbState::Empty }, Ordering::Relaxed);
            out.free.push(i as u32);
            continue;
        };
        let class = class as u32;
        // Refresh the transient max_count cache without flushing (the
        // persisted class/size bits are rewritten unchanged).
        d.set_size(class, size as u64, mc, true);
        let marked = marks.count(bit, mc);
        out.blocks += marked as u64;
        out.bytes += marked as u64 * size as u64;
        let anchor = match marked {
            n if n == mc => Anchor::full(mc),
            // Nobody walks an EMPTY chain (`flush.rs::push_batch`), so a
            // superblock with no marked block goes EMPTY unlinked and its
            // blocks stay untouched.
            0 => Anchor { avail: 0, count: mc, state: SbState::Empty },
            n => {
                // Chain the unmarked blocks in ascending order (step 7:
                // "keep only traced blocks").
                let sb_addr = pool.base() as usize + geo.sb(i);
                let mut free = (0..mc).filter(|&blk| !marks.is_marked(bit + blk as usize));
                let first = free.next().expect("a partial superblock has a free block");
                let mut prev = first;
                for blk in free {
                    let at = sb_addr + prev as usize * size as usize;
                    // SAFETY: free block first-words; ranges disjoint.
                    unsafe { std::ptr::write(at as *mut u64, blk as u64) };
                    prev = blk;
                }
                Anchor { avail: first, count: mc - n, state: SbState::Partial }
            }
        };
        d.set_anchor(anchor, Ordering::Relaxed);
        match anchor.state {
            SbState::Empty => out.free.push(i as u32),
            SbState::Partial => {
                let s = place_superblock(i);
                d.set_owner(s);
                out.partial[class as usize * shards + s as usize].push(i as u32);
            }
            SbState::Full => out.full += 1,
        }
    }
    out
}
#[cfg(test)]
mod tests {
    use crate::{Ralloc, RallocConfig};
    use crate::gc::{Trace, Tracer};
    use pptr::Pptr;

    /// A persistent singly-linked list node with a precise filter.
    #[repr(C)]
    pub(super) struct Node {
        pub(super) value: u64,
        pub(super) next: Pptr<Node>,
    }

    // SAFETY: `next` is the node's only reference, and it is visited.
    unsafe impl Trace for Node {
        fn trace(&self, t: &mut Tracer<'_>) {
            t.visit_pptr(&self.next);
        }
    }

    fn tracked_heap() -> Ralloc {
        Ralloc::create(8 << 20, RallocConfig::tracked())
    }

    /// Build an n-node list rooted at slot `root`, persisting each node
    /// the way a durably-linearizable application would.
    fn build_list(heap: &Ralloc, root: usize, n: usize) -> Vec<usize> {
        let mut addrs = Vec::with_capacity(n);
        let mut head: *mut Node = std::ptr::null_mut();
        for i in 0..n {
            let p = heap.malloc(std::mem::size_of::<Node>()) as *mut Node;
            assert!(!p.is_null());
            // SAFETY: `p` is a fresh block of at least `size_of::<Node>()` bytes.
            unsafe {
                (*p).value = i as u64;
                (*p).next.set(head);
            }
            // Application-side persistence (paper §2.2: the app is
            // responsible for durable linearizability of its own data).
            let off = p as usize - heap.pool().base() as usize;
            heap.pool().persist(off, std::mem::size_of::<Node>());
            head = p;
            addrs.push(p as usize);
        }
        heap.set_root::<Node>(root, head);
        addrs
    }

    pub(super) fn list_values(heap: &Ralloc, root: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = heap.get_root::<Node>(root);
        while !cur.is_null() {
            // SAFETY: every node on the rooted list is a live block holding a `Node`.
            unsafe {
                out.push((*cur).value);
                cur = (*cur).next.as_ptr();
            }
        }
        out
    }

    #[test]
    fn crash_and_recover_preserves_rooted_list() {
        let heap = tracked_heap();
        build_list(&heap, 0, 100);
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 100);
        assert_eq!(list_values(&heap, 0), (0..100).rev().collect::<Vec<_>>());
        // Heap remains serviceable.
        let p = heap.malloc(64);
        assert!(!p.is_null());
        heap.free(p);
    }

    #[test]
    fn unrooted_blocks_are_reclaimed() {
        let heap = tracked_heap();
        build_list(&heap, 0, 10);
        // Allocate garbage that never gets attached: lost on crash.
        for _ in 0..1000 {
            let p = heap.malloc(64);
            assert!(!p.is_null());
        }
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 10, "leaked blocks must be collected");
    }

    #[test]
    fn recovered_free_space_is_never_handed_out_twice() {
        let heap = tracked_heap();
        let live = build_list(&heap, 0, 200);
        heap.crash_simulated();
        heap.recover();
        let live_set: std::collections::HashSet<usize> = live.into_iter().collect();
        // Allocate aggressively: no returned block may alias a live node.
        for _ in 0..20_000 {
            let p = heap.malloc(std::mem::size_of::<Node>());
            if p.is_null() {
                break;
            }
            assert!(!live_set.contains(&(p as usize)), "GC-surviving block re-allocated");
        }
        assert_eq!(list_values(&heap, 0).len(), 200);
    }

    #[test]
    fn recovery_is_idempotent() {
        let heap = tracked_heap();
        build_list(&heap, 0, 50);
        heap.crash_simulated();
        let s1 = heap.recover();
        let s2 = heap.recover();
        assert_eq!(s1.reachable_blocks, s2.reachable_blocks);
        assert_eq!(s1.free_superblocks, s2.free_superblocks);
        assert_eq!(list_values(&heap, 0).len(), 50);
    }

    #[test]
    fn crash_during_recovery_is_recoverable() {
        let heap = tracked_heap();
        build_list(&heap, 0, 50);
        heap.crash_simulated();
        heap.recover();
        // Crash again immediately (before any new persistence): recovery
        // flushed its reconstruction, so this recovers identically.
        heap.crash_simulated();
        let s = heap.recover();
        assert_eq!(s.reachable_blocks, 50);
        assert_eq!(list_values(&heap, 0).len(), 50);
    }

    #[test]
    fn thread_cached_blocks_recovered_after_crash() {
        let heap = tracked_heap();
        build_list(&heap, 0, 5);
        // Fill the thread cache with freed blocks, then crash: the cache
        // is transient, so those blocks leak until GC reclaims them.
        let ptrs: Vec<_> = (0..100).map(|_| heap.malloc(64)).collect();
        for p in ptrs {
            heap.free(p); // parked in this thread's cache
        }
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 5);
        // All cached blocks are allocatable again; heap serves requests.
        let p = heap.malloc(64);
        assert!(!p.is_null());
    }

    #[test]
    fn large_block_survives_crash() {
        let heap = tracked_heap();
        let size = 3 * crate::size_class::SB_SIZE + 17;
        let p = heap.malloc(size);
        assert!(!p.is_null());
        // SAFETY: `p` is a fresh block of `size` bytes.
        unsafe {
            std::ptr::write_bytes(p, 0xAB, size);
        }
        let off = p as usize - heap.pool().base() as usize;
        heap.pool().persist(off, size);
        heap.set_root::<u8>(0, p);
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 1);
        assert_eq!(stats.reachable_bytes, size as u64);
        let q = heap.get_root::<u8>(0);
        assert_eq!(q, p);
        // SAFETY: `q` is the rooted block of `size` bytes, kept by the recovery.
        unsafe {
            for i in [0usize, 1, size / 2, size - 1] {
                assert_eq!(*q.add(i), 0xAB, "large block byte {i} corrupted");
            }
        }
        // Freeing it afterwards returns the span.
        heap.free(q);
        let r = heap.malloc(64);
        assert!(!r.is_null());
    }

    #[test]
    fn unrooted_large_block_is_reclaimed() {
        let heap = tracked_heap();
        let size = 4 * crate::size_class::SB_SIZE;
        let p = heap.malloc(size);
        assert!(!p.is_null());
        let used_before = heap.used_superblocks();
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 0);
        assert_eq!(stats.free_superblocks, used_before, "span must be split and freed");
    }

    #[test]
    fn a_stale_large_head_over_reused_superblocks_is_a_rejected_phantom() {
        use crate::checker::check_heap;
        use crate::size_class::SB_SIZE;
        let heap = tracked_heap();
        let stale = heap.malloc(4 * SB_SIZE) as usize;
        heap.free(stale as *mut u8);
        // The free list is LIFO, so fills re-type the freed interior
        // superblocks first; the head stays a stale class-0 head.
        let (size, n) = (4096, 3 * SB_SIZE / 4096);
        for i in 0..n {
            let p = heap.malloc(size) as *mut u64;
            assert!((1..4).contains(&((p as usize - stale) / SB_SIZE)), "block {i} not in the span");
            // SAFETY: a fresh block of `size` bytes.
            unsafe { std::slice::from_raw_parts_mut(p, size / 8).fill(i as u64 + 1) };
            heap.pool().persist(p as usize - heap.pool().base() as usize, size);
            heap.set_root_raw(1 + i, p as *const u8);
        }
        heap.set_root_raw(0, stale as *const u8);
        let image = heap.pool().persistent_image();
        for workers in [1, 2] {
            let (heap, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
            assert!(dirty);
            let stats = heap.recover_parallel(workers);
            assert_eq!(stats.rejected_large_phantoms, 1, "{workers} worker(s)");
            for i in 0..n {
                let p = heap.get_root_raw(1 + i) as *const u64;
                // SAFETY: a rooted block of `size` bytes.
                let words = unsafe { std::slice::from_raw_parts(p, size / 8) };
                assert!(words.iter().all(|&w| w == i as u64 + 1), "rooted block {i} changed");
            }
            let report = check_heap(&heap);
            assert!(report.is_consistent(), "{workers} worker(s): {:?}", report.violations);
        }
    }

    #[test]
    fn conservative_root_traces_without_filter() {
        let heap = tracked_heap();
        build_list(&heap, 0, 30);
        heap.crash_simulated();
        // Simulate an application that never called get_root::<T>: drop
        // the registered filter; recovery must fall back to conservative
        // scanning and still find every node (pptr tags make them
        // recognizable).
        heap.clear_root_filter(0);
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 30);
        assert!(stats.conservative_words_scanned > 0);
        assert_eq!(list_values(&heap, 0).len(), 30);
    }

    #[test]
    fn clean_close_then_dirty_reopen_roundtrip_via_image() {
        // Crash image -> new pool at a different base -> recovery: the
        // whole-point integration of position independence + GC.
        let heap = tracked_heap();
        build_list(&heap, 7, 64);
        let image = heap.pool().persistent_image();
        drop(heap);
        let (heap2, dirty) = Ralloc::from_image(&image, RallocConfig::tracked());
        assert!(dirty);
        // Re-register the filter (the paper: call getRoot before recover).
        let _ = heap2.get_root::<Node>(7);
        let stats = heap2.recover();
        assert_eq!(stats.reachable_blocks, 64);
        assert_eq!(list_values(&heap2, 7).len(), 64);
    }

    #[test]
    fn multiple_roots_all_traced() {
        let heap = tracked_heap();
        build_list(&heap, 0, 10);
        build_list(&heap, 1, 20);
        build_list(&heap, 1023, 30);
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 60);
        assert_eq!(list_values(&heap, 0).len(), 10);
        assert_eq!(list_values(&heap, 1).len(), 20);
        assert_eq!(list_values(&heap, 1023).len(), 30);
    }

    #[test]
    fn null_root_clears_reachability() {
        let heap = tracked_heap();
        build_list(&heap, 0, 40);
        heap.set_root::<Node>(0, std::ptr::null());
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 0, "detached structure must be collected");
    }

    #[test]
    fn recovery_phases_tile_the_duration_and_are_published() {
        let heap = tracked_heap();
        build_list(&heap, 0, 2000);
        for _ in 0..2000 {
            let _ = heap.malloc(4096); // garbage: sweep and shrink get work
        }
        heap.crash_simulated();
        let stats = heap.recover();
        let sum: std::time::Duration = stats.phases.named().iter().map(|(_, d)| *d).sum();
        let (sum, total) = (sum.as_nanos() as f64, stats.duration.as_nanos() as f64);
        assert!(sum <= total && sum >= 0.95 * total, "phases {sum} ns vs duration {total} ns");
        assert!(stats.shrunk_superblocks > 0 && !stats.phases.shrink.is_zero());
        for (name, d) in stats.phases.named() {
            assert_eq!(heap.telemetry().gauge(name).get(), d.as_nanos() as i64, "{name}");
        }
    }

    #[test]
    fn recovery_stores_nothing_into_a_superblock_it_empties() {
        use crate::checker::check_heap;
        use crate::size_class::{class_max_count, size_class_of};
        let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
        let size = 256;
        let n = 3 * class_max_count(size_class_of(size).unwrap()) as usize;
        let mut blocks: Vec<usize> = (0..n).map(|_| heap.malloc(size) as usize).collect();
        for &p in &blocks {
            // SAFETY: an allocated block of `size` bytes.
            unsafe { std::ptr::write_bytes(p as *mut u8, 0xA5, size) };
            heap.pool().persist(p - heap.pool().base() as usize, size);
        }
        blocks.iter().for_each(|&p| heap.free(p as *mut u8));
        // A rooted block in the last superblock: the emptied ones are not
        // the heap's tail, which the end-of-recovery shrink would release.
        heap.set_root_raw(0, heap.malloc(crate::SB_SIZE / 2 + 1));
        let used = heap.used_superblocks();
        heap.crash_simulated();
        let stats = heap.recover();
        assert_eq!((stats.reachable_blocks, stats.free_superblocks), (1, used - 1));
        for &p in &blocks {
            // SAFETY: a free block under `used`, on a quiescent heap.
            let bytes = unsafe { std::slice::from_raw_parts(p as *const u8, size) };
            assert!(bytes.iter().all(|&b| b == 0xA5), "recovery stored into block {p:#x}");
        }
        let report = check_heap(&heap);
        assert!(report.is_consistent(), "{:?}", report.violations);
        // A full re-allocation hands out every block once, and carves none.
        let mut again: Vec<usize> = (0..n).map(|_| heap.malloc(size) as usize).collect();
        again.sort_unstable();
        blocks.sort_unstable();
        assert_eq!(again, blocks);
        assert_eq!(heap.used_superblocks(), used);
    }

    #[test]
    fn recovery_stats_duration_positive() {
        let heap = tracked_heap();
        build_list(&heap, 0, 1000);
        heap.crash_simulated();
        let stats = heap.recover();
        assert!(stats.duration.as_nanos() > 0);
        assert_eq!(stats.reachable_blocks, 1000);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::tests::{list_values, Node};
    use crate::checker::check_heap;
    use crate::gc::{Trace, Tracer};
    use crate::{Ralloc, RallocConfig};

    /// Many roots, each a list, so the parallel mark phase has real work
    /// to divide.
    fn build_many_lists(heap: &Ralloc, lists: usize, per: usize) {
        for r in 0..lists {
            let mut head: *mut Node = std::ptr::null_mut();
            for i in 0..per as u64 {
                let p = heap.malloc(std::mem::size_of::<Node>()) as *mut Node;
                assert!(!p.is_null());
                // SAFETY: fresh block.
                unsafe {
                    (*p).value = i;
                    (*p).next.set(head);
                }
                // Application-side durable linearizability (§2.2).
                let off = p as usize - heap.pool().base() as usize;
                heap.pool().persist(off, std::mem::size_of::<Node>());
                head = p;
            }
            heap.set_root::<Node>(r, head);
        }
    }

    #[test]
    fn parallel_recovery_matches_sequential() {
        // This test recovers the SAME heap twice and compares sweep
        // statistics, so a rooted block in the last superblock keeps the
        // first recovery's shrink from lowering `used` between the two.
        let heap = Ralloc::create(32 << 20, RallocConfig::tracked());
        build_many_lists(&heap, 16, 200);
        // Leak garbage so the sweep has work too.
        for _ in 0..2000 {
            let _ = heap.malloc(48);
        }
        heap.set_root_raw(16, heap.malloc(crate::SB_SIZE / 2 + 1));
        heap.crash_simulated();
        let seq = heap.recover();
        let par = heap.recover_parallel(4);
        assert_eq!(seq.reachable_blocks, par.reachable_blocks);
        assert_eq!(seq.reachable_bytes, par.reachable_bytes);
        assert_eq!(seq.free_superblocks, par.free_superblocks);
        assert_eq!(seq.partial_superblocks, par.partial_superblocks);
        assert_eq!(seq.full_superblocks, par.full_superblocks);
        assert_eq!(par.threads, 4);
        let report = check_heap(&heap);
        assert!(report.is_consistent(), "{:?}", report.violations);
    }

    #[test]
    fn parallel_recovery_with_shared_substructure() {
        // Two roots pointing at the same list: per-thread mark sets
        // overlap and must merge without double counting.
        let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
        build_many_lists(&heap, 1, 300);
        let head = heap.get_root::<Node>(0);
        heap.set_root::<Node>(1, head);
        heap.crash_simulated();
        let stats = heap.recover_parallel(2);
        assert_eq!(stats.reachable_blocks, 300, "shared list counted once");
        assert!(check_heap(&heap).is_consistent());
    }

    #[test]
    fn parallel_recovery_usable_afterwards() {
        let heap = Ralloc::create(32 << 20, RallocConfig::tracked());
        build_many_lists(&heap, 8, 100);
        heap.crash_simulated();
        heap.recover_parallel(4);
        // Allocate from the rebuilt lists across several classes.
        let mut held = Vec::new();
        for i in 0..5000usize {
            let p = heap.malloc(8 + (i % 40) * 8);
            assert!(!p.is_null());
            held.push(p);
        }
        for p in held {
            heap.free(p);
        }
        assert!(check_heap(&heap).is_consistent());
    }

    /// A filter that panics on the first block it is handed.
    struct Bomb;
    // SAFETY: it never returns, so it never leaves a reference unvisited.
    unsafe impl Trace for Bomb {
        fn trace(&self, _: &mut Tracer<'_>) {
            panic!("a filter panicked mid-trace");
        }
    }

    /// A filter that panics on worker 0 or on a helper of
    /// `recover_parallel(2)` ends it with that panic's own payload, within
    /// 5 s, and the heap it leaves behind recovers whole once the right
    /// filters are registered.
    #[test]
    fn a_panicking_filter_on_either_worker_is_resumed_and_the_heap_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Roots go to the workers at a stride: worker 0 traces slot 0,
        // the helper slot 1.
        for (slot, worker) in [(0, "worker 0"), (1, "the helper")] {
            let (send, verdict) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
                build_many_lists(&heap, 2, 300);
                heap.crash_simulated();
                let _ = heap.get_root::<Bomb>(slot);
                let panic = catch_unwind(AssertUnwindSafe(|| heap.recover_parallel(2))).expect_err("the filter panics");
                let payload = panic.downcast_ref::<&str>().copied();
                let _ = heap.get_root::<Node>(slot);
                let stats = heap.recover_parallel(2);
                let lists = [list_values(&heap, 0), list_values(&heap, 1)];
                let _ = send.send((payload, stats.reachable_blocks, lists, check_heap(&heap).violations));
            });
            let (payload, reachable, lists, violations) = verdict
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{worker}: no verdict in 5 s"));
            assert_eq!(payload, Some("a filter panicked mid-trace"), "{worker}");
            assert_eq!(reachable, 600, "{worker}");
            for list in lists {
                assert_eq!(list, (0..300).rev().collect::<Vec<u64>>(), "{worker}");
            }
            assert!(violations.is_empty(), "{worker}: {violations:?}");
        }
    }

    #[test]
    fn each_helper_gets_the_next_allowed_cpu_after_worker_zeros() {
        use nvm::sys::helper_cpu;
        let on = |allowed: &[usize], cpu0, workers: usize| (1..workers).map(|w| helper_cpu(allowed, cpu0, w)).collect::<Vec<_>>();
        assert_eq!(on(&[0, 1], 0, 2), [1]);
        assert_eq!(on(&[0, 1], 1, 2), [0]);
        // A gappy mask counts positions, not CPU numbers, and wraps.
        assert_eq!(on(&[2, 5, 7], 5, 4), [7, 2, 5]);
        // Worker 0 off its own mask counts from the first allowed CPU.
        assert_eq!(on(&[3, 4], 9, 3), [4, 3]);
        assert_eq!(on(&[6], 6, 3), [6, 6]);
    }

    #[test]
    fn thread_count_one_is_sequential() {
        let heap = Ralloc::create(8 << 20, RallocConfig::tracked());
        build_many_lists(&heap, 4, 50);
        heap.crash_simulated();
        let s = heap.recover_parallel(1);
        assert_eq!(s.threads, 1);
        assert_eq!(s.reachable_blocks, 200);
    }
}

