//! Offline recovery: trace, sweep, reconstruct (paper §4.5).
//!
//! Recovery runs while the heap is quiescent (after a crash there are no
//! application threads, paper §3) and performs steps 1–10 of §4.5:
//!
//! 1.  remap (done by the caller when it opened the pool),
//! 2.  thread caches start empty (their *generation* was bumped),
//! 3.  partial lists and the superblock free list are reset,
//! 4.  filter functions were registered by `get_root<T>` calls,
//! 5.  trace all blocks reachable from the persistent roots,
//! 6.  scan the superblock region keeping only traced blocks,
//! 7.  update every descriptor's anchor,
//! 8.  reconstruct the partial lists,
//! 9.  reconstruct the superblock free list,
//! 10. flush all three regions and fence.
//!
//! ## Parallel recovery (paper §6.4 future work, implemented here)
//!
//! The paper notes it is "straightforward to parallelize Step 5 across
//! persistent roots and Steps 6–9 across superblocks"; `recover_parallel`
//! does exactly that. Tracing threads work on disjoint root subsets with
//! private mark sets that are OR-merged afterwards (marking is
//! idempotent, so shared substructure costs duplicated scanning but never
//! correctness). Sweeping threads rebuild disjoint descriptor ranges and
//! publish to the global lists concurrently — the lists are the same
//! lock-free Treiber stacks used online, so no extra synchronization is
//! needed.
//!
//! ## Shard-aware rebuild (steps 8–9)
//!
//! The partial lists being rebuilt are *sharded* ([`crate::shard`]):
//! every partial superblock goes to shard
//! [`place_superblock`](crate::shard::place_superblock)`(sb)`, a pure
//! function of the superblock index, so the rebuilt state is *born
//! sharded* and identical for any worker count; the same shard is
//! stamped as the superblock's owner ([`Desc::set_owner`]), replacing
//! whatever the dead run's fills left there. Each sweep worker
//! accumulates its range's descriptors into local per-(class, shard)
//! batches and publishes each batch with a **single** CAS
//! ([`DescList::splice_slice`]); the publication cost is O(workers ×
//! non-empty shards), not O(superblocks) — no CAS storm on a global head
//! at the end of recovery, which is exactly the failure mode a
//! single-list rebuild would reintroduce at scale.
//!
//! ## Large-block conflict rule (beyond the paper)
//!
//! Conservative tracing can mark a *stale* large-block head (a block that
//! was freed before the crash but whose class-0 descriptor still decodes).
//! If that phantom's span were honored it could swallow superblocks that
//! hold live small blocks — a safety violation, not just a leak. Recovery
//! therefore validates every marked large head: its interior superblocks
//! must all carry the `CONTINUATION` tag (persisted at large-allocation
//! time) and no marks. Genuine live large blocks always pass; conflicting
//! phantoms are dropped. Single-superblock phantoms merely leak one
//! superblock, matching the paper's "conservative collection may leak,
//! never corrupts" contract.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use telemetry::EventKind;

use crate::anchor::{Anchor, SbState};
use crate::descriptor::{Desc, DescKind};
use crate::gc::{MarkSet, TraceFn, Tracer};
use crate::heap::HeapInner;
use crate::layout::NUM_ROOTS;
use crate::lists::DescList;
use crate::shard::{place_superblock, ShardedPartial, SHARDS};
use crate::size_class::{class_block_size, class_max_count, NUM_CLASSES};

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
    /// Superblocks returned to the free list.
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
    /// Trailing fully-free superblocks released (frontier lowered and
    /// tail decommitted) by the end-of-recovery shrink. These were
    /// counted in `free_superblocks` by the sweep and are no longer on
    /// the free list.
    pub shrunk_superblocks: usize,
    /// Wall-clock recovery time (the quantity of paper Figure 6).
    pub duration: Duration,
    /// Where `duration` went, phase by phase.
    pub phases: RecoveryPhases,
}

/// Wall time of each recovery phase, in the order they run. The phases
/// are contiguous laps of one clock, so they sum to
/// [`RecoveryStats::duration`]; published as `recovery_phase_*_ns` gauges
/// (last recovery) beside the `recovery_duration_ns` histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// Cache quiesce, frontier reload and validation, list resets, root
    /// gathering.
    pub reconcile: Duration,
    /// Step 5: trace from the roots (incl. the parallel mark-set merge).
    pub mark: Duration,
    /// Pass A: validate marked large heads, claim their spans, and
    /// total the reachable bytes.
    pub claim: Duration,
    /// Pass B (steps 6-9): rebuild descriptors and lists.
    pub sweep: Duration,
    /// The end-of-recovery `shrink_quiesced`.
    pub shrink: Duration,
    /// Step 10: flush the committed prefix and fence.
    pub write_back: Duration,
}

impl RecoveryPhases {
    /// `(gauge name, wall time)` per phase, in run order.
    pub fn named(&self) -> [(&'static str, Duration); 6] {
        [
            ("recovery_phase_reconcile_ns", self.reconcile),
            ("recovery_phase_mark_ns", self.mark),
            ("recovery_phase_claim_ns", self.claim),
            ("recovery_phase_sweep_ns", self.sweep),
            ("recovery_phase_shrink_ns", self.shrink),
            ("recovery_phase_write_back_ns", self.write_back),
        ]
    }
}

/// Run sequential offline recovery. Caller guarantees quiescence.
pub(crate) fn recover(inner: &HeapInner) -> RecoveryStats {
    recover_with(inner, 1)
}

/// Run offline recovery with `threads` workers.
pub(crate) fn recover_with(inner: &HeapInner, threads: usize) -> RecoveryStats {
    let t0 = Instant::now();
    // Phase clock: each call returns the time since the previous one, so
    // the phases tile `duration` with no gaps.
    let mut last = t0;
    let mut lap = move || {
        let now = Instant::now();
        let d = now - last;
        last = now;
        d
    };
    let mut phases = RecoveryPhases::default();
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
    // lists this function is about to reset and rebuild.
    inner.quiesce_caches();

    // Frontier reconciliation (reserve/commit model): each durable
    // frontier word is the surviving truth after a crash; refresh the
    // published frontier from it, and validate that the used prefix —
    // the only region recovery sweeps — and its descriptors lie inside
    // committed space. The grow protocol persists a frontier word
    // *before* any `used` bump that relies on it, so a violation here
    // means a corrupt or hand-truncated image, not a crash timing.
    for f in &inner.frontiers {
        f.reload(pool);
        if let Err(why) = f.check_word(pool, used) {
            panic!("recovery: corrupt image: {why}");
        }
    }

    // Steps 2-3: empty transient lists (thread caches were invalidated by
    // the crash's generation bump; on a dirty open none exist yet).
    DescList::free_list(geo).reset(pool);
    for class in 0..NUM_CLASSES as u32 {
        ShardedPartial::new(class).reset_all(pool, geo);
    }
    inner.emit(EventKind::RecoveryReconcile, used as u64, threads as u64);

    // Gather the registered roots (step 4 already happened via get_root).
    let mut roots: Vec<(usize, Option<TraceFn>)> = Vec::new();
    {
        let root_fns = inner.root_fns.lock();
        for i in 0..NUM_ROOTS {
            // SAFETY: root slots are 8-aligned metadata words.
            let raw = unsafe { pool.atomic_u64(geo.root(i)) }.load(Ordering::Acquire);
            if let Some(off) = raw.checked_sub(1) {
                let addr = pool.base() as usize + geo.sb(0) + off as usize;
                roots.push((addr, root_fns.get(&i).copied()));
            }
        }
    }
    phases.reconcile = lap();

    // Step 5: trace — sequentially, or across root subsets in parallel.
    let workers = if threads == 1 { 1 } else { threads.min(roots.len()).max(1) };
    let mut traced = fan_out(workers, "tracing worker", |w| {
        let mut tracer = Tracer::new(pool, geo, used);
        for (addr, filter) in roots.iter().skip(w).step_by(workers) {
            tracer.visit_addr(*addr, *filter);
        }
        tracer.drain();
        tracer.into_parts()
    })
    .into_iter();
    let (mut marks, mut cons_words, mut cons_hits) = traced.next().expect("one worker");
    for (m, words, hits) in traced {
        marks.merge_from(&m);
        cons_words += words;
        cons_hits += hits;
    }
    recount(&mut marks);
    phases.mark = lap();

    let mut stats = RecoveryStats {
        reachable_blocks: marks.total,
        conservative_words_scanned: cons_words,
        conservative_candidates: cons_hits,
        threads,
        ..Default::default()
    };

    // Pass A: validate marked large heads and claim their spans.
    let mut claimed = vec![false; used];
    for i in 0..used {
        let d = Desc::new(pool, geo, i as u32);
        if let DescKind::LargeHead { span } = d.classify(used) {
            if !marks.is_marked(i, 0) {
                continue;
            }
            let conflict = (1..span).any(|k| {
                let dk = Desc::new(pool, geo, (i + k) as u32);
                dk.classify(used) != DescKind::Continuation || marks.counts[i + k] != 0
            });
            if conflict {
                stats.rejected_large_phantoms += 1;
                continue;
            }
            for k in 0..span {
                claimed[i + k] = true;
            }
            stats.reachable_bytes += d.block_size();
        }
    }
    // Small-block bytes, recomputed from the merged mark counts.
    for i in 0..used {
        let d = Desc::new(pool, geo, i as u32);
        if let DescKind::Small { class } = d.classify(used) {
            stats.reachable_bytes += marks.counts[i] as u64 * class_block_size(class) as u64;
        }
    }
    phases.claim = lap();

    // Pass B (steps 6-9): rebuild descriptors and lists, in parallel over
    // disjoint superblock ranges when requested.
    let sweep_threads = if threads == 1 || used < 64 { 1 } else { threads };
    let chunk = used.div_ceil(sweep_threads);
    let swept = fan_out(sweep_threads, "sweep worker", |w| {
        let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(used));
        if lo >= hi {
            (0, 0, 0)
        } else {
            sweep_range(inner, &marks, &claimed, lo, hi)
        }
    });
    for (f, p, full) in swept {
        stats.free_superblocks += f;
        stats.partial_superblocks += p;
        stats.full_superblocks += full;
    }
    inner.emit(EventKind::RecoverySweep, stats.reachable_blocks, used as u64);
    inner.emit(
        EventKind::RecoverySplice,
        stats.partial_superblocks as u64,
        stats.free_superblocks as u64,
    );
    phases.sweep = lap();

    // Quiescent-point shrink (the recovery half of the bidirectional
    // frontier): the sweep just rebuilt the lists, so the trailing run of
    // fully-free superblocks is exactly known — release it before the
    // write-back, lowering `used` and the persisted frontier word in the
    // crash-safe order documented on `shrink_quiesced`. A restart whose
    // live set collapsed thereby restarts at live-set footprint instead
    // of its high-water mark.
    stats.shrunk_superblocks = inner.shrink_quiesced();
    phases.shrink = lap();

    // Step 10: write everything back so a crash immediately after
    // recovery restarts from this reconstructed state. Only the
    // committed prefix exists to flush; the uncommitted reservation has
    // no content (and the pool would reject the range).
    if !inner.transient {
        pool.flush(0, pool.committed_len());
        pool.fence();
    }
    phases.write_back = lap();

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
    for (name, d) in phases.named() {
        reg.gauge(name).set(d.as_nanos() as i64);
    }

    stats
}

/// Run `work(w)` for every worker `w` — inline for a single worker, on
/// scoped threads otherwise — and return the results in worker order.
fn fan_out<T: Send>(workers: usize, what: &str, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers == 1 {
        return vec![work(0)];
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
        handles.into_iter().map(|h| h.join().expect(what)).collect()
    })
}

/// Recompute a mark set's per-superblock counts and total (after merges;
/// also normalizes the single-tracer path so both report identically).
fn recount(marks: &mut MarkSet) {
    marks.merge_from(&MarkSet::new(marks.counts.len()));
}

/// Rebuild descriptors `lo..hi`: per-superblock free chains, anchors, and
/// list membership (steps 6-9 for a slice of the heap). Safe to run
/// concurrently over disjoint ranges — each worker accumulates its list
/// publications into local batches and splices every batch with one CAS
/// on the (lock-free) shared heads, so workers contend O(1) times per
/// list rather than once per descriptor. Partial superblocks are placed
/// on shard `place_superblock(i)`, a pure function of the index, so
/// any worker count rebuilds the identical sharded partition.
#[allow(clippy::needless_range_loop)] // `i` is a superblock index, not just a slice cursor
fn sweep_range(
    inner: &HeapInner,
    marks: &MarkSet,
    claimed: &[bool],
    lo: usize,
    hi: usize,
) -> (usize, usize, usize) {
    let pool = &inner.pool;
    let geo = &inner.geo;
    let used = inner.used_sb();
    let shards = SHARDS as usize;
    let (mut frees, mut partials, mut fulls) = (0, 0, 0);
    let mut free_batch: Vec<u32> = Vec::new();
    let mut partial_batches: Vec<Vec<u32>> = vec![Vec::new(); NUM_CLASSES * shards];
    for i in lo..hi {
        let d = Desc::new(pool, geo, i as u32);
        if claimed[i] {
            // Live large block (head or interior): fully allocated.
            d.set_anchor(Anchor::full(1), Ordering::Relaxed);
            fulls += 1;
            continue;
        }
        match d.classify(used) {
            DescKind::Small { class } => {
                let mc = class_max_count(class);
                let bsize = class_block_size(class) as usize;
                // Refresh the transient max_count cache without flushing
                // (the persisted class/size bits are rewritten unchanged).
                d.set_size(class, bsize as u64, mc, true);
                let marked = marks.counts[i];
                let anchor = if marked == mc {
                    Anchor::full(mc)
                } else if marked == 0 {
                    // Nobody walks an EMPTY chain (`flush.rs::push_batch`),
                    // so a superblock with no marked block goes EMPTY
                    // unlinked and its blocks stay untouched.
                    Anchor { avail: 0, count: mc, state: SbState::Empty }
                } else {
                    // Chain the unmarked blocks in ascending order (step 6:
                    // "keep only traced blocks").
                    let sb_addr = pool.base() as usize + geo.sb(i);
                    let mut first: Option<u32> = None;
                    let mut prev: Option<u32> = None;
                    for blk in 0..mc {
                        if marks.is_marked(i, blk) {
                            continue;
                        }
                        if let Some(p) = prev {
                            // SAFETY: free block first-words; ranges disjoint.
                            unsafe {
                                std::ptr::write((sb_addr + p as usize * bsize) as *mut u64, blk as u64)
                            };
                        } else {
                            first = Some(blk);
                        }
                        prev = Some(blk);
                    }
                    Anchor { avail: first.unwrap(), count: mc - marked, state: SbState::Partial }
                };
                d.set_anchor(anchor, Ordering::Relaxed);
                match anchor.state {
                    SbState::Empty => {
                        free_batch.push(i as u32);
                        frees += 1;
                    }
                    SbState::Partial => {
                        let s = place_superblock(i);
                        d.set_owner(s);
                        partial_batches[class as usize * shards + s as usize].push(i as u32);
                        partials += 1;
                    }
                    SbState::Full => fulls += 1,
                }
            }
            // Unreached large heads, stale continuations, and garbage
            // descriptors all become free superblocks.
            DescKind::LargeHead { .. } | DescKind::Continuation | DescKind::Invalid => {
                d.set_anchor(
                    Anchor { avail: 0, count: 0, state: SbState::Empty },
                    Ordering::Relaxed,
                );
                free_batch.push(i as u32);
                frees += 1;
            }
        }
    }
    // Publish: one CAS per non-empty batch, O(workers) total per list.
    for (slot, batch) in partial_batches.iter().enumerate() {
        if !batch.is_empty() {
            let (class, s) = ((slot / shards) as u32, (slot % shards) as u32);
            DescList::partial_shard(geo, class, s).splice_slice(pool, geo, batch);
        }
    }
    DescList::free_list(geo).splice_slice(pool, geo, &free_batch);
    (frees, partials, fulls)
}
#[cfg(test)]
mod tests {
    use crate::{Ralloc, RallocConfig};
    use crate::gc::{Trace, Tracer};
    use pptr::Pptr;

    /// A persistent singly-linked list node with a precise filter.
    #[repr(C)]
    struct Node {
        value: u64,
        next: Pptr<Node>,
    }

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

    fn list_values(heap: &Ralloc, root: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = heap.get_root::<Node>(root);
        while !cur.is_null() {
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
    #[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry gauges, which are compiled out")]
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
    use crate::checker::check_heap;
    use crate::gc::{Trace, Tracer};
    use crate::{Ralloc, RallocConfig};
    use pptr::Pptr;

    #[repr(C)]
    struct Node {
        value: u64,
        next: Pptr<Node>,
    }
    unsafe impl Trace for Node {
        fn trace(&self, t: &mut Tracer<'_>) {
            t.visit_pptr(&self.next);
        }
    }

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

