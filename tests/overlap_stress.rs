//! Overlap freedom (paper Theorem 5.1) and leakage freedom (Theorem 5.2)
//! under concurrency, for Ralloc and both persistent baselines.
//!
//! Every live block carries a full-block signature derived from its own
//! address; any overlap between two live blocks, or a block handed out
//! twice, corrupts a signature and fails the test. Property tests then
//! replay random single-threaded alloc/free traces against an interval
//! model.

use std::sync::Arc;

use nvm::FlushModel;
use proptest::prelude::*;
use ralloc::{PersistentAllocator, Ralloc, RallocConfig};
// The churn stress generator is shared with examples/churn_probe.rs (so
// the probe's footprint trajectories stay comparable to this test) and
// lives in workloads::churn.
use workloads::churn::stress;
use workloads::{make_allocator, AllocKind, DynAlloc};

#[test]
fn ralloc_concurrent_signatures_hold() {
    let a = make_allocator(AllocKind::Ralloc, 128 << 20, FlushModel::free());
    stress(&a, 8, 20_000);
    // The same stress from a 2 MiB frontier: the heap grows under it.
    let cfg = RallocConfig { flush_model: FlushModel::free(), initial_capacity: Some(2 << 20), ..Default::default() };
    let heap = Arc::new(Ralloc::create(128 << 20, cfg));
    stress(&(heap.clone() as DynAlloc), 8, 20_000);
    assert!(heap.slow_stats().heap_grows.get() > 0, "a 2 MiB frontier never grew");
}

#[test]
fn makalu_concurrent_signatures_hold() {
    let a = make_allocator(AllocKind::Makalu, 128 << 20, FlushModel::free());
    stress(&a, 4, 8_000);
}

#[test]
fn pmdk_concurrent_signatures_hold() {
    let a = make_allocator(AllocKind::Pmdk, 128 << 20, FlushModel::free());
    stress(&a, 4, 4_000);
}

#[test]
fn ralloc_leakage_freedom_under_churn() {
    // Theorem 5.2 on the default heap: freed blocks become available for
    // reuse, so a bounded live set churned by short-lived threads reaches
    // a bounded footprint, and nothing is lost on the way.
    //
    // The bound. `used` rises only when a fill carves, and a fill of a
    // class carves only when no superblock of that class is on a partial
    // list or the free list: every one of them is held — by a thread's
    // bin, which takes one superblock's population at most (a class of
    // ≤ 4 096 B, like all of this stress's 8..=400 B sizes, has a bin of
    // exactly that), or by the live set. Per class that is at most
    // `threads` bins plus a live share far below one population (the
    // whole live set is ≈ 5 superblocks of bytes over 19 classes), so the
    // carve that follows makes at most `threads + 1` superblocks of that
    // class. The paper's whole-superblock Fill is allowed exactly that
    // retention, and a footprint that grows by whole quanta of one
    // superblock per class per thread is it, not a leak.
    //
    // The leak check. After the last round every worker has exited and
    // drained its bins (`stress` joins them), and the main thread holds
    // nothing: every superblock must be free, so `shrink` releases all
    // of them. One block lost in any round pins its superblock.
    let heap = ralloc::Ralloc::create(64 << 20, ralloc::RallocConfig::default());
    let a: DynAlloc = std::sync::Arc::new(heap.clone());
    let threads = 4;
    // `stress` draws sizes 8 + 8k, k < 50.
    let active_classes = (0..50)
        .map(|k| ralloc::size_class::size_class_of(8 + 8 * k))
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert_eq!(active_classes, 19);
    let bound = (threads + 1) * active_classes;
    let mut footprint = Vec::new();
    for round in 0..7 {
        stress(&a, threads, 10_000);
        footprint.push(heap.used_superblocks());
        assert!(
            heap.used_superblocks() <= bound,
            "round {round}: {} superblocks used, past the retention bound {bound} ({footprint:?})",
            heap.used_superblocks()
        );
    }
    // (`--nocapture` prints the trajectory, for soak distributions.)
    println!("churn footprint: {footprint:?}");
    heap.shrink();
    assert_eq!(heap.used_superblocks(), 0, "a superblock stays pinned after every block was freed");
    assert!(ralloc::check_heap(&heap).is_consistent());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random alloc/free traces against an interval model: no two live
    /// blocks may ever intersect, across all size classes and the large
    /// path.
    #[test]
    fn random_trace_disjoint_intervals(ops in proptest::collection::vec((0u8..2, 0usize..20_000), 1..200)) {
        let a = make_allocator(AllocKind::Ralloc, 64 << 20, FlushModel::free());
        let mut live: Vec<(usize, usize)> = Vec::new();
        for (op, arg) in ops {
            if op == 0 || live.is_empty() {
                let size = arg.max(1); // up to ~20 KB: spans small + large
                let p = a.malloc(size) as usize;
                prop_assert!(p != 0);
                for &(q, qsize) in &live {
                    let disjoint = p + size <= q || q + qsize <= p;
                    prop_assert!(disjoint, "overlap: [{p:#x},+{size}) vs [{q:#x},+{qsize})");
                }
                live.push((p, size));
            } else {
                let i = arg % live.len();
                let (p, _) = live.swap_remove(i);
                a.free(p as *mut u8);
            }
        }
        for (p, _) in live {
            a.free(p as *mut u8);
        }
    }

    /// usable_size is monotone and at least the requested size.
    #[test]
    fn usable_size_covers_request(size in 0usize..100_000) {
        let heap = ralloc::Ralloc::create(32 << 20, ralloc::RallocConfig::default());
        let p = heap.malloc(size);
        prop_assert!(!p.is_null());
        prop_assert!(heap.usable_size(p) >= size);
        heap.free(p);
    }
}
