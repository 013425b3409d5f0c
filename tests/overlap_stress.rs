//! Overlap freedom (paper Theorem 5.1) and leakage freedom (Theorem 5.2)
//! under concurrency, for Ralloc and both persistent baselines.
//!
//! Every live block carries a full-block signature derived from its own
//! address; any overlap between two live blocks, or a block handed out
//! twice, corrupts a signature and fails the test. Property tests then
//! replay random single-threaded alloc/free traces against an interval
//! model.

use nvm::FlushModel;
use proptest::prelude::*;
use ralloc::PersistentAllocator;
// The churn stress generator is shared with examples/churn_probe.rs (so
// the probe's footprint trajectories stay comparable to this test) and
// lives in workloads::churn.
use workloads::churn::stress;
use workloads::{make_allocator, AllocKind, DynAlloc};

#[test]
fn ralloc_concurrent_signatures_hold() {
    let a = make_allocator(AllocKind::Ralloc, 128 << 20, FlushModel::free());
    stress(&a, 8, 20_000);
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
    // The heap footprint must reach a fixed point when the live set is
    // bounded (Theorem 5.2: freed blocks become available for reuse).
    //
    // The footprint's quantum is one superblock *per size class*: while
    // one fill holds a class's circulating partial superblock off its
    // list (pop → claim → walk → return the surplus), a concurrent fill
    // of that class finds nothing and carves, after which the class has
    // one more in circulation and the next such collision is less
    // likely. A leak grows every round; these late demand steps thin
    // out. So the bound is **fewer than one superblock per active
    // class** after warm-up — 19 classes for the stress's 8..=400 B
    // sizes — which is what separates the two.
    //
    // Post-warm-up growth measured over 1 400 runs of this tree (shipped
    // churn policy; release and dev, 4 shards and — while the count was
    // still an option — 16; 2-CPU host):
    //   growth  +0  +1  +2  +3  +4  +5  +6  +7  +8  +9
    //   runs   329 356 258 196 118  69  38  23   8   5
    // (200 more at one shard: one +10.) With the policy off
    // (whole-superblock fills, no parked bins) 38 of 60 runs step +19 or
    // more — every class at once: exactly +19 in 19 of them, exactly +38
    // in 10 — so the bound still needs bounded retention to pass. A bound
    // of +8 has no margin: 5 of these 1 400 runs exceed it, 8 sit on it.
    let heap = ralloc::Ralloc::create(
        64 << 20,
        ralloc::RallocConfig { flush_half: true, ..Default::default() },
    );
    let a: DynAlloc = std::sync::Arc::new(heap.clone());
    // `stress` draws sizes 8 + 8k, k < 50.
    let active_classes = (0..50)
        .map(|k| ralloc::size_class::size_class_of(8 + 8 * k))
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert_eq!(active_classes, 19);
    // Warm up: grows the heap to its steady footprint (live set + one
    // superblock of thread-cache retention per class per thread).
    for _ in 0..2 {
        stress(&a, 4, 10_000);
    }
    let used_after_warmup = heap.used_superblocks();
    for _ in 0..5 {
        stress(&a, 4, 10_000);
    }
    // (`--nocapture` prints the growth, for soak distributions.)
    println!("churn growth: {used_after_warmup} -> {}", heap.used_superblocks());
    assert!(
        heap.used_superblocks() < used_after_warmup + active_classes,
        "heap keeps growing under bounded live set: {} -> {}",
        used_after_warmup,
        heap.used_superblocks()
    );
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
