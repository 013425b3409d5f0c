//! Cross-crate integration: every data structure on every allocator it
//! supports, through the shared `PersistentAllocator` trait — the same
//! composition the benchmark harness uses.

use nvm::FlushModel;
use pds::{PKv, PQueue, RbTree};
use ralloc::PersistentAllocator;
use workloads::{make_allocator, AllocKind};

#[test]
fn queue_on_every_allocator() {
    for kind in AllocKind::all() {
        let a = make_allocator(kind, 32 << 20, FlushModel::free());
        let q = PQueue::new(a);
        for i in 0..5_000u64 {
            assert!(q.enqueue(i), "{kind:?}");
        }
        for i in 0..5_000u64 {
            assert_eq!(q.dequeue(), Some(i), "{kind:?}");
        }
        assert_eq!(q.dequeue(), None);
        q.destroy();
    }
}

#[test]
fn rbtree_on_every_allocator() {
    for kind in AllocKind::all() {
        let a = make_allocator(kind, 32 << 20, FlushModel::free());
        let mut t = RbTree::new(a);
        for k in 0..1_000u64 {
            t.insert(k.wrapping_mul(2654435761) % 4096, k);
        }
        t.validate();
        let keys = t.keys();
        for &k in keys.iter().step_by(3) {
            assert!(t.remove(k).is_some(), "{kind:?}");
        }
        t.validate();
    }
}

#[test]
fn kvstore_on_every_allocator() {
    for kind in AllocKind::all() {
        let a = make_allocator(kind, 64 << 20, FlushModel::free());
        let kv = PKv::new(a, 256);
        for k in 0..2_000u64 {
            kv.set(k, &k.to_le_bytes());
        }
        for k in 0..2_000u64 {
            assert_eq!(kv.get(k).unwrap(), k.to_le_bytes(), "{kind:?}");
        }
        // Every update allocates a new entry and frees the old one.
        for k in 0..500u64 {
            kv.set(k, &[1u8; 200]);
        }
        for k in 0..500u64 {
            assert_eq!(kv.get(k).unwrap().len(), 200, "{kind:?}");
        }
        for k in 0..500u64 {
            assert_eq!(kv.delete(k).map(|v| v.len()), Some(200), "{kind:?}");
        }
        assert_eq!(kv.len(), 1_500, "{kind:?}");
        kv.destroy();
    }
}

#[test]
fn flush_accounting_separates_the_allocators() {
    // The quantitative heart of the paper: flushes per malloc/free pair.
    // Ralloc ~0 (amortized), Makalu >= 2 (alloc byte on both ops),
    // PMDK >= 8 (log + list + header + dest on both ops).
    let ops = 2_000usize;

    let ralloc = ralloc::Ralloc::create(64 << 20, ralloc::RallocConfig::default());
    let warm: Vec<_> = (0..64).map(|_| ralloc.malloc(64)).collect();
    for p in warm {
        ralloc.free(p);
    }
    let f0 = ralloc.pool().stats().fences();
    for _ in 0..ops {
        let p = ralloc.malloc(64);
        ralloc.free(p);
    }
    let ralloc_fpo = (ralloc.pool().stats().fences() - f0) as f64 / ops as f64;

    let makalu = baselines::MakaluSim::create(64 << 20, FlushModel::free());
    let warm: Vec<_> = (0..64).map(|_| makalu.malloc(64)).collect();
    for p in warm {
        makalu.free(p);
    }
    let f0 = makalu.pool().stats().fences();
    for _ in 0..ops {
        let p = makalu.malloc(64);
        makalu.free(p);
    }
    let makalu_fpo = (makalu.pool().stats().fences() - f0) as f64 / ops as f64;

    let pmdk = baselines::PmdkSim::create(64 << 20, nvm::Mode::Direct, FlushModel::free());
    let warm: Vec<_> = (0..64).map(|_| pmdk.malloc(64)).collect();
    for p in warm {
        pmdk.free(p);
    }
    let f0 = pmdk.pool().stats().fences();
    for _ in 0..ops {
        let p = pmdk.malloc(64);
        pmdk.free(p);
    }
    let pmdk_fpo = (pmdk.pool().stats().fences() - f0) as f64 / ops as f64;

    assert!(ralloc_fpo < 0.1, "Ralloc fences/op = {ralloc_fpo} (should be ~0)");
    assert!(makalu_fpo >= 1.9, "Makalu fences/op = {makalu_fpo} (should be >= 2)");
    assert!(pmdk_fpo >= 6.0, "PMDK fences/op = {pmdk_fpo} (should be >= 6)");
    assert!(
        pmdk_fpo > makalu_fpo && makalu_fpo > ralloc_fpo,
        "persistence-cost ordering violated: {ralloc_fpo} {makalu_fpo} {pmdk_fpo}"
    );
}
