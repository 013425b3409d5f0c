//! Position independence (paper §4.6): a heap image must be fully usable
//! when mapped at a different virtual address — no absolute pointers may
//! survive in persistent data or reconstructable metadata.

use pds::{NmTree, PStack};
use ralloc::{Pptr, Ralloc, RallocConfig, Trace, Tracer};

/// Reopen a heap image in a fresh pool (the new pool's base address is a
/// fresh allocation, so it differs from the old one in practice; the
/// test also asserts that it does).
fn remap(heap: &Ralloc, cfg: RallocConfig) -> (Ralloc, bool, bool) {
    let old_base = heap.pool().base() as usize;
    let image = heap.pool().persistent_image();
    let (heap2, dirty) = Ralloc::from_image(&image, cfg);
    let moved = heap2.pool().base() as usize != old_base;
    (heap2, dirty, moved)
}

#[test]
fn pptr_list_survives_remap_after_clean_close() {
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

    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let mut head: *mut Node = std::ptr::null_mut();
    for i in 0..200u64 {
        let n = heap.malloc(std::mem::size_of::<Node>()) as *mut Node;
        // SAFETY: fresh node block.
        unsafe {
            (*n).value = i;
            (*n).next.set(head);
        }
        head = n;
    }
    heap.set_root::<Node>(0, head);
    heap.close().unwrap();

    let (heap2, dirty, moved) = remap(&heap, RallocConfig::default());
    assert!(!dirty);
    assert!(moved, "fresh pool should land at a different base");
    drop(heap);

    let mut cur = heap2.get_root::<Node>(0);
    let mut count = 0u64;
    while !cur.is_null() {
        // SAFETY: list reconstructed from the image.
        unsafe {
            assert_eq!((*cur).value, 199 - count);
            cur = (*cur).next.as_ptr();
        }
        count += 1;
    }
    assert_eq!(count, 200);
    // The remapped heap allocates and frees normally.
    let p = heap2.malloc(64);
    assert!(!p.is_null());
    heap2.free(p);
}

#[test]
fn dirty_image_recovers_at_new_base() {
    let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
    let stack = PStack::create(&heap, 3);
    for i in 0..500 {
        stack.push(i * 2);
    }
    // No close: dirty restart with GC at the new address.
    let (heap2, dirty, _moved) = remap(&heap, RallocConfig::tracked());
    assert!(dirty);
    drop((stack, heap));
    // Register the filter function *before* recovery, as the paper
    // requires (getRoot<T> precedes recover()); the packed counted head
    // word carries no pptr tag, so conservative tracing cannot follow it.
    let stack = PStack::attach(&heap2, 3).unwrap();
    let stats = heap2.recover();
    assert_eq!(stats.reachable_blocks, 501);
    assert_eq!(stack.len(), 500);
    assert_eq!(stack.pop(), Some(998));
}

#[test]
fn nm_tree_survives_double_remap() {
    // Two consecutive remaps: offsets must not accumulate error.
    let heap = Ralloc::create(16 << 20, RallocConfig::tracked());
    let tree = NmTree::create(&heap, 0);
    for k in 0..200u64 {
        tree.insert(k * 7 % 1009, k);
    }
    drop(tree);
    let (heap2, dirty, _) = remap(&heap, RallocConfig::tracked());
    assert!(dirty);
    drop(heap);
    // attach registers the NmNode filter before recovery (paper order).
    let tree2 = NmTree::attach(&heap2, 0).unwrap();
    heap2.recover();
    let keys_after_first = tree2.keys();
    // Mutate at the new base, then remap again.
    tree2.insert(5000, 1);
    drop(tree2);
    let (heap3, _, _) = remap(&heap2, RallocConfig::tracked());
    drop(heap2);
    let tree3 = NmTree::attach(&heap3, 0).unwrap();
    heap3.recover();
    let mut expect = keys_after_first;
    expect.push(5000);
    expect.sort_unstable();
    assert_eq!(tree3.keys(), expect);
}

#[test]
fn file_round_trip_preserves_heap() {
    let dir = std::env::temp_dir().join(format!("ralloc-pi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("heap.img");

    {
        let (heap, dirty) = Ralloc::open_file(&path, 8 << 20, RallocConfig::default()).unwrap();
        assert!(!dirty, "fresh file");
        let p = heap.malloc(64) as *mut u64;
        // SAFETY: fresh block.
        unsafe { *p = 0xFEED_FACE };
        heap.set_root::<u64>(0, p);
        heap.close().unwrap();
    }
    {
        let (heap, dirty) = Ralloc::open_file(&path, 8 << 20, RallocConfig::default()).unwrap();
        assert!(!dirty, "clean restart");
        let p = heap.get_root::<u64>(0);
        assert!(!p.is_null());
        // SAFETY: recovered root target.
        unsafe { assert_eq!(*p, 0xFEED_FACE) };
        drop(heap); // WITHOUT close: the next open must report dirty.
    }
    {
        let (heap, dirty) = Ralloc::open_file(&path, 8 << 20, RallocConfig::default()).unwrap();
        assert!(dirty, "unclean shutdown must be detected");
        let _ = heap.get_root::<u64>(0);
        let stats = heap.recover();
        assert_eq!(stats.reachable_blocks, 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}
