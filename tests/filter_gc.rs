//! Filter functions versus conservative collection (paper §4.5.1).
//!
//! Three properties: (1) filters and conservative tracing agree on
//! well-formed pptr structures; (2) filters handle nonstandard pointer
//! representations that conservative scanning cannot see; (3) filters
//! avoid the false-positive retention that conservative scanning is
//! vulnerable to.

use ralloc::{Link, Pptr, Ralloc, RallocConfig, Trace, Tracer};

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

fn build_pptr_list(heap: &Ralloc, root: usize, n: usize) {
    let mut head: *mut Node = std::ptr::null_mut();
    for i in 0..n as u64 {
        let p = heap.malloc(std::mem::size_of::<Node>()) as *mut Node;
        // SAFETY: fresh block.
        unsafe {
            (*p).value = i;
            (*p).next.set(head);
        }
        head = p;
    }
    heap.set_root::<Node>(root, head);
}

#[test]
fn filter_and_conservative_agree_on_pptr_structures() {
    let heap_a = Ralloc::create(8 << 20, RallocConfig::default());
    build_pptr_list(&heap_a, 0, 500);
    let with_filter = heap_a.recover();

    let heap_b = Ralloc::create(8 << 20, RallocConfig::default());
    build_pptr_list(&heap_b, 0, 500);
    heap_b.set_root_raw(0, heap_b.get_root_raw(0));
    let conservative = heap_b.recover();

    assert_eq!(with_filter.reachable_blocks, 500);
    assert_eq!(with_filter.conservative_words_scanned, 0);
    assert_eq!(conservative.reachable_blocks, 500, "tagged pptrs must be found");
    // The conservative scan reads every word of every reachable block.
    let block_words = heap_b.usable_size(heap_b.get_root_raw(0)) / 8;
    assert!(
        conservative.conservative_words_scanned >= (500 * block_words) as u64,
        "{} words scanned, {block_words} words per block",
        conservative.conservative_words_scanned
    );
}

#[test]
fn filters_handle_nonstandard_pointer_representations() {
    // A node that stores its link XOR-obfuscated: conservative scanning
    // can never follow it (no tag pattern), but a filter function can —
    // the paper's generality argument for filters.
    #[repr(C)]
    struct Weird {
        value: u64,
        scrambled: u64, // a `Link<48>` ^ 0xDEADBEEF; 0 = null
    }
    const MASK: u64 = 0xDEAD_BEEF;
    unsafe impl Trace for Weird {
        fn trace(&self, t: &mut Tracer<'_>) {
            if self.scrambled != 0 {
                t.visit_link::<Weird>(Link(self.scrambled ^ MASK));
            }
        }
    }

    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let rb = heap.region_base();
    let mut head: *mut Weird = std::ptr::null_mut();
    for i in 0..100u64 {
        let p = heap.malloc(std::mem::size_of::<Weird>()) as *mut Weird;
        // SAFETY: fresh block.
        unsafe {
            (*p).value = i;
            (*p).scrambled = if head.is_null() {
                0
            } else {
                Link::<48>::new(Some((head as usize - rb) as u64), 0).0 ^ MASK
            };
        }
        head = p;
    }
    heap.set_root::<Weird>(0, head);
    let stats = heap.recover();
    assert_eq!(stats.reachable_blocks, 100, "filter must chase scrambled links");

    // Sanity: once an untyped store drops the filter, conservative
    // tracing only keeps the root node (scrambled links are invisible).
    heap.set_root_raw(0, heap.get_root_raw(0));
    let stats = heap.recover();
    assert_eq!(stats.reachable_blocks, 1, "conservative must not see scrambled links");
}

#[test]
fn filters_avoid_conservative_false_positives() {
    // A "data" node whose payload happens to contain a perfectly tagged
    // pptr bit pattern aimed at a garbage block. Conservative scanning
    // retains the garbage (a paper-sanctioned leak); the filter knows the
    // field is plain data and lets GC reclaim it.
    #[repr(C)]
    struct DataNode {
        looks_like_pointer: u64,
        next: Pptr<DataNode>,
    }
    unsafe impl Trace for DataNode {
        fn trace(&self, t: &mut Tracer<'_>) {
            t.visit_pptr(&self.next); // deliberately NOT the data field
        }
    }

    let build = |heap: &Ralloc| {
        let garbage = heap.malloc(64); // never attached anywhere
        let node = heap.malloc(std::mem::size_of::<DataNode>()) as *mut DataNode;
        // SAFETY: fresh blocks.
        unsafe {
            let field_addr = &(*node).looks_like_pointer as *const u64 as usize;
            (*node).looks_like_pointer = Pptr::<u8>::encode(field_addr, garbage as usize);
            (*node).next.set(std::ptr::null());
        }
        heap.set_root::<DataNode>(0, node);
    };

    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    build(&heap);
    let with_filter = heap.recover();
    assert_eq!(with_filter.reachable_blocks, 1, "filter: only the node survives");

    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    build(&heap);
    heap.set_root_raw(0, heap.get_root_raw(0));
    let conservative = heap.recover();
    assert_eq!(
        conservative.reachable_blocks, 2,
        "conservative: the decoy pattern retains the garbage block"
    );
    assert!(conservative.conservative_candidates >= 1);
}

#[test]
fn a_raw_root_store_drops_the_slots_filter() {
    // A holder's filter follows the region-offset link in its first word,
    // which a conservative scan cannot see.
    #[repr(C)]
    struct Holder {
        link: Link<48>,
    }
    unsafe impl Trace for Holder {
        fn trace(&self, t: &mut Tracer<'_>) {
            t.visit_link::<u64>(self.link);
        }
    }
    // Blocks kept when root 0 ends at an untyped block whose first word
    // is a link to another block, after (or without) a typed store.
    let kept = |typed_first: bool| {
        let heap = Ralloc::create(8 << 20, RallocConfig::default());
        let block = |target: Option<*mut u8>| {
            let p = heap.malloc(64);
            let off = target.map(|d| (d as usize - heap.region_base()) as u64);
            // SAFETY: a fresh 64-byte block.
            unsafe { (p as *mut u64).write(Link::<48>::new(off, 0).0) };
            p
        };
        if typed_first {
            heap.set_root::<Holder>(0, block(None) as *const Holder);
        }
        let linked = block(None);
        heap.set_root_raw(0, block(Some(linked)));
        heap.recover().reachable_blocks
    };
    assert_eq!(kept(false), 1, "a raw root is traced conservatively");
    assert_eq!(kept(true), 1, "the holder's filter outlived the holder: it traced a block that is not one");
}

#[test]
fn untagged_integers_never_retain_blocks() {
    // Plain integers, float bit patterns, and small addresses must never
    // be mistaken for references by the conservative scanner thanks to
    // the 0xA5A5 tag (paper §4.6).
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    let victim = heap.malloc(64); // garbage block the noise could fake
    let node = heap.malloc(512);
    // SAFETY: fresh 512-byte block.
    unsafe {
        let words = node as *mut u64;
        for i in 0..64 {
            std::ptr::write(words.add(i), victim as u64 + i as u64); // untagged addresses
        }
        std::ptr::write(words.add(10), f64::to_bits(3.75));
        std::ptr::write(words.add(11), u64::MAX);
        std::ptr::write(words.add(12), 42);
    }
    heap.set_root_raw(0, node); // conservative root
    let stats = heap.recover();
    assert_eq!(stats.reachable_blocks, 1, "only the scanned node itself survives");
    assert_eq!(stats.conservative_candidates, 0);
}

#[test]
fn mixed_typed_and_conservative_roots() {
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    build_pptr_list(&heap, 0, 50); // typed root
    // Conservative root: block containing tagged pptrs to two children.
    let parent = heap.malloc(64);
    let c1 = heap.malloc(64);
    let c2 = heap.malloc(64);
    // SAFETY: fresh blocks.
    unsafe {
        let w = parent as *mut u64;
        std::ptr::write(w, Pptr::<u8>::encode(w as usize, c1 as usize));
        std::ptr::write(w.add(1), Pptr::<u8>::encode(w.add(1) as usize, c2 as usize));
        std::ptr::write_bytes(c1, 0, 64);
        std::ptr::write_bytes(c2, 0, 64);
    }
    heap.set_root_raw(1, parent);
    let stats = heap.recover();
    assert_eq!(stats.reachable_blocks, 50 + 3);
}
