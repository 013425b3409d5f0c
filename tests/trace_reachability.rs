//! Recovery keeps exactly the blocks reachable from the roots (paper
//! §4.5): on seeded random graphs of two node types, traced through
//! filters and conservatively, with 1, 2 and 3 workers; and it survives
//! hostile links, a crash image whose root slots and rooted nodes carry
//! flipped bytes, and hostile transient metadata, flipped bytes in its
//! anchors and list heads, which it rebuilds to what a clean image gives.

use std::collections::{HashMap, HashSet};

use ralloc::descriptor::ANCHOR_OFF;
use ralloc::layout::{FLIGHT_OFF, FREE_LIST_OFF, ROOTS_OFF, USED_SB_OFF};
use ralloc::shard::SHARDS;
use ralloc::size_class::NUM_CLASSES;
use ralloc::{check_heap, Pptr, Ralloc, RallocConfig, RecoveryStats, Trace, Tracer, SB_SIZE};

/// SplitMix64: a seeded stream, so a failing seed replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[repr(C)]
struct A {
    val: u64,
    b: Pptr<B>,
    a: Pptr<A>,
    odd: Pptr<A>,
}

/// Its links where an `A` holds its value, so that one type's filter run
/// on the other's block visits other words.
#[repr(C)]
struct B {
    a: Pptr<A>,
    b: Pptr<B>,
    big: Pptr<Big>,
    val: u64,
}

/// The head of a large block: a value and a link back into the graph.
#[repr(C)]
struct Big {
    val: u64,
    a: Pptr<A>,
}

// SAFETY: every link an `A` holds is visited.
unsafe impl Trace for A {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_pptr(&self.b);
        t.visit_pptr(&self.a);
        t.visit_pptr(&self.odd);
    }
}

// SAFETY: every link a `B` holds is visited.
unsafe impl Trace for B {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_pptr(&self.a);
        t.visit_pptr(&self.b);
        t.visit_pptr(&self.big);
    }
}

// SAFETY: `a` is the only link a `Big` holds.
unsafe impl Trace for Big {
    fn trace(&self, t: &mut Tracer<'_>) {
        t.visit_pptr(&self.a);
    }
}

/// Four words per node: both types share one 32-byte class.
const NODE: usize = std::mem::size_of::<A>();
/// Large blocks of three superblocks.
const BIG: usize = 3 * SB_SIZE;
/// The tail-waste class: 48 B leaves 16 B at each superblock's end.
const LEAF: usize = 48;

/// How a root is traced.
#[derive(Clone, Copy)]
enum Filter {
    A,
    B,
    Leaf,
    Conservative,
}

/// A built heap and what a recovery must keep of it: every block by its
/// offset from the pool base, so the model holds for an adopted copy.
struct Graph {
    image: Vec<u8>,
    /// Per node: offset, is-`B`, value, and the offsets its three links
    /// hold (0: null, or a target recovery must refuse).
    nodes: Vec<(usize, bool, u64, [usize; 3])>,
    /// Root slot, filter and target offset.
    roots: Vec<(usize, Filter, usize)>,
    /// The reachable large block, the node its head links to, the
    /// unreachable large block and the rooted leaf.
    big: usize,
    big_link: usize,
    garbage: usize,
    leaf: usize,
    /// Offsets of every block a recovery must keep.
    reachable: HashSet<usize>,
}

/// Build a graph of `typed` filtered nodes and `parts` conservative parts
/// of `part` nodes each, with links drawn by `rng`, on a fresh heap of
/// `capacity` bytes.
///
/// Filtered roots share the typed part: A→B→A chains, cycles and shared
/// nodes across three superblocks or more, and `Pptr`s to the rooted large
/// block, whose head links back. Each conservative root owns a part of its
/// own, so every worker count scans the same words. Some links name
/// targets recovery must refuse: block interiors, the heap's metadata,
/// superblocks past `used`, a class's tail waste and a large block's
/// interior. The unreachable large block lies below the reachable one.
fn build(rng: &mut Rng, capacity: usize, typed: usize, parts: usize, part: usize) -> Graph {
    let heap = Ralloc::create(capacity, RallocConfig::default());
    let base = heap.pool().base() as usize;
    let n = typed + parts * part;
    let addrs: Vec<usize> = (0..n).map(|_| heap.malloc(NODE) as usize).collect();
    let is_b: Vec<bool> = (0..n).map(|_| rng.below(2) == 1).collect();
    let (garbage, big) = (heap.malloc(BIG) as usize, heap.malloc(BIG) as usize);
    let leaf = heap.malloc(LEAF) as usize;
    assert!(addrs.iter().chain([&garbage, &big, &leaf]).all(|&p| p != 0));
    assert!(garbage < big, "the unreachable span lies inside the live prefix");
    let leaf_sb = leaf & !(SB_SIZE - 1);
    assert_eq!(heap.usable_size(leaf as *const u8), LEAF);
    let refused = [
        addrs[rng.below(n)] + 8,
        addrs[rng.below(n)] + 16,
        base,
        base + 64,
        heap.region_base() + (heap.used_superblocks() + 2) * SB_SIZE,
        leaf_sb + SB_SIZE / LEAF * LEAF,
        big + 64,
        big + SB_SIZE,
        garbage + 2 * SB_SIZE,
    ];
    // Node `i`'s part: `0..typed`, then the conservative parts.
    let range = |i: usize| match i < typed {
        true => 0..typed,
        false => {
            let p = (i - typed) / part;
            typed + p * part..typed + (p + 1) * part
        }
    };
    let pick = |rng: &mut Rng, i: usize, want_b: bool| {
        let r = range(i);
        (0..8).map(|_| r.start + rng.below(r.len())).find(|&j| is_b[j] == want_b).map_or(0, |j| addrs[j])
    };
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let odd = |rng: &mut Rng| match rng.below(4) {
            0 => refused[rng.below(refused.len())],
            _ => 0,
        };
        let links = match is_b[i] {
            false => [pick(rng, i, true), if rng.below(3) == 0 { pick(rng, i, false) } else { 0 }, odd(rng)],
            true if i < typed && rng.below(40) == 0 => [pick(rng, i, false), pick(rng, i, true), big],
            true => [pick(rng, i, false), if rng.below(3) == 0 { pick(rng, i, true) } else { 0 }, odd(rng)],
        };
        let val = i as u64 + 1;
        // SAFETY: a fresh node-sized block; the `Pptr`s are set in place
        // because they are self-relative.
        unsafe {
            if is_b[i] {
                let p = addrs[i] as *mut B;
                p.write(B { a: Pptr::null(), b: Pptr::null(), big: Pptr::null(), val });
                (*p).a.set(links[0] as *const A);
                (*p).b.set(links[1] as *const B);
                (*p).big.set(links[2] as *const Big);
            } else {
                let p = addrs[i] as *mut A;
                p.write(A { val, b: Pptr::null(), a: Pptr::null(), odd: Pptr::null() });
                (*p).b.set(links[0] as *const B);
                (*p).a.set(links[1] as *const A);
                (*p).odd.set(links[2] as *const A);
            }
        }
        nodes.push((addrs[i] - base, is_b[i], val, links.map(|l| l.saturating_sub(base))));
    }
    let big_link = (0..typed).find(|&i| !is_b[i]).map(|i| addrs[i]).expect("a typed A");
    // SAFETY: fresh large blocks; their heads are written in place.
    unsafe {
        for (span, val) in [(big, 7), (garbage, 8)] {
            (span as *mut Big).write(Big { val, a: Pptr::null() });
        }
        (*(big as *mut Big)).a.set(big_link as *const A);
        (*(garbage as *mut Big)).a.set(big_link as *const A);
    }
    let mut roots = vec![(0, Filter::Leaf, leaf - base)];
    // Root 1 is a typed `B` that reaches the large block.
    let first_b = (0..typed).find(|&i| is_b[i]).expect("a typed B");
    // SAFETY: node `first_b` is a `B` written above.
    unsafe { (*(addrs[first_b] as *mut B)).big.set(big as *const Big) };
    nodes[first_b].3[2] = big - base;
    roots.push((1, Filter::B, addrs[first_b] - base));
    for slot in 2..8 {
        let i = rng.below(typed);
        roots.push((slot, if is_b[i] { Filter::B } else { Filter::A }, addrs[i] - base));
    }
    for p in 0..parts {
        roots.push((8 + p, Filter::Conservative, addrs[typed + p * part] - base));
    }
    for &(slot, filter, off) in &roots {
        match filter {
            Filter::A => heap.set_root::<A>(slot, (base + off) as *const A),
            Filter::B => heap.set_root::<B>(slot, (base + off) as *const B),
            Filter::Leaf => heap.set_root::<u64>(slot, (base + off) as *const u64),
            Filter::Conservative => heap.set_root_raw(slot, (base + off) as *const u8),
        }
    }
    let reachable = reach(&nodes, &roots, (big - base, big_link - base));
    let image = heap.pool().persistent_image();
    let (big, big_link, garbage, leaf) = (big - base, big_link - base, garbage - base, leaf - base);
    Graph { image, nodes, roots, big, big_link, garbage, leaf, reachable }
}

/// Offsets reachable from `roots` over the model's links; `big` is the
/// large block's head and the node it links to.
fn reach(nodes: &[(usize, bool, u64, [usize; 3])], roots: &[(usize, Filter, usize)], big: (usize, usize)) -> HashSet<usize> {
    let at: HashMap<usize, usize> = nodes.iter().enumerate().map(|(i, n)| (n.0, i)).collect();
    let mut seen = HashSet::new();
    let mut stack: Vec<usize> = roots.iter().map(|r| r.2).collect();
    while let Some(off) = stack.pop() {
        if !seen.insert(off) {
            continue;
        }
        match at.get(&off) {
            Some(&i) => stack.extend(nodes[i].3.iter().filter(|&&l| at.contains_key(&l) || l == big.0)),
            None if off == big.0 => stack.push(big.1),
            None => {}
        }
    }
    seen
}

/// Adopt `image`, register the typed roots' filters as an application
/// would (the conservative roots stay unregistered), and recover.
fn recover(g: &Graph, image: &[u8], workers: usize, cfg: RallocConfig) -> (Ralloc, RecoveryStats) {
    let (heap, dirty) = Ralloc::from_image(image, cfg);
    assert!(dirty, "an image of a heap never closed demands recovery");
    for &(slot, filter, _) in &g.roots {
        match filter {
            Filter::A => _ = heap.get_root::<A>(slot),
            Filter::B => _ = heap.get_root::<B>(slot),
            Filter::Leaf => _ = heap.get_root::<u64>(slot),
            Filter::Conservative => {}
        }
    }
    let stats = heap.recover_parallel(workers);
    (heap, stats)
}

/// What a recovery found, less the worker count, the times and what
/// depends on `used` before it (the free run past the live prefix).
fn found(s: &RecoveryStats) -> [u64; 7] {
    [
        s.reachable_blocks,
        s.reachable_bytes,
        s.partial_superblocks as u64,
        s.full_superblocks as u64,
        s.rejected_large_phantoms as u64,
        s.conservative_words_scanned,
        s.conservative_candidates,
    ]
}

/// The heap's header below the flight ring and its used descriptors, as
/// the heap reads them: recovery writes back nothing it rebuilds. Only
/// `used` must be durable, and equal the live one.
fn metadata(heap: &Ralloc) -> (Vec<u8>, Vec<u8>) {
    let image = heap.pool().persistent_image();
    let geo = heap.geometry();
    let used = u64::from_le_bytes(image[USED_SB_OFF..USED_SB_OFF + 8].try_into().unwrap()) as usize;
    assert_eq!(used, heap.used_superblocks(), "the lowered `used` is not durable");
    // SAFETY: the metadata region and the used descriptors lie inside the
    // committed prefix, and the heap is quiescent.
    let live = unsafe { std::slice::from_raw_parts(heap.pool().base(), geo.desc(used)) };
    (live[..FLIGHT_OFF].to_vec(), live[geo.desc(0)..].to_vec())
}

/// The kept set is exactly the reachable set: the count, every reachable
/// value and link intact, and every unreachable block handed out again
/// before the heap carves a superblock, none of them a kept one.
fn check_exact(g: &Graph, heap: &Ralloc, stats: &RecoveryStats, workers: usize) {
    let base = heap.pool().base() as usize;
    assert_eq!(stats.reachable_blocks, g.reachable.len() as u64, "{workers} workers: reachable blocks");
    for &(off, is_b, val, links) in g.nodes.iter().filter(|n| g.reachable.contains(&n.0)) {
        // SAFETY: a kept node of the type it was written as: recovery
        // changes no reachable byte.
        let (v, got) = unsafe {
            match is_b {
                true => {
                    let p = &*((base + off) as *const B);
                    (p.val, [p.a.as_ptr() as usize, p.b.as_ptr() as usize, p.big.as_ptr() as usize])
                }
                false => {
                    let p = &*((base + off) as *const A);
                    (p.val, [p.b.as_ptr() as usize, p.a.as_ptr() as usize, p.odd.as_ptr() as usize])
                }
            }
        };
        assert_eq!(v, val, "{workers} workers: node at {off:#x} (B: {is_b}) changed");
        assert_eq!(got.map(|l| l.saturating_sub(base)), links, "{workers} workers: links of {off:#x}");
    }
    // SAFETY: the kept large block's head.
    let head = unsafe { &*((base + g.big) as *const Big) };
    assert_eq!((head.val, head.a.as_ptr() as usize - base), (7, g.big_link), "{workers} workers: the large head changed");
    let report = check_heap(heap);
    assert!(report.is_consistent(), "{workers} workers: {:?}", report.violations);
    let used = heap.used_superblocks();
    let mut handed = HashSet::new();
    while heap.used_superblocks() == used {
        let p = heap.malloc(NODE) as usize;
        assert!(p != 0 && handed.len() < 1 << 20, "{workers} workers: the heap never carved");
        handed.insert(p - base);
    }
    let kept = g.reachable.iter().find(|off| handed.contains(off));
    assert_eq!(kept, None, "{workers} workers: a kept block was handed out");
    let unreachable = g.nodes.iter().map(|n| n.0).chain([g.garbage]).filter(|off| !g.reachable.contains(off));
    for off in unreachable {
        assert!(handed.contains(&off), "{workers} workers: unreachable block {off:#x} was not freed");
    }
}

/// Seeded graphs recover to exactly their reachable sets, with identical
/// counts for 1, 2 and 3 workers.
#[test]
fn recovery_keeps_exactly_the_reachable_blocks_for_any_worker_count() {
    for seed in [11, 12, 13] {
        let g = build(&mut Rng(seed), 16 << 20, 5000, 3, 200);
        assert!(g.reachable.contains(&g.big) && g.reachable.contains(&g.leaf), "seed {seed}");
        assert!(g.reachable.len() < g.nodes.len(), "seed {seed}: every node reachable");
        let mut first = None;
        for workers in [1, 2, 3] {
            let (heap, stats) = recover(&g, &g.image, workers, RallocConfig::default());
            check_exact(&g, &heap, &stats, workers);
            assert!(stats.conservative_words_scanned > 0, "seed {seed}: no conservative root was scanned");
            let counts = (found(&stats), stats.free_superblocks, stats.shrunk_superblocks);
            assert_eq!(*first.get_or_insert(counts), counts, "seed {seed}, {workers} workers");
        }
    }
}

/// Flip one byte of a root slot or of a rooted node's first two words in
/// a valid image, `flips` times from `seed`: every recovery completes,
/// leaves a consistent heap, and a second recovery changes nothing (R2).
fn hostile_links(seed: u64, flips: usize) {
    let mut rng = Rng(seed);
    let g = build(&mut rng, 2 << 20, 400, 2, 100);
    let slots = g.roots.iter().map(|r| ROOTS_OFF + 8 * r.0..ROOTS_OFF + 8 * r.0 + 8);
    let words = g.roots.iter().map(|r| r.2..r.2 + 16);
    let targets: Vec<usize> = slots.chain(words).flatten().collect();
    for flip in 0..flips {
        let mut image = g.image.clone();
        let at = targets[rng.below(targets.len())];
        image[at] ^= 1 + rng.below(255) as u8;
        let workers = 1 + flip % 3;
        let what = format!("seed {seed}, flip {flip}: byte {at:#x}, {workers} workers");
        let (heap, first) = recover(&g, &image, workers, RallocConfig::tracked());
        let report = check_heap(&heap);
        assert!(report.is_consistent(), "{what}: {:?}", report.violations);
        let once = metadata(&heap);
        let again = heap.recover_parallel(workers);
        assert_eq!(again.shrunk_superblocks, 0, "{what}: the second recovery shrank");
        assert_eq!(found(&first), found(&again), "{what}: the second recovery found other blocks");
        assert!(once == metadata(&heap), "{what}: the second recovery changed durable metadata");
    }
}

/// Flip one byte of a used descriptor's anchor word, or of the free-list
/// head or a partial-list head, in a valid image, `flips` times from
/// `seed`. Recovery reads none of them but a head's ABA counter, which it
/// keeps: every recovery finds what the clean image's does and rebuilds
/// the same descriptors and header, but for the flipped word when it is a
/// head, and a second recovery changes nothing.
fn hostile_metadata(seed: u64, flips: usize) {
    let mut rng = Rng(seed);
    let g = build(&mut rng, 2 << 20, 400, 2, 100);
    let (clean, clean_found) = {
        let (heap, stats) = recover(&g, &g.image, 1, RallocConfig::tracked());
        (metadata(&heap), found(&stats))
    };
    let (heap, _) = Ralloc::from_image(&g.image, RallocConfig::default());
    let geo = heap.geometry();
    let anchors = (0..heap.used_superblocks()).map(|i| geo.desc(i) + ANCHOR_OFF);
    let partials = (1..NUM_CLASSES as u32).flat_map(|c| (0..SHARDS).map(move |s| geo.partial_head(c, s)));
    let heads: Vec<usize> = std::iter::once(FREE_LIST_OFF).chain(partials).collect();
    let words: Vec<usize> = anchors.chain(heads.iter().copied()).collect();
    drop(heap);
    for flip in 0..flips {
        let mut image = g.image.clone();
        let word = words[rng.below(words.len())];
        let at = word + rng.below(8);
        image[at] ^= 1 + rng.below(255) as u8;
        let workers = 1 + flip % 3;
        let what = format!("seed {seed}, flip {flip}: byte {at:#x}, {workers} workers");
        let (heap, first) = recover(&g, &image, workers, RallocConfig::tracked());
        let report = check_heap(&heap);
        assert!(report.is_consistent(), "{what}: {:?}", report.violations);
        assert_eq!(found(&first), clean_found, "{what}: the recovery found other blocks");
        let once = metadata(&heap);
        assert!(once.1 == clean.1, "{what}: the rebuilt descriptors differ from the clean image's");
        let (mut header, mut want) = (once.0.clone(), clean.0.clone());
        if heads.contains(&word) {
            header[word..word + 8].fill(0);
            want[word..word + 8].fill(0);
        }
        assert!(header == want, "{what}: the rebuilt header differs from the clean image's");
        let again = heap.recover_parallel(workers);
        assert_eq!(found(&first), found(&again), "{what}: the second recovery found other blocks");
        assert!(once == metadata(&heap), "{what}: the second recovery changed rebuilt metadata");
    }
}

#[test]
fn hostile_links_never_break_recovery_seed_1() {
    hostile_links(1, 200);
}

#[test]
fn hostile_links_never_break_recovery_seed_2() {
    hostile_links(2, 200);
}

#[test]
fn hostile_links_never_break_recovery_seed_3() {
    hostile_links(3, 200);
}

#[test]
fn hostile_anchors_and_list_heads_change_no_recovery_seed_1() {
    hostile_metadata(1, 200);
}

#[test]
fn hostile_anchors_and_list_heads_change_no_recovery_seed_2() {
    hostile_metadata(2, 200);
}

#[test]
fn hostile_anchors_and_list_heads_change_no_recovery_seed_3() {
    hostile_metadata(3, 200);
}
