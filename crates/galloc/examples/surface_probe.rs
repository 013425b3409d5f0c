//! Scratch probe: where does the `RallocGlobal` overhead over the raw
//! handle live — the alloc side or the dealloc side? Run with
//! `cargo run --release -p galloc --example surface_probe`.

use std::alloc::{GlobalAlloc, Layout};
use std::time::Instant;

fn time(label: &str, mut pair: impl FnMut()) {
    // Warm.
    for _ in 0..100_000 {
        pair();
    }
    let n = 20_000_000u64;
    let t0 = Instant::now();
    for _ in 0..n {
        pair();
    }
    let dt = t0.elapsed();
    println!("{label:28} {:6.2} Mops/s  ({:.2} ns/pair)", n as f64 / dt.as_secs_f64() / 1e6, dt.as_nanos() as f64 / n as f64);
}

fn main() {
    let heap = galloc::heap().expect("pool");
    let global = galloc::RallocGlobal;
    let layout = Layout::from_size_align(64, 8).unwrap();
    for _ in 0..3 {
        time("handle/handle", || {
            let p = heap.malloc(64);
            std::hint::black_box(p);
            heap.free(p);
        });
        // SAFETY: `layout` is valid, and each block goes back at it.
        time("global/global", || unsafe {
            let p = global.alloc(layout);
            std::hint::black_box(p);
            global.dealloc(p, layout);
        });
        // SAFETY: `layout` is valid; a 64 B, 8-aligned request is a pool
        // block, which `Ralloc::free` takes back.
        time("global-alloc/handle-free", || unsafe {
            let p = global.alloc(layout);
            std::hint::black_box(p);
            heap.free(p);
        });
        // SAFETY: a 64 B pool block; `dealloc` routes a pool-range pointer
        // to the pool, and 64 B at align 8 is its natural-alignment scheme.
        time("handle-malloc/global-free", || unsafe {
            let p = heap.malloc(64);
            std::hint::black_box(p);
            global.dealloc(p, layout);
        });
        println!("---");
    }
    // Keep the objdump anchors alive.
    probe_global_pair(&global, layout);
    probe_handle_pair(heap);
}

// objdump anchors: the exact per-op sequences, un-inlined.
#[no_mangle]
#[inline(never)]
pub fn probe_global_pair(g: &galloc::RallocGlobal, layout: Layout) {
    // SAFETY: the caller's `layout` is valid, and the block goes back at it.
    unsafe {
        let p = g.alloc(layout);
        std::hint::black_box(p);
        g.dealloc(p, layout);
    }
}

#[no_mangle]
#[inline(never)]
pub fn probe_handle_pair(h: &ralloc::Ralloc) {
    let p = h.malloc(64);
    std::hint::black_box(p);
    h.free(p);
}
