//! Edge semantics of [`galloc::RallocGlobal`] with the allocator
//! actually *registered* — every `Vec`/`Box`/`String` in this test
//! binary, including the harness's own, runs on the persistent pool.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::RefCell;

#[global_allocator]
static GLOBAL: galloc::RallocGlobal = galloc::RallocGlobal;

#[test]
fn the_pool_is_live_and_serves_ordinary_allocations() {
    let b = Box::new(0xFEED_FACE_u64);
    let heap = galloc::heap().expect("pool must have initialized");
    assert!(
        heap.contains(&*b as *const u64 as *const u8),
        "Box payload not served from the pool"
    );
    assert_eq!(*b, 0xFEED_FACE);
}

#[test]
fn zero_size_allocations_are_unique_aligned_and_freeable() {
    for align in [1usize, 8, 16, 64] {
        let layout = Layout::from_size_align(0, align).unwrap();
        // SAFETY: layouts are valid; this impl documents zero-size
        // support (C malloc(0) semantics: unique non-null pointer).
        unsafe {
            let a = GLOBAL.alloc(layout);
            let b = GLOBAL.alloc(layout);
            assert!(!a.is_null() && !b.is_null());
            assert_ne!(a, b, "zero-size allocations must be distinct");
            assert_eq!(a as usize % align, 0);
            assert_eq!(b as usize % align, 0);
            GLOBAL.dealloc(a, layout);
            GLOBAL.dealloc(b, layout);
        }
    }
}

#[test]
fn oversized_alignments_are_honored() {
    for (size, align) in [(300usize, 128usize), (1, 256), (4096, 4096), (100_000, 1 << 16)] {
        let layout = Layout::from_size_align(size, align).unwrap();
        // SAFETY: valid layout; block is written within its span.
        unsafe {
            let p = GLOBAL.alloc(layout);
            assert!(!p.is_null(), "size {size} align {align}");
            assert_eq!(p as usize % align, 0, "size {size} align {align} misaligned");
            std::ptr::write_bytes(p, 0xC3, size);
            assert_eq!(*p, 0xC3);
            assert_eq!(*p.add(size - 1), 0xC3);
            GLOBAL.dealloc(p, layout);
        }
    }

    #[repr(align(512))]
    struct Big([u8; 600]);
    let b = Box::new(Big([7; 600]));
    assert_eq!(&*b as *const Big as usize % 512, 0);
    assert!(b.0.iter().all(|&x| x == 7));
}

#[test]
fn realloc_shrinks_and_grows_in_place_within_the_block_then_copies() {
    let layout = Layout::from_size_align(100, 8).unwrap();
    // SAFETY: layouts track each block's current size throughout.
    unsafe {
        let p = GLOBAL.alloc(layout);
        assert!(!p.is_null());
        let usable = galloc::pool_usable_size(galloc::heap().unwrap(), p, 8);
        assert!(usable >= 100, "class block must cover the request");
        for i in 0..100 {
            *p.add(i) = i as u8;
        }

        // Shrink: always in place (the class block still covers it).
        let q = GLOBAL.realloc(p, layout, 40);
        assert_eq!(q, p, "shrink must not move the block");

        // Grow back within the block's usable span: still in place.
        let layout40 = Layout::from_size_align(40, 8).unwrap();
        let r = GLOBAL.realloc(q, layout40, usable);
        assert_eq!(r, p, "grow within usable span must not move the block");
        for i in 0..40 {
            assert_eq!(*r.add(i), i as u8, "in-place realloc lost byte {i}");
        }

        // Grow past the block: must move and copy.
        let layout_usable = Layout::from_size_align(usable, 8).unwrap();
        let s = GLOBAL.realloc(r, layout_usable, usable + 8192);
        assert!(!s.is_null());
        assert_ne!(s, p, "grow past the block must relocate");
        for i in 0..40 {
            assert_eq!(*s.add(i), i as u8, "copying realloc lost byte {i}");
        }
        GLOBAL.dealloc(s, Layout::from_size_align(usable + 8192, 8).unwrap());
    }
}

#[test]
fn alloc_zeroed_scrubs_recycled_persistent_blocks() {
    let layout = Layout::from_size_align(256, 8).unwrap();
    // SAFETY: valid layout, writes within span.
    unsafe {
        // Dirty a block and recycle it: the thread cache hands the same
        // block back LIFO, stale persistent bytes and all.
        let dirty = GLOBAL.alloc(layout);
        assert!(!dirty.is_null());
        std::ptr::write_bytes(dirty, 0xFF, 256);
        GLOBAL.dealloc(dirty, layout);

        let z = GLOBAL.alloc_zeroed(layout);
        assert!(!z.is_null());
        assert_eq!(z, dirty, "LIFO cache should recycle the dirtied block");
        for i in 0..256 {
            assert_eq!(*z.add(i), 0, "alloc_zeroed leaked stale byte at {i}");
        }
        GLOBAL.dealloc(z, layout);
    }
}

struct AllocsOnDrop;

impl Drop for AllocsOnDrop {
    fn drop(&mut self) {
        // Runs inside TLS teardown: this thread's cache store may
        // already be gone, so these allocations exercise the transient
        // one-shot cache-set fallback.
        let v: Vec<u64> = (0..2048).collect();
        assert_eq!(v[2047], 2047);
        let s = format!("teardown {}", v.len());
        assert!(s.ends_with("2048"));
    }
}

thread_local! {
    static FIRST: RefCell<Option<AllocsOnDrop>> = const { RefCell::new(None) };
    static HELD: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

#[test]
fn allocation_during_tls_teardown_survives() {
    let t = std::thread::spawn(|| {
        FIRST.with(|c| *c.borrow_mut() = Some(AllocsOnDrop));
        // Freeing during teardown too: blocks cached by this thread are
        // drained through the same fallback.
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            for i in 0..64 {
                held.push(vec![i as u8; 1024]);
            }
        });
        let warm: Vec<u8> = vec![9; 4096];
        assert_eq!(warm[4095], 9);
    });
    t.join().expect("TLS-teardown allocations must not panic");
}

#[test]
fn cross_thread_churn_stays_coherent() {
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let consumer = std::thread::spawn(move || {
        let mut total = 0usize;
        while let Ok(v) = rx.recv() {
            let fill = v[0];
            assert!(v.iter().all(|&b| b == fill), "cross-thread payload corrupted");
            total += v.len();
            drop(v); // freed on a different thread than it was malloc'd
        }
        total
    });
    let mut sent = 0usize;
    for round in 0..500usize {
        let size = 64 + (round * 37) % 3000;
        tx.send(vec![(round % 251) as u8; size]).unwrap();
        sent += size;
    }
    drop(tx);
    assert_eq!(consumer.join().unwrap(), sent);
}

/// File name of the pool the test below hands its child; finding
/// `GALLOC_POOL` naming it is how the child knows its part.
const KILLED_POOL: &str = "galloc_killed_session.pool";

/// A `GALLOC_POOL` process that dies without `close()` leaves its file
/// as of its last store: dirty, recoverable, and clean after a close.
/// The test re-runs itself as that process.
#[test]
fn a_killed_galloc_pool_session_reopens_dirty_and_recovers() {
    use std::os::unix::process::ExitStatusExt;
    use ralloc::{check_heap, Ralloc, RallocConfig};

    let pool = std::env::temp_dir().join(format!("{}-{KILLED_POOL}", std::process::id()));
    if std::env::var_os("GALLOC_POOL").is_some_and(|p| p.to_string_lossy().ends_with(KILLED_POOL)) {
        let boxes: Vec<Box<u64>> = (0..10_000).map(Box::new).collect();
        println!("BUILT {}", boxes.iter().map(|b| **b).sum::<u64>());
        std::process::abort();
    }
    let _ = std::fs::remove_file(&pool);
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "a_killed_galloc_pool_session_reopens_dirty_and_recovers", "--nocapture"])
        .env("GALLOC_POOL", &pool)
        .output()
        .expect("re-running the test binary");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(stdout.contains("BUILT 49995000"), "the child never built its boxes: {stdout}");
    assert_eq!(child.status.signal(), Some(6), "the child must die by abort(): {:?}", child.status);

    let open = || Ralloc::open_file(&pool, galloc::DEFAULT_CAP, RallocConfig::default()).unwrap();
    let (heap, dirty) = open();
    assert!(dirty, "a session that never closed must reopen dirty");
    assert!(heap.used_superblocks() > 0, "the session's carves must be in the file");
    heap.recover();
    assert!(check_heap(&heap).is_consistent(), "recovered heap must be consistent");
    heap.close().unwrap();
    drop(heap);
    let (heap, dirty) = open();
    assert!(!dirty, "a closed heap must reopen clean");
    drop(heap);
    let _ = std::fs::remove_file(&pool);
}

/// File name of the sampler output the test below hands its child;
/// finding `RALLOC_TELEMETRY` naming it is how the child knows its part.
const SAMPLES: &str = "galloc_telemetry.jsonl";

/// `RALLOC_TELEMETRY` starts the JSONL sampler on the pool that an
/// unmodified program builds with its first allocation. The test re-runs
/// itself as that program.
#[test]
fn ralloc_telemetry_samples_the_pool_from_its_build() {
    let out = std::env::temp_dir().join(format!("{}-{SAMPLES}", std::process::id()));
    if std::env::var_os("RALLOC_TELEMETRY").is_some_and(|p| p.to_string_lossy().ends_with(SAMPLES)) {
        let boxes: Vec<Box<u64>> = (0..1000).map(Box::new).collect();
        assert!(galloc::heap().expect("the pool serves").contains(&*boxes[0] as *const u64 as *const u8));
        return;
    }
    let _ = std::fs::remove_file(&out);
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "ralloc_telemetry_samples_the_pool_from_its_build", "--nocapture"])
        .env("RALLOC_TELEMETRY", &out)
        .env_remove("GALLOC_POOL")
        .output()
        .expect("re-running the test binary");
    assert!(child.status.success(), "the child failed: {}", String::from_utf8_lossy(&child.stdout));
    // The build takes the first sample before it returns.
    let body = std::fs::read_to_string(&out).expect("the child's pool wrote no trajectory");
    assert!(!body.is_empty(), "no sample in the trajectory");
    for line in body.lines() {
        let v = telemetry::json::parse(line).expect("JSONL line parses");
        assert!(v.get("heap_id").is_some(), "not a heap snapshot: {line}");
        assert!(v.get("committed_len").and_then(|x| x.as_u64()).unwrap() > 0, "{line}");
    }
    let _ = std::fs::remove_file(&out);
}
