//! Live-pool inspection: a writer holding the exclusive lock forces
//! `snapshot` onto the racy unlocked path, and every parser must
//! tolerate whatever the racing writer was mid-way through. After the
//! writer closes, the same pool snapshots locked and checks clean.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ralloc::{Ralloc, RallocConfig};

#[test]
fn live_pool_snapshots_racily_then_checks_clean_after_close() {
    let path = std::env::temp_dir().join("rinspect_live.pool");
    let _ = std::fs::remove_file(&path);
    let (heap, _dirty) =
        Ralloc::open_file(&path, 64 << 20, RallocConfig::default()).expect("create pool");

    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let heap = heap.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut held: Vec<*mut u8> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let p = heap.malloc(64 + (i as usize % 512));
                unsafe { std::ptr::write(p as *mut u64, i) };
                held.push(p);
                if held.len() > 64 {
                    heap.free(held.remove(0));
                }
                if i.is_multiple_of(32) {
                    heap.set_root::<u64>(7, p as *const u64);
                }
                i += 1;
            }
            for p in held {
                heap.free(p);
            }
        })
    };

    // Let the writer generate traffic, then snapshot mid-churn. The
    // writer's exclusive lock is still held, so the shared-lock attempt
    // must fall back to the racy read and say so.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let snap = rinspect::snapshot(&path).expect("live snapshot");
    assert!(snap.live, "a pool with a live writer must snapshot as live");
    let dump = rinspect::dump(&snap.image);
    assert!(
        dump.contains("recovery required"),
        "a live pool reads as dirty (the writer has not closed):\n{dump}"
    );
    // Torn records from racing writers are counted and dropped, never
    // decoded; the scan itself must not flinch.
    // The churn publishes roots far faster than the 92-slot ring holds,
    // so the window has wrapped — but what survives the racy read is
    // still a sequenced, decodable suffix of the victim's history.
    let scan = rinspect::timeline(&snap.image);
    assert!(
        scan.events.iter().any(|e| e.kind_name() == "root_publish"),
        "a racy scan still decodes the recent protocol events"
    );
    assert!(
        scan.events.windows(2).all(|w| w[0].seq < w[1].seq),
        "surviving records stay in sequence order"
    );

    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    heap.set_root::<u64>(7, std::ptr::null());
    heap.close().expect("clean close");
    drop(heap);

    let snap = rinspect::snapshot(&path).expect("post-close snapshot");
    assert!(!snap.live, "a closed pool's lock is free: snapshot locks shared");
    let out = rinspect::check(&snap.image).expect("check");
    assert!(!out.recovered, "a cleanly closed pool needs no recovery");
    assert!(
        out.report.is_consistent(),
        "violations on a cleanly closed pool: {:?}",
        out.report.violations
    );
    let scan = rinspect::timeline(&snap.image);
    assert!(
        scan.events.iter().any(|e| e.kind_name() == "close"),
        "the clean close must be the timeline's final protocol event"
    );
    let _ = std::fs::remove_file(&path);
}
