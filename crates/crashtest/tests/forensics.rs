//! Post-mortem forensics: a SIGKILLed victim leaves a pool that
//! `rinspect` can dump, check, and timeline without the harness — and
//! the harness's own failure reports carry the victim's persistent
//! flight timeline as the pool held it at reopen, not the recovering
//! process's own records.

use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::Command;

use crashtest::{verify, KillSpec, RunConfig, Structure, STRUCT_ROOT};
use ralloc::{Ralloc, RallocConfig};

/// Held by every test here. Each spawns a victim, and a child holds its
/// parent's open files from its fork to its exec: one spawned while another
/// test has a pool open keeps that pool's lock for a moment, and the other
/// test's next open reads "pool busy".
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spawn the crashtest binary as the victim `run_once` would spawn
/// ([`RunConfig::victim_args`]): it runs the workload against `pool` and
/// (with `Events`) SIGKILLs itself, leaving the dirty pool on disk.
/// Returns the kill signal, if any.
fn spawn_victim(structure: Structure, pool: &Path, seed: u64, kill: KillSpec) -> Option<i32> {
    let cfg = RunConfig { kill, ..RunConfig::new(structure, pool.to_path_buf(), seed) };
    let status = Command::new(env!("CARGO_BIN_EXE_crashtest"))
        .args(cfg.victim_args())
        .status()
        .expect("failed to spawn crashtest victim");
    status.signal()
}

/// A killed victim's pool must yield a non-empty flight timeline and an
/// `rinspect check` verdict that agrees with the harness's own
/// recover-and-verify pass.
#[test]
fn killed_pool_yields_timeline_and_check_agrees_with_harness() {
    let _turn = one_at_a_time();
    let pool = std::env::temp_dir().join("ct_forensics_killed.pool");
    let seed = 0xF0_0001;
    let sig = spawn_victim(Structure::Queue, &pool, seed, KillSpec::Events(2000));
    assert_eq!(sig, Some(9), "victim should have SIGKILLed itself mid-workload");

    // Snapshot BEFORE any recovery touches the file: this is the raw
    // post-mortem state. The victim is dead, so its lock is gone.
    let snap = rinspect::snapshot(&pool).expect("snapshot of dead pool");
    assert!(!snap.live, "dead pool must not report a live writer");

    let dump = rinspect::dump(&snap.image);
    assert!(
        dump.contains("recovery required"),
        "killed pool should dump as dirty:\n{dump}"
    );

    let scan = rinspect::timeline(&snap.image);
    assert!(
        !scan.events.is_empty(),
        "victim ran thousands of ops; the flight ring cannot be empty"
    );
    assert!(
        scan.events.iter().any(|e| e.kind_name() == "open"),
        "timeline should record the victim's open"
    );

    // rinspect recovers a private copy and checks it; the harness
    // recovers the real file and runs the checker plus the oracles. The
    // two must agree that the heap is sound.
    let out = rinspect::check(&snap.image).expect("rinspect check");
    assert!(out.recovered, "a SIGKILLed pool is dirty and needs recovery");
    assert!(
        out.report.is_consistent(),
        "rinspect found violations the harness would not:\n{:?}",
        out.report.violations
    );

    let mut cfg = RunConfig::new(Structure::Queue, pool.clone(), seed);
    cfg.kill = KillSpec::Events(2000);
    verify(&cfg, true).expect("harness verify should agree the pool is recoverable");
    crashtest::cleanup(&cfg);
}

/// Forced-failure fixture: break a cleanly-run pool so verification
/// fails deterministically, and assert the failure report embeds the
/// victim's flight timeline as parseable JSON.
#[test]
fn failure_report_carries_victim_flight_timeline() {
    let _turn = one_at_a_time();
    let pool = std::env::temp_dir().join("ct_forensics_forced.pool");
    let seed = 0xF0_0002;
    let sig = spawn_victim(Structure::Queue, &pool, seed, KillSpec::None);
    assert_eq!(sig, None, "no-kill victim should exit cleanly");

    // Sabotage: recover the pool, then unpublish the structure root.
    // Verification must now fail — the fixture for "every failing round
    // attaches the victim's timeline".
    {
        let (heap, dirty) = Ralloc::open_file(&pool, crashtest::POOL_CAP, RallocConfig::default())
            .expect("reopen for sabotage");
        crashtest::workload::register_filters(&heap, Structure::Queue);
        if dirty {
            heap.recover();
        }
        heap.set_root::<u64>(STRUCT_ROOT, std::ptr::null());
        heap.close().expect("clean close after sabotage");
    }

    let cfg = RunConfig::new(Structure::Queue, pool.clone(), seed);
    let err = verify(&cfg, false).expect_err("verification must fail on the sabotaged pool");
    assert!(
        err.contains("victim flight timeline"),
        "failure report missing the timeline banner:\n{err}"
    );
    let json = err
        .split("---\n")
        .last()
        .expect("timeline JSON after the banner");
    assert!(
        json.trim_start().starts_with("{\"torn\":") && json.contains("\"events\": [{\"seq\":"),
        "timeline should be non-empty parseable JSON:\n{json}"
    );
    assert!(
        json.contains("\"kind\": \"root_publish\""),
        "the sabotage itself (a root publish) must appear in the timeline:\n{json}"
    );
    crashtest::cleanup(&cfg);
}

/// A hostile tree log fails closed: a crashed `rbtree` image whose
/// newest record carries an op that is neither insert nor remove is
/// refused by `PRbTree::attach` with an error, and `verify` reports it
/// instead of panicking.
#[test]
fn flipped_tree_log_op_is_reported_not_a_panic() {
    let _turn = one_at_a_time();
    let pool = std::env::temp_dir().join("ct_forensics_bad_op.pool");
    let seed = 0xF0_0003;
    let sig = spawn_victim(Structure::RbTree, &pool, seed, KillSpec::Events(300));
    assert_eq!(sig, Some(9), "victim should have SIGKILLed itself mid-workload");

    // Flip the op word (a record's first) of the newest record through a
    // mapping of the dead pool; the drop leaves the image dirty.
    {
        let (heap, dirty) = Ralloc::open_file(&pool, crashtest::POOL_CAP, RallocConfig::default())
            .expect("reopen for the flip");
        assert!(dirty, "a SIGKILLed pool reopens dirty");
        let anchor = heap.get_root::<pds::TreeLogHead>(STRUCT_ROOT);
        assert!(!anchor.is_null());
        // SAFETY: the anchor's one word links the newest record; the
        // record is live in the mapped image, and nothing else runs.
        unsafe {
            let newest = ralloc::Link::<48>(*(anchor as *const u64)).target();
            let newest = newest.expect("300 events logged at least one op");
            *((heap.region_base() + newest as usize) as *mut u64) = 7;
        }
    }

    let cfg = RunConfig::new(Structure::RbTree, pool.clone(), seed);
    let err = verify(&cfg, true).expect_err("a record with op 7 must be refused");
    assert!(err.contains("corrupt tree log: unknown op 7"), "{err}");
    crashtest::cleanup(&cfg);
}
