//! Exhaustive kill points: a short one-thread run is killed at its 1st,
//! 2nd, 3rd … persistence event until it runs to completion unkilled,
//! and every kill must recover to a state the structure's oracle
//! accepts. A one-thread event kill is deterministic (`seed_replay`), so
//! this covers every crash point of the run rather than a sample, on
//! any host. Each sweep prints its event count, so a change to a
//! structure's persist protocol shows in the log.
//!
//! `queue` and `kv` run by default; the ignored test sweeps all seven
//! structures (CI's crash-injection job runs it in release).

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Kill `structure` at every event of its run; returns the number of
/// events: the first `n` at which the victim was not killed (`--events n`
/// kills once `n` events have passed, so `--events 0` kills at the first).
fn sweep_every_event(structure: &str) -> u64 {
    // One pool per call: two tests may sweep the same structure at once.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let pool = std::env::temp_dir().join(format!("ct_every_event_{structure}_{call}.pool"));
    for n in 0u64.. {
        let out = Command::new(env!("CARGO_BIN_EXE_crashtest"))
            .args(["run", "--structure", structure, "--threads", "1", "--ops", "20"])
            .args(["--seed", "7", "--events", &n.to_string()])
            .arg("--pool")
            .arg(&pool)
            .output()
            .expect("failed to spawn crashtest binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{structure}: kill at event {n} failed its oracle:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = stdout
            .lines()
            .find(|l| l.starts_with("RESULT"))
            .unwrap_or_else(|| panic!("no RESULT line in:\n{stdout}"));
        if result.contains(" killed=false ") {
            println!("{structure}: {n} persistence events, every kill recovered");
            return n;
        }
    }
    unreachable!()
}

#[test]
fn queue_recovers_from_a_kill_at_every_event() {
    assert!(sweep_every_event("queue") > 0);
}

#[test]
fn kv_recovers_from_a_kill_at_every_event() {
    assert!(sweep_every_event("kv") > 0);
}

#[test]
#[ignore = "long in a debug build: every event of all seven structures"]
fn every_structure_recovers_from_a_kill_at_every_event() {
    for s in ["queue", "stack", "kv", "nmtree", "rbtree", "churn", "prodcon"] {
        assert!(sweep_every_event(s) > 0, "{s}");
    }
}
