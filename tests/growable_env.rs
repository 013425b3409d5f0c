//! `RALLOC_INIT_CAP`/`RALLOC_MAX_CAP` drive the reserve/commit machinery
//! from the environment, so any fixed-capacity workload binary becomes
//! growable without a code change. A value that does not parse is said
//! so once on stderr and the config's value stands.
//!
//! This is deliberately a single test in its own binary: env vars are
//! process-global, and mutating them while another thread reads them
//! (every heap creation does) is UB on glibc. One test = one thread =
//! no concurrent getenv. Do not add further `#[test]`s to this file.

use std::process::Command;

use ralloc::{check_heap, Ralloc, RallocConfig, SB_SIZE};

/// Values no knob parses. The test re-runs itself under them (stderr can
/// only be read from outside the process); finding them set on entry is
/// how the child knows its part.
const UNPARSABLE: [(&str, &str); 2] = [("RALLOC_INIT_CAP", "lots"), ("RALLOC_MAX_CAP", "12Q")];

/// Two heaps under [`UNPARSABLE`]: each runs on its config as if the
/// variables were unset (fixed pool, shrink on close).
fn run_on_the_config_under_unparsable_values() {
    for _ in 0..2 {
        let heap = Ralloc::create(4 << 20, RallocConfig::default());
        assert_eq!(heap.committed_superblocks(), heap.max_superblocks());
        assert!(heap.max_superblocks() * SB_SIZE < 8 << 20);
        heap.close().unwrap();
        assert_eq!(heap.committed_superblocks(), 0, "close shrinks");
    }
}

#[test]
fn env_knobs_configure_growth() {
    if std::env::var("RALLOC_INIT_CAP").as_deref() == Ok(UNPARSABLE[0].1) {
        return run_on_the_config_under_unparsable_values();
    }
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "env_knobs_configure_growth", "--nocapture"])
        .envs(UNPARSABLE)
        .output()
        .expect("re-running the test binary");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "under unparsable values: {stderr}");
    for (var, value) in UNPARSABLE {
        let said: Vec<&str> = stderr.lines().filter(|l| l.contains(var)).collect();
        assert_eq!(said.len(), 1, "{var} must be reported once, not per heap: {stderr}");
        assert!(said[0].contains(value) && said[0].contains("using"), "{}", said[0]);
    }

    std::env::set_var("RALLOC_INIT_CAP", "2M");
    std::env::set_var("RALLOC_MAX_CAP", "24M");
    let heap = Ralloc::create(8 << 20, RallocConfig::default());
    std::env::remove_var("RALLOC_INIT_CAP");
    std::env::remove_var("RALLOC_MAX_CAP");
    assert!(heap.committed_superblocks() * SB_SIZE <= 2 << 20, "init cap must apply");
    assert!(heap.max_superblocks() * SB_SIZE >= 24 << 20, "max cap must apply");
    // Serves past both the init cap and the capacity argument.
    let mut held = Vec::new();
    for _ in 0..(12 << 20) / 4096 {
        let p = heap.malloc(4096);
        assert!(!p.is_null());
        held.push(p);
    }
    assert!(heap.slow_stats().heap_grows.get() >= 1);
    for p in held {
        heap.free(p);
    }
    assert!(check_heap(&heap).is_consistent());

    // With the knobs cleared again, creation reverts to the historical
    // fixed-pool behavior: everything committed upfront.
    let fixed = Ralloc::create(8 << 20, RallocConfig::default());
    assert_eq!(fixed.committed_superblocks(), fixed.max_superblocks());
    assert!(fixed.max_superblocks() * SB_SIZE >= 8 << 20);
    let p = fixed.malloc(64);
    assert!(!p.is_null());
    fixed.free(p);
    assert_eq!(fixed.slow_stats().heap_grows.get(), 0);

    // A clean close releases the free tail.
    let shrinking = Ralloc::create(4 << 20, RallocConfig::default());
    let q = shrinking.malloc(SB_SIZE / 2 + 1);
    assert!(!q.is_null());
    shrinking.free(q);
    shrinking.close().unwrap();
    assert_eq!(
        shrinking.committed_superblocks(),
        0,
        "close must release the fully-free frontier"
    );
    assert!(shrinking.slow_stats().sb_released.get() > 0);
}
