//! Crash recovery in depth — the kill-based path, end to end.
//!
//! Earlier revisions of this example simulated power failure inside one
//! process (an armed injector panicking at a persistence event). That
//! model still exists in `tests/recoverability.rs`, but the real harness
//! now lives in the `crashtest` crate and this example drives it: fork a
//! child that hammers a recoverable structure in a live file-backed pool
//! (`MAP_SHARED`), SIGKILL it mid-flight, reopen the file, recover, and
//! check the visibility oracles — every acked operation exactly-once
//! visible, every in-flight operation at-most-once.
//!
//! ```text
//! cargo run --example crash_recovery [-- --seed S]
//! ```
//!
//! Must stay single-threaded up to the `run_once` calls (fork safety).

use crashtest::{fresh_seed, parse_u64, run_once, KillSpec, RunConfig, Structure, XorShift};

fn main() {
    let pool = std::env::temp_dir().join("crash_recovery_example.pool");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = match args.as_slice() {
        [] => fresh_seed(),
        [flag, s] if flag == "--seed" => parse_u64(s).expect("--seed takes a decimal or 0x-hex number"),
        _ => panic!("usage: crash_recovery [--seed S]"),
    };
    println!("seed = {seed:#x}  (replay with --seed {seed:#x})");

    // Round 1: control run. No kill — the child completes its 4-thread
    // queue workload, the parent reopens the pool and checks that every
    // acked op is visible and nothing is duplicated or conjured.
    let mut cfg = RunConfig::new(Structure::Queue, pool.clone(), seed);
    let report = run_once(&cfg).expect("clean run must pass its oracle");
    println!(
        "control: killed={} records={} acked={} inflight={}",
        report.killed, report.records, report.acked, report.inflight
    );
    assert!(!report.killed && report.inflight == 0);

    // Round 2: deterministic kill. The child SIGKILLs itself at exactly
    // the N-th persistence event after the workload starts — same seed,
    // same N, same kill point, every time. This is how a failing sweep
    // round is replayed under a debugger. Bit-identical replay needs a
    // single workload thread (with more, the kill point is exact but the
    // interleaving around it is not).
    cfg.threads = 1;
    cfg.kill = KillSpec::Events(900);
    let a = run_once(&cfg).expect("oracle must hold after an event-count kill");
    let b = run_once(&cfg).expect("replay must also pass");
    println!(
        "event kill: killed={} records={} acked={} inflight={}",
        a.killed, a.records, a.acked, a.inflight
    );
    assert_eq!(
        (a.records, a.acked, a.inflight),
        (b.records, b.acked, b.inflight),
        "same seed + same event budget must reproduce the identical kill point"
    );
    println!("replay reproduced the identical kill point");

    // Round 3: asynchronous kills at random wall-clock offsets, across
    // the other structures — map oracles (exact last-writer state per
    // key) instead of conservation, plus the heap checker each round.
    let mut rng = XorShift::new(seed ^ 0xD15EA5E);
    for s in [Structure::Stack, Structure::Kv, Structure::NmTree, Structure::RbTree] {
        let mut cfg = RunConfig::new(s, pool.clone(), rng.next_u64() | 1);
        cfg.ops_per_thread = 60_000; // long enough that the timed kill lands mid-run
        cfg.kill = KillSpec::TimeMicros(rng.range(2_000, 60_000));
        let r = run_once(&cfg).expect("oracle must hold after a timed kill");
        println!("{:>6}: {r}", s.name());
    }

    crashtest::cleanup(&cfg);
    println!("done: every round recovered with its oracle green.");
}
