//! Every crash point under the tracked crash model: `event_sweep`'s
//! one-thread, 20-op runs (seed 7) on a `Mode::Tracked` heap, crashed at
//! each persistence event in turn, where only flushed-and-fenced lines
//! survive (plus the lines a `RandomEviction` style lets through). A
//! SIGKILL keeps every executed store, so only this sweep sees a missing
//! persist; both judge the recovered heap with the same oracles.
//!
//! `queue`, `stack` and `kv` run under `StrictFlushOnly` by default; the
//! ignored test sweeps all seven structures under the driver's three
//! styles, one run per crash point serving all three (CI's
//! crash-injection job runs it in release).

use crashtest::{tracked_sweep, Structure, STYLES};
use nvm::CrashStyle;

/// Each structure's persistence events for seed 7 and 20 ops, which is
/// `event_sweep`'s count: both sweeps run the same sequence. A change
/// means a structure's persist protocol changed. Each run's carves (one,
/// churn six, prodcon nine) cost one fence each.
fn pinned(s: Structure) -> u64 {
    match s {
        Structure::Queue => 159,
        Structure::Stack => 139,
        Structure::Kv => 125,
        Structure::NmTree => 149,
        Structure::RbTree => 127,
        Structure::Churn => 162,
        Structure::ProdCon => 107,
    }
}

fn sweep(s: Structure, styles: &[CrashStyle]) {
    let events = tracked_sweep(s, styles, 7, 20);
    println!("{}: {events} persistence events, every crash under {styles:?} recovered", s.name());
    assert_eq!(events, pinned(s), "{}: the persist protocol changed", s.name());
}

#[test]
fn queue_recovers_from_a_power_failure_at_every_event() {
    sweep(Structure::Queue, &[CrashStyle::StrictFlushOnly]);
}

#[test]
fn stack_recovers_from_a_power_failure_at_every_event() {
    sweep(Structure::Stack, &[CrashStyle::StrictFlushOnly]);
}

#[test]
fn kv_recovers_from_a_power_failure_at_every_event() {
    sweep(Structure::Kv, &[CrashStyle::StrictFlushOnly]);
}

#[test]
#[ignore = "long in a debug build: every event of all seven structures, three crash styles"]
fn every_structure_recovers_from_a_power_failure_at_every_event() {
    for s in Structure::ALL {
        sweep(s, &STYLES);
    }
}
