//! Footprint probe for the churn-fixpoint workload (Theorem 5.2).
//!
//! Replays `ralloc_leakage_freedom_under_churn`'s stress rounds on the
//! default heap while the telemetry sampler records the footprint
//! trajectory — committed length, used superblocks, fill/flush/steal
//! counters — as JSONL, then shrinks the heap and prints what is left
//! (0 superblocks unless a block leaked). The footprint depends on how the
//! scheduler overlaps the workers, so run it several times: the signal is
//! the high-water *distribution* across runs, against the test's bound of
//! `(threads + 1) × active classes`.
//!
//! Usage: `cargo run --release -p suite --example churn_probe [rounds] [out.jsonl]`
//!
//! The console shows one line per round (footprint and its step); the
//! full counter trajectory lands in the JSONL file (default
//! `churn_probe.jsonl`), one `telemetry_snapshot()` object per sampler
//! tick — what galloc's `RALLOC_TELEMETRY` produces too.

use std::time::Duration;

use ralloc::{Ralloc, RallocConfig};
// The exact stress generator of `ralloc_leakage_freedom_under_churn`
// (tests/overlap_stress.rs) — shared, not copied, so the trajectories
// recorded here stay comparable to the test they explain.
use workloads::churn::stress;
use workloads::DynAlloc;

fn main() {
    let rounds: usize =
        std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(7);
    let out = std::env::args().nth(2).unwrap_or_else(|| "churn_probe.jsonl".into());
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    let alloc: DynAlloc = std::sync::Arc::new(heap.clone());
    heap.start_sampler(&out, Duration::from_millis(25)).expect("start sampler");
    let mut prev = heap.used_superblocks();
    println!("{:>5} {:>6} {:>6}   (trajectory -> {out})", "round", "used", "step");
    for r in 0..rounds {
        stress(&alloc, 4, 10_000);
        let used = heap.used_superblocks();
        println!("{:>5} {:>6} {:>+6}", r, used, used as i64 - prev as i64);
        prev = used;
    }
    heap.stop_sampler();
    heap.shrink();
    println!("after shrink: {} used", heap.used_superblocks());
    // Round-trip the trajectory so a broken sampler fails loudly here
    // instead of silently producing an empty artifact.
    let body = std::fs::read_to_string(&out).expect("read trajectory");
    let lines = body.lines().count();
    let mut parsed = None;
    for l in body.lines() {
        parsed = Some(telemetry::json::parse(l).expect("sampler line parses as JSON"));
    }
    let parsed = parsed.expect("at least one sample");
    let counter = |name| {
        let heap = parsed.get("registries").and_then(|r| r.get("heap"));
        heap.and_then(|h| h.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
    };
    println!(
        "{lines} samples; final committed_len={} cache_fills={} partial_steals={}",
        parsed.get("committed_len").and_then(|v| v.as_u64()).unwrap_or(0),
        counter("cache_fills"),
        counter("partial_steals"),
    );
}
