//! Integration tests for the unified telemetry subsystem: the heap-level
//! contracts that the unit tests inside `crates/telemetry` cannot see —
//! protocol ordering in the flight ring (the heap's one event stream),
//! exporter round-trips through the `Ralloc` API, the sampler writing
//! the snapshot's schema, and the sampler soak that CI uploads as its
//! smoke artifact (`TELEMETRY_SMOKE_OUT` redirects the JSONL).

use std::sync::Arc;
use std::time::Duration;

use ralloc::{Ralloc, RallocConfig};
use telemetry::json;
use workloads::churn::stress;
use workloads::DynAlloc;

fn small_heap() -> Ralloc {
    Ralloc::create(32 << 20, RallocConfig::default())
}

/// `Ralloc::telemetry_snapshot` parses as JSON and carries the heap and
/// pmem registries plus the flight ring — the exporter round-trip at the
/// API surface users actually call. The ring is written by the one JSON
/// writer there is: on a quiescent heap its bytes equal
/// `flight_timeline()`'s and `rinspect timeline --json`'s for the image.
#[test]
fn telemetry_snapshot_round_trips_through_parser() {
    let heap = small_heap();
    let ptrs: Vec<*mut u8> = (0..500).map(|_| heap.malloc(64)).collect();
    heap.set_root_raw(0, ptrs[0]);
    for p in ptrs {
        heap.free(p);
    }
    let snap = heap.telemetry_snapshot();
    let v = json::parse(&snap).expect("snapshot must be valid JSON");
    assert!(v.get("t_ms").and_then(|t| t.as_u64()).is_some());
    assert!(v.get("committed_len").and_then(|c| c.as_u64()).unwrap() > 0);
    let heap_reg = v.get("registries").and_then(|r| r.get("heap")).expect("heap scope");
    assert!(
        heap_reg.get("cache_fills").and_then(|c| c.as_u64()).unwrap() >= 1,
        "allocating 500 blocks must have filled the cache at least once"
    );
    let pmem = v.get("registries").and_then(|r| r.get("pmem")).expect("pmem scope");
    assert!(pmem.get("flush_lines").and_then(|c| c.as_u64()).is_some());
    let flight = v.get("flight").expect("flight object");
    assert_eq!(flight.get("torn").and_then(|t| t.as_u64()), Some(0));
    let events = flight.get("events").and_then(|e| e.as_array()).expect("events array");
    let kinds: Vec<_> = events.iter().map(|e| e.get("kind").and_then(|k| k.as_str())).collect();
    assert_eq!(kinds, [Some("open"), Some("root_publish")]);

    let (_, ring) = snap.rsplit_once("\"flight\": ").unwrap();
    let ring = ring.strip_suffix('}').expect("the ring is the snapshot's last value");
    assert_eq!(ring, heap.flight_timeline().to_json());
    assert_eq!(ring, rinspect::timeline(&heap.pool().persistent_image()).to_json());
}

/// The sampler writes `telemetry_snapshot()`'s object: a line and a
/// snapshot taken with nothing in between have the same top-level keys
/// and the same heap and pmem registry names.
#[test]
fn sampler_lines_are_telemetry_snapshots() {
    let out = std::env::temp_dir()
        .join(format!("ralloc_sampler_schema_{}.jsonl", std::process::id()));
    let heap = small_heap();
    heap.start_sampler(&out, Duration::from_secs(3600)).expect("start sampler");
    let ptrs: Vec<*mut u8> = (0..500).map(|_| heap.malloc(64)).collect();
    for p in ptrs {
        heap.free(p);
    }
    heap.stop_sampler(); // takes the final sample
    let body = std::fs::read_to_string(&out).expect("sampler wrote a line");
    let _ = std::fs::remove_file(&out);
    let line = json::parse(body.lines().last().unwrap()).expect("the line is JSON");
    let snap = json::parse(&heap.telemetry_snapshot()).unwrap();
    assert_eq!(line.keys(), snap.keys(), "top-level keys");
    for scope in ["heap", "pmem"] {
        let names = |v: &json::Value| {
            let scope = v.get("registries").and_then(|r| r.get(scope));
            scope.and_then(|s| s.keys()).map(|names| names.join(" "))
        };
        assert!(names(&line).is_some_and(|n| !n.is_empty()), "registries.{scope} missing");
        assert_eq!(names(&line), names(&snap), "registries.{scope} names");
    }
}

/// Grow protocol ordering, read off the flight ring: each `grow_commit`
/// raises the committed prefix, and the last one covers every superblock
/// carved — the prefix is committed before `used` covers it. (Carves are
/// the `sb_carved` counter, not events; that `used` never outruns the
/// committed prefix is checked at every crash point by
/// `region_crash_sweep`, whose recovery refuses such an image.)
#[test]
fn journal_orders_grow_commit_before_publish() {
    let heap = Ralloc::create(
        64 << 20,
        RallocConfig { initial_capacity: Some(4 << 20), ..Default::default() },
    );
    let geo = heap.geometry();
    // Outgrow the initial commit so the frontier must move.
    let ptrs: Vec<*mut u8> = (0..3000).map(|_| heap.malloc(4096)).collect();
    for p in ptrs {
        heap.free(p);
    }
    let events = heap.flight_timeline().events;
    assert_eq!(events[0].kind_name(), "open", "the ring must still hold the whole run");
    let used = heap.used_superblocks();
    let commits: Vec<u64> =
        events.iter().filter(|e| e.kind() == Some(telemetry::EventKind::GrowCommit)).map(|e| e.a).collect();
    assert!(commits.len() >= 2, "the run grew {} times", commits.len());
    assert!(commits.windows(2).all(|w| w[0] < w[1]), "a grow_commit lowered the prefix: {commits:?}");
    let need = geo.len_for_sb(used) as u64;
    let last = commits.last().copied();
    assert!(
        last.is_some_and(|a| a >= need),
        "the last grow_commit ({last:?}) does not cover the {used} superblocks carved"
    );
    assert_eq!(last, Some(heap.pool().committed_len() as u64), "the last grow_commit is the prefix");
    // Timestamps are monotone in seq order (one process's clock).
    assert!(events.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
}

/// Recovery records its reconcile → sweep → splice phases in order on the
/// flight ring and publishes the last-recovery gauges onto the heap
/// registry.
#[test]
fn recovery_phases_are_journaled_and_gauged() {
    let heap = small_heap();
    let keep = heap.malloc(64);
    assert!(!keep.is_null());
    let stats = heap.recover();
    use telemetry::EventKind::{RecoveryReconcile, RecoverySplice, RecoverySweep};
    let events = heap.flight_timeline().events;
    let seq_of = |k| events.iter().find(|e| e.kind() == Some(k)).map(|e| e.seq);
    let (rec, sweep, splice) = (
        seq_of(RecoveryReconcile).expect("reconcile recorded"),
        seq_of(RecoverySweep).expect("sweep recorded"),
        seq_of(RecoverySplice).expect("splice recorded"),
    );
    assert!(rec < sweep && sweep < splice, "phases out of order: {rec} {sweep} {splice}");
    let reg = heap.telemetry();
    assert_eq!(reg.gauge("recovery_threads").get(), stats.threads as i64);
    assert_eq!(
        reg.gauge("recovery_free_superblocks").get(),
        stats.free_superblocks as i64
    );
    assert_eq!(reg.histogram("recovery_duration_ns").snapshot().count, 1);
}

/// The CI smoke: run the churn workload with the sampler on, then assert
/// the JSONL trajectory parses, carries the mandatory series, and the
/// cumulative counters (under `registries.heap`) are monotone.
/// `TELEMETRY_SMOKE_OUT` names the output file (CI uploads it as an
/// artifact); defaults to a temp path.
#[test]
fn sampler_soak_produces_parseable_monotone_jsonl() {
    let out = std::env::var("TELEMETRY_SMOKE_OUT").unwrap_or_else(|_| {
        std::env::temp_dir()
            .join(format!("ralloc_telemetry_smoke_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let heap = Ralloc::create(64 << 20, RallocConfig::default());
    heap.start_sampler(&out, Duration::from_millis(5)).expect("start sampler");
    let alloc: DynAlloc = Arc::new(heap.clone());
    for _ in 0..3 {
        stress(&alloc, 4, 10_000);
    }
    heap.stop_sampler();

    let body = std::fs::read_to_string(&out).expect("sampler wrote the trajectory");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 2, "expected multiple samples, got {}", lines.len());
    const MANDATORY: &[&str] = &["t_ms", "heap_id", "committed_len", "used_sb"];
    const MONOTONE: &[&str] = &[
        "t_ms",
        "cache_fills",
        "cache_fill_blocks",
        "cache_flushes",
        "partial_steals",
        "sb_carved",
    ];
    // `t_ms` is a top-level key; the rest are heap registry counters.
    let series = |v: &json::Value, key: &str| {
        match key {
            "t_ms" => v.get(key),
            _ => v.get("registries").and_then(|r| r.get("heap")).and_then(|h| h.get(key)),
        }
        .and_then(|x| x.as_u64())
    };
    let mut last = vec![0u64; MONOTONE.len()];
    for line in &lines {
        let v = json::parse(line).expect("every sampler line is one JSON object");
        for key in MANDATORY {
            assert!(
                v.get(key).and_then(|x| x.as_u64()).is_some(),
                "mandatory series {key:?} missing in {line:?}"
            );
        }
        for (i, key) in MONOTONE.iter().enumerate() {
            let x = series(&v, key).unwrap_or_else(|| panic!("series {key:?} missing in {line:?}"));
            assert!(x >= last[i], "{key} went backwards: {} -> {x}", last[i]);
            last[i] = x;
        }
        assert!(v.get("committed_len").and_then(|x| x.as_u64()).unwrap() > 0);
    }
    // The churn workload must actually have moved the counters.
    let final_line = json::parse(lines.last().unwrap()).unwrap();
    assert!(series(&final_line, "cache_fills").unwrap() > 0);
    assert!(series(&final_line, "cache_flushes").unwrap() > 0);
    if std::env::var("TELEMETRY_SMOKE_OUT").is_err() {
        let _ = std::fs::remove_file(&out);
    }
}
