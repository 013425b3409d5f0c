//! Integration tests for the unified telemetry subsystem: the heap-level
//! contracts that the unit tests inside `crates/telemetry` cannot see —
//! zero telemetry CAS on the real malloc/free fast path, protocol
//! ordering in the flight ring (the heap's one event stream), exporter
//! round-trips through the `Ralloc` API, and the sampler soak that CI uploads as its smoke
//! artifact (`TELEMETRY_SMOKE_OUT` redirects the JSONL).

use std::sync::Arc;
use std::time::Duration;

use ralloc::frontier::Frontier;
use ralloc::{Ralloc, RallocConfig};
use telemetry::json;
use workloads::churn::stress;
use workloads::DynAlloc;

fn small_heap() -> Ralloc {
    Ralloc::create(32 << 20, RallocConfig::default())
}

/// The headline fast-path contract: a malloc/free storm on a warmed-up
/// heap performs zero compare-and-swap operations *inside the telemetry
/// crate*. (The allocator itself still CASes on anchors — the claim is
/// that observability adds none.)
#[test]
fn fast_path_performs_zero_telemetry_cas() {
    let heap = small_heap();
    // Warm the thread cache so the loop below stays on the fast path.
    let warm: Vec<*mut u8> = (0..64).map(|_| heap.malloc(64)).collect();
    for p in warm {
        heap.free(p);
    }
    let cas0 = telemetry::cas_ops();
    for _ in 0..10_000 {
        let p = heap.malloc(64);
        assert!(!p.is_null());
        heap.free(p);
    }
    assert_eq!(
        telemetry::cas_ops() - cas0,
        0,
        "telemetry must not add CAS to the malloc/free fast path"
    );
}

/// `Ralloc::telemetry_snapshot` parses as JSON and carries the heap and
/// pmem registries plus the flight ring — the exporter round-trip at the
/// API surface users actually call. The ring is written by the one JSON
/// writer there is: on a quiescent heap its bytes equal
/// `flight_timeline()`'s and `rinspect timeline --json`'s for the image.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
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

/// Grow protocol ordering, per frontier, read off the flight ring: every
/// `*_publish` is preceded by a `*_commit` of at least the published
/// length — the crash-safety invariant (persist the frontier word before
/// exposing the space) replayed from the event trace — and the last
/// publish of *both* frontiers covers every superblock carved. (Carves
/// are the `sb_carved` counter, not events; that `used` never outruns a
/// durable frontier word is checked at every crash point by
/// `region_crash_sweep`, whose recovery refuses such an image.)
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "reads the flight ring, which is compiled out")]
fn journal_orders_grow_commit_before_publish() {
    use telemetry::EventKind::{GrowCommit, GrowDescCommit, GrowDescPublish, GrowPublish};
    let heap = Ralloc::create(
        64 << 20,
        RallocConfig { initial_capacity: Some(4 << 20), ..Default::default() },
    );
    let geo = heap.geometry();
    // Outgrow the initial commit so the frontiers must move.
    let ptrs: Vec<*mut u8> = (0..3000).map(|_| heap.malloc(4096)).collect();
    for p in ptrs {
        heap.free(p);
    }
    let events = heap.flight_timeline().events;
    assert_eq!(events[0].kind_name(), "open", "the ring must still hold the whole run");
    let used = heap.used_superblocks();
    // (commit kind, publish kind, the frontier's arithmetic)
    let [sb, desc] = Frontier::pair(&geo);
    let frontiers = [(GrowCommit, GrowPublish, sb), (GrowDescCommit, GrowDescPublish, desc)];
    for (commit, publish, frontier) in frontiers {
        let is = |e: &ralloc::FlightEvent, k| e.kind() == Some(k);
        for (i, e) in events.iter().enumerate().filter(|(_, e)| is(e, publish)) {
            assert!(
                events[..i].iter().any(|c| is(c, commit) && c.a >= e.a),
                "{publish:?} of {} has no earlier {commit:?} covering it",
                e.a
            );
        }
        let last = events.iter().rev().find(|e| is(e, publish));
        let need = frontier.len_for_sb(used) as u64;
        assert!(
            last.is_some_and(|e| e.a >= need),
            "the last {publish:?} ({last:?}) does not cover the {used} superblocks carved"
        );
    }
    // Timestamps are monotone in seq order (one process's clock).
    assert!(events.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
}

/// Recovery records its reconcile → sweep → splice phases in order on the
/// flight ring and publishes the last-recovery gauges onto the heap
/// registry.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "reads the flight ring, which is compiled out")]
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
/// cumulative counters are monotone. `TELEMETRY_SMOKE_OUT` names the
/// output file (CI uploads it as an artifact); defaults to a temp path.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
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
    const MANDATORY: &[&str] =
        &["t_ms", "heap_id", "committed_len", "used_sb", "fills", "flushes", "steals"];
    const MONOTONE: &[&str] = &["t_ms", "fills", "fill_blocks", "flushes", "steals", "carved"];
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
            let x = v.get(key).and_then(|x| x.as_u64()).unwrap();
            assert!(x >= last[i], "{key} went backwards: {} -> {x}", last[i]);
            last[i] = x;
        }
        assert!(v.get("committed_len").and_then(|x| x.as_u64()).unwrap() > 0);
        assert!(v.get("steal_rate").and_then(|x| x.as_f64()).is_some());
    }
    // The churn workload must actually have moved the counters.
    let final_line = json::parse(lines.last().unwrap()).unwrap();
    assert!(final_line.get("fills").and_then(|x| x.as_u64()).unwrap() > 0);
    assert!(final_line.get("flushes").and_then(|x| x.as_u64()).unwrap() > 0);
    if std::env::var("TELEMETRY_SMOKE_OUT").is_err() {
        let _ = std::fs::remove_file(&out);
    }
}
