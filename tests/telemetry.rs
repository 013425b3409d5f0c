//! Integration tests for the unified telemetry subsystem: the heap-level
//! contracts that the unit tests inside `crates/telemetry` cannot see —
//! zero telemetry CAS on the real malloc/free fast path, protocol
//! ordering in the event journal, exporter round-trips through the
//! `Ralloc` API, and the sampler soak that CI uploads as its smoke
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
/// pmem registries plus the journal — the exporter round-trip at the API
/// surface users actually call.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry counters, which are compiled out")]
fn telemetry_snapshot_round_trips_through_parser() {
    let heap = small_heap();
    let ptrs: Vec<*mut u8> = (0..500).map(|_| heap.malloc(64)).collect();
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
    let journal = v.get("journal").and_then(|j| j.as_array()).expect("journal array");
    assert!(!journal.is_empty(), "carve/fill events must be resident");
    for ev in journal {
        assert!(ev.get("seq").and_then(|s| s.as_u64()).is_some());
        assert!(ev.get("kind").and_then(|k| k.as_str()).is_some());
    }
}

/// The Prometheus dump exposes every registered counter under the scope
/// prefix with well-formed `# TYPE` headers and histogram series.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "asserts telemetry histograms, which are compiled out")]
fn prometheus_dump_is_well_formed() {
    let heap = small_heap();
    let p = heap.malloc(128);
    heap.free(p);
    heap.recover(); // populates the recovery_duration_ns histogram
    let dump = heap.telemetry_prometheus();
    assert!(dump.contains("# TYPE heap_cache_fills counter\n"));
    assert!(dump.contains("# TYPE pmem_flush_lines counter\n"));
    assert!(dump.contains("# TYPE heap_recovery_duration_ns histogram\n"));
    assert!(dump.contains("heap_recovery_duration_ns_bucket{le=\"+Inf\"} 1\n"));
    assert!(dump.contains("heap_recovery_duration_ns_count 1\n"));
    // Every non-comment line is `name[{labels}] value`.
    for line in dump.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let mut parts = line.rsplitn(2, ' ');
        let value = parts.next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "prometheus line must end in a number: {line:?}"
        );
        assert!(parts.next().is_some());
    }
}

/// Grow protocol ordering, per frontier: every `*_publish` in the journal
/// is preceded by a `*_commit` of at least the published length — the
/// crash-safety invariant (persist the frontier word before exposing the
/// space) replayed from the event trace — and every `carve` is preceded
/// by a publish of *both* frontiers covering the carved superblocks (or
/// lies under the frontiers the heap was created with).
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "reads the event journal, which is compiled out")]
fn journal_orders_grow_commit_before_publish() {
    use telemetry::EventKind::{
        Carve, GrowCommit, GrowDescCommit, GrowDescPublish, GrowPublish,
    };
    let heap = Ralloc::create(
        64 << 20,
        RallocConfig { initial_capacity: Some(4 << 20), ..Default::default() },
    );
    // Fresh heaps commit descriptors in lockstep with superblocks.
    let init_sb = heap.committed_superblocks();
    let geo = heap.geometry();
    // Outgrow the initial commit so the frontiers must move.
    let ptrs: Vec<*mut u8> = (0..3000).map(|_| heap.malloc(4096)).collect();
    for p in ptrs {
        heap.free(p);
    }
    let events = heap.journal().snapshot();
    // (commit kind, publish kind, the frontier's arithmetic)
    let [sb, desc] = Frontier::pair(&geo);
    let frontiers = [(GrowCommit, GrowPublish, sb), (GrowDescCommit, GrowDescPublish, desc)];
    for (commit, publish, frontier) in frontiers {
        assert!(
            events.iter().any(|e| e.kind == publish),
            "workload must have grown the {publish:?} frontier"
        );
        for (i, e) in events.iter().enumerate() {
            if e.kind == publish {
                assert!(
                    events[..i].iter().any(|c| c.kind == commit && c.a >= e.a),
                    "{publish:?} of {} has no earlier {commit:?} covering it",
                    e.a
                );
            }
            if e.kind == Carve && (e.a + e.b) as usize > init_sb {
                let need = frontier.len_for_sb((e.a + e.b) as usize) as u64;
                assert!(
                    events[..i].iter().any(|p| p.kind == publish && p.a >= need),
                    "carve of {}+{} has no earlier {publish:?} covering {need} bytes",
                    e.a,
                    e.b
                );
            }
        }
    }
    // Timestamps are monotone in seq order (shared clock origin).
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
}

/// Recovery journals its reconcile → sweep → splice phases in order and
/// publishes the last-recovery gauges onto the heap registry.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "reads the event journal, which is compiled out")]
fn recovery_phases_are_journaled_and_gauged() {
    let heap = small_heap();
    let keep = heap.malloc(64);
    assert!(!keep.is_null());
    let stats = heap.recover();
    use telemetry::EventKind::{RecoveryReconcile, RecoverySplice, RecoverySweep};
    let events = heap.journal().snapshot();
    let seq_of = |k| events.iter().find(|e| e.kind == k).map(|e| e.seq);
    let (rec, sweep, splice) = (
        seq_of(RecoveryReconcile).expect("reconcile journaled"),
        seq_of(RecoverySweep).expect("sweep journaled"),
        seq_of(RecoverySplice).expect("splice journaled"),
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
