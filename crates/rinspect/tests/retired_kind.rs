//! Retired event kinds are never reused: a pool written while the
//! allocator still had remote-free rings (kind 15), the flight level
//! `all` (kinds 8 / 9 / 10), carve events (kind 11), or persisted
//! frontier words (kinds 2, 16, 17 and 18) can hold such records in its
//! flight ring, and
//! every reader must keep printing them — by name, not as "unknown", and
//! without dropping or tripping on them.

use std::process::Command;

use ralloc::flight::{self, FlightRecorder};
use ralloc::telemetry::EventKind;
use ralloc::{Ralloc, RallocConfig};

const RETIRED: [(u8, &str); 9] = [
    (2, "grow_publish"),
    (8, "fill"),
    (9, "flush"),
    (10, "steal"),
    (11, "carve"),
    (15, "remote_ring_overflow"),
    (16, "grow_desc_commit"),
    (17, "grow_desc_publish"),
    (18, "shrink_desc_decommit"),
];

#[test]
fn planted_retired_kind_records_read_back_through_scan_and_rinspect() {
    // Frame the records exactly as an older writer did (seq + crc), after
    // whatever this heap's own open recorded.
    let heap = Ralloc::create(4 << 20, RallocConfig::default());
    let own = heap.flight_timeline();
    let old_writer = FlightRecorder::new(own.resume_ticket());
    for (kind, _) in RETIRED {
        let decoded = EventKind::from_u8(kind).unwrap_or_else(|| panic!("kind {kind} decodes"));
        old_writer.record(heap.pool(), decoded, 7, kind as u64);
    }
    let image = heap.pool().persistent_image();

    let scan = flight::scan_image(&image);
    assert_eq!(scan.torn, 0);
    assert_eq!(scan.events.len(), own.events.len() + RETIRED.len(), "a record was dropped");
    for (e, (kind, name)) in scan.events[own.events.len()..].iter().zip(RETIRED) {
        assert_eq!((e.kind, e.a, e.b), (kind as u16, 7, kind as u64));
        assert_eq!(e.kind_name(), name);
    }

    // A reopen adopts the timeline with the records in it.
    let (reopened, _dirty) = Ralloc::from_image(&image, RallocConfig::default());
    for (kind, _) in RETIRED {
        assert!(reopened.preopen_flight().events.iter().any(|e| e.kind == kind as u16));
    }

    // The library the CLI prints from, then the CLI itself.
    let json = rinspect::timeline(&image).to_json();
    assert!(rinspect::dump(&image).contains(&format!("{} record(s)", scan.events.len())));
    let path = std::env::temp_dir().join(format!("rinspect_retired_{}.pool", std::process::id()));
    std::fs::write(&path, &image).unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_rinspect"))
            .args(args)
            .arg(&path)
            .output()
            .expect("failed to spawn rinspect");
        assert!(out.status.success(), "rinspect {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let (cli_json, cli_text) = (run(&["timeline", "--json"]), run(&["timeline"]));
    for (kind, name) in RETIRED {
        let record = format!("\"kind\": \"{name}\", \"a\": 7, \"b\": {kind}");
        assert!(json.contains(&record), "library timeline lost kind {kind}");
        assert!(cli_json.contains(&record), "rinspect timeline --json lost kind {kind}");
        assert!(cli_text.contains(name), "rinspect timeline lost kind {kind}");
    }
    assert!(run(&["dump", "--json"]).contains("record(s)"));
    let _ = std::fs::remove_file(&path);
}
