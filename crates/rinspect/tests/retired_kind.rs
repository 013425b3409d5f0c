//! Event kind 15 is retired, not reused: a v6 pool written while the
//! allocator still had remote-free rings can hold `remote_ring_overflow`
//! records in its flight ring, and every reader must keep printing them
//! — by name, not as "unknown", and without dropping or tripping on them.

use std::process::Command;

use ralloc::flight::{self, FlightRecorder};
use ralloc::telemetry::EventKind;
use ralloc::{FlightLevel, Ralloc, RallocConfig};

#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "the flight recorder is compiled out")]
fn a_planted_kind_15_record_reads_back_through_scan_and_rinspect() {
    // Frame the record exactly as an older writer did (seq + crc), after
    // whatever this heap's own open recorded.
    let heap = Ralloc::create(4 << 20, RallocConfig::default());
    let own = heap.flight_timeline();
    let old_writer = FlightRecorder::new(FlightLevel::Proto, own.resume_ticket());
    old_writer.record(heap.pool(), EventKind::from_u8(15).expect("kind 15 decodes"), 7, 64);
    let image = heap.pool().persistent_image();

    let scan = flight::scan_image(&image);
    assert_eq!(scan.torn, 0);
    assert_eq!(scan.events.len(), own.events.len() + 1, "the record was dropped");
    let e = scan.events.last().unwrap();
    assert_eq!((e.kind, e.a, e.b), (15, 7, 64));
    assert_eq!(e.kind_name(), "remote_ring_overflow");

    // A reopen adopts the timeline with the record in it.
    let (reopened, _dirty) = Ralloc::from_image(&image, RallocConfig::default());
    assert!(reopened.preopen_flight().events.iter().any(|e| e.kind == 15));

    // The library the CLI prints from, then the CLI itself.
    assert!(rinspect::timeline(&image).to_json().contains("\"kind\": \"remote_ring_overflow\""));
    assert!(rinspect::dump(&image).contains(&format!("{} record(s)", scan.events.len())));
    let path = std::env::temp_dir().join(format!("rinspect_kind15_{}.pool", std::process::id()));
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
    assert!(run(&["timeline", "--json"]).contains("\"kind\": \"remote_ring_overflow\", \"a\": 7, \"b\": 64"));
    assert!(run(&["timeline"]).contains("remote_ring_overflow"));
    assert!(run(&["dump", "--json"]).contains("record(s)"));
    let _ = std::fs::remove_file(&path);
}
