//! Persistent flight recorder: a crash-surviving event ring carved from
//! the metadata region's tail slack, and the heap's one event stream.
//!
//! It answers "what order did the protocol steps happen in?" — live
//! ([`crate::Ralloc::flight_timeline`], `telemetry_snapshot()`), and above
//! all after a SIGKILL, when nothing volatile survived the victim. A small
//! ring of fixed-size records lives *inside the pool itself* (offsets
//! [`FLIGHT_OFF`]`..`[`META_SIZE`]), so the victim's last protocol steps
//! are readable from the heap file by whoever picks up the pieces — the
//! recovering process, the crash-test harness, or the `rinspect` CLI.
//!
//! # Record framing
//!
//! Each record is one 32-byte slot, two per cache line, never straddling
//! a line:
//!
//! ```text
//! +0   seq   u32  (ticket + 1; 0 = slot never written)
//! +4   crc   u32  (FNV-1a over seq and the three payload words)
//! +8   kind  u16  (telemetry::EventKind discriminant)
//! +10  tid   u16  (`shard::thread_token`, low 16 bits)
//! +12  t_ms  u32  (milliseconds since the process's clock origin)
//! +16  a     u64  (per-kind payload, see telemetry::EventKind)
//! +24  b     u64
//! ```
//!
//! The writer stores the payload words first (Relaxed) and the seq+crc
//! word last (Release). A crash between those stores leaves a slot whose
//! checksum does not cover its payload; the scan counts it as *torn* and
//! drops it instead of fabricating history. A slot that was never
//! written is all-zero and is silently skipped — the distinction feeds
//! the `flight_torn_records` counter.
//!
//! # Persistence ordering
//!
//! A record is a protocol step (grow/shrink/recovery phases, root
//! publishes, open/close): its cache line is flushed immediately but
//! **not** fenced — every such site sits next to an existing flush+fence
//! of the protocol itself, so the record rides the same fence and costs
//! no extra ordering (a decommit persists nothing, so `shrink_decommit`
//! has a fence of its own). Nothing on the malloc/free paths records here
//! (carves, fills, flushes and steals are counters), and a transient
//! heap, which persists nothing, has no recorder at all.
//!
//! Slot claims use one relaxed `fetch_add` on a volatile counter — no
//! CAS anywhere. The counter resumes from the highest sequence found at
//! adoption, so a pool's timeline keeps a single monotonic order across
//! crashes and reopens. An adoption that finds the ring header lost
//! re-initializes the ring, so it does not stay dead for the pool's life.

use crate::layout::{FLIGHT_CAP, FLIGHT_HDR_SIZE, FLIGHT_MAGIC, FLIGHT_OFF, FLIGHT_RECORDS_OFF, FLIGHT_REC_SIZE, META_SIZE};
use nvm::PmemPool;
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::EventKind;

/// FNV-1a over the record's sequence number and payload words, folded to
/// 32 bits. Not cryptographic — it only needs to distinguish "this slot
/// was published whole" from "a crash interleaved two records here".
fn record_crc(seq: u32, w1: u64, a: u64, b: u64) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [seq as u64, w1, a, b] {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    ((h >> 32) ^ h) as u32
}

/// Initialize (or re-initialize) the ring region of a pool: zero every
/// slot, then write the ring header. The caller persists: a fresh heap
/// its header line, an adoption that found the header lost the whole
/// ring.
pub fn init_ring(pool: &PmemPool) {
    // SAFETY: the flight region lies inside the metadata region, which
    // is always committed; the caller holds exclusive access (fresh
    // pool or single-threaded adoption).
    unsafe {
        for off in (FLIGHT_OFF..META_SIZE).step_by(8) {
            pool.write_u64(off, 0);
        }
        pool.write_u64(FLIGHT_OFF, FLIGHT_MAGIC);
        pool.write_u64(FLIGHT_OFF + 8, FLIGHT_CAP as u64);
    }
}

/// The crash-surviving event recorder. One per heap; writes land
/// directly in the pool's flight ring.
pub struct FlightRecorder {
    /// Next ticket (volatile; durable order lives in the slots' seq
    /// words). Resumed from the adoption scan so sequence numbers stay
    /// monotonic across reopens.
    head: AtomicU64,
}

impl FlightRecorder {
    pub fn new(resume_ticket: u64) -> FlightRecorder {
        FlightRecorder { head: AtomicU64::new(resume_ticket) }
    }

    /// Record one event into the pool's ring. Zero CAS: one relaxed
    /// `fetch_add` claims a slot, plain stores fill it, a release store
    /// of the seq+crc word publishes it.
    #[inline]
    pub fn record(&self, pool: &PmemPool, kind: EventKind, a: u64, b: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (ticket % FLIGHT_CAP as u64) as usize;
        let off = FLIGHT_RECORDS_OFF + idx * FLIGHT_REC_SIZE;
        let seq = (ticket as u32).wrapping_add(1);
        let t_ms = (telemetry::now_ns() / 1_000_000) as u32;
        let w1 = kind as u8 as u64
            | (crate::shard::thread_token() as u16 as u64) << 16
            | (t_ms as u64) << 32;
        let crc = record_crc(seq, w1, a, b);
        // SAFETY: slot offsets lie inside the always-committed
        // metadata region and are 8-aligned by construction.
        unsafe {
            pool.atomic_u64(off + 8).store(w1, Ordering::Relaxed);
            pool.atomic_u64(off + 16).store(a, Ordering::Relaxed);
            pool.atomic_u64(off + 24).store(b, Ordering::Relaxed);
            pool.atomic_u64(off).store(seq as u64 | (crc as u64) << 32, Ordering::Release);
        }
        // Flushed now, fenced by the protocol step it records.
        pool.flush(FLIGHT_RECORDS_OFF + (idx & !1) * FLIGHT_REC_SIZE, 64);
    }
}

/// One decoded flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence (1-based; gaps mean the ring wrapped).
    pub seq: u32,
    /// Raw kind discriminant (decoded by [`FlightEvent::kind`]; kept raw
    /// so future-version records survive a scan instead of vanishing).
    pub kind: u16,
    /// Writer's per-process thread token.
    pub tid: u16,
    /// Writer's clock, milliseconds. Origins differ across processes, so
    /// compare within one process's run only.
    pub t_ms: u32,
    pub a: u64,
    pub b: u64,
}

impl FlightEvent {
    pub fn kind(&self) -> Option<EventKind> {
        u8::try_from(self.kind).ok().and_then(EventKind::from_u8)
    }

    pub fn kind_name(&self) -> &'static str {
        self.kind().map_or("unknown", EventKind::name)
    }

    fn to_json(self) -> String {
        format!(
            "{{\"seq\": {}, \"t_ms\": {}, \"tid\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}",
            self.seq, self.t_ms, self.tid, self.kind_name(), self.a, self.b
        )
    }
}

/// The result of scanning a pool's flight ring: the surviving records in
/// sequence order plus the count of torn (checksum-failed) slots.
#[derive(Debug, Default, Clone)]
pub struct FlightScan {
    /// Valid records, ascending by `seq`.
    pub events: Vec<FlightEvent>,
    /// Slots that were written but failed their checksum — a record torn
    /// by the crash (or by a racing writer, for live scans).
    pub torn: u64,
}

impl FlightScan {
    /// The ticket a recorder should resume from so new records extend
    /// this timeline monotonically. (Stored seq is ticket+1, so the next
    /// unclaimed ticket equals the highest stored seq.)
    pub fn resume_ticket(&self) -> u64 {
        self.events.last().map_or(0, |e| e.seq as u64)
    }

    /// `{"torn": N, "events": [{seq, t_ms, tid, kind, a, b}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"torn\": {}, \"events\": [", self.torn);
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&e.to_json());
        }
        s.push_str("]}");
        s
    }

    /// One line per event, oldest first, for human-facing reports.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        if self.torn > 0 {
            s.push_str(&format!("({} torn record(s) dropped)\n", self.torn));
        }
        for e in &self.events {
            s.push_str(&format!(
                "#{:<6} +{:>8}ms tid={:<3} {:<17} a={} b={}\n",
                e.seq, e.t_ms, e.tid, e.kind_name(), e.a, e.b
            ));
        }
        s
    }
}

enum SlotState {
    Empty,
    Torn,
    Valid(FlightEvent),
}

fn decode_slot(words: [u64; 4]) -> SlotState {
    if words == [0; 4] {
        return SlotState::Empty;
    }
    let seq = words[0] as u32;
    let crc = (words[0] >> 32) as u32;
    if seq == 0 || crc != record_crc(seq, words[1], words[2], words[3]) {
        return SlotState::Torn;
    }
    SlotState::Valid(FlightEvent {
        seq,
        kind: words[1] as u16,
        tid: (words[1] >> 16) as u16,
        t_ms: (words[1] >> 32) as u32,
        a: words[2],
        b: words[3],
    })
}

/// Whether the ring header holds this build's ring: [`FLIGHT_MAGIC`] and
/// [`FLIGHT_CAP`]. A ring without it scans empty.
fn header_ok(read: &impl Fn(usize) -> u64) -> bool {
    read(FLIGHT_OFF) == FLIGHT_MAGIC && read(FLIGHT_OFF + 8) == FLIGHT_CAP as u64
}

/// Whether a live pool's ring header is intact (see [`init_ring`] for
/// what adoption does when it is not).
pub(crate) fn ring_intact(pool: &PmemPool) -> bool {
    // SAFETY: metadata region offsets, 8-aligned, always committed.
    header_ok(&|off| unsafe { pool.read_u64(off) })
}

fn scan_words(read: impl Fn(usize) -> u64) -> FlightScan {
    if !header_ok(&read) {
        return FlightScan::default();
    }
    let mut scan = FlightScan::default();
    for idx in 0..FLIGHT_CAP {
        let off = FLIGHT_RECORDS_OFF + idx * FLIGHT_REC_SIZE;
        match decode_slot([read(off), read(off + 8), read(off + 16), read(off + 24)]) {
            SlotState::Empty => {}
            SlotState::Torn => scan.torn += 1,
            SlotState::Valid(e) => scan.events.push(e),
        }
    }
    // Sequence order == timeline order. Sorting by the 32-bit seq
    // assumes fewer than 2^32 recorded events over the pool's lifetime;
    // at protocol-event rates that is decades of reopens.
    scan.events.sort_by_key(|e| e.seq);
    scan
}

/// Scan the flight ring of a live pool. Reads are atomic, so racing a
/// writer yields at worst a torn slot (counted, not fabricated).
pub fn scan_pool(pool: &PmemPool) -> FlightScan {
    // SAFETY: metadata region offsets, 8-aligned, always committed.
    scan_words(|off| unsafe { pool.atomic_u64(off).load(Ordering::Acquire) })
}

/// Scan the flight ring of a raw pool image (a heap file read from disk,
/// a crash image). Images shorter than the metadata region — or whose
/// ring header is not [`FLIGHT_MAGIC`] and [`FLIGHT_CAP`] — yield an
/// empty scan.
pub fn scan_image(image: &[u8]) -> FlightScan {
    if image.len() < META_SIZE {
        return FlightScan::default();
    }
    scan_words(|off| u64::from_ne_bytes(image[off..off + 8].try_into().unwrap()))
}

const _: () = assert!(FLIGHT_HDR_SIZE >= 16, "ring header holds magic + capacity");

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{FlushModel, Mode};

    fn pool() -> PmemPool {
        let p = PmemPool::with_reserve(1 << 20, 1 << 20, Mode::Direct, FlushModel::free());
        init_ring(&p);
        p
    }

    #[test]
    fn uninitialized_ring_scans_empty() {
        let p = PmemPool::with_reserve(1 << 20, 1 << 20, Mode::Direct, FlushModel::free());
        let scan = scan_pool(&p);
        assert!(scan.events.is_empty());
        assert_eq!(scan.torn, 0);
        assert_eq!(scan.resume_ticket(), 0);
    }

    #[test]
    fn records_survive_an_image_round_trip() {
        let p = pool();
        let rec = FlightRecorder::new(0);
        rec.record(&p, EventKind::GrowCommit, 4096, 0);
        rec.record(&p, EventKind::ShrinkDecommit, 4096, 0);
        rec.record(&p, EventKind::RootPublish, 3, 17);
        let scan = scan_image(&p.persistent_image());
        assert_eq!(scan.torn, 0);
        let kinds: Vec<_> = scan.events.iter().map(|e| e.kind_name()).collect();
        assert_eq!(kinds, ["grow_commit", "shrink_decommit", "root_publish"]);
        assert_eq!(scan.events[2].a, 3);
        assert_eq!(scan.events[2].b, 17);
        assert_eq!(scan.resume_ticket(), 3);
        assert!(scan.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn wraparound_keeps_newest_cap_records() {
        let p = pool();
        let rec = FlightRecorder::new(0);
        let total = FLIGHT_CAP as u64 + 25;
        for i in 0..total {
            rec.record(&p, EventKind::GrowCommit, i, 0);
        }
        let scan = scan_pool(&p);
        assert_eq!(scan.torn, 0);
        assert_eq!(scan.events.len(), FLIGHT_CAP);
        let seqs: Vec<u64> = scan.events.iter().map(|e| e.seq as u64).collect();
        let expect: Vec<u64> = (26..=total).collect();
        assert_eq!(seqs, expect, "scan keeps the newest FLIGHT_CAP seqs, contiguous");
        assert_eq!(scan.resume_ticket(), total);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        // Four writers lap the ring hundreds of times while a fifth thread
        // scans it. Each tags its records a = t * 1_000_000 + i, b = t, so
        // a slot holding fields of two writers is detectable: the scan
        // must count it torn, never decode it.
        let p = pool();
        let rec = FlightRecorder::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(5);
        let check = |scan: &FlightScan| {
            for e in &scan.events {
                assert_eq!(e.a / 1_000_000, e.b, "slot mixed fields from two writers: {e:?}");
            }
        };
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (p, rec, start) = (&p, &rec, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..20_000u64 {
                            rec.record(p, EventKind::GrowCommit, t * 1_000_000 + i, t);
                        }
                    })
                })
                .collect();
            let scanner = s.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    check(&scan_pool(&p));
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            scanner.join().unwrap();
        });
        let scan = scan_pool(&p);
        check(&scan);
        assert_eq!(
            scan.events.len() + scan.torn as usize,
            FLIGHT_CAP,
            "every slot was written: each decodes or counts torn"
        );
    }

    #[test]
    fn corrupted_payload_is_torn_not_history() {
        let p = pool();
        let rec = FlightRecorder::new(0);
        rec.record(&p, EventKind::GrowCommit, 100, 0);
        rec.record(&p, EventKind::ShrinkDecommit, 100, 0);
        let mut image = p.persistent_image();
        // Flip one payload byte of the newest record (slot 1's `a`).
        image[FLIGHT_RECORDS_OFF + FLIGHT_REC_SIZE + 16] ^= 0xFF;
        let scan = scan_image(&image);
        assert_eq!(scan.torn, 1, "corrupted record is counted");
        assert_eq!(scan.events.len(), 1, "...and dropped, not decoded");
        assert_eq!(scan.events[0].kind_name(), "grow_commit");
    }

    #[test]
    fn resume_extends_the_timeline_monotonically() {
        let p = pool();
        let rec = FlightRecorder::new(0);
        for _ in 0..5 {
            rec.record(&p, EventKind::GrowCommit, 0, 0);
        }
        let first = scan_pool(&p);
        let rec2 = FlightRecorder::new(first.resume_ticket());
        rec2.record(&p, EventKind::Open, 1, 0);
        let scan = scan_pool(&p);
        assert_eq!(scan.events.last().unwrap().seq, 6);
        assert_eq!(scan.events.last().unwrap().kind_name(), "open");
    }

    #[test]
    fn ring_overflow_is_a_proto_event() {
        // Kind 15 is retired (nothing records a ring overflow any more),
        // but a ring written before that can hold one, and a scan must
        // keep reading it back under its name rather than as "unknown".
        let p = pool();
        let rec = FlightRecorder::new(0);
        rec.record(&p, EventKind::Retired15, 3, 1024);
        let scan = scan_pool(&p);
        assert_eq!(scan.events.len(), 1);
        let e = &scan.events[0];
        assert_eq!(e.kind_name(), EventKind::Retired15.name());
        assert_ne!(e.kind_name(), "unknown");
        assert_eq!((e.a, e.b), (3, 1024));
    }

    #[test]
    fn json_and_text_formats_carry_the_events() {
        let p = pool();
        let rec = FlightRecorder::new(0);
        rec.record(&p, EventKind::Close, 0, 0);
        let scan = scan_pool(&p);
        let json = scan.to_json();
        assert!(json.contains("\"torn\": 0"));
        assert!(json.contains("\"kind\": \"close\""));
        assert!(scan.to_text().contains("close"));
    }
}
