//! Bounded lock-free event journal for persistence-protocol phases.
//!
//! The allocator's correctness story is a sequence of ordered steps —
//! grow is commit → publish, shrink is unpublish → decommit, recovery is
//! reconcile → sweep → splice. When a crash test fails or a latency
//! spike appears, the question is always "what order did the protocol
//! steps actually happen in?". The journal answers it: every protocol
//! site records one [`Event`] with a monotonic timestamp into a
//! fixed-size ring, and [`Journal::snapshot`] replays the last N events
//! in order.
//!
//! Writers claim a slot with one relaxed `fetch_add` (no CAS) and
//! publish the slot's contents with a per-slot sequence word
//! (seqlock-style): readers that race a writer simply skip the torn
//! slot. The ring never blocks, never allocates after construction, and
//! overwrites the oldest events when full — bounded memory is the
//! contract, not completeness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What happened: every persistence-protocol phase, plus carves. A
/// retired kind is never reused and still decodes under its old name,
/// because an image written while it was live can hold such records in
/// its flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Frontier grow: new segment committed (a = new committed_len).
    GrowCommit = 1,
    /// Frontier grow: committed_len published to the persistent root
    /// (a = published committed_len).
    GrowPublish = 2,
    /// Frontier shrink: persistent watermark lowered (a = new
    /// committed_len).
    ShrinkUnpublish = 3,
    /// Frontier shrink: tail pages decommitted (a = decommitted bytes).
    ShrinkDecommit = 4,
    /// Recovery: descriptor/anchor reconcile pass (a = superblocks seen).
    RecoveryReconcile = 5,
    /// Recovery: GC sweep (a = reachable blocks).
    RecoverySweep = 6,
    /// Recovery: rebuilt lists spliced into shards (a = partial
    /// superblocks, b = free superblocks).
    RecoverySplice = 7,
    /// Retired: a thread cache fill (a = blocks, b = size class), sampled
    /// only at the flight level `all`, which is gone. Fills, flushes and
    /// steals are counters now.
    Retired8 = 8,
    /// Retired: a thread cache flush (a = blocks), as kind 8.
    Retired9 = 9,
    /// Retired: a partial-list steal from a foreign shard (a = stolen
    /// superblock index, b = size class), as kind 8.
    Retired10 = 10,
    /// Superblocks carved from the frontier (a = first carved index,
    /// b = count).
    Carve = 11,
    /// A persistent root was published (a = root index, b = stored
    /// offset word; 0 = cleared).
    RootPublish = 12,
    /// A process attached to the heap (a = dirty flag at adoption).
    Open = 13,
    /// Clean close: dirty flag cleared and the pool synced.
    Close = 14,
    /// Retired: until the remote-free rings were deleted this was a ring
    /// push displacing an undrained batch (a = its superblock, b = its
    /// block count).
    Retired15 = 15,
    /// Descriptor-region frontier grow: new descriptor span committed and
    /// its frontier word fenced (a = new descriptor frontier in bytes).
    GrowDescCommit = 16,
    /// Descriptor-region frontier grow: frontier published to carvers
    /// (a = published descriptor frontier in bytes).
    GrowDescPublish = 17,
    /// Descriptor-region frontier shrink: word lowered, fenced, and the
    /// region tail released (a = released bytes, b = new frontier).
    ShrinkDescDecommit = 18,
}

impl EventKind {
    /// Decode a persisted kind byte; `None` for unknown values (future
    /// versions, torn records). Public because the persistent flight
    /// recorder shares this schema with the volatile journal.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::GrowCommit,
            2 => EventKind::GrowPublish,
            3 => EventKind::ShrinkUnpublish,
            4 => EventKind::ShrinkDecommit,
            5 => EventKind::RecoveryReconcile,
            6 => EventKind::RecoverySweep,
            7 => EventKind::RecoverySplice,
            8 => EventKind::Retired8,
            9 => EventKind::Retired9,
            10 => EventKind::Retired10,
            11 => EventKind::Carve,
            12 => EventKind::RootPublish,
            13 => EventKind::Open,
            14 => EventKind::Close,
            15 => EventKind::Retired15,
            16 => EventKind::GrowDescCommit,
            17 => EventKind::GrowDescPublish,
            18 => EventKind::ShrinkDescDecommit,
            _ => return None,
        })
    }

    /// The event's name as it appears in JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GrowCommit => "grow_commit",
            EventKind::GrowPublish => "grow_publish",
            EventKind::ShrinkUnpublish => "shrink_unpublish",
            EventKind::ShrinkDecommit => "shrink_decommit",
            EventKind::RecoveryReconcile => "recovery_reconcile",
            EventKind::RecoverySweep => "recovery_sweep",
            EventKind::RecoverySplice => "recovery_splice",
            EventKind::Retired8 => "fill",
            EventKind::Retired9 => "flush",
            EventKind::Retired10 => "steal",
            EventKind::Carve => "carve",
            EventKind::RootPublish => "root_publish",
            EventKind::Open => "open",
            EventKind::Close => "close",
            EventKind::Retired15 => "remote_ring_overflow",
            EventKind::GrowDescCommit => "grow_desc_commit",
            EventKind::GrowDescPublish => "grow_desc_publish",
            EventKind::ShrinkDescDecommit => "shrink_desc_decommit",
        }
    }
}

/// One journal entry: a protocol step with its payload words. The
/// meaning of `a`/`b` is per-kind (documented on [`EventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global record order (0-based). Gaps in a snapshot mean the ring
    /// wrapped past those events.
    pub seq: u64,
    /// Monotonic nanoseconds from [`crate::now_ns`]'s shared origin.
    pub t_ns: u64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}

/// A journal slot. `seq` is the seqlock word: odd while a writer fills
/// the slot, even (== 2·ticket + 2) once published. Readers load it
/// before and after copying the payload and discard the copy on any
/// change.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Inner {
    slots: Box<[Slot]>,
    mask: usize,
    head: AtomicU64,
}

/// Bounded lock-free ring buffer of protocol [`Event`]s. Cheaply
/// cloneable; clones share the ring.
#[derive(Clone)]
pub struct Journal(Arc<Inner>);

impl Journal {
    /// A journal holding the most recent `capacity` events (rounded up
    /// to a power of two, min 8).
    pub fn with_capacity(capacity: usize) -> Journal {
        let cap = capacity.max(8).next_power_of_two();
        Journal(Arc::new(Inner {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            mask: cap - 1,
            head: AtomicU64::new(0),
        }))
    }

    pub fn capacity(&self) -> usize {
        self.0.slots.len()
    }

    /// Record one event, timestamped now. One relaxed `fetch_add` to
    /// claim the slot, plain stores to fill it, one release store to
    /// publish — no CAS. Compiled out under `telemetry-off`.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        {
            let ticket = self.0.head.fetch_add(1, Ordering::Relaxed);
            let slot = &self.0.slots[(ticket as usize) & self.0.mask];
            // Mark the slot torn (odd) while writing. A lapped writer's
            // ticket always exceeds the resident one's, so the final
            // release store below wins any race for the slot's identity;
            // a reader that observed either odd value discards the slot.
            slot.seq.store(2 * ticket + 1, Ordering::Release);
            slot.t_ns.store(crate::now_ns(), Ordering::Relaxed);
            slot.kind.store(kind as u8 as u64, Ordering::Relaxed);
            slot.a.store(a, Ordering::Relaxed);
            slot.b.store(b, Ordering::Relaxed);
            slot.seq.store(2 * ticket + 2, Ordering::Release);
        }
        #[cfg(feature = "telemetry-off")]
        let _ = (kind, a, b);
    }

    /// Total events ever recorded (recorded − capacity have been
    /// overwritten once this exceeds [`Self::capacity`]).
    pub fn recorded(&self) -> u64 {
        self.0.head.load(Ordering::Relaxed)
    }

    /// The resident events, oldest first. Slots torn by a concurrent
    /// writer are skipped, so a snapshot taken under write load returns
    /// a consistent (possibly gappy) trace.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.0.head.load(Ordering::Acquire);
        let cap = self.0.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.0.slots[(ticket as usize) & self.0.mask];
            let seq0 = slot.seq.load(Ordering::Acquire);
            if seq0 != 2 * ticket + 2 {
                continue; // torn, overwritten, or not yet published
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq0 {
                continue; // overwritten while copying
            }
            let Some(kind) = EventKind::from_u8(kind as u8) else {
                continue;
            };
            out.push(Event { seq: ticket, t_ns, kind, a, b });
        }
        out
    }

    /// The resident events as a JSON array (one object per event), for
    /// embedding in [`crate::export::to_json`] dumps.
    pub fn to_json(&self) -> String {
        let events = self.snapshot();
        let mut s = String::from("[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"seq\": {}, \"t_ns\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}",
                e.seq,
                e.t_ns,
                e.kind.name(),
                e.a,
                e.b
            ));
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
#[cfg(not(feature = "telemetry-off"))]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotonic_timestamps() {
        let j = Journal::with_capacity(64);
        j.record(EventKind::GrowCommit, 10, 0);
        j.record(EventKind::GrowPublish, 10, 0);
        j.record(EventKind::Carve, 64, 3);
        let evs = j.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::GrowCommit);
        assert_eq!(evs[1].kind, EventKind::GrowPublish);
        assert_eq!(evs[2].kind, EventKind::Carve);
        assert_eq!(evs[2].a, 64);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn wraparound_keeps_newest_capacity_events() {
        let j = Journal::with_capacity(8);
        assert_eq!(j.capacity(), 8);
        for i in 0..100u64 {
            j.record(EventKind::Carve, i, 0);
        }
        assert_eq!(j.recorded(), 100);
        let evs = j.snapshot();
        assert_eq!(evs.len(), 8, "ring retains exactly its capacity");
        let payloads: Vec<u64> = evs.iter().map(|e| e.a).collect();
        assert_eq!(payloads, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Journal::with_capacity(0).capacity(), 8);
        assert_eq!(Journal::with_capacity(100).capacity(), 128);
        assert_eq!(Journal::with_capacity(256).capacity(), 256);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let j = Journal::with_capacity(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let j = j.clone();
                // Each writer tags events with a = t * 1_000_000 + i so a
                // torn slot (fields from two writers) is detectable.
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        j.record(EventKind::Carve, t * 1_000_000 + i, t);
                    }
                });
            }
            // Snapshot continuously under write load.
            for _ in 0..200 {
                for e in j.snapshot() {
                    assert_eq!(
                        e.a / 1_000_000,
                        e.b,
                        "slot mixed fields from two writers"
                    );
                }
            }
        });
        assert_eq!(j.recorded(), 80_000);
        assert_eq!(j.snapshot().len(), 64);
    }

    #[test]
    fn json_dump_is_one_object_per_event() {
        let j = Journal::with_capacity(8);
        j.record(EventKind::RecoverySweep, 123, 0);
        let s = j.to_json();
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("\"kind\": \"recovery_sweep\""));
        assert!(s.contains("\"a\": 123"));
    }
}
