//! The event schema: which persistence-protocol step a record names.
//!
//! The allocator's correctness story is a sequence of ordered steps —
//! grow is one commit, shrink is unpublish → decommit, recovery is
//! reconcile → sweep → splice. Its one recorder, the pool's
//! crash-surviving flight ring (`ralloc::flight`), stores each step as
//! one of these kinds plus two payload words, so the order is readable
//! live, at reopen, and from a dead pool's file.

/// What happened: every persistence-protocol phase. A retired kind is
/// never reused and still decodes under its old name, because an image
/// written while it was live can hold such records in its flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Frontier grow: the pool's committed prefix raised, before any
    /// `used` covers it (a = new committed length).
    GrowCommit = 1,
    /// Retired: a grow's publish of the persisted frontier word (a =
    /// published committed_len). Commit and publish are one step now.
    Retired2 = 2,
    /// Frontier shrink: the lowered `used` made durable (a = the committed
    /// length it needs, b = new `used`).
    ShrinkUnpublish = 3,
    /// Frontier shrink: tail pages decommitted (a = decommitted bytes,
    /// b = new committed length).
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
    /// Retired: superblocks carved from the frontier (a = first carved
    /// index, b = count). The `sb_carved` counter counts carves now.
    Retired11 = 11,
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
    /// Retired: until the descriptor frontier was deleted, its grow's
    /// fenced word (a = new descriptor frontier in bytes).
    Retired16 = 16,
    /// Retired: that grow's publish to carvers, as kind 16.
    Retired17 = 17,
    /// Retired: that frontier's shrink (a = released bytes, b = new
    /// frontier), as kind 16.
    Retired18 = 18,
}

impl EventKind {
    /// Decode a persisted kind byte; `None` for unknown values (future
    /// versions, torn records).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::GrowCommit,
            2 => EventKind::Retired2,
            3 => EventKind::ShrinkUnpublish,
            4 => EventKind::ShrinkDecommit,
            5 => EventKind::RecoveryReconcile,
            6 => EventKind::RecoverySweep,
            7 => EventKind::RecoverySplice,
            8 => EventKind::Retired8,
            9 => EventKind::Retired9,
            10 => EventKind::Retired10,
            11 => EventKind::Retired11,
            12 => EventKind::RootPublish,
            13 => EventKind::Open,
            14 => EventKind::Close,
            15 => EventKind::Retired15,
            16 => EventKind::Retired16,
            17 => EventKind::Retired17,
            18 => EventKind::Retired18,
            _ => return None,
        })
    }

    /// The event's name as it appears in JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GrowCommit => "grow_commit",
            EventKind::Retired2 => "grow_publish",
            EventKind::ShrinkUnpublish => "shrink_unpublish",
            EventKind::ShrinkDecommit => "shrink_decommit",
            EventKind::RecoveryReconcile => "recovery_reconcile",
            EventKind::RecoverySweep => "recovery_sweep",
            EventKind::RecoverySplice => "recovery_splice",
            EventKind::Retired8 => "fill",
            EventKind::Retired9 => "flush",
            EventKind::Retired10 => "steal",
            EventKind::Retired11 => "carve",
            EventKind::RootPublish => "root_publish",
            EventKind::Open => "open",
            EventKind::Close => "close",
            EventKind::Retired15 => "remote_ring_overflow",
            EventKind::Retired16 => "grow_desc_commit",
            EventKind::Retired17 => "grow_desc_publish",
            EventKind::Retired18 => "shrink_desc_decommit",
        }
    }
}
