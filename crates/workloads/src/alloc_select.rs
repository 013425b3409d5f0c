//! Construction of the five allocators compared in §6.1.

use std::sync::Arc;

use baselines::{MakaluSim, PmdkSim, SystemAlloc};
use nvm::{FlushModel, Mode};
use ralloc::{PersistentAllocator, Ralloc, RallocConfig};

/// Shared handle to any allocator under test.
pub type DynAlloc = Arc<dyn PersistentAllocator>;

/// The five §6.1 allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// The paper's contribution.
    Ralloc,
    /// Ralloc without flush/fence — exactly the paper's LRMalloc datapoint.
    LrMalloc,
    /// Lock-based persistent baseline (Makalu simulation).
    Makalu,
    /// Log-based `malloc_to` baseline (PMDK simulation).
    Pmdk,
    /// Transient system allocator (JEMalloc's role).
    System,
}

impl AllocKind {
    /// All allocators, in the paper's legend order.
    pub fn all() -> [AllocKind; 5] {
        [
            AllocKind::Ralloc,
            AllocKind::Makalu,
            AllocKind::Pmdk,
            AllocKind::LrMalloc,
            AllocKind::System,
        ]
    }

    /// The persistent subset (Fig. 5e compares only these).
    pub fn persistent() -> [AllocKind; 3] {
        [AllocKind::Ralloc, AllocKind::Makalu, AllocKind::Pmdk]
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<AllocKind> {
        Some(match s {
            "ralloc" => AllocKind::Ralloc,
            "lrmalloc" => AllocKind::LrMalloc,
            "makalu" => AllocKind::Makalu,
            "pmdk" => AllocKind::Pmdk,
            "system" | "jemalloc" => AllocKind::System,
            _ => return None,
        })
    }

    /// Display name (matches `PersistentAllocator::name`).
    pub fn name(&self) -> &'static str {
        match self {
            AllocKind::Ralloc => "ralloc",
            AllocKind::LrMalloc => "lrmalloc",
            AllocKind::Makalu => "makalu",
            AllocKind::Pmdk => "pmdk",
            AllocKind::System => "system",
        }
    }
}

/// Build an allocator with `capacity` bytes of heap. Persistent
/// allocators charge `flush` latency per flush/fence (pass
/// [`FlushModel::optane`] for figure runs, [`FlushModel::free`] for
/// functional tests).
pub fn make_allocator(kind: AllocKind, capacity: usize, flush: FlushModel) -> DynAlloc {
    match kind {
        AllocKind::Ralloc => {
            let cfg = RallocConfig { flush_model: flush, ..Default::default() };
            Arc::new(Ralloc::create(capacity, cfg))
        }
        AllocKind::LrMalloc => {
            Arc::new(Ralloc::create(capacity, RallocConfig::transient()))
        }
        AllocKind::Makalu => Arc::new(MakaluSim::create(capacity, flush)),
        AllocKind::Pmdk => Arc::new(PmdkSim::create(capacity, Mode::Direct, flush)),
        AllocKind::System => Arc::new(SystemAlloc::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_construct_and_serve() {
        for kind in AllocKind::all() {
            let a = make_allocator(kind, 8 << 20, FlushModel::free());
            assert_eq!(a.name(), kind.name());
            let p = a.malloc(64);
            assert!(!p.is_null(), "{:?}", kind);
            a.free(p);
        }
    }

    #[test]
    fn parse_round_trips() {
        for kind in AllocKind::all() {
            assert_eq!(AllocKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AllocKind::parse("jemalloc"), Some(AllocKind::System));
        assert_eq!(AllocKind::parse("bogus"), None);
    }
}
