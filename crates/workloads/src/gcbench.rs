//! Recovery-time measurement (paper §6.4, Figure 6).
//!
//! The paper inserts random key-value pairs into (a) a Treiber stack and
//! (b) the Natarajan–Mittal BST, skips `close()`, and measures the
//! recovery (GC + reconstruction) time of the subsequent restart as a
//! function of the number of reachable blocks. The expected result is a
//! straight line, with a higher per-node constant for the tree (worse
//! locality).
//!
//! We run the heap in Direct mode and invoke `recover()` on the quiescent
//! heap: that executes exactly the dirty-restart code path (trace, sweep,
//! rebuild; nothing rebuilt is written back) without paying the
//! Tracked-mode shadow bookkeeping, which would distort timing.

use std::time::Duration;

use pds::{NmTree, PStack};
use ralloc::{Ralloc, RallocConfig};

/// Which structure to populate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Treiber stack (Fig. 6a).
    Stack,
    /// Natarajan–Mittal tree (Fig. 6b).
    Tree,
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct GcPoint {
    /// Blocks the GC found reachable.
    pub reachable_blocks: u64,
    /// Recovery wall-clock time.
    pub recovery_time: Duration,
}

/// Populate `structure` with `nodes` elements and measure recovery time.
pub fn run(structure: Structure, nodes: usize) -> GcPoint {
    // Size the heap to the structure: stack nodes are 16 B, tree inserts
    // allocate a 32 B leaf + 32 B internal.
    let per_node = match structure {
        Structure::Stack => 24,
        Structure::Tree => 64,
    };
    let heap = Ralloc::create((nodes * per_node * 2).max(8 << 20), RallocConfig::default());
    match structure {
        Structure::Stack => {
            let s = PStack::create(&heap, 0);
            for i in 0..nodes as u64 {
                // "random key-value pairs" — a cheap mix keeps values
                // non-trivial without an RNG in the hot loop.
                assert!(s.push(i.wrapping_mul(0x9E3779B97F4A7C15)));
            }
        }
        Structure::Tree => {
            let t = NmTree::create(&heap, 0);
            let mut key = 0x243F6A8885A308D3u64;
            let mut inserted = 0;
            while inserted < nodes {
                key = key.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if t.insert(key % (u64::MAX / 4), inserted as u64) {
                    inserted += 1;
                }
            }
        }
    }
    let stats = heap.recover();
    GcPoint { reachable_blocks: stats.reachable_blocks, recovery_time: stats.duration }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_point_counts_nodes_plus_head() {
        let p = run(Structure::Stack, 1_000);
        assert_eq!(p.reachable_blocks, 1_001);
        assert!(p.recovery_time.as_nanos() > 0);
    }

    #[test]
    fn tree_point_counts_leaves_internals_sentinels() {
        let p = run(Structure::Tree, 500);
        // 500 leaves + 500 internals + 5 sentinels.
        assert_eq!(p.reachable_blocks, 1_005);
    }

    /// Each size is timed as the fastest of 5 recoveries: the binary's
    /// other tests run beside this one, and a preemption only adds time.
    #[test]
    fn recovery_time_grows_with_reachable_set() {
        let fastest = |nodes| (0..5).map(|_| run(Structure::Stack, nodes).recovery_time).min().unwrap();
        let (small, large) = (fastest(2_000), fastest(40_000));
        assert!(large > small, "GC time must grow with reachable blocks: {small:?} vs {large:?}");
    }
}
