//! Sharded per-size-class partial lists with work-stealing.
//!
//! The paper keeps **one** global lock-free partial list per size class
//! (§4.2). Under high thread counts that single `Link<30>` head becomes
//! the contention point of both slow paths: every Fill pops it and every
//! FULL→PARTIAL flush transition pushes it, so the head's cache line
//! ping-pongs and CAS retries pile up. This module splits each class's
//! partial list into [`SHARDS`] independent Treiber shards:
//!
//! * **Placement**: each thread owns a *home shard*, derived by hashing a
//!   process-unique thread token (Fibonacci multiplicative hash, so
//!   consecutive threads land on well-spread shards although the count is
//!   a power of two). Pushes always go to the pusher's home shard, which
//!   keeps a thread's recently-flushed superblocks on the shard it will
//!   pop next — the same locality argument as the thread cache, one
//!   level down. A shard's heads occupy cache lines of their own
//!   ([`crate::layout::Geometry::partial_head`]), so home traffic shares
//!   no line with another shard's.
//! * **Ownership**: the fill that claims a superblock stamps its home
//!   shard into the descriptor ([`crate::descriptor::Desc::owner`]);
//!   a flush from any other shard counts its group as a remote free
//!   (see [`crate::flush`]), so a thread's frees of blocks it filled
//!   itself are always local.
//! * **Work-stealing**: a Fill pops its home shard; only when that *and*
//!   the superblock free list are empty does it pop the remaining shards
//!   in ring order ([`neighbors`], in `fill_bin`). A steal is a plain
//!   pop of a neighbor shard — descriptor ownership transfers exactly as
//!   on the home path, so no new synchronization is needed; the cost is
//!   bounded by `SHARDS - 1` extra head loads when everything is empty.
//!
//! The shard count is a constant ([`SHARDS`]): at 1 the ledger's `churn`
//! loses 15 %, 2 reads like 4 on a 2-core host, and 16 buys nothing over
//! 4 and costs 20 % of `fastpath`'s setup (README, verdict table). The metadata region keeps
//! 16 head slots per class, the first [`SHARDS`] of which are the lists;
//! the rest is padding that keeps every later offset where it was. The
//! shards are transient like the global list they replace: recovery
//! resets every head and rebuilds the lists *born sharded* — each
//! superblock is placed on (and owned by) shard `sb_index % SHARDS`
//! ([`place_superblock`]), a pure function of the index so 1-worker and
//! N-worker rebuilds agree on per-shard membership. That is the only use
//! of `sb % SHARDS`: online, ownership follows fills.

use std::sync::atomic::{AtomicU64, Ordering};

/// Partial-list shards per size class.
pub const SHARDS: u32 = 4;

/// Process-wide thread-token source. Tokens only ever increase, so two
/// live threads never share one; the hash spreads them over shards.
static NEXT_THREAD_TOKEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TOKEN: u64 = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);
}

/// This thread's token (stable for the thread's life): its shard
/// placement, and the `tid` of its flight records (low 16 bits).
#[inline]
pub fn thread_token() -> u64 {
    THREAD_TOKEN.with(|t| *t)
}

/// Hash a thread token onto `0..SHARDS` (Fibonacci multiplicative hash).
#[inline]
pub fn home_shard(token: u64) -> u32 {
    let h = token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as u32 % SHARDS
}

/// The calling thread's home shard.
#[inline]
pub fn current_home_shard() -> u32 {
    home_shard(thread_token())
}

/// Rebuild-time placement (recovery): the shard that superblock `sb` is
/// rebuilt onto. A pure function of the index so parallel sweep workers
/// (and reruns with different worker counts) agree on per-shard
/// membership. Never consulted online.
#[inline]
pub fn place_superblock(sb: usize) -> u32 {
    (sb % SHARDS as usize) as u32
}

/// The shards other than `home`, in ring order: where a fill steals.
#[inline]
pub fn neighbors(home: u32) -> impl Iterator<Item = u32> {
    debug_assert!(home < SHARDS);
    (1..SHARDS).map(move |k| (home + k) % SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Geometry, USED_SB_OFF};
    use crate::lists::DescList;
    use nvm::{Mode, PmemPool};

    fn test_heap() -> (PmemPool, Geometry) {
        // 64 MiB capacity = 1024 superblocks: enough descriptors for the
        // churn test's 8 threads × 128 indices.
        let len = Geometry::pool_len_for_capacity(64 << 20);
        let pool = PmemPool::new(len, Mode::Direct);
        let geo = Geometry::from_pool_len(pool.len());
        // Every descriptor is carved: a list ends at a link past `used`.
        // SAFETY: a header word, in bounds and 8-aligned.
        unsafe { pool.write_u64(USED_SB_OFF, geo.max_sb as u64) };
        (pool, geo)
    }

    /// Shard `s` of `class`'s partial list.
    fn shard(geo: &Geometry, class: u32, s: u32) -> DescList {
        DescList::partial_shard(geo, class, s)
    }

    /// A fill's steal: pop the first non-empty neighbor of `home`.
    fn steal(pool: &PmemPool, geo: &Geometry, class: u32, home: u32) -> Option<u32> {
        neighbors(home).find_map(|s| shard(geo, class, s).pop(pool, geo))
    }

    #[test]
    fn tokens_are_unique_per_thread() {
        let mine = thread_token();
        let theirs = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(mine, theirs);
        assert_eq!(mine, thread_token(), "token stable within a thread");
    }

    #[test]
    fn home_shard_in_range_and_spread() {
        let mut hit = [false; SHARDS as usize];
        for token in 0..SHARDS as u64 * 8 {
            let s = home_shard(token);
            assert!(s < SHARDS);
            hit[s as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never chosen: {hit:?}");
    }

    #[test]
    fn pop_prefers_home_then_steals() {
        let (pool, geo) = test_heap();
        shard(&geo, 8, 1).push(&pool, &geo, 10);
        shard(&geo, 8, 3).push(&pool, &geo, 11);
        // A steal never takes from home; a pop takes nothing else.
        assert_eq!(steal(&pool, &geo, 8, 3), Some(10));
        shard(&geo, 8, 1).push(&pool, &geo, 10);
        assert_eq!(shard(&geo, 8, 1).pop(&pool, &geo), Some(10));
        // Home (1) now empty: the pop misses, the ring probe finds shard
        // 3's element.
        assert_eq!(shard(&geo, 8, 1).pop(&pool, &geo), None);
        assert_eq!(steal(&pool, &geo, 8, 1), Some(11));
        assert_eq!(steal(&pool, &geo, 8, 1), None);
    }

    #[test]
    fn shards_do_not_bleed_across_classes() {
        let (pool, geo) = test_heap();
        shard(&geo, 5, 2).push(&pool, &geo, 7);
        assert_eq!(shard(&geo, 6, 2).pop(&pool, &geo), None);
        assert_eq!(steal(&pool, &geo, 6, 0), None);
        assert_eq!(shard(&geo, 5, 2).pop(&pool, &geo), Some(7));
    }

    #[test]
    fn placement_is_deterministic_partition() {
        let mut per_shard = [0usize; SHARDS as usize];
        for sb in 0..1001 {
            per_shard[place_superblock(sb) as usize] += 1;
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 1001);
        let (min, max) = (per_shard.iter().min().unwrap(), per_shard.iter().max().unwrap());
        assert!(max - min <= 1, "modulo placement must balance: {per_shard:?}");
    }

    #[test]
    fn concurrent_shard_churn_loses_nothing() {
        let (pool, geo) = test_heap();
        let n_threads = 8u32;
        let per = 128u32;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let pool = &pool;
                let geo = &geo;
                s.spawn(move || {
                    let home = shard(geo, 8, home_shard(t as u64));
                    for i in 0..per {
                        home.push(pool, geo, t * per + i);
                    }
                });
            }
        });
        let mut seen = vec![false; (n_threads * per) as usize];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let pool = &pool;
                    let geo = &geo;
                    s.spawn(move || {
                        let home = home_shard(t as u64);
                        let mut got = Vec::new();
                        while let Some(idx) =
                            shard(geo, 8, home).pop(pool, geo).or_else(|| steal(pool, geo, 8, home))
                        {
                            got.push(idx);
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                for idx in h.join().unwrap() {
                    assert!(!seen[idx as usize], "descriptor {idx} popped twice");
                    seen[idx as usize] = true;
                }
            }
        });
        assert!(seen.iter().all(|&b| b), "descriptor lost in sharded churn");
    }
}
