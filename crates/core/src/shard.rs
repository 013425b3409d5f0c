//! Sharded per-size-class partial lists with work-stealing.
//!
//! The paper keeps **one** global lock-free partial list per size class
//! (§4.2). Under high thread counts that single `Counted` head becomes
//! the contention point of both slow paths: every Fill pops it and every
//! FULL→PARTIAL flush transition pushes it, so the head's cache line
//! ping-pongs and CAS retries pile up. This module splits each class's
//! partial list into `S` independent Treiber shards:
//!
//! * **Placement**: each thread owns a *home shard*, derived by hashing a
//!   process-unique thread token (Fibonacci multiplicative hash, so
//!   consecutive threads land on well-spread shards even when `S` is a
//!   power of two). Pushes always go to the pusher's home shard, which
//!   keeps a thread's recently-flushed superblocks on the shard it will
//!   pop next — the same locality argument as the thread cache, one
//!   level down. A shard's heads occupy cache lines of their own
//!   ([`Geometry::partial_head`]), so home traffic shares no line with
//!   another shard's.
//! * **Ownership**: the fill that claims a superblock stamps its home
//!   shard into the descriptor ([`crate::descriptor::Desc::owner`]);
//!   a flush from any other shard counts its group as a remote free
//!   (see [`crate::flush`]), so a thread's frees of blocks it filled
//!   itself are always local.
//! * **Work-stealing**: a Fill pops its home shard ([`ShardedPartial::pop`]);
//!   only when that *and* the superblock free list are empty does it
//!   probe the remaining shards in ring order ([`ShardedPartial::steal`]).
//!   A steal is a plain pop of a neighbor shard — descriptor ownership
//!   transfers exactly as on the home path, so no new synchronization is
//!   needed; the cost is bounded by `S - 1` extra head loads when
//!   everything is empty.
//!
//! The shard count `S` is a *runtime* configuration
//! ([`crate::RallocConfig::partial_shards`], env-overridable via
//! `RALLOC_SHARDS`), clamped to [`MAX_SHARDS`]; the metadata region
//! reserves `MAX_SHARDS` head slots per class so the same pool image can
//! be reopened under any shard count. The shards are transient like the
//! global list they replace: recovery resets every head and rebuilds the
//! lists *born sharded* — each superblock is placed on (and owned by)
//! shard `sb_index % S` ([`place_superblock`]), a pure function of the
//! index so 1-worker and N-worker rebuilds agree on per-shard membership.
//! That is the only use of `sb % S`: online, ownership follows fills.

use std::sync::atomic::{AtomicU64, Ordering};

use nvm::PmemPool;

use crate::layout::Geometry;
pub use crate::layout::MAX_SHARDS;
use crate::lists::DescList;

/// Process-wide thread-token source. Tokens only ever increase, so two
/// live threads never share one; the hash spreads them over shards.
static NEXT_THREAD_TOKEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_TOKEN: u64 = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);
}

/// This thread's shard-placement token (stable for the thread's life).
#[inline]
pub fn thread_token() -> u64 {
    THREAD_TOKEN.with(|t| *t)
}

/// Hash a thread token onto `0..shards` (Fibonacci multiplicative hash).
#[inline]
pub fn home_shard(token: u64, shards: u32) -> u32 {
    debug_assert!(shards >= 1);
    let h = token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as u32 % shards
}

/// Rebuild-time placement (recovery, clean-reopen fold): the shard that
/// superblock `sb` is rebuilt onto. A pure function of the index so
/// parallel sweep workers (and reruns with different worker counts) agree
/// on per-shard membership. Never consulted online.
#[inline]
pub fn place_superblock(sb: usize, shards: u32) -> u32 {
    (sb % shards as usize) as u32
}

/// Clamp a requested shard count to the valid range, honoring the
/// `RALLOC_SHARDS` environment override (benchmarks use it to sweep shard
/// counts in one binary).
pub fn effective_shards(requested: usize) -> u32 {
    let req = std::env::var("RALLOC_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(requested);
    req.clamp(1, MAX_SHARDS) as u32
}

/// Read a byte-size env knob: a plain integer, optionally suffixed with
/// `K`/`M`/`G` (case-insensitive, powers of 1024). `None` when unset or
/// unparsable. Used by `RALLOC_INIT_CAP`/`RALLOC_MAX_CAP`.
pub(crate) fn env_size(name: &str) -> Option<usize> {
    parse_size(&std::env::var(name).ok()?)
}

/// The pure parser behind [`env_size`] (separately testable: unit tests
/// must not mutate the process environment — concurrent `setenv` and
/// `getenv` across test threads is UB on glibc).
fn parse_size(raw: &str) -> Option<usize> {
    let s = raw.trim().to_ascii_uppercase();
    let (digits, shift) = match s.strip_suffix(['K', 'M', 'G']) {
        Some(d) => (d, match s.as_bytes()[s.len() - 1] {
            b'K' => 10,
            b'M' => 20,
            _ => 30,
        }),
        None => (s.as_str(), 0),
    };
    digits.trim().parse::<usize>().ok().map(|n| n << shift)
}

/// The `S` partial-list shards of one size class.
#[derive(Debug, Clone, Copy)]
pub struct ShardedPartial {
    class: u32,
    shards: u32,
}

impl ShardedPartial {
    /// View the shards of `class` under a live shard count of `shards`.
    #[inline]
    pub fn new(class: u32, shards: u32) -> ShardedPartial {
        debug_assert!((1..=MAX_SHARDS as u32).contains(&shards));
        ShardedPartial { class, shards }
    }

    /// The live shard count.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Push `idx` onto shard `home` (callers pass their home shard; the
    /// recovery sweep passes [`place_superblock`]).
    #[inline]
    pub fn push(&self, pool: &PmemPool, geo: &Geometry, idx: u32, home: u32) {
        debug_assert!(home < self.shards);
        DescList::partial_shard(geo, self.class, home).push(pool, geo, idx);
    }

    /// Pop from shard `home` only.
    #[inline]
    pub fn pop(&self, pool: &PmemPool, geo: &Geometry, home: u32) -> Option<u32> {
        debug_assert!(home < self.shards);
        DescList::partial_shard(geo, self.class, home).pop(pool, geo)
    }

    /// Pop from the first non-empty neighbor of `home`, in ring order.
    pub fn steal(&self, pool: &PmemPool, geo: &Geometry, home: u32) -> Option<u32> {
        (1..self.shards).find_map(|probe| self.pop(pool, geo, (home + probe) % self.shards))
    }

    /// Reset every reserved head slot — not just the live shards, since a
    /// previous run may have used more (offline use: recovery step 3).
    pub fn reset_all(&self, pool: &PmemPool, geo: &Geometry) {
        for s in 0..MAX_SHARDS as u32 {
            DescList::partial_shard(geo, self.class, s).reset(pool);
        }
    }

    /// Snapshot the contents of every live shard (offline: tests,
    /// checker, diagnostics). Index `s` of the result is shard `s`.
    pub fn collect_all(&self, pool: &PmemPool, geo: &Geometry) -> Vec<Vec<u32>> {
        (0..self.shards)
            .map(|s| DescList::partial_shard(geo, self.class, s).collect(pool, geo))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Geometry;
    use nvm::Mode;

    fn test_heap() -> (PmemPool, Geometry) {
        // 64 MiB capacity = 1024 superblocks: enough descriptors for the
        // churn test's 8 threads × 128 indices.
        let len = Geometry::pool_len_for_capacity(64 << 20);
        let pool = PmemPool::new(len, Mode::Direct);
        let geo = Geometry::from_pool_len(pool.len());
        (pool, geo)
    }

    #[test]
    fn size_knob_parses_suffixes() {
        // Pure-parser test on purpose: mutating the environment from a
        // multithreaded test binary races glibc setenv/getenv (UB). The
        // env plumbing itself is covered by tests/growable_env.rs, which
        // owns its process.
        for (raw, want) in [
            ("4194304", Some(4194304usize)),
            ("4m", Some(4 << 20)),
            ("64K", Some(64 << 10)),
            ("2G", Some(2 << 30)),
            (" 8M ", Some(8 << 20)),
            ("garbage", None),
            ("", None),
        ] {
            assert_eq!(parse_size(raw), want, "{raw:?}");
        }
        assert_eq!(env_size("RALLOC_ENV_SIZE_TEST_UNSET"), None);
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
        for shards in [1u32, 2, 3, 4, 8, 16] {
            let mut hit = vec![false; shards as usize];
            for token in 0..shards as u64 * 8 {
                let s = home_shard(token, shards);
                assert!(s < shards);
                hit[s as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "{shards} shards: some shard never chosen");
        }
    }

    #[test]
    fn pop_prefers_home_then_steals() {
        let (pool, geo) = test_heap();
        let sp = ShardedPartial::new(8, 4);
        sp.push(&pool, &geo, 10, 1);
        sp.push(&pool, &geo, 11, 3);
        // A steal never takes from home; a pop takes nothing else.
        assert_eq!(sp.steal(&pool, &geo, 3), Some(10));
        sp.push(&pool, &geo, 10, 1);
        assert_eq!(sp.pop(&pool, &geo, 1), Some(10));
        // Home (1) now empty: the pop misses, the ring probe finds shard
        // 3's element.
        assert_eq!(sp.pop(&pool, &geo, 1), None);
        assert_eq!(sp.steal(&pool, &geo, 1), Some(11));
        assert_eq!(sp.steal(&pool, &geo, 1), None);
    }

    #[test]
    fn shards_do_not_bleed_across_classes() {
        let (pool, geo) = test_heap();
        let a = ShardedPartial::new(5, 4);
        let b = ShardedPartial::new(6, 4);
        a.push(&pool, &geo, 7, 2);
        assert_eq!(b.pop(&pool, &geo, 2), None);
        assert_eq!(b.steal(&pool, &geo, 0), None);
        assert_eq!(a.pop(&pool, &geo, 2), Some(7));
    }

    #[test]
    fn reset_all_clears_even_stale_high_shards() {
        let (pool, geo) = test_heap();
        // A "previous run" with 16 shards parked something on shard 13.
        let wide = ShardedPartial::new(9, 16);
        wide.push(&pool, &geo, 42, 13);
        // This run uses 2 shards; reset must still clear shard 13.
        let narrow = ShardedPartial::new(9, 2);
        narrow.reset_all(&pool, &geo);
        assert_eq!(wide.pop(&pool, &geo, 13), None);
        assert_eq!(wide.steal(&pool, &geo, 13), None);
    }

    #[test]
    fn placement_is_deterministic_partition() {
        for shards in [1u32, 3, 8] {
            let mut per_shard = vec![0usize; shards as usize];
            for sb in 0..1000 {
                per_shard[place_superblock(sb, shards) as usize] += 1;
            }
            assert_eq!(per_shard.iter().sum::<usize>(), 1000);
            let (min, max) =
                (per_shard.iter().min().unwrap(), per_shard.iter().max().unwrap());
            assert!(max - min <= 1, "modulo placement must balance: {per_shard:?}");
        }
    }

    #[test]
    fn concurrent_shard_churn_loses_nothing() {
        let (pool, geo) = test_heap();
        let sp = ShardedPartial::new(8, 4);
        let n_threads = 8u32;
        let per = 128u32;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let pool = &pool;
                let geo = &geo;
                let sp = &sp;
                s.spawn(move || {
                    let home = home_shard(t as u64, sp.shards());
                    for i in 0..per {
                        sp.push(pool, geo, t * per + i, home);
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
                    let sp = &sp;
                    s.spawn(move || {
                        let home = home_shard(t as u64, sp.shards());
                        let mut got = Vec::new();
                        while let Some(idx) =
                            sp.pop(pool, geo, home).or_else(|| sp.steal(pool, geo, home))
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
