//! Heap configuration: what a caller may choose when it creates or opens
//! a heap. The core reads no environment: a heap runs under exactly the
//! fields its caller set. Deployment variables belong to the drop-in
//! surface (`galloc`), which turns them into fields.
//!
//! No `pub(crate)` surface. [`parse_size`] is public: galloc parses
//! `GALLOC_CAP` with it.

use nvm::{FlushModel, Mode};

/// Configuration for creating or opening a heap.
#[derive(Clone)]
pub struct RallocConfig {
    /// Persistence simulation mode of the underlying pool.
    pub mode: Mode,
    /// Latency charged per flush/fence (benchmarks use
    /// [`FlushModel::optane`]).
    pub flush_model: FlushModel,
    /// LRMalloc mode: skip every flush and fence. This is exactly how the
    /// paper produced its LRMalloc baseline ("Ralloc without flush and
    /// fence", §6.1). A transient heap cannot be recovered.
    pub transient: bool,
    /// Superblock-region bytes committed at creation. `None` (default)
    /// commits the full reserved capacity upfront — the historical
    /// one-fixed-pool behavior. A smaller value makes the heap start
    /// small and grow its committed frontier on demand (cold path only).
    pub initial_capacity: Option<usize>,
    /// Ceiling on the superblock-region capacity: the *reserved* virtual
    /// span, fixed for the heap's life (geometry is computed from it
    /// once). `None` reserves exactly the `create` capacity argument.
    pub max_capacity: Option<usize>,
}

impl Default for RallocConfig {
    fn default() -> Self {
        RallocConfig {
            mode: Mode::Direct,
            flush_model: FlushModel::default(),
            transient: false,
            initial_capacity: None,
            max_capacity: None,
        }
    }
}

impl RallocConfig {
    /// Config for crash-semantics testing: tracked pool, free flushes.
    pub fn tracked() -> Self {
        RallocConfig { mode: Mode::Tracked, ..Default::default() }
    }

    /// Config for the LRMalloc baseline.
    pub fn transient() -> Self {
        RallocConfig { transient: true, ..Default::default() }
    }
}

/// A byte size: a plain integer, optionally suffixed with `K`/`M`/`G`
/// (case-insensitive, powers of 1024); `None` when it does not parse or
/// does not fit a `usize`.
pub fn parse_size(raw: &str) -> Option<usize> {
    let s = raw.trim();
    let (digits, unit) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1usize << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok()?.checked_mul(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_knob_parses_suffixes() {
        for (raw, want) in [
            ("4194304", Some(4194304usize)),
            ("4096", Some(4096)),
            ("4m", Some(4 << 20)),
            ("64K", Some(64 << 10)),
            ("2G", Some(2 << 30)),
            (" 8M ", Some(8 << 20)),
            ("8m", Some(8 << 20)),
            (" 1 G ", Some(1 << 30)),
            ("garbage", None),
            ("nope", None),
            ("", None),
            // Past `usize`: refused, not wrapped (2^34 + 1 GiB would wrap
            // to 1 GiB, 2^34 GiB to 0).
            ("17179869185G", None),
            ("17179869184G", None),
            ("18446744073709551615", Some(usize::MAX)),
        ] {
            assert_eq!(parse_size(raw), want, "{raw:?}");
        }
    }
}
