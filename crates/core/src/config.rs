//! Heap configuration: what a caller may choose, and which value wins.
//!
//! The one decision this module owns is **precedence**: this file is the
//! only place the core reads the environment. Every `RALLOC_*` override
//! of a config field is applied in [`RallocConfig::with_env`] (the
//! environment beats the field, the field beats the default), so the rest
//! of the crate reads plain fields of an already-resolved config; a value
//! that does not parse is reported once on stderr and the field is used.
//! The sampler's two variables have no field and are read by
//! [`sampler_from_env`].
//!
//! `pub(crate)` surface: [`RallocConfig::with_env`], [`sampler_from_env`].
//! [`parse_size`] is public: galloc parses its size knob with it.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

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
    /// Env override: `RALLOC_INIT_CAP` (bytes, `K`/`M`/`G` suffixes ok).
    pub initial_capacity: Option<usize>,
    /// Ceiling on the superblock-region capacity: the *reserved* virtual
    /// span, fixed for the heap's life (geometry is computed from it
    /// once). `None` reserves exactly the `create` capacity argument.
    /// Env override: `RALLOC_MAX_CAP`.
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

    /// This config with every environment override applied — the values
    /// the heap actually runs under. Idempotent.
    pub(crate) fn with_env(&self) -> RallocConfig {
        let cap = |v: &str| parse_size(v).map(Some);
        RallocConfig {
            initial_capacity: env_or("RALLOC_INIT_CAP", 1, self.initial_capacity, cap),
            max_capacity: env_or("RALLOC_MAX_CAP", 2, self.max_capacity, cap),
            ..self.clone()
        }
    }
}

/// `name`'s parsed value when it is set and parses, else `field`. An
/// unparsable value is named on stderr the first time it is met (`bit`
/// is the variable's flag in the said-so set): a typo in a capacity knob
/// otherwise runs the wrong experiment without a trace.
fn env_or<T: Debug>(name: &str, bit: u8, field: T, parse: impl Fn(&str) -> Option<T>) -> T {
    static SAID: AtomicU8 = AtomicU8::new(0);
    let Ok(raw) = std::env::var(name) else { return field };
    parse(&raw).unwrap_or_else(|| {
        if SAID.fetch_or(bit, Ordering::Relaxed) & bit == 0 {
            eprintln!("ralloc: ignoring {name}={raw:?} (does not parse); using {field:?} from the config");
        }
        field
    })
}

/// A byte size: a plain integer, optionally suffixed with `K`/`M`/`G`
/// (case-insensitive, powers of 1024); `None` when it does not parse or
/// does not fit a `usize`. The one parser of every size knob, galloc's
/// too. Pure, so unit tests need not mutate the process environment
/// (concurrent `setenv` and `getenv` across test threads is UB on glibc).
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

/// `RALLOC_TELEMETRY=<path>` starts the background JSONL sampler on every
/// heap this process opens: the path and the interval
/// (`RALLOC_TELEMETRY_MS`, default 200, at least 1).
pub(crate) fn sampler_from_env() -> Option<(String, Duration)> {
    let path = std::env::var("RALLOC_TELEMETRY").ok().filter(|p| !p.is_empty())?;
    let ms = std::env::var("RALLOC_TELEMETRY_MS").ok().and_then(|v| parse_size(&v));
    Some((path, Duration::from_millis(ms.unwrap_or(200).max(1) as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_knob_parses_suffixes() {
        // The env plumbing itself is covered by tests/growable_env.rs,
        // which owns its process.
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
        assert_eq!(env_or("RALLOC_ENV_SIZE_TEST_UNSET", 0, 7usize, parse_size), 7);
    }
}
