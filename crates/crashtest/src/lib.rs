//! # crashtest — one crash contract per structure, two crash models
//!
//! Every structure under test has one [`workload::Contract`], a row of one
//! table: how to create it, how a worker thread runs one logged op (a
//! STARTED record persisted before the op, an ACKED one after, in an
//! op-log in the same heap, see [`oplog`]), which filter recovery needs
//! for its root, and the oracle that judges a recovered heap against the
//! op-log ([`oracle`]): acked ops exactly-once visible, in-flight ops
//! at-most-once. Two harnesses run the same sequence ([`Structure::victim`]),
//! crash it, recover and [`judge`] it, under the two crash models:
//!
//! * **SIGKILL** ([`run_once`]): a **forked child** runs a multi-threaded
//!   workload over a file heap ([`ralloc::Ralloc::open_file`], the path
//!   `GALLOC_POOL` and `librp.so` run on) and the parent kills it after a
//!   wall-clock delay ([`KillSpec::TimeMicros`]) or it kills itself at an
//!   exact persistence event ([`KillSpec::Events`], replayable). The pool
//!   is its file, so every executed store survives: real fail-stop at any
//!   instruction, but no persist order is checked.
//! * **Power failure** ([`tracked_sweep`]): in-process on a `Mode::Tracked`
//!   heap, crashed at every persistence event in turn by the [`driver`]
//!   every power-failure sweep in the workspace runs on; only
//!   flushed-and-fenced lines survive (plus what a
//!   `CrashStyle::RandomEviction` lets through), so a missing persist shows.
//!
//! Everything random derives from one seed (`RALLOC_CRASH_SEED`); a
//! failing round prints it, and re-running with it reproduces the same
//! kill point. Fork safety: [`run_once`] must be called from a
//! **single-threaded** process (the `crashtest` binary).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod driver;
pub mod oplog;
pub mod oracle;
pub mod rng;
pub mod workload;

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use nvm::{sys, CrashInjector, CrashStyle, Mode, PmemPool};
use ralloc::{Ralloc, RallocConfig};

pub use driver::{crash_at, join, sweep, Victim, STYLES};
pub use rng::XorShift;
pub use workload::{Structure, OPLOG_ROOT, STRUCT_ROOT};

/// Reserved virtual span for victim pools. Mostly uncommitted; the
/// committed frontier starts at [`INIT_COMMIT`] and grows under load.
pub const POOL_CAP: usize = 256 << 20;
/// Initial committed capacity: small, so workloads cross the grow path.
pub const INIT_COMMIT: usize = 8 << 20;

/// Environment variable carrying the sweep seed.
pub const SEED_ENV: &str = "RALLOC_CRASH_SEED";

/// When the parent kills the child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSpec {
    /// Child SIGKILLs itself at persistence event `n + 1` after the
    /// workload starts (`0`: the first; deterministic, replayable).
    Events(u64),
    /// Parent SIGKILLs the child after a wall-clock delay (asynchronous:
    /// lands at an arbitrary instruction).
    TimeMicros(u64),
    /// Never kill: the child runs to completion (clean-run control).
    None,
}

impl fmt::Display for KillSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KillSpec::Events(n) => write!(f, "events:{n}"),
            KillSpec::TimeMicros(us) => write!(f, "time-us:{us}"),
            KillSpec::None => write!(f, "none"),
        }
    }
}

/// One crash round's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub structure: Structure,
    pub pool: PathBuf,
    pub seed: u64,
    pub threads: usize,
    pub ops_per_thread: usize,
    pub kill: KillSpec,
}

impl RunConfig {
    /// Defaults for a sweep round (pool path and kill filled in by the
    /// sweep loop).
    pub fn new(structure: Structure, pool: PathBuf, seed: u64) -> RunConfig {
        RunConfig {
            structure,
            pool,
            seed,
            threads: 4,
            ops_per_thread: 1500,
            kill: KillSpec::None,
        }
    }
}

/// What one round did and found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The child died by SIGKILL (false: ran to completion).
    pub killed: bool,
    /// The kill landed before setup finished; nothing could have acked,
    /// so the oracles pass vacuously.
    pub died_in_setup: bool,
    /// Op-log records begun / acked / in-flight across all threads.
    pub records: usize,
    pub acked: usize,
    pub inflight: usize,
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RunReport { killed, died_in_setup, records, acked, inflight } = self;
        write!(f, "killed={killed} setup_died={died_in_setup} records={records} acked={acked} inflight={inflight}")
    }
}

/// The marker a victim writes next to `pool` once its setup is done.
pub fn ready_path(pool: &Path) -> PathBuf {
    let mut p = pool.as_os_str().to_owned();
    p.push(".ready");
    PathBuf::from(p)
}

fn victim_config(injector: Option<std::sync::Arc<CrashInjector>>) -> RallocConfig {
    RallocConfig { injector, initial_capacity: Some(INIT_COMMIT), ..Default::default() }
}

/// Child-side body: open the pool live-mapped, build the structure and
/// op-log, then run the workload until the kill lands (or it finishes).
/// Never returns; exits via `exit_group` so no buffers flush twice.
pub fn child_exec(cfg: &RunConfig) -> ! {
    let inj = CrashInjector::new();
    let (heap, _dirty) =
        match Ralloc::open_file(&cfg.pool, POOL_CAP, victim_config(Some(inj.clone()))) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("crashtest child: open_file failed: {e}");
                sys::exit_group(2)
            }
        };
    cfg.structure.victim(&heap, cfg.threads, cfg.seed, cfg.ops_per_thread, || {
        // Ops can only ack past this marker; the parent treats a missing
        // marker as "died during setup" (vacuous pass — init is not a
        // recoverable phase, a real deployment re-creates on failed init).
        if let Err(e) = std::fs::write(ready_path(&cfg.pool), b"ready") {
            eprintln!("crashtest child: marker write failed: {e}");
            sys::exit_group(2)
        }
        if let KillSpec::Events(n) = cfg.kill {
            inj.arm_kill(n);
        }
    });
    inj.disarm();
    sys::exit_group(0)
}

/// Fork a victim, kill it per `cfg.kill`, then recover and run the
/// oracles. Must be called from a single-threaded process.
pub fn run_once(cfg: &RunConfig) -> Result<RunReport, String> {
    let _ = std::fs::remove_file(&cfg.pool);
    let _ = std::fs::remove_file(ready_path(&cfg.pool));
    // SAFETY: the crashtest binary is single-threaded at this point (its
    // documented contract); the child only proceeds into `child_exec`.
    let pid = unsafe { sys::fork() }.map_err(|e| format!("fork failed: {e}"))?;
    if pid == 0 {
        child_exec(cfg); // never returns
    }
    if let KillSpec::TimeMicros(us) = cfg.kill {
        std::thread::sleep(Duration::from_micros(us));
        let _ = sys::kill(pid, sys::SIGKILL);
    }
    let (_, status) = sys::wait4(pid, 0).map_err(|e| format!("wait failed: {e}"))?;
    let killed = sys::term_signal(status) == Some(sys::SIGKILL);
    if !killed {
        match sys::exit_code(status) {
            Some(0) => {}
            other => {
                return Err(format!(
                    "child neither SIGKILLed nor exited cleanly: status {status:#x} \
                     (exit code {other:?})"
                ))
            }
        }
    }
    verify(cfg, killed)
}

/// Reopen the pool, recover, and [`judge`] it. Separated from
/// [`run_once`] so a recorded pool file can be re-checked on its own.
pub fn verify(cfg: &RunConfig, killed: bool) -> Result<RunReport, String> {
    if !ready_path(&cfg.pool).exists() {
        return Ok(RunReport {
            killed,
            died_in_setup: true,
            records: 0,
            acked: 0,
            inflight: 0,
        });
    }
    let (heap, dirty) = Ralloc::open_file(&cfg.pool, POOL_CAP, victim_config(None))
        .map_err(|e| format!("reopen failed: {e}"))?;
    workload::register_filters(&heap, cfg.structure);
    if dirty {
        heap.recover();
    }
    // Failure reports attach the *victim's* last protocol steps — the
    // persistent flight timeline scanned from the pool at reopen, before
    // this process recorded anything. (A scan now would mix in this
    // process's own open and recovery records.)
    let (records, acked, inflight) = judge(&heap, cfg.structure).map_err(|msg| {
        format!(
            "{msg}\nstructure={} seed={:#x} kill={}\n--- victim flight timeline \
             (pre-crash, from the pool) ---\n{}",
            cfg.structure.name(),
            cfg.seed,
            cfg.kill,
            heap.preopen_flight().to_json()
        )
    })?;
    Ok(RunReport { killed, died_in_setup: false, records, acked, inflight })
}

/// Everything after recovery: the heap checker, the op-log, and the
/// structure's oracle over both. Returns the op-log records begun, acked
/// and in flight across all threads.
pub fn judge(heap: &Ralloc, structure: Structure) -> Result<(usize, usize, usize), String> {
    let chk = ralloc::checker::check_heap(heap);
    if !chk.is_consistent() {
        return Err(format!("heap checker found {} violation(s): {:?}", chk.violations.len(), chk.violations));
    }
    let dir = oplog::attach(heap, OPLOG_ROOT).ok_or("op-log root missing despite setup marker")?;
    let logs = oplog::read_logs(heap, dir)?;
    (structure.contract().judge)(heap, &logs)?;
    let records: usize = logs.iter().map(Vec::len).sum();
    let acked = logs.iter().flatten().filter(|o| o.acked).count();
    Ok((records, acked, records - acked))
}

/// [`sweep`] of [`Structure::victim`] with one thread of `ops` ops on a
/// `Mode::Tracked` heap: each crash is recovered and [`judge`]d under each
/// of `styles`, and a failure panics. Returns the event count, where a
/// one-thread [`KillSpec::Events`] sweep with the same seed ends too.
pub fn tracked_sweep(structure: Structure, styles: &[CrashStyle], seed: u64, ops: usize) -> u64 {
    sweep(
        styles,
        |inj| Ralloc::create(POOL_CAP, RallocConfig { mode: Mode::Tracked, ..victim_config(Some(inj)) }),
        |heap, arm| structure.victim(heap, 1, seed, ops, arm),
        |_, heap, budget, style| {
            workload::register_filters(&heap, structure);
            heap.recover();
            if let Err(e) = judge(&heap, structure) {
                panic!("{} seed={seed:#x}, {style:?} crash at event {}: {e}", structure.name(), budget + 1)
            }
        },
    )
    .0
}

impl Victim for Ralloc {
    fn pool(&self) -> &PmemPool {
        Ralloc::pool(self)
    }
    fn adopt(image: &[u8]) -> Ralloc {
        Ralloc::from_image(image, RallocConfig::default()).0
    }
}

/// Remove a round's pool and marker files (sweep hygiene).
pub fn cleanup(cfg: &RunConfig) {
    let _ = std::fs::remove_file(&cfg.pool);
    let _ = std::fs::remove_file(ready_path(&cfg.pool));
}

/// A number in decimal or `0x`-hex: a seed or a count.
pub fn parse_u64(s: &str) -> Option<u64> {
    let t = s.trim();
    match t.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => t.parse().ok(),
    }
}

/// Read the sweep seed: `RALLOC_CRASH_SEED` if set (decimal or
/// `0x`-hex), else derived from the process id and time.
pub fn seed_from_env() -> u64 {
    if let Ok(s) = std::env::var(SEED_ENV) {
        if let Some(v) = parse_u64(&s) {
            return v;
        }
        eprintln!("crashtest: ignoring unparsable {SEED_ENV}={s}");
    }
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    now ^ ((sys::getpid() as u64) << 32) | 1
}
