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
//! * **SIGKILL** ([`run_once`]): a **victim process** (this executable
//!   again, run as `victim` with [`RunConfig::victim_args`]) runs a
//!   multi-threaded workload over a file heap
//!   ([`ralloc::Ralloc::open_file`], the path `GALLOC_POOL` and
//!   `librp.so` run on) and the parent kills it after a wall-clock delay
//!   ([`KillSpec::TimeMicros`]) or it kills itself at an exact persistence
//!   event ([`KillSpec::Events`], replayable). The pool is its file, so
//!   every executed store survives: real fail-stop at any instruction, but
//!   no persist order is checked.
//! * **Power failure** ([`tracked_sweep`]): in-process on a `Mode::Tracked`
//!   heap, crashed at every persistence event in turn by the [`driver`]
//!   every power-failure sweep in the workspace runs on; only
//!   flushed-and-fenced lines survive (plus what a
//!   `CrashStyle::RandomEviction` lets through), so a missing persist shows.
//!
//! Everything random derives from one seed (the binary's `--seed`); a
//! failing round prints it, and re-running with it reproduces the same
//! kill point. A program that calls [`run_once`] hands its arguments to
//! [`enter_victim`] first: that is where its victims start.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod cli;
pub mod driver;
pub mod oplog;
pub mod oracle;
pub mod rng;
pub mod workload;

use std::fmt;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use nvm::{sys, CrashStyle, Mode, PmemPool};
use ralloc::{Ralloc, RallocConfig};

pub use driver::{crash_at, join, sweep, Victim, STYLES};
pub use rng::XorShift;
pub use workload::{Structure, OPLOG_ROOT, STRUCT_ROOT};

/// Reserved virtual span for victim pools. Mostly uncommitted; the
/// committed frontier starts at [`INIT_COMMIT`] and grows under load.
pub const POOL_CAP: usize = 256 << 20;
/// Initial committed capacity: small, so workloads cross the grow path.
pub const INIT_COMMIT: usize = 8 << 20;

/// When the victim dies.
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// The arguments of the `victim` that runs this round, as
    /// [`cli::run_config`] reads them back. A timed kill maps to
    /// `--no-kill`: the parent times it.
    pub fn victim_args(&self) -> Vec<String> {
        let kill = match self.kill {
            KillSpec::Events(n) => format!("--events {n}"),
            KillSpec::TimeMicros(_) | KillSpec::None => "--no-kill".to_string(),
        };
        let (name, seed, threads, ops) = (self.structure.name(), self.seed, self.threads, self.ops_per_thread);
        // No word but the pool's path can hold a space.
        let words = format!("victim --structure {name} --seed {seed:#x} --threads {threads} --ops {ops} {kill}");
        let mut args: Vec<String> = words.split(' ').map(String::from).collect();
        args.extend(["--pool".to_string(), self.pool.to_string_lossy().into_owned()]);
        args
    }
}

/// What one round did and found.
#[derive(Debug, Clone, Default)]
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

fn victim_config() -> RallocConfig {
    RallocConfig { initial_capacity: Some(INIT_COMMIT), ..Default::default() }
}

/// If `args` (a process's arguments, its name left out) are a `victim`
/// command line, become that victim and exit; otherwise return. Every
/// victim [`run_once`] spawns starts here.
pub fn enter_victim(args: &[String]) {
    if args.first().is_some_and(|cmd| cmd == "victim") {
        victim(&cli::run_config(&mut cli::Args(args[1..].to_vec()), "victim"))
    }
}

/// The victim: open the pool live-mapped, build the structure and op-log,
/// then run the workload until the kill lands (or it finishes), and exit
/// without closing the heap.
fn victim(cfg: &RunConfig) -> ! {
    cleanup(cfg);
    let (heap, _dirty) = match Ralloc::open_file(&cfg.pool, POOL_CAP, victim_config()) {
        Ok(v) => v,
        Err(e) => cli::die(&format!("victim: open_file failed: {e}")),
    };
    cfg.structure.victim(&heap, cfg.threads, cfg.seed, cfg.ops_per_thread, || {
        // Ops can only ack past this marker; the parent treats a missing
        // marker as "died during setup" (vacuous pass — init is not a
        // recoverable phase, a real deployment re-creates on failed init).
        if let Err(e) = std::fs::write(ready_path(&cfg.pool), b"ready") {
            cli::die(&format!("victim: marker write failed: {e}"))
        }
        if let KillSpec::Events(n) = cfg.kill {
            heap.pool().injector().arm_kill(n);
        }
    });
    heap.pool().injector().disarm();
    std::process::exit(0)
}

/// Spawn a victim (this executable, run with `cfg`'s
/// [`RunConfig::victim_args`]), kill it per `cfg.kill`, then recover and
/// run the oracles. The executable must hand its arguments to
/// [`enter_victim`] first.
pub fn run_once(cfg: &RunConfig) -> Result<RunReport, String> {
    cleanup(cfg);
    let exe = std::env::current_exe().map_err(|e| format!("no executable to spawn: {e}"))?;
    let mut child = Command::new(exe).args(cfg.victim_args()).spawn().map_err(|e| format!("spawn failed: {e}"))?;
    if let KillSpec::TimeMicros(us) = cfg.kill {
        std::thread::sleep(Duration::from_micros(us));
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
    let killed = status.signal() == Some(sys::SIGKILL);
    if !killed && (status.code() != Some(0) || !ready_path(&cfg.pool).exists()) {
        return Err(format!(
            "victim neither SIGKILLed nor through its workload: {status} (does the executable \
             hand its arguments to crashtest::enter_victim?)"
        ));
    }
    verify(cfg, killed)
}

/// Reopen the pool, recover, and [`judge`] it. Separated from
/// [`run_once`] so a recorded pool file can be re-checked on its own.
pub fn verify(cfg: &RunConfig, killed: bool) -> Result<RunReport, String> {
    if !ready_path(&cfg.pool).exists() {
        return Ok(RunReport { killed, died_in_setup: true, ..RunReport::default() });
    }
    let (heap, dirty) = Ralloc::open_file(&cfg.pool, POOL_CAP, victim_config())
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
        || Ralloc::create(POOL_CAP, RallocConfig { mode: Mode::Tracked, ..victim_config() }),
        |heap, arm| structure.victim(heap, 1, seed, ops, arm),
        |_, (heap, _), budget, style| {
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
    fn adopt(image: &[u8]) -> (Ralloc, bool) {
        Ralloc::from_image(image, RallocConfig::default())
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

/// A fresh seed, derived from the process id and time, for a run given
/// no `--seed`.
pub fn fresh_seed() -> u64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    now ^ ((std::process::id() as u64) << 32) | 1
}
