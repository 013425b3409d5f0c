//! CLI driver for the SIGKILL crash harness.
//!
//! ```text
//! crashtest sweep --structure queue|stack|kv|nmtree|rbtree|churn|prodcon|all \
//!                 --rounds N [--seed S] [--dir PATH] [--threads T] [--ops N]
//! crashtest run    --structure S --pool PATH [--seed S] [--threads T] [--ops N] \
//!                  (--events N | --time-us N | --no-kill)
//! crashtest victim --structure S --pool PATH [--seed S] [--threads T] [--ops N] \
//!                  (--events N | --no-kill)
//! crashtest hold   --pool PATH --millis N
//! ```
//!
//! `sweep` is the workhorse: for each round it derives a kill point from
//! the seed (even rounds by persistence-event count, odd by wall-clock),
//! spawns a victim, kills it, recovers, and runs the oracles. Any failure
//! prints the seed (`--seed <seed>` re-runs it exactly) plus
//! the victim's persistent flight timeline scanned from the pool, and
//! exits non-zero.
//!
//! `victim` turns *this* process into the workload child
//! ([`crashtest::enter_victim`], where every round's victim starts too):
//! it runs the structure's workload against `--pool` and, with
//! `--events N`, SIGKILLs itself at the N-th persistence event — leaving
//! a genuinely dirty pool file behind for `rinspect` and the forensics
//! tests. No verification runs and the pool is never cleaned up.
//!
//! `hold` opens a pool with the advisory lock and sits on it — the
//! second process of the two-process pool-lock regression test.

use std::path::PathBuf;
use std::process::ExitCode;

use crashtest::cli::{die, run_config, seed_arg, structures_arg, Args};
use crashtest::{cleanup, run_once, KillSpec, RunConfig, XorShift};

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    crashtest::enter_victim(&argv);
    if argv.is_empty() {
        die("missing subcommand (sweep | run | victim | hold)");
    }
    let cmd = argv.remove(0);
    let mut args = Args(argv);
    match cmd.as_str() {
        "sweep" => sweep(&mut args),
        "run" => run(&mut args),
        "hold" => hold(&mut args),
        other => die(&format!("unknown subcommand {other}")),
    }
}

fn sweep(args: &mut Args) -> ExitCode {
    let structures = structures_arg(args);
    let rounds: usize = args
        .opt("--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let seed = seed_arg(args);
    let dir = args
        .opt("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let threads = args.opt("--threads").and_then(|v| v.parse().ok());
    let ops = args.opt("--ops").and_then(|v| v.parse().ok());
    args.finish();
    let _ = std::fs::create_dir_all(&dir);

    let mut rng = XorShift::new(seed);
    let mut total_kills = 0usize;
    for s in structures {
        for round in 0..rounds {
            let pool = dir.join(format!("crash_{}_{round}.pool", s.name()));
            let mut cfg = RunConfig::new(s, pool, rng.next_u64() | 1);
            cfg.threads = threads.unwrap_or(cfg.threads);
            cfg.ops_per_thread = ops.unwrap_or(cfg.ops_per_thread);
            // Alternate deterministic event-count kills with asynchronous
            // wall-clock kills so both flavors get coverage every sweep.
            cfg.kill = if round % 2 == 0 {
                KillSpec::Events(rng.range(1, 30_000))
            } else {
                KillSpec::TimeMicros(rng.range(300, 40_000))
            };
            match run_once(&cfg) {
                Ok(r) => {
                    if r.killed {
                        total_kills += 1;
                    }
                    println!("round structure={} i={round} kill={} {r} ok", s.name(), cfg.kill);
                    cleanup(&cfg);
                }
                Err(e) => {
                    println!("FAILURE structure={} round={round} --seed {seed:#x} kill={}", s.name(), cfg.kill);
                    println!("{e}");
                    println!("pool file kept for inspection: {}", cfg.pool.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!("SWEEP ok seed={seed:#x} kills={total_kills}");
    ExitCode::SUCCESS
}

fn run(args: &mut Args) -> ExitCode {
    let cfg = run_config(args, "run");
    let (structure, seed) = (cfg.structure, cfg.seed);
    match run_once(&cfg) {
        Ok(r) => {
            println!("RESULT structure={} seed={seed:#x} kill={} {r}", structure.name(), cfg.kill);
            cleanup(&cfg);
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("FAILURE structure={} --seed {seed:#x}", structure.name());
            println!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn hold(args: &mut Args) -> ExitCode {
    let pool = args
        .opt("--pool")
        .map(PathBuf::from)
        .unwrap_or_else(|| die("hold needs --pool"));
    let millis: u64 = args
        .opt("--millis")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    args.finish();
    let heap = match ralloc::Ralloc::open_file(&pool, 32 << 20, ralloc::RallocConfig::default())
    {
        Ok((h, _dirty)) => h,
        Err(e) => {
            eprintln!("hold: open failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tell the orchestrating test the lock is held (line-buffered pipe).
    println!("HOLDING");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    std::thread::sleep(std::time::Duration::from_millis(millis));
    drop(heap);
    ExitCode::SUCCESS
}
