//! CLI driver for the fork/SIGKILL crash harness.
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
//! forks a victim, kills it, recovers, and runs the oracles. Any failure
//! prints the seed (`--seed <seed>` re-runs it exactly) plus
//! the victim's persistent flight timeline scanned from the pool, and
//! exits non-zero.
//!
//! `victim` turns *this* process into the workload child: it runs the
//! structure's workload against `--pool` and, with `--events N`,
//! SIGKILLs itself at the N-th persistence event — leaving a genuinely
//! dirty pool file behind for `rinspect` and the forensics tests. No
//! verification runs and the pool is never cleaned up.
//!
//! `hold` opens a pool with the advisory lock and sits on it — the
//! second process of the two-process `flock` regression test.
//!
//! This process stays single-threaded (fork safety); only victims spawn
//! threads.

use std::path::PathBuf;
use std::process::ExitCode;

use crashtest::{
    cleanup, fresh_seed, parse_u64, ready_path, run_once, KillSpec, RunConfig, Structure, XorShift,
};

/// Minimal `--flag value` parser over the remaining args.
struct Args(Vec<String>);

impl Args {
    fn opt(&mut self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            die(&format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    fn flag(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(&self) {
        if let Some(extra) = self.0.first() {
            die(&format!("unrecognized argument: {extra}"));
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("crashtest: {msg}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        die("missing subcommand (sweep | run | victim | hold)");
    }
    let cmd = argv.remove(0);
    let mut args = Args(argv);
    match cmd.as_str() {
        "sweep" => sweep(&mut args),
        "run" => run(&mut args),
        "victim" => victim(&mut args),
        "hold" => hold(&mut args),
        other => die(&format!("unknown subcommand {other}")),
    }
}

fn structures_arg(args: &mut Args) -> Vec<Structure> {
    match args.opt("--structure").as_deref() {
        None | Some("all") => Structure::ALL.to_vec(),
        Some(name) => match Structure::parse(name) {
            Some(s) => vec![s],
            None => die(&format!("unknown structure {name}")),
        },
    }
}

/// `--seed S`, else a fresh one.
fn seed_arg(args: &mut Args) -> u64 {
    args.opt("--seed")
        .map(|v| parse_u64(&v).unwrap_or_else(|| die("bad --seed")))
        .unwrap_or_else(fresh_seed)
}

/// The one run that `run` or `victim` (`cmd`) names. A victim kills
/// itself by event count only, so it takes no `--time-us`, and it has no
/// default pool.
fn run_config(args: &mut Args, cmd: &str) -> RunConfig {
    let victim = cmd == "victim";
    let structure = match structures_arg(args).as_slice() {
        [s] => *s,
        _ => die(&format!("{cmd} needs exactly one --structure")),
    };
    let pool = match args.opt("--pool") {
        Some(p) => PathBuf::from(p),
        None if victim => die("victim needs --pool"),
        None => std::env::temp_dir().join("crashtest_run.pool"),
    };
    let mut cfg = RunConfig::new(structure, pool, seed_arg(args));
    if let Some(t) = args.opt("--threads").and_then(|v| v.parse().ok()) {
        cfg.threads = t;
    }
    if let Some(n) = args.opt("--ops").and_then(|v| v.parse().ok()) {
        cfg.ops_per_thread = n;
    }
    let num = |flag: &str, v: String| parse_u64(&v).unwrap_or_else(|| die(&format!("bad {flag}")));
    cfg.kill = if let Some(n) = args.opt("--events") {
        KillSpec::Events(num("--events", n))
    } else if let Some(us) = if victim { None } else { args.opt("--time-us") } {
        KillSpec::TimeMicros(num("--time-us", us))
    } else if args.flag("--no-kill") {
        KillSpec::None
    } else if victim {
        die("victim needs --events N or --no-kill")
    } else {
        die("run needs --events N, --time-us N, or --no-kill")
    };
    args.finish();
    cfg
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
            if let Some(t) = threads {
                cfg.threads = t;
            }
            if let Some(n) = ops {
                cfg.ops_per_thread = n;
            }
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
                    println!(
                        "FAILURE structure={} round={round} --seed {seed:#x} kill={}",
                        s.name(),
                        cfg.kill
                    );
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

/// Become the workload victim: no fork, no verify, no cleanup. With
/// `--events N` the process SIGKILLs itself mid-workload, leaving the
/// pool dirty on disk — the raw material for post-mortem forensics.
fn victim(args: &mut Args) -> ! {
    let cfg = run_config(args, "victim");
    let _ = std::fs::remove_file(&cfg.pool);
    let _ = std::fs::remove_file(ready_path(&cfg.pool));
    crashtest::child_exec(&cfg)
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
