//! `ledger` — the repo's benchmark: five seeded, windowed workloads, four
//! gated end-to-end metrics and outside-in per-layer attribution. See
//! README.md in the package directory for every definition and how to run it.
//!
//! The allocator is driven only through API meant to survive the planned
//! design diet, with no environment knobs and no `RallocConfig` field
//! beyond mode, flush model, transient and the two capacities, so a PR
//! that changes a default is measured and one that deletes a knob still
//! compiles.

mod ctx;
mod host;
mod json;
mod kv;
mod loops;
mod probes;
mod report;
mod restart;
mod run;
mod span;
mod stats;
mod team;

use std::path::PathBuf;
use std::process::ExitCode;

use ralloc::{FlushModel, Mode, Ralloc, RallocConfig};

use crate::json::Json;
use crate::report::{RunOut, WORKLOADS};
use crate::run::Plan;

/// Every heap starts with this much committed and may grow to the cap.
pub const INITIAL_CAPACITY: usize = 4 << 20;
pub const MAX_CAPACITY: usize = 512 << 20;
/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;

/// The persistent heap under test: direct mode, modeled Optane latency.
pub fn persistent_cfg() -> RallocConfig {
    RallocConfig {
        mode: Mode::Direct,
        flush_model: FlushModel::optane(),
        transient: false,
        initial_capacity: Some(INITIAL_CAPACITY),
        max_capacity: Some(MAX_CAPACITY),
        ..Default::default()
    }
}

/// The transient comparator (the paper's LRMalloc datapoint), same sizes.
pub fn transient_cfg() -> RallocConfig {
    RallocConfig {
        initial_capacity: Some(INITIAL_CAPACITY),
        max_capacity: Some(MAX_CAPACITY),
        ..RallocConfig::transient()
    }
}

pub fn new_heap(cfg: RallocConfig) -> Ralloc {
    Ralloc::create(INITIAL_CAPACITY, cfg)
}

/// Print `msg` and end the process: used where carrying on would hang
/// (a dead worker) or measure nothing.
pub fn fatal(msg: &str) -> ! {
    eprintln!("ledger: {msg}");
    std::process::exit(3);
}

const USAGE: &str = "\
usage: ledger [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
              [--quick] [--repeat N] [--threads T] [--out FILE] [--dir DIR]
       ledger compare BASE.json NEW.json

With no --workload every workload runs (one set). With exactly one, the last
line of standard output is the benchmark contract's result object.
Workloads: fastpath churn prodcon kv restart";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    threads: Option<usize>,
    out: Option<PathBuf>,
    dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        threads: None,
        out: None,
        dir: PathBuf::from("ledger-out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workloads.push(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--threads" => {
                a.threads = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--dir" => a.dir = PathBuf::from(value("a path")?),
            "--quick" => a.quick = true,
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(bad) = a
        .workloads
        .iter()
        .find(|w| !WORKLOADS.iter().any(|k| k.name == *w))
    {
        return Err(format!("unknown workload {bad}"));
    }
    if a.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(a)
}

fn compare(files: &[String]) -> ExitCode {
    let [base, new] = files else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    match load(base).and_then(|b| load(new).and_then(|n| report::compare(&b, &n))) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(worse) => {
            println!("{worse} metric(s) worse than their bound");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ledger compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Host guard: closed-loop load never uses more threads than cores.
    let nproc = host::nproc();
    let threads = args.threads.unwrap_or(nproc.min(2));
    if threads == 0 || threads > nproc {
        eprintln!("ledger: refusing {threads} worker threads on {nproc} available CPUs");
        return ExitCode::from(2);
    }
    let plan = Plan {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 1.5 } else { RUN_SECONDS }),
        trace: args.trace,
        quick: args.quick,
        threads,
        out_dir: args.dir.clone(),
    };
    let chosen: Vec<&report::Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workloads.is_empty() || args.workloads.iter().any(|n| n == w.name))
        .collect();
    let mut sets: Vec<Vec<RunOut>> = Vec::new();
    for rep in 0..args.repeat {
        let mut set = Vec::new();
        for w in &chosen {
            eprintln!(
                "ledger: {} (set {}/{}, seed {}): {}",
                w.name,
                rep + 1,
                args.repeat,
                plan.seed,
                w.why
            );
            let out = run::run_workload(w.name, &plan).unwrap_or_else(|| fatal("unknown workload"));
            out.print_table();
            set.push(out);
        }
        sets.push(set);
    }
    if args.repeat > 1 {
        report::print_spread(&sets);
    }
    let provenance = host::provenance(plan.seed, threads, plan.quick, plan.to_json());
    let file = report::result_file(provenance, &sets);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{file}\n")) {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let all_correct = sets.iter().flatten().all(RunOut::correct);
    if let ([set], [_]) = (sets.as_slice(), chosen.as_slice()) {
        // Contract mode: provenance and detail first, the result last.
        println!("{file}");
        println!("{}", set[0].contract_line());
        // An incorrect run still exits 0: the result line carries it.
        return ExitCode::SUCCESS;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = args(&[
            "--workload",
            "kv",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workloads.as_slice(), a.seed, a.seconds, a.trace),
            (&["kv".to_string()][..], 7, Some(15.0), false)
        );
        assert!(args(&["--workload", "kv", "--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace", "--quick"]).unwrap().quick);
        assert!(args(&["--trace"]).unwrap().trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seconds", "0"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn heap_configs_use_only_the_allowed_fields() {
        let p = persistent_cfg();
        assert!(!p.transient && p.initial_capacity == Some(INITIAL_CAPACITY));
        assert_eq!(p.flush_model, FlushModel::optane());
        let t = transient_cfg();
        assert!(t.transient && t.max_capacity == Some(MAX_CAPACITY));
    }
}
