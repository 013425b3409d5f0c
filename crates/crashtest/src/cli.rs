//! The `crashtest` command line; [`run_config`] reads a victim's from
//! [`RunConfig::victim_args`] too (the round-trip test below checks it).

use std::path::PathBuf;

use crate::{fresh_seed, parse_u64, KillSpec, RunConfig, Structure};

/// Minimal `--flag value` parser over the remaining args.
pub struct Args(pub Vec<String>);

impl Args {
    pub fn opt(&mut self, flag: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == flag)?;
        if i + 1 >= self.0.len() {
            die(&format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    pub fn flag(&mut self, flag: &str) -> bool {
        let i = self.0.iter().position(|a| a == flag);
        i.map(|i| self.0.remove(i)).is_some()
    }

    pub fn finish(&self) {
        if let Some(extra) = self.0.first() {
            die(&format!("unrecognized argument: {extra}"));
        }
    }
}

pub fn die(msg: &str) -> ! {
    eprintln!("crashtest: {msg}");
    std::process::exit(2)
}

/// `--structure S`, or every structure for `all` or none.
pub fn structures_arg(args: &mut Args) -> Vec<Structure> {
    match args.opt("--structure").as_deref() {
        None | Some("all") => Structure::ALL.to_vec(),
        Some(name) => match Structure::parse(name) {
            Some(s) => vec![s],
            None => die(&format!("unknown structure {name}")),
        },
    }
}

/// `--seed S`, else a fresh one.
pub fn seed_arg(args: &mut Args) -> u64 {
    args.opt("--seed")
        .map(|v| parse_u64(&v).unwrap_or_else(|| die("bad --seed")))
        .unwrap_or_else(fresh_seed)
}

/// The one run that `run` or `victim` (`cmd`) names. A victim kills
/// itself by event count only, so it takes no `--time-us`, and it has no
/// default pool.
pub fn run_config(args: &mut Args, cmd: &str) -> RunConfig {
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
    cfg.threads = args.opt("--threads").and_then(|v| v.parse().ok()).unwrap_or(cfg.threads);
    cfg.ops_per_thread = args.opt("--ops").and_then(|v| v.parse().ok()).unwrap_or(cfg.ops_per_thread);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cfg: &RunConfig) -> RunConfig {
        let argv = cfg.victim_args();
        assert_eq!(argv[0], "victim");
        run_config(&mut Args(argv[1..].to_vec()), "victim")
    }

    /// Every field set away from its default, so one the arguments drop
    /// reads back as the default and fails the comparison. A field added
    /// to `RunConfig` must be added here too (the literal names them all).
    #[test]
    fn a_run_config_reads_back_from_its_victim_arguments() {
        let cfg = RunConfig {
            structure: Structure::NmTree,
            pool: PathBuf::from("/some dir/victim.pool"),
            seed: 0xC0FF_EE00_0000_0001,
            threads: 3,
            ops_per_thread: 77,
            kill: KillSpec::Events(41),
        };
        for kill in [KillSpec::Events(0), KillSpec::Events(41), KillSpec::None] {
            let cfg = RunConfig { kill, ..cfg.clone() };
            assert_eq!(round_trip(&cfg), cfg);
        }
        // The parent times the kill: the child runs unkilled.
        let timed = RunConfig { kill: KillSpec::TimeMicros(500), ..cfg.clone() };
        assert_eq!(round_trip(&timed), RunConfig { kill: KillSpec::None, ..cfg });
    }
}
