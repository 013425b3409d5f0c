//! Kill-based proof that remote frees are crash-safe: the `prodcon`
//! workload (producers malloc, consumers free across threads — 100 %
//! remote frees) keeps consumers flushing groups into superblocks the
//! producers are filling from, a SIGKILL lands mid-flush or with the
//! frees still cached, and recovery's reachability sweep must reclaim
//! every block — visibility oracles green, no leak.
//!
//! Spawns the `crashtest` binary because `run_once` forks, and forking
//! is only safe from a single-threaded process.

use std::process::Command;

fn sweep(rounds: usize, seed: &str) {
    let dir = std::env::temp_dir().join(format!("ct_prodcon_{seed}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crashtest"));
    cmd.args([
        "sweep",
        "--structure",
        "prodcon",
        "--rounds",
        &rounds.to_string(),
        "--seed",
        seed,
        "--dir",
        dir.to_str().unwrap(),
    ]);
    let out = cmd.output().expect("failed to spawn crashtest binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "prodcon sweep failed (seed {seed}):\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("SWEEP ok"), "missing summary:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prodcon_survives_kill_sweep() {
    sweep(25, "0xC003");
}
