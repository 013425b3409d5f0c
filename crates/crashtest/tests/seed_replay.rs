//! Deterministic replay: a failing sweep prints its `--seed`, and
//! re-running with that seed must reproduce the identical kill point.
//! With one workload thread and an event-count kill, the whole execution
//! is deterministic, so the recovered op-log must come out bit-identical
//! in length — that is what this asserts.

use std::process::Command;

fn run_line(seed: &str, pool: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crashtest"));
    cmd.args([
        "run",
        "--structure",
        "queue",
        "--threads",
        "1",
        "--events",
        "1100",
        "--pool",
        pool,
        "--seed",
        seed,
    ]);
    let out = cmd.output().expect("failed to spawn crashtest binary");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("RESULT"))
        .unwrap_or_else(|| panic!("no RESULT line in:\n{stdout}"))
        .to_string()
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
        .unwrap_or_else(|| panic!("missing {key} in: {line}"))
}

#[test]
fn same_seed_reproduces_identical_kill_point() {
    let tmp = std::env::temp_dir();
    let a = run_line("0x5EED", tmp.join("ct_replay_a.pool").to_str().unwrap());
    let b = run_line("0x5EED", tmp.join("ct_replay_b.pool").to_str().unwrap());
    // Both killed, and the child made bit-identical progress: the kill
    // landed at the same persistence event of the same op sequence.
    assert_eq!(field(&a, "killed"), "true", "{a}");
    assert_eq!(field(&a, "records"), field(&b, "records"), "\n{a}\n{b}");
    assert_eq!(field(&a, "acked"), field(&b, "acked"), "\n{a}\n{b}");
    assert_eq!(field(&a, "inflight"), field(&b, "inflight"), "\n{a}\n{b}");
    // The RESULT line echoes the seed for the next report.
    assert_eq!(field(&a, "seed"), "0x5eed", "{a}");

    // A different seed takes a different path (sanity that the assert
    // above is not vacuous).
    let d = run_line("0xD1FF", tmp.join("ct_replay_d.pool").to_str().unwrap());
    assert_ne!(field(&a, "records"), field(&d, "records"), "\n{a}\n{d}");
}
