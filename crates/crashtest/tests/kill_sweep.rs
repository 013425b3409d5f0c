//! Kill-sweep smoke tests: each structure survives a batch of randomized
//! SIGKILLs with its visibility oracle green. The full acceptance sweep
//! (hundreds of kills per structure) is the `#[ignore]`d test at the
//! bottom — CI's `crashtest-smoke` job and developers run the quick ones.

use std::process::Command;

fn sweep(structure: &str, rounds: usize, seed: &str) {
    let dir = std::env::temp_dir().join(format!("ct_sweep_{structure}_{seed}"));
    let out = Command::new(env!("CARGO_BIN_EXE_crashtest"))
        .args([
            "sweep",
            "--structure",
            structure,
            "--rounds",
            &rounds.to_string(),
            "--seed",
            seed,
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("failed to spawn crashtest binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sweep failed for {structure}:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("SWEEP ok"), "missing summary:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_survives_kill_sweep() {
    sweep("queue", 25, "0xA001");
}

#[test]
fn stack_survives_kill_sweep() {
    sweep("stack", 25, "0xA002");
}

#[test]
fn kv_survives_kill_sweep() {
    sweep("kv", 25, "0xA003");
}

#[test]
fn nmtree_survives_kill_sweep() {
    sweep("nmtree", 25, "0xA004");
}

#[test]
fn rbtree_survives_kill_sweep() {
    sweep("rbtree", 25, "0xA005");
}

#[test]
fn churn_survives_kill_sweep() {
    sweep("churn", 25, "0xA006");
}

/// Acceptance sweep: enough rounds that every structure eats well over
/// 200 actual SIGKILLs. Run with `cargo test -p crashtest -- --ignored`.
#[test]
#[ignore = "long: hundreds of kills per structure"]
fn acceptance_sweep_200_kills_per_structure() {
    sweep("all", 300, "0xACCE");
}
