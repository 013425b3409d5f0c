//! `librp.so` under `LD_PRELOAD`, driven end to end: the `churn` example
//! on a transient, a created and a reopened pool, and `rp_init` as the
//! first allocating call and after one.
//!
//! The library and the examples are the ones `cargo test` builds with
//! this test binary: `librp.so` beside it in `<target>/<profile>/deps/`
//! (the `rlib` crate type is what makes `cargo test` build the library),
//! the examples in `<target>/<profile>/examples/`.

use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use ralloc::{Ralloc, RallocConfig};

/// A command for example `name` with `librp.so` preloaded, no pool
/// variable inherited and its output dropped.
fn preloaded(name: &str) -> Command {
    let exe = std::env::current_exe().expect("the test binary's path");
    let deps = exe.parent().expect("<target>/<profile>/deps");
    let lib = deps.join("librp.so");
    let bin = deps.parent().expect("<target>/<profile>").join("examples").join(name);
    assert!(lib.exists() && bin.exists(), "{} and {} must be built", lib.display(), bin.display());
    let mut cmd = Command::new(bin);
    cmd.env("LD_PRELOAD", lib).env_remove("GALLOC_POOL").env_remove("GALLOC_CAP").stdout(Stdio::null());
    cmd
}

/// Run `cmd` to its exit, killing it and failing after `limit`.
fn run(mut cmd: Command, limit: Duration) -> ExitStatus {
    let mut child = cmd.spawn().expect("spawning the preloaded child");
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("waiting for the child") {
            return status;
        }
        if t0.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{cmd:?} did not exit in {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn pool_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("capi-{tag}-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn churn_runs_transient_then_creates_and_reopens_a_pool() {
    let pool = pool_path("churn");
    let limit = Duration::from_secs(30);
    assert!(run(preloaded("churn"), limit).success(), "transient run");
    for step in ["create", "reopen"] {
        let mut cmd = preloaded("churn");
        cmd.env("GALLOC_POOL", &pool);
        assert!(run(cmd, limit).success(), "{step} run");
        assert!(pool.exists(), "the {step} run left no pool file");
    }
    let (heap, dirty) = Ralloc::open_file(&pool, galloc::DEFAULT_CAP, RallocConfig::default()).unwrap();
    assert!(!dirty, "the pool was closed at exit");
    drop(heap);
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn rp_init_as_the_first_allocation_builds_the_pool_from_its_path() {
    let pool = pool_path("first");
    let mut cmd = preloaded("rp_init");
    cmd.arg("first").arg(&pool);
    assert_eq!(run(cmd, Duration::from_secs(5)).code(), Some(0), "rp_init must return 0");
    let (heap, dirty) = Ralloc::open_file(&pool, galloc::DEFAULT_CAP, RallocConfig::default()).unwrap();
    assert!(!dirty, "rp_close must leave the pool clean");
    drop(heap);
    let _ = std::fs::remove_file(&pool);
}

#[test]
fn rp_init_after_an_allocation_refuses_and_creates_nothing() {
    let pool = pool_path("after");
    let mut cmd = preloaded("rp_init");
    cmd.arg("after").arg(&pool);
    let status = run(cmd, Duration::from_secs(5)).code();
    let created = pool.exists();
    let _ = std::fs::remove_file(&pool);
    assert_eq!(status, Some(1), "rp_init must return -1");
    assert!(!created, "a refused rp_init created {}", pool.display());
}
