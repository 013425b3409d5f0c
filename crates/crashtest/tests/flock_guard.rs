//! Two-process regression test for the advisory pool lock: while one
//! process holds a heap open on a pool file, a second process opening the
//! same file gets a distinct "pool busy" error; once the holder exits
//! (or is killed — the kernel releases `flock` on process death), the
//! pool opens: dirty, since nobody closed it, and recoverable.

use std::io::{BufRead, BufReader, ErrorKind};
use std::process::{Command, Stdio};

use ralloc::{check_heap, Ralloc, RallocConfig};

#[test]
fn second_process_gets_pool_busy_until_holder_dies() {
    let pool = std::env::temp_dir().join("ct_flock_guard.pool");
    let _ = std::fs::remove_file(&pool);

    let mut holder = Command::new(env!("CARGO_BIN_EXE_crashtest"))
        .args(["hold", "--pool", pool.to_str().unwrap(), "--millis", "4000"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn holder process");

    // Wait until the holder reports the lock is acquired.
    let mut line = String::new();
    BufReader::new(holder.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .expect("holder produced no output");
    assert_eq!(line.trim(), "HOLDING");

    // Second process (us): the open must refuse with WouldBlock.
    let err = Ralloc::open_file(&pool, 32 << 20, RallocConfig::default())
        .expect_err("open_file must fail while another process holds the pool");
    assert_eq!(err.kind(), ErrorKind::WouldBlock, "unexpected error: {err}");
    assert!(err.to_string().contains("pool busy"), "got: {err}");

    // Kill the holder: flock releases with the process, no cooperation,
    // and what it left is its file as of its last store — a dirty heap.
    holder.kill().expect("kill holder");
    holder.wait().expect("reap holder");
    let (heap, dirty) = Ralloc::open_file(&pool, 32 << 20, RallocConfig::default())
        .expect("pool must open once the holder died");
    assert!(dirty, "a holder killed without close() must reopen dirty");
    heap.recover();
    assert!(check_heap(&heap).is_consistent(), "recovered heap must be consistent");
    drop(heap);
    let _ = std::fs::remove_file(&pool);
}
