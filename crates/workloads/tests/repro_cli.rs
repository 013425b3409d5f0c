//! The `repro` command line: a bad figure name, option or flush model
//! fails before any output, and a good figure prints the CSV header plus
//! one row per figure point.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn a_bad_argument_exits_2_with_empty_stdout() {
    let bad: [&[&str]; 4] = [
        &["fig9z"],
        &["fig5a", "fig9z", "--quick"],
        &["--bogus"],
        &["fig5a", "--flush", "slow_nvm"],
    ];
    for args in bad {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(
            out.stdout.is_empty(),
            "repro {args:?} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "repro {args:?}"
        );
    }
}

#[test]
fn fig6a_quick_prints_the_header_and_five_points() {
    let out = repro(&["fig6a", "--quick"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 CSV");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("figure,workload,allocator,threads,metric,value")
    );
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 5, "{stdout}");
    for r in rows {
        let cols: Vec<&str> = r.split(',').collect();
        assert_eq!(cols.len(), 6, "{r}");
        assert_eq!(cols[..4], ["6a", "gc_stack", "ralloc", "1"], "{r}");
        assert!(
            cols[4].starts_with("blocks:") && cols[4].ends_with(":seconds"),
            "{r}"
        );
        assert!(cols[5].parse::<f64>().is_ok_and(|s| s >= 0.0), "{r}");
    }
}
