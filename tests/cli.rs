//! The `tlb-sim` command line: malformed values, unknown options and
//! invalid fabrics are rejected with exit code 2 and a one-line message
//! before any simulation runs; a valid command line runs to completion.

use std::process::{Command, Output};

fn tlb_sim(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tlb-sim"))
        .args(args.split_whitespace())
        .output()
        .expect("failed to launch tlb-sim")
}

/// The run must fail with exit code 2 and a single-line message that
/// names `needle`, and must not have panicked.
fn assert_rejected(args: &str, needle: &str) {
    let out = tlb_sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{args:?}: printed a result");
}

#[test]
fn bad_command_lines_are_rejected_without_panicking() {
    assert_rejected("--load abc", "--load 'abc'");
    assert_rejected("--bogus 1", "unknown option '--bogus'");
    assert_rejected("--fat-tree 3", "--fat-tree '3'");
}

#[test]
fn valid_command_line_runs_to_completion() {
    let out = tlb_sim("--scheme ecmp --workload mix --shorts 4 --longs 1");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "stderr {stderr:?}");
    assert!(stdout.contains("done 5/5"), "stdout {stdout:?}");
}
