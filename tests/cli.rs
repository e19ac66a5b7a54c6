//! The `tlb-sim` command line: malformed values, unknown options and
//! invalid fabrics are rejected with exit code 2 and a one-line message
//! before any simulation runs; a valid command line runs to completion,
//! and its `--json` summary names the engine that ran, any fallback, and
//! the FEL geometry the run used.

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

#[test]
fn json_reports_which_engine_ran_and_why() {
    let run = |fidelity: &str| -> tlb::simnet::Summary {
        let out = Command::new(env!("CARGO_BIN_EXE_tlb-sim"))
            .args(
                "--workload mix --shorts 4 --longs 1 --engine sharded --workers 2 --json"
                    .split(' '),
            )
            .env("TLB_FIDELITY", fidelity)
            .output()
            .expect("failed to launch tlb-sim");
        assert_eq!(out.status.code(), Some(0));
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("--json parses")
    };
    let sharded = run("packet");
    assert_eq!(sharded.engine_workers, Some(2));
    assert!(sharded.sharded_windows > 0);
    assert!(sharded.sharded_tail_events < sharded.events);
    assert_eq!(sharded.engine_fallback, None);
    assert_eq!(sharded.fel_bucket_ns, 512);
    assert!((64..=4096).contains(&sharded.fel_buckets));
    assert!(sharded.fel_buckets.is_power_of_two());
    assert!(
        sharded.fel_overflow_pushes > 0,
        "flow starts ride the overflow tier"
    );
    let hybrid = run("hybrid");
    assert_eq!(hybrid.engine_workers, None);
    assert_eq!(hybrid.engine_fallback.as_deref(), Some("hybrid"));
    assert_eq!((hybrid.sharded_windows, hybrid.sharded_tail_events), (0, 0));
    assert_eq!(
        (hybrid.fel_buckets, hybrid.fel_bucket_ns),
        (sharded.fel_buckets, sharded.fel_bucket_ns),
        "same fabric, same wheel"
    );
}
