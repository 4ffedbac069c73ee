//! The `explore` binary's argument checks, run as a user runs them.
//!
//! Every usage case here is an invalid invocation that must end in the
//! usage error (exit 2) before any work starts: none may be valid, since
//! a valid `worker` or `coordinate` invocation runs a campaign or
//! launches worker processes (and a huge `--threads` is valid). A
//! repeated flag keeps its last value, so a repeated flag may carry a
//! value that parses only before an unusable last one. The one exit-1
//! case, a worker dealt ids outside the grid, holds no id inside it, so
//! it has nothing to run either.

use std::process::Command;

#[test]
fn coordinate_rejects_unusable_deadlines_with_the_usage_error() {
    for deadline in ["inf", "1e300", "NaN", "0", "-1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(["coordinate", "--workers", "1", "--deadline", deadline])
            .output()
            .expect("the explore binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--deadline {deadline}: {stderr}"
        );
        assert!(
            stderr.contains("error: --deadline"),
            "--deadline {deadline}: no usage error in\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--deadline {deadline} panicked:\n{stderr}"
        );
    }
}

/// Runs `explore` with `args` and demands the usage error: exit 2, an
/// `error:` line naming `flag`, and no panic.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(args)
        .output()
        .expect("the explore binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|line| line.starts_with("error:") && line.contains(flag)),
        "{args:?}: no error line naming {flag} in\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
}

/// The values no integer flag accepts: missing, non-numeric, negative,
/// not a number, and one past `u64::MAX`.
const UNUSABLE: [Option<&str>; 5] = [
    None,
    Some("abc"),
    Some("-1"),
    Some("NaN"),
    Some("18446744073709551616"),
];

#[test]
fn value_flags_reject_unusable_values_with_the_usage_error() {
    // (subcommand, flag): each flag where it is parsed. None of these
    // invocations holds a value that parses, so none starts work.
    let cases = [
        ("run", "--threads"),
        ("sample", "--threads"),
        ("shard", "--threads"),
        ("coordinate", "--threads"),
        ("worker", "--threads"),
        ("verify", "--threads"),
        ("sample", "--budget"),
        ("sample", "--seed"),
        ("sample", "--policy"),
        ("shard", "--index"),
        ("shard", "--of"),
        ("coordinate", "--workers"),
        ("worker", "--stall-ms"),
        ("worker", "--ids"),
    ];
    for (subcommand, flag) in cases {
        for value in UNUSABLE {
            let mut args = vec![subcommand, flag];
            args.extend(value);
            assert_usage_error(&args, flag);
        }
    }
}

#[test]
fn path_flags_reject_a_missing_value_and_subcommands_without_them() {
    // Any string is a path, so a present value only fails where the
    // subcommand has no such flag; a missing one fails everywhere.
    for args in [
        &["run", "--out"][..],
        &["merge", "--out"],
        &["run", "--resume"],
        &["coordinate", "--work-dir"],
        &["run", "--trace"],
        &["sample", "--budget", "2", "--trace"],
        &["coordinate", "--trace"],
        &["worker", "--stream-out"],
    ] {
        assert_usage_error(args, args[args.len() - 1]);
    }
    for (subcommand, flag) in [
        ("events", "--out"),
        ("worker", "--resume"),
        ("worker", "--work-dir"),
    ] {
        for value in UNUSABLE.into_iter().flatten() {
            assert_usage_error(&[subcommand, flag, value], flag);
        }
    }
}

#[test]
fn worker_rejects_ids_outside_the_grid_before_writing_anything() {
    let dir = std::env::temp_dir().join(format!("noc_cli_worker_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (stream, report) = (dir.join("points.jsonl"), dir.join("report.json"));
    // The smoke grid has ids 0..12: 12 is the first id past its end.
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .arg("worker")
        .arg("--smoke")
        .args(["--ids", "12,99999"])
        .arg("--stream-out")
        .arg(&stream)
        .arg("--out")
        .arg(&report)
        .output()
        .expect("the explore binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (stream_written, report_written) = (stream.exists(), report.exists());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.lines().any(|line| line.starts_with("error:")
            && line.contains("12")
            && line.contains("12 scenarios")),
        "no error naming id 12 and the grid size in\n{stderr}"
    );
    assert!(
        !stderr.contains("99999"),
        "only the first bad id is named:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!report_written, "a rejected worker wrote a report");
    assert!(!stream_written, "a rejected worker created its stream");
}

#[test]
fn mode_and_repeated_flags_reject_unusable_values_with_the_usage_error() {
    // Only `shard` takes `--mode`; elsewhere it is an unknown argument,
    // even with a mode `shard` accepts.
    assert_usage_error(&["shard", "--mode"], "--mode");
    assert_usage_error(&["shard", "--mode", "bogus"], "--mode");
    for subcommand in ["coordinate", "merge"] {
        assert_usage_error(&[subcommand, "--mode", "modulo"], "--mode");
    }
    // The last of a repeated flag's values counts: a usable first value
    // does not rescue an unusable or missing last one.
    for args in [
        &["run", "--threads", "1", "--threads", "abc"][..],
        &["shard", "--index", "0", "--index"],
        &["sample", "--budget", "3", "--budget", "0"],
    ] {
        assert_usage_error(args, args[1]);
    }
}
