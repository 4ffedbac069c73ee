//! The `explore` binary's argument checks, run as a user runs them.
//!
//! Every case here is an invalid invocation that must end in the usage
//! error (exit 2) before any work starts; none may pass a valid
//! `coordinate --deadline`, which would launch worker processes.

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
