//! The `perf` binary's command line: `--help` succeeds and bad
//! arguments fail with exit status 2 and the usage, without a panic.

use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("run perf")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = perf(&[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: perf"));
    }
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--no-such-flag"][..],
        &["--check"],
        &["--programs", "many"],
        &["--flip-workers", "2"],
        &["--budget", "huge"],
    ] {
        let output = perf(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: perf"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
