//! The `fuzz` binary's command line: `--help` succeeds and bad
//! arguments fail with exit status 2 and the usage, without a panic.

use std::process::{Command, Output};

fn fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(args)
        .output()
        .expect("run fuzz")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = fuzz(&[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: fuzz"));
    }
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--no-such-flag"][..],
        &["--seed-range", "5"],
        &["--seed-range", "5..5"],
        &["--seed-range", "a..9"],
        &["--seed-range"],
        &["--budget", "huge"],
        &["--max-failures", "some"],
    ] {
        let output = fuzz(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: fuzz"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
