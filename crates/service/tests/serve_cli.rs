//! The `expose-serve` binary's command line: `--help` succeeds and bad
//! arguments fail with exit status 2 and the usage, without a panic.

use std::process::{Command, Output, Stdio};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_expose-serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run expose-serve")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = serve(&[flag]);
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: expose-serve"));
    }
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--no-such-flag"][..],
        &["--workers"],
        &["--workers", "many"],
        &["--seconds", "-1"],
        &["--emit-corpus", "ten"],
        &["--budget", "huge"],
        // The old `--socket PATH` alias is gone.
        &["--socket", "/nonexistent/expose.sock"],
    ] {
        let output = serve(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: expose-serve"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
