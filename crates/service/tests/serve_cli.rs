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
fn help_lists_exactly_the_serving_flags() {
    let output = serve(&["--help"]);
    let usage = String::from_utf8_lossy(&output.stdout);
    let mut flags: Vec<&str> = usage
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|word| word.starts_with("--"))
        .collect();
    flags.sort_unstable();
    assert_eq!(
        flags,
        [
            "--cache-bytes",
            "--flip-workers",
            "--listen",
            "--max-connections",
            "--max-inflight",
            "--metrics-text",
            "--shed",
            "--workers",
        ]
    );
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--no-such-flag"][..],
        &["--workers"],
        &["--workers", "many"],
        &["--max-connections", "-1"],
        // The old `--socket PATH` alias is gone.
        &["--socket", "/nonexistent/expose.sock"],
        // The fixture modes moved to the bench crate's
        // `service-fixtures` binary; `--emit-stream` is gone.
        &["--batch"],
        &["--emit-corpus", "10"],
        &["--emit-stream", "10"],
        &["--emit-explore", "10"],
        &["--replay-stream", "10"],
        &["--soak", "127.0.0.1:7077"],
        &["--clients", "8"],
        &["--seconds", "30"],
        &["--iterations", "5"],
        &["--budget", "quick"],
    ] {
        let output = serve(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: expose-serve"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
