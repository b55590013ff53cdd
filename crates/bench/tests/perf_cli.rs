//! The command lines of the bench binaries that CI drives (`perf`,
//! `redos` and `service-fixtures`): `--help` succeeds and bad
//! arguments fail with exit status 2 and the usage, without a panic.

use std::process::{Command, Output, Stdio};

/// Each binary with the bad command lines it must reject.
const BINARIES: &[(&str, &str, &[&[&str]])] = &[
    (
        "perf",
        env!("CARGO_BIN_EXE_perf"),
        &[
            &["--no-such-flag"],
            &["--check"],
            &["--programs", "many"],
            &["--flip-workers", "2"],
            &["--budget", "huge"],
        ],
    ),
    (
        "redos",
        env!("CARGO_BIN_EXE_redos"),
        &[&["--nope"], &["--bt-budget"], &["--bt-budget", "lots"]],
    ),
    (
        "service-fixtures",
        env!("CARGO_BIN_EXE_service-fixtures"),
        &[
            &[],
            &["--no-such-flag"],
            &["--emit-corpus"],
            &["--emit-corpus", "ten"],
            &["--emit-corpus", "1", "--budget", "huge"],
            &["--batch", "--emit-corpus", "1"],
            &["--soak", "127.0.0.1:1", "--seconds", "-1"],
            // Serving flags belong to expose-serve.
            &["--listen", "tcp:127.0.0.1:0"],
            // The recorded-script printer is gone.
            &["--emit-stream", "10"],
        ],
    ),
];

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run the binary")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for (name, binary, _) in BINARIES {
        for flag in ["--help", "-h"] {
            let output = run(binary, &[flag]);
            assert_eq!(output.status.code(), Some(0), "{name} {flag}");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                stdout.starts_with(&format!("usage: {name}")),
                "{name}: {stdout}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for (name, binary, bad) in BINARIES {
        for args in *bad {
            let output = run(binary, args);
            assert_eq!(output.status.code(), Some(2), "{name} {args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains(&format!("usage: {name}")),
                "{name} {args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        }
    }
}
