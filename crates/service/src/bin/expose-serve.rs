//! `expose-serve` — the NDJSON DSE job service.
//!
//! ```text
//! # Stream jobs through a worker pool (stdin/stdout):
//! expose-serve [--workers N] [--max-inflight N]
//!
//! # Same protocol over a Unix socket or TCP (connections share one
//! # --workers pool and its warm caches; --max-inflight bounds each
//! # connection; admission control via --max-connections; SIGTERM
//! # drains gracefully — stop accepting, flush in-flight, close each
//! # stream with its done line):
//! expose-serve --listen unix:/tmp/expose.sock [--workers N]
//! expose-serve --listen tcp:127.0.0.1:7077 [--max-connections N] [--shed]
//! ```
//!
//! The corpus fixtures, the serial batch reference, the streaming
//! replay check and the soak client that CI drives this binary with
//! are the `bench` crate's `service-fixtures` binary.
//!
//! `--help` prints the usage and exits 0; an unknown argument, a
//! missing value or an unparsable number prints the error and the
//! usage to standard error and exits 2.

use expose_service::session::{ServeOptions, ServiceConfig};
use expose_service::{serve_listener, Listen, ServerState};

struct Options {
    config: ServiceConfig,
    listen: Option<String>,
    metrics_text: bool,
}

const USAGE: &str = "\
usage: expose-serve [--workers N] [--flip-workers N] [--max-inflight N] [--cache-bytes N]
                    [--listen stdio|unix:PATH|tcp:ADDR] [--max-connections N] [--shed]
                    [--metrics-text]";

/// Prints `message` and the usage to standard error and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("expose-serve: {message}\n{USAGE}");
    std::process::exit(2)
}

/// Parses the value of `flag` as a number, or exits through
/// [`usage_error`].
fn number<T: std::str::FromStr>(flag: &str, text: &str) -> T
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .unwrap_or_else(|e| usage_error(&format!("{flag} wants a number, got {text:?}: {e}")))
}

/// Parses the command line; each serving flag sets its
/// [`ServiceConfig`] field over the defaults.
fn parse_args() -> Options {
    let mut options = Options {
        config: ServiceConfig::default(),
        listen: None,
        metrics_text: false,
    };
    let config = &mut options.config;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        let flag = arg.as_str();
        match flag {
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            "--workers" => config.workers = number(flag, &value()),
            // The default per-trace flip-solving worker count (requests
            // may still override it per line).
            "--flip-workers" => config.engine.flip_workers = number(flag, &value()),
            "--max-inflight" => config.max_inflight = number(flag, &value()),
            // Caps each session cache layer at ~N resident bytes
            // (0 = unlimited).
            "--cache-bytes" => config.cache_byte_budget = number(flag, &value()),
            "--listen" => options.listen = Some(value()),
            "--max-connections" => config.max_connections = number(flag, &value()),
            "--shed" => config.load_shed = true,
            "--metrics-text" => options.metrics_text = true,
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    options
}

/// SIGTERM/SIGINT → graceful drain: the async-signal handler only
/// flips a static flag; a watcher thread turns the flag into
/// [`ServerState::begin_drain`] from safe code.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use expose_service::ServerState;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn drain_on_signals(state: &Arc<ServerState>) {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
        let state = Arc::clone(state);
        std::thread::spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("expose-serve: signal received; draining");
                state.begin_drain();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
}

#[cfg(not(unix))]
mod sig {
    use expose_service::ServerState;
    use std::sync::Arc;

    pub fn drain_on_signals(_state: &Arc<ServerState>) {}
}

/// Serves `--listen stdio|unix:PATH|tcp:ADDR` through the admission
/// front-end: one shared warm cache set, `--max-connections` cap,
/// graceful drain on SIGTERM/SIGINT.
fn run_listener(spec: &str, options: &Options) -> std::io::Result<()> {
    let listen = Listen::parse(spec).map_err(std::io::Error::other)?;
    let mut listener = listen.bind()?;
    eprintln!("expose-serve: listening on {}", listener.local_addr());
    let state = ServerState::new();
    sig::drain_on_signals(&state);
    let serve = ServeOptions::new()
        .config(options.config.clone())
        .metrics_text(options.metrics_text);
    let summary = serve_listener(listener.as_mut(), &serve, &state)?;
    eprintln!(
        "expose-serve: drained, {} connection(s) served, {} refused",
        summary.connections, summary.rejected
    );
    Ok(())
}

fn main() -> std::io::Result<()> {
    let options = parse_args();
    if let Some(spec) = &options.listen {
        return run_listener(spec, &options);
    }

    let stdin = std::io::stdin();
    let summary = ServeOptions::new()
        .config(options.config)
        .metrics_text(options.metrics_text)
        .serve(stdin.lock(), std::io::stdout())?;
    eprintln!(
        "expose-serve: session done, {} job(s), {} request error(s)",
        summary.jobs, summary.request_errors
    );
    Ok(())
}
