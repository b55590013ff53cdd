//! Transport-matrix differential tests.
//!
//! The protocol's determinism contract says a session's response
//! stream depends only on its input lines — never on the transport
//! that carried them or the worker count that solved them. These
//! tests byte-diff the 21-workload corpus stream across stdio, Unix
//! sockets, and TCP at workers 1/2/8, and then poke the TCP front-end
//! with the traffic a real network produces: partial lines, mid-frame
//! disconnects, oversized lines, and more clients than the admission
//! cap allows. Malformed input must yield structured `error` lines —
//! never a panic, never a hang.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use expose_service::{
    serve_listener, submit_line, Listen, ServeOptions, ServerState, ServiceConfig,
};

/// The 21-workload corpus (11 library + 10 generated programs),
/// trimmed to a tiny execution budget so the whole matrix stays fast.
fn corpus_input() -> String {
    let mut input = String::new();
    let mut push = |name: &str, entry: &str, arity: usize, source: &str| {
        input.push_str(&submit_line(name, entry, arity, source, 3, 10_000));
        input.push('\n');
    };
    for w in corpus::library_workloads() {
        push(w.name, w.entry, w.arity, w.source);
    }
    for p in corpus::generate_dse_programs(10, 0xbe7c) {
        push(&p.name, &p.entry, p.arity, &p.source);
    }
    input.push_str("{\"type\":\"shutdown\"}\n");
    input
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig::default().workers(workers)
}

/// Serves `input` over the in-process stdio path.
fn serve_stdio(input: &str, workers: usize) -> String {
    let mut out = Vec::new();
    ServeOptions::new()
        .config(config(workers))
        .serve(input.as_bytes(), &mut out)
        .expect("stdio serve");
    String::from_utf8(out).expect("utf8 output")
}

/// Binds `spec`, runs the accept loop on a scoped thread, hands the
/// bound address and the shared [`ServerState`] to `client`, then
/// drains and joins.
fn run_server<T>(
    spec: &str,
    config: ServiceConfig,
    client: impl FnOnce(&str, &Arc<ServerState>) -> T,
) -> T {
    let listen = Listen::parse(spec).expect("spec parses");
    let mut listener = listen.bind().expect("bind");
    let addr = listener.local_addr();
    let state = ServerState::new();
    let options = ServeOptions::new().config(config);
    std::thread::scope(|scope| {
        let server_state = Arc::clone(&state);
        let server = scope.spawn(move || {
            serve_listener(listener.as_mut(), &options, &server_state).expect("serve_listener")
        });
        let out = client(&addr, &state);
        state.begin_drain();
        server.join().expect("server thread");
        out
    })
}

/// Writes `input` over one TCP connection and reads the stream to EOF.
fn tcp_exchange(addr: &str, input: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(input.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let mut out = String::new();
    BufReader::new(stream)
        .read_to_string(&mut out)
        .expect("read");
    out
}

#[cfg(unix)]
fn unix_exchange(addr: &str, input: &str) -> String {
    use std::os::unix::net::UnixStream;

    let path = addr.strip_prefix("unix:").expect("unix addr");
    let stream = UnixStream::connect(path).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(input.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let mut out = String::new();
    BufReader::new(stream)
        .read_to_string(&mut out)
        .expect("read");
    out
}

#[test]
fn corpus_stream_is_byte_identical_across_transports_and_workers() {
    let input = corpus_input();
    let reference = serve_stdio(&input, 1);
    assert!(reference.contains("\"type\":\"done\""));
    assert_eq!(
        reference.matches("\"type\":\"result\"").count(),
        21,
        "one result line per corpus workload"
    );
    for workers in [1usize, 2, 8] {
        let stdio = serve_stdio(&input, workers);
        assert_eq!(stdio, reference, "stdio diverged at workers={workers}");

        let tcp = run_server("tcp:127.0.0.1:0", config(workers), |addr, _| {
            tcp_exchange(addr, &input)
        });
        assert_eq!(tcp, reference, "tcp diverged at workers={workers}");

        #[cfg(unix)]
        {
            let path = std::env::temp_dir().join(format!(
                "expose-matrix-{}-{workers}.sock",
                std::process::id()
            ));
            let spec = format!("unix:{}", path.display());
            let unix = run_server(&spec, config(workers), |addr, _| {
                unix_exchange(addr, &input)
            });
            assert_eq!(unix, reference, "unix diverged at workers={workers}");
        }
    }
}

#[test]
fn partial_line_and_mid_frame_disconnect_end_cleanly() {
    run_server("tcp:127.0.0.1:0", config(1), |addr, _| {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        // One whole request, then a request cut off mid-frame by the
        // peer vanishing (write half closed, no newline ever comes).
        writer
            .write_all(b"{\"type\":\"status\"}\n{\"type\":\"sub")
            .expect("write");
        writer.flush().expect("flush");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut out = String::new();
        BufReader::new(stream)
            .read_to_string(&mut out)
            .expect("read");
        assert!(out.contains("\"type\":\"status\""), "served: {out}");
        assert!(
            out.contains("\"code\":\"malformed_json\""),
            "the truncated frame must come back as a structured error: {out}"
        );
        assert!(
            out.contains("\"type\":\"done\""),
            "the session must still close with its done line: {out}"
        );
    });
}

#[test]
fn oversized_line_is_rejected_but_the_connection_keeps_serving() {
    run_server(
        "tcp:127.0.0.1:0",
        config(1).max_line_bytes(256),
        |addr, _| {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let huge = format!(
                "{{\"type\":\"submit\",\"junk\":\"{}\"}}\n",
                "x".repeat(4096)
            );
            writer.write_all(huge.as_bytes()).expect("write huge");
            writer
                .write_all(b"{\"type\":\"status\"}\n{\"type\":\"shutdown\"}\n")
                .expect("write tail");
            writer.flush().expect("flush");
            let mut out = String::new();
            BufReader::new(stream)
                .read_to_string(&mut out)
                .expect("read");
            assert!(
                out.contains("\"code\":\"bad_request\"") && out.contains("byte limit"),
                "oversized line must be a bad_request: {out}"
            );
            assert!(
                out.contains("\"type\":\"status\""),
                "the connection must keep serving after the rejection: {out}"
            );
            assert!(out.contains("\"type\":\"done\""), "clean close: {out}");
        },
    );
}

#[test]
fn admission_control_refuses_beyond_the_cap_and_while_draining() {
    run_server(
        "tcp:127.0.0.1:0",
        config(1).max_connections(1),
        |addr, state| {
            let first = TcpStream::connect(addr).expect("first connect");
            // Wait for the accept loop to admit the first tenant.
            let mut waited = Duration::ZERO;
            while state.active() < 1 {
                assert!(
                    waited < Duration::from_secs(10),
                    "first connection not admitted"
                );
                std::thread::sleep(Duration::from_millis(20));
                waited += Duration::from_millis(20);
            }

            // A second tenant is over the cap: one structured
            // `overloaded` line, then the connection closes.
            let second = TcpStream::connect(addr).expect("second connect");
            let mut line = String::new();
            BufReader::new(second)
                .read_line(&mut line)
                .expect("read refusal");
            assert!(
                line.contains("\"code\":\"overloaded\""),
                "over-cap refusal: {line}"
            );

            // Once a drain begins, everyone new is refused with
            // `draining`…
            state.begin_drain();
            let third = TcpStream::connect(addr).expect("third connect");
            let mut line = String::new();
            BufReader::new(third)
                .read_line(&mut line)
                .expect("read refusal");
            assert!(
                line.contains("\"code\":\"draining\""),
                "drain refusal: {line}"
            );

            // …and the admitted session is told, flushed, and closed
            // with its done line.
            let mut out = String::new();
            BufReader::new(first)
                .read_to_string(&mut out)
                .expect("read drain close");
            assert!(out.contains("\"code\":\"draining\""), "drain notice: {out}");
            assert!(out.contains("\"type\":\"done\""), "clean close: {out}");
        },
    );
}
