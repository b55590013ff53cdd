//! Transport abstraction for the NDJSON service: one
//! [`Listener`]/[`Connection`] trait pair with stdio, Unix-socket, and
//! non-blocking TCP backends, selected by the `--listen
//! stdio|unix:PATH|tcp:ADDR` surface.
//!
//! Socket listeners run a poll-style readiness loop instead of blocking
//! in `accept(2)`: [`Listener::poll_accept`] returns within its timeout
//! whether or not a peer arrived, so the accept loop in
//! [`crate::server::serve_listener`] can check the drain flag between
//! polls. Accepted socket connections carry a short read timeout for
//! the same reason — a per-connection reader wakes regularly (seeing
//! [`LineEvent::TimedOut`]) and notices a drain even while its peer is
//! idle.
//!
//! [`next_line`] is the byte-capped line reader every transport shares.
//! Unlike `BufRead::lines` it survives read timeouts (partial data
//! accumulates in the caller-owned [`LineBuffer`] across calls),
//! tolerates invalid UTF-8 (lossy decode — the protocol layer answers
//! `malformed_json` instead of the session dying), and bounds memory: a
//! line over the cap is discarded up to its newline and reported as
//! [`LineEvent::Oversized`] so the session can answer `bad_request` and
//! keep serving.

use std::io::{self, BufRead, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long an idle `poll_accept` sleeps between non-blocking accept
/// attempts.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Read timeout installed on accepted socket connections, i.e. how
/// often an idle session reader wakes to check the drain flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// Where the service listens, parsed from one `--listen` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// One session over stdin/stdout (the default).
    Stdio,
    /// A Unix domain socket bound at the given path.
    Unix(PathBuf),
    /// A TCP socket bound at the given address, e.g.
    /// `127.0.0.1:7077`.
    Tcp(String),
}

impl Listen {
    /// Parses a `--listen` spec: `stdio`, `unix:PATH`, or `tcp:ADDR`.
    pub fn parse(spec: &str) -> Result<Listen, String> {
        if spec == "stdio" {
            return Ok(Listen::Stdio);
        }
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix: needs a socket path".to_string());
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: needs a host:port address".to_string());
            }
            return Ok(Listen::Tcp(addr.to_string()));
        }
        Err(format!(
            "unknown listen spec {spec:?} (expected stdio, unix:PATH, or tcp:ADDR)"
        ))
    }

    /// Binds the spec, yielding a ready [`Listener`].
    pub fn bind(&self) -> io::Result<Box<dyn Listener + Send>> {
        match self {
            Listen::Stdio => Ok(Box::new(StdioListener::new())),
            #[cfg(unix)]
            Listen::Unix(path) => Ok(Box::new(UnixTransport::bind(path)?)),
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not supported on this platform",
            )),
            Listen::Tcp(addr) => Ok(Box::new(TcpTransport::bind(addr)?)),
        }
    }
}

/// One accepted connection, split into the session's I/O halves by
/// [`Connection::open`] (sockets split into two clones of the stream).
pub trait Connection: Send {
    /// Peer label for diagnostics (address, socket path, or `stdio`).
    fn peer(&self) -> String;

    /// Consumes the connection, yielding the buffered reader and the
    /// writer the session runs over.
    #[allow(clippy::type_complexity)]
    fn open(self: Box<Self>) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)>;
}

/// What one [`Listener::poll_accept`] call produced.
pub enum Accepted {
    /// A peer connected.
    Connection(Box<dyn Connection>),
    /// Nothing arrived within the poll interval; check the drain flag
    /// and poll again.
    Idle,
    /// The listener can produce no further connections (stdio's single
    /// session was already taken).
    Exhausted,
}

/// An accepting transport backend.
pub trait Listener {
    /// Label of the bound endpoint (resolved address for TCP, so
    /// binding port `0` reports the real port).
    fn local_addr(&self) -> String;

    /// Polls for the next connection, returning within roughly
    /// `timeout` either way.
    fn poll_accept(&mut self, timeout: Duration) -> io::Result<Accepted>;
}

/// The stdio transport: exactly one connection over stdin/stdout.
#[derive(Debug, Default)]
pub struct StdioListener {
    taken: bool,
}

impl StdioListener {
    /// A fresh stdio listener (one connection available).
    pub fn new() -> StdioListener {
        StdioListener::default()
    }
}

impl Listener for StdioListener {
    fn local_addr(&self) -> String {
        "stdio".to_string()
    }

    fn poll_accept(&mut self, _timeout: Duration) -> io::Result<Accepted> {
        if self.taken {
            return Ok(Accepted::Exhausted);
        }
        self.taken = true;
        Ok(Accepted::Connection(Box::new(StdioConnection)))
    }
}

struct StdioConnection;

impl Connection for StdioConnection {
    fn peer(&self) -> String {
        "stdio".to_string()
    }

    fn open(self: Box<Self>) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        Ok((
            Box::new(io::BufReader::new(io::stdin())),
            Box::new(io::stdout()),
        ))
    }
}

/// The accept loop of the non-blocking socket backends: retries
/// `accept` every [`ACCEPT_TICK`] while it would block, returning the
/// accepted socket, or `None` once `timeout` has passed.
fn accept_within<S>(
    timeout: Duration,
    mut accept: impl FnMut() -> io::Result<S>,
) -> io::Result<Option<S>> {
    let deadline = Instant::now() + timeout;
    loop {
        match accept() {
            Ok(socket) => return Ok(Some(socket)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(ACCEPT_TICK);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// The non-blocking TCP transport.
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
}

impl TcpTransport {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// switches the socket to non-blocking accepts.
    pub fn bind(addr: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport { listener })
    }
}

impl Listener for TcpTransport {
    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:?".to_string())
    }

    fn poll_accept(&mut self, timeout: Duration) -> io::Result<Accepted> {
        let Some((stream, peer)) = accept_within(timeout, || self.listener.accept())? else {
            return Ok(Accepted::Idle);
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_TICK))?;
        Ok(Accepted::Connection(Box::new(TcpConnection {
            stream,
            peer: peer.to_string(),
        })))
    }
}

struct TcpConnection {
    stream: TcpStream,
    peer: String,
}

impl Connection for TcpConnection {
    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn open(self: Box<Self>) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        let reader = self.stream.try_clone()?;
        Ok((Box::new(io::BufReader::new(reader)), Box::new(self.stream)))
    }
}

/// The Unix-domain-socket transport (non-blocking accepts, like TCP).
#[cfg(unix)]
#[derive(Debug)]
pub struct UnixTransport {
    listener: UnixListener,
    path: PathBuf,
}

#[cfg(unix)]
impl UnixTransport {
    /// Binds a socket at `path`, replacing a stale socket file from an
    /// earlier run.
    pub fn bind(path: &std::path::Path) -> io::Result<UnixTransport> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(UnixTransport {
            listener,
            path: path.to_path_buf(),
        })
    }
}

#[cfg(unix)]
impl Listener for UnixTransport {
    fn local_addr(&self) -> String {
        format!("unix:{}", self.path.display())
    }

    fn poll_accept(&mut self, timeout: Duration) -> io::Result<Accepted> {
        let Some((stream, _)) = accept_within(timeout, || self.listener.accept())? else {
            return Ok(Accepted::Idle);
        };
        stream.set_read_timeout(Some(READ_TICK))?;
        Ok(Accepted::Connection(Box::new(UnixConnection {
            stream,
            peer: format!("unix:{}", self.path.display()),
        })))
    }
}

#[cfg(unix)]
impl Drop for UnixTransport {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(unix)]
struct UnixConnection {
    stream: UnixStream,
    peer: String,
}

#[cfg(unix)]
impl Connection for UnixConnection {
    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn open(self: Box<Self>) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        let reader = self.stream.try_clone()?;
        Ok((Box::new(io::BufReader::new(reader)), Box::new(self.stream)))
    }
}

/// One event from [`next_line`].
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (newline stripped), lossily UTF-8 decoded.
    Line(String),
    /// A line exceeded the byte cap; `dropped` bytes of payload were
    /// discarded up to (not including) its newline.
    Oversized {
        /// Bytes discarded from the oversized line.
        dropped: usize,
    },
    /// The underlying read timed out with the line still incomplete;
    /// partial data stays buffered. Check the drain flag and call
    /// again.
    TimedOut,
    /// End of input (a trailing unterminated line is returned as
    /// [`LineEvent::Line`] first).
    Eof,
}

/// Caller-owned accumulation state for [`next_line`], so a line split
/// across read timeouts survives between calls.
#[derive(Debug, Default)]
pub struct LineBuffer {
    bytes: Vec<u8>,
    /// Discarding an oversized line until its newline.
    dropping: bool,
    dropped: usize,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> LineBuffer {
        LineBuffer::default()
    }
}

/// Reads the next newline-terminated line from `input`, capping any
/// single line at `max_bytes` (`0` = unlimited). See [`LineEvent`] for
/// the possible outcomes; timeouts (`WouldBlock`/`TimedOut` I/O
/// errors) are surfaced as [`LineEvent::TimedOut`] rather than errors.
pub fn next_line<R: BufRead + ?Sized>(
    input: &mut R,
    buf: &mut LineBuffer,
    max_bytes: usize,
) -> io::Result<LineEvent> {
    loop {
        let (consumed, newline_at) = {
            let available = match input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineEvent::TimedOut);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                // EOF: flush whatever the final (unterminated) line
                // accumulated, mirroring `BufRead::lines`.
                if buf.dropping {
                    buf.dropping = false;
                    return Ok(LineEvent::Oversized {
                        dropped: std::mem::take(&mut buf.dropped),
                    });
                }
                if buf.bytes.is_empty() {
                    return Ok(LineEvent::Eof);
                }
                return Ok(LineEvent::Line(take_line(buf)));
            }
            let newline_at = available.iter().position(|&b| b == b'\n');
            let upto = newline_at.unwrap_or(available.len());
            if buf.dropping {
                buf.dropped += upto;
            } else {
                buf.bytes.extend_from_slice(&available[..upto]);
            }
            (upto + usize::from(newline_at.is_some()), newline_at)
        };
        input.consume(consumed);
        if !buf.dropping && max_bytes > 0 && buf.bytes.len() > max_bytes {
            // Line over the cap: forget the payload, keep discarding
            // until its newline.
            buf.dropping = true;
            buf.dropped = std::mem::take(&mut buf.bytes).len();
        }
        if newline_at.is_some() {
            if buf.dropping {
                buf.dropping = false;
                return Ok(LineEvent::Oversized {
                    dropped: std::mem::take(&mut buf.dropped),
                });
            }
            return Ok(LineEvent::Line(take_line(buf)));
        }
    }
}

fn take_line(buf: &mut LineBuffer) -> String {
    let line = String::from_utf8_lossy(&buf.bytes).into_owned();
    buf.bytes.clear();
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drain(input: &str, max_bytes: usize) -> Vec<LineEvent> {
        let mut reader = Cursor::new(input.as_bytes().to_vec());
        let mut buf = LineBuffer::new();
        let mut events = Vec::new();
        loop {
            let event = next_line(&mut reader, &mut buf, max_bytes).expect("read");
            let done = event == LineEvent::Eof;
            events.push(event);
            if done {
                return events;
            }
        }
    }

    #[test]
    fn parse_listen_specs() {
        assert_eq!(Listen::parse("stdio"), Ok(Listen::Stdio));
        assert_eq!(
            Listen::parse("unix:/tmp/s.sock"),
            Ok(Listen::Unix(PathBuf::from("/tmp/s.sock")))
        );
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7077"),
            Ok(Listen::Tcp("127.0.0.1:7077".to_string()))
        );
        assert!(Listen::parse("udp:1.2.3.4").is_err());
        assert!(Listen::parse("unix:").is_err());
        assert!(Listen::parse("tcp:").is_err());
    }

    #[test]
    fn lines_split_and_final_unterminated_line_counts() {
        let events = drain("a\nbb\nccc", 0);
        assert_eq!(
            events,
            vec![
                LineEvent::Line("a".to_string()),
                LineEvent::Line("bb".to_string()),
                LineEvent::Line("ccc".to_string()),
                LineEvent::Eof,
            ]
        );
        assert_eq!(drain("", 0), vec![LineEvent::Eof]);
    }

    #[test]
    fn oversized_lines_are_discarded_not_fatal() {
        let long = "x".repeat(100);
        let events = drain(&format!("ok\n{long}\nstill-here\n"), 16);
        assert_eq!(
            events,
            vec![
                LineEvent::Line("ok".to_string()),
                LineEvent::Oversized { dropped: 100 },
                LineEvent::Line("still-here".to_string()),
                LineEvent::Eof,
            ]
        );
        // Oversized final line without a newline drains at EOF too.
        let events = drain(&long, 16);
        assert_eq!(
            events,
            vec![LineEvent::Oversized { dropped: 100 }, LineEvent::Eof]
        );
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let mut reader = Cursor::new(b"ab\xff\xfecd\n".to_vec());
        let mut buf = LineBuffer::new();
        let event = next_line(&mut reader, &mut buf, 0).expect("read");
        let LineEvent::Line(line) = event else {
            panic!("line expected");
        };
        assert!(line.starts_with("ab"), "lossy decode: {line:?}");
        assert!(line.ends_with("cd"), "lossy decode: {line:?}");
    }

    /// A reader that times out partway through a line, like a socket
    /// with a read timeout.
    struct Stutter {
        chunks: Vec<Vec<u8>>,
        buffered: Vec<u8>,
    }

    impl io::Read for Stutter {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("BufRead goes through fill_buf")
        }
    }

    impl BufRead for Stutter {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.buffered.is_empty() {
                match self.chunks.first() {
                    None => return Ok(&[]),
                    Some(chunk) if chunk.is_empty() => {
                        self.chunks.remove(0);
                        return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
                    }
                    Some(_) => self.buffered = self.chunks.remove(0),
                }
            }
            Ok(&self.buffered)
        }

        fn consume(&mut self, amt: usize) {
            self.buffered.drain(..amt);
        }
    }

    #[test]
    fn partial_line_survives_a_timeout() {
        // "{"half" … timeout … ":1}\n" must come back as one line.
        let mut reader = Stutter {
            chunks: vec![b"{\"half\"".to_vec(), Vec::new(), b":1}\n".to_vec()],
            buffered: Vec::new(),
        };
        let mut buf = LineBuffer::new();
        assert_eq!(
            next_line(&mut reader, &mut buf, 0).expect("read"),
            LineEvent::TimedOut
        );
        assert_eq!(
            next_line(&mut reader, &mut buf, 0).expect("read"),
            LineEvent::Line("{\"half\":1}".to_string())
        );
        assert_eq!(
            next_line(&mut reader, &mut buf, 0).expect("read"),
            LineEvent::Eof
        );
    }
}
