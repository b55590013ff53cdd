//! The ExpoSE job service: a long-running NDJSON front-end over one
//! shared DSE worker pool.
//!
//! The paper's evaluation shape — thousands of independent DSE jobs —
//! is exactly what a service should amortize: [`ServeOptions::serve`]
//! runs one session (submit jobs, query status/stats/metrics, stream
//! re-sequenced results), all sessions of a server share one worker
//! pool and its warm [`expose_dse::CacheSet`], and the `expose-serve` binary exposes the
//! whole thing over stdio, a Unix socket, or TCP behind one `--listen`
//! surface ([`transport`]), with admission control and graceful drain
//! ([`server`]). The fixtures that feed and check a server — corpus
//! request lines, the TCP soak client and the streaming-script
//! recorder — live in the `bench` crate, not here.
//!
//! Protocol v2 adds *streaming solve sessions* on top: a client
//! replays a trace clause by clause (`open_session`/`push`) and poses
//! flip queries (`solve`) against the server-side assumption stack as
//! it grows, with verdicts byte-identical to the in-process
//! incremental sessions of `expose_dse::TraceFlipSession`.
//!
//! See [`proto`] for the wire protocol and its determinism contract:
//! the `result` stream of a session is byte-identical for any worker
//! count.

#![warn(missing_docs)]

pub mod json;
pub mod proto;
pub mod server;
pub mod session;
pub mod transport;
pub mod wire;

pub use proto::{
    parse_request, result_line, submit_line, verdict_digest, ErrorCode, ExploreRequest,
    LifetimeCounters, ProtoVersion, Request, RequestError, SubmitRequest, VerdictDigest,
};
pub use server::{serve_listener, ServerState, ServerSummary};
pub use session::{ServeOptions, ServiceConfig, ServiceSummary};
pub use transport::{Listen, Listener};
