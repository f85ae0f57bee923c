//! # raqo-net — the hardened wire front end
//!
//! The paper's optimizer is a library call and [`raqo_core::PlanningService`]
//! turns it into an in-process service; this crate puts that service on the
//! network without giving up any of its robustness guarantees. Everything is
//! std-only (no async runtime, no protobuf): one nonblocking event loop over
//! plain `TcpListener`/`TcpStream` that sleeps in `poll(2)` until a socket
//! is ready, a timer is due, or a planning worker's completion hook wakes
//! it ([`server`]); a versioned length-prefixed frame protocol ([`frame`]);
//! and direct submission into the planning service's bounded admission
//! queue.
//!
//! The crate's single `unsafe` block is the `poll` foreign call in
//! `poll.rs` (std links the C library already; there is no `libc` crate
//! here). Its safety argument is one line — the pointer and count passed
//! are a live `&mut [PollFd]`'s own. `unsafe_code` is denied everywhere
//! but that module, and `unsafe_op_in_unsafe_fn` crate-wide, so nothing
//! else can hide one.
//!
//! Design invariants, each enforced by the chaos suite in
//! `crates/bench/tests/net_chaos.rs`:
//!
//! * **A malformed frame never hangs, panics, or silently closes** — bad
//!   magic, unknown versions, oversized length prefixes, torn bodies and
//!   hostile JSON all surface as typed [`frame::ErrorFrame`]s before the
//!   connection closes.
//! * **Deadlines propagate**: a request's `deadline_ms` budget is anchored
//!   at decode time, so server-side queue wait counts against it; a request
//!   whose deadline expired in the queue is answered from the ladder's
//!   zero-evaluation rung (still a plan, annotated), not planned stale.
//! * **Backpressure sheds, never buffers without bound**: the connection
//!   cap and the service's bounded admission queue answer `Overloaded`
//!   error frames instead of queueing forever;
//!   `raqo_net_shed_total{reason}` counts each shed class.
//! * **Shutdown drains**: stop accepting, answer `Draining` to new
//!   requests, finish in-flight work, flush the cache-bank checkpoint, then
//!   close — bounded by a drain timeout so shutdown itself cannot hang.
//! * **Retries are safe**: [`PlanClient`] retries transient failures with
//!   seeded-jitter exponential backoff under the *same* request id, and the
//!   server's reply ring deduplicates ids it has already answered, so a
//!   retry of a delivered reply costs no second planning run.

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod frame;
#[allow(unsafe_code)]
pub(crate) mod poll;
pub mod server;

pub use client::{ClientConfig, NetError, NetReply, PlanClient, PlanSummary};
pub use frame::{
    decode, Decoded, DecodeError, ErrorCode, ErrorFrame, Frame, FrameKind, ReplyFrame,
    RequestFrame, DEFAULT_MAX_BODY, HEADER_LEN, MAGIC, VERSION,
};
pub use server::{NetConfig, PlanServer};
