//! [`PlanClient`]: a retrying, deadline-aware client for [`PlanServer`].
//!
//! The client keeps one connection, frames requests, and turns transport
//! noise into at most [`ClientConfig::retries`] bounded retries with
//! exponential backoff and deterministic seeded jitter (an LCG, no clock,
//! no RNG — the same seed replays the same schedule). Crucially, a retry
//! reuses the *same request id*: the server's reply ring recognises ids it
//! has already answered and serves the cached bytes instead of planning
//! twice, so retrying after a lost reply is safe by construction.
//!
//! Replies carry the plan as the exact JSON the server rendered
//! ([`NetReply::plan_json`], bit-comparable against in-process planning)
//! plus a hand-decoded [`PlanSummary`] for callers that just want numbers —
//! the workspace's vendored serde has no runtime deserializer, so the
//! summary walks the JSON `Value` tree directly.
//!
//! [`PlanServer`]: crate::server::PlanServer

use crate::frame::{self, Decoded, ErrorCode, Frame, ReplyFrame, RequestFrame};
use raqo_catalog::QuerySpec;
use raqo_core::Priority;
use raqo_telemetry::{Counter, Telemetry};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub connect_timeout: Duration,
    /// Per-read cap while waiting for a reply frame.
    pub read_timeout: Duration,
    pub write_timeout: Duration,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub retries: u32,
    /// Backoff before retry k is `base · 2^k + jitter`, capped.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter LCG.
    pub jitter_seed: u64,
    /// Reply body cap (a server reply larger than this is a protocol
    /// error, not a memory balloon).
    pub max_body: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(2),
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0x5EED,
            max_body: frame::DEFAULT_MAX_BODY,
        }
    }
}

/// Degradation annotation decoded from the plan JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    pub rung: String,
    pub trigger: String,
    pub evals_used: u64,
    pub elapsed_ms: u64,
}

/// The numbers a caller usually wants from a wire plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    pub cost: f64,
    pub time_sec: f64,
    pub money_tb_sec: f64,
    pub degradation: Option<DegradationSummary>,
}

/// A successful wire round trip.
#[derive(Debug, Clone)]
pub struct NetReply {
    pub request_id: u64,
    /// Server-side telemetry trace id (0 when telemetry is disabled).
    pub trace_id: u128,
    /// Planned inline at the zero-eval rung after admission-control shed.
    pub shed: bool,
    /// Deadline expired server-side; the plan is the bottom-rung answer.
    pub deadline_expired: bool,
    pub queue_wait_us: u64,
    pub service_us: u64,
    /// The plan exactly as the server rendered it (`"null"` if the query
    /// was unplannable) — bit-comparable with in-process planning.
    pub plan_json: String,
    /// Hand-decoded view of `plan_json`; `None` when the plan was null or
    /// the summary fields were missing.
    pub plan: Option<PlanSummary>,
}

/// Why a wire call failed.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write, peer reset).
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol reply.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server { code: ErrorCode, message: String },
    /// Every attempt failed; `last` is the final attempt's error.
    RetriesExhausted { attempts: u32, last: Box<NetError> },
}

impl NetError {
    /// Whether another attempt could plausibly succeed.
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Io(_) => true,
            // A corrupt stream dies with its connection; the next attempt
            // starts clean.
            NetError::Protocol(_) => true,
            NetError::Server { code, .. } => code.retryable(),
            NetError::RetriesExhausted { .. } => false,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Server { code, message } => {
                write!(f, "server error ({}): {message}", code.name())
            }
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last: {last}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Deterministic 64-bit LCG (Knuth MMIX constants), the only "randomness"
/// in the retry schedule.
fn lcg(state: u64) -> u64 {
    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Backoff before retry `attempt` (1-based): exponential from `base`,
/// plus jitter in `[0, base)` drawn from the caller's LCG state, capped.
fn backoff_delay(config: &ClientConfig, attempt: u32, jitter_state: u64) -> Duration {
    let base_us = config.backoff_base.as_micros() as u64;
    let cap_us = config.backoff_cap.as_micros() as u64;
    let exp = base_us.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
    let jitter = if base_us > 0 { lcg(jitter_state) % base_us } else { 0 };
    Duration::from_micros(exp.saturating_add(jitter).min(cap_us))
}

/// The wire client. Not thread-safe by design (one connection, one id
/// counter); share work across threads by giving each its own client.
pub struct PlanClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    next_request_id: u64,
    jitter_state: u64,
    telemetry: Telemetry,
}

impl PlanClient {
    /// Resolve `addr` and build a client. The connection is lazy: it is
    /// established on the first call (and re-established after failures).
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<PlanClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let jitter_state = lcg(config.jitter_seed);
        Ok(PlanClient {
            addr,
            config,
            stream: None,
            next_request_id: 1,
            jitter_state,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Count client-side retries on this sink (`raqo_net_client_retries_total`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Plan `query` at `priority` in the default namespace with no
    /// deadline.
    pub fn plan(&mut self, query: &QuerySpec, priority: Priority) -> Result<NetReply, NetError> {
        self.plan_with(query, priority, 0, 0)
    }

    /// Plan with a tenant namespace and a deadline budget in milliseconds
    /// (0 = none), anchored server-side at decode time.
    pub fn plan_with(
        &mut self,
        query: &QuerySpec,
        priority: Priority,
        namespace: u32,
        deadline_ms: u32,
    ) -> Result<NetReply, NetError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let bytes = RequestFrame {
            request_id,
            priority,
            namespace,
            deadline_ms,
            query: query.clone(),
        }
        .encode();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(request_id, &bytes) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // A failed attempt may have desynced the stream;
                    // always start the next one on a fresh connection.
                    self.stream = None;
                    if e.retryable() && attempt <= self.config.retries {
                        self.telemetry.inc(Counter::NetClientRetries);
                        self.jitter_state = lcg(self.jitter_state);
                        std::thread::sleep(backoff_delay(
                            &self.config,
                            attempt,
                            self.jitter_state,
                        ));
                        continue;
                    }
                    if attempt == 1 {
                        return Err(e);
                    }
                    return Err(NetError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(e),
                    });
                }
            }
        }
    }

    /// One send/receive round trip on the (re)used connection.
    fn attempt(&mut self, request_id: u64, bytes: &[u8]) -> Result<NetReply, NetError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
            stream.set_read_timeout(Some(self.config.read_timeout))?;
            stream.set_write_timeout(Some(self.config.write_timeout))?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("just ensured");
        stream.write_all(bytes)?;
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let (decoded, plan) = frame::decode_with_plan(&buf, self.config.max_body);
            match decoded {
                Decoded::Incomplete { .. } => {}
                Decoded::Corrupt(e) => {
                    return Err(NetError::Protocol(format!("reply stream corrupt: {e}")))
                }
                Decoded::Frame(frame, _) => {
                    return match frame {
                        Frame::Reply(reply) if reply.request_id == request_id => {
                            Ok(decode_reply(reply, plan.as_ref()))
                        }
                        Frame::Reply(reply) => Err(NetError::Protocol(format!(
                            "reply for request {} while waiting for {}",
                            reply.request_id, request_id
                        ))),
                        Frame::Error(err) => Err(NetError::Server {
                            code: err.code,
                            message: err.message,
                        }),
                        Frame::Request(_) => {
                            Err(NetError::Protocol("server sent a request frame".into()))
                        }
                    };
                }
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                )));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `plan` is the tree the frame decoder parsed `reply.plan_json` into.
fn decode_reply(reply: ReplyFrame, plan: Option<&Value>) -> NetReply {
    let plan = plan.and_then(summarize);
    NetReply {
        request_id: reply.request_id,
        trace_id: reply.trace_id,
        shed: reply.shed(),
        deadline_expired: reply.deadline_expired(),
        queue_wait_us: reply.queue_wait_us,
        service_us: reply.service_us,
        plan_json: reply.plan_json,
        plan,
    }
}

// ---- plan-JSON walking -------------------------------------------------

fn field<'v>(fields: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Enum values render as a bare string for unit variants or a one-key
/// object for data-carrying ones; either way, the variant name.
fn variant_name(v: &Value) -> Option<String> {
    match v {
        Value::String(s) => Some(s.clone()),
        Value::Object(fields) => fields.first().map(|(k, _)| k.clone()),
        _ => None,
    }
}

/// Hand-walk a serialized plan (`{"query": {..., "cost", "objectives"},
/// "stats": ..., "degradation": null | {...}}`) into a [`PlanSummary`].
/// Returns `None` for a null plan or an unrecognised shape — never panics
/// on server output.
pub fn plan_summary(plan_json: &str) -> Option<PlanSummary> {
    summarize(&serde_json::from_str(plan_json).ok()?)
}

/// [`plan_summary`] over an already parsed plan.
fn summarize(plan: &Value) -> Option<PlanSummary> {
    let Value::Object(plan) = plan else { return None };
    let Some(Value::Object(query)) = field(plan, "query") else { return None };
    let cost = num(field(query, "cost"))?;
    let Some(Value::Object(objectives)) = field(query, "objectives") else { return None };
    let time_sec = num(field(objectives, "time_sec"))?;
    let money_tb_sec = num(field(objectives, "money_tb_sec"))?;
    let degradation = match field(plan, "degradation") {
        Some(Value::Object(d)) => Some(DegradationSummary {
            rung: field(d, "rung").and_then(variant_name).unwrap_or_default(),
            trigger: field(d, "trigger").and_then(variant_name).unwrap_or_default(),
            evals_used: num(field(d, "evals_used")).unwrap_or(0.0) as u64,
            elapsed_ms: num(field(d, "elapsed_ms")).unwrap_or(0.0) as u64,
        }),
        _ => None,
    };
    Some(PlanSummary { cost, time_sec, money_tb_sec, degradation })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let config = ClientConfig::default();
        let d1 = backoff_delay(&config, 1, 7);
        let d2 = backoff_delay(&config, 2, 7);
        let d9 = backoff_delay(&config, 9, 7);
        assert!(d1 >= config.backoff_base, "{d1:?}");
        assert!(d2 > d1);
        assert_eq!(d9, config.backoff_cap, "deep retries pin to the cap");
        assert_eq!(backoff_delay(&config, 3, 42), backoff_delay(&config, 3, 42));
        assert_ne!(
            backoff_delay(&config, 1, 1).as_micros(),
            backoff_delay(&config, 1, 2).as_micros(),
            "different jitter states give different delays"
        );
    }

    #[test]
    fn plan_summary_walks_the_real_shape() {
        let json = r#"{
            "query": {
                "tree": {"Leaf": 3},
                "joins": [],
                "cost": 12.5,
                "objectives": {"time_sec": 10.0, "money_tb_sec": 2.5}
            },
            "stats": {"evals": 100},
            "degradation": {
                "rung": "RuleBased",
                "trigger": "EvalBudget",
                "evals_used": 17,
                "elapsed_ms": 3
            }
        }"#;
        let summary = plan_summary(json).expect("shape matches");
        assert_eq!(summary.cost, 12.5);
        assert_eq!(summary.time_sec, 10.0);
        assert_eq!(summary.money_tb_sec, 2.5);
        let d = summary.degradation.expect("annotated");
        assert_eq!(d.rung, "RuleBased");
        assert_eq!(d.trigger, "EvalBudget");
        assert_eq!(d.evals_used, 17);
        assert_eq!(d.elapsed_ms, 3);
    }

    #[test]
    fn plan_summary_tolerates_null_and_garbage() {
        assert!(plan_summary("null").is_none());
        assert!(plan_summary("not json").is_none());
        assert!(plan_summary("{}").is_none());
        assert!(plan_summary(r#"{"query": 5}"#).is_none());
        assert!(
            plan_summary(r#"{"query": {"cost": 1.0, "objectives": {}}}"#).is_none(),
            "missing objective fields surface as None, not a panic"
        );
    }
}
