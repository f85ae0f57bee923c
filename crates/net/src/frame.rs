//! The RAQO wire protocol: versioned, length-prefixed frames.
//!
//! Every frame is a fixed 10-byte header followed by a bounded body:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"RQNW"
//!      4     1  protocol version (currently 1)
//!      5     1  frame kind (1 = Request, 2 = Reply, 3 = Error)
//!      6     4  body length, u32 big-endian
//!     10     n  body (layout per kind, below)
//! ```
//!
//! Bodies mix fixed binary fields (ids, flags, timings — all big-endian)
//! with a JSON tail for the structured payloads ([`QuerySpec`] in requests,
//! the planned [`raqo_core::RaqoPlan`] in replies), rendered by the
//! workspace's vendored `serde_json`. The decoder never trusts the peer:
//! bad magic, an unknown version or kind, an oversized length prefix, or a
//! body that fails validation all surface as a typed [`DecodeError`] — the
//! caller answers with an [`ErrorFrame`] and closes, never panics, never
//! hangs on a torn prefix (incomplete input is reported as
//! [`Decoded::Incomplete`] with a byte count to wait for).
//!
//! Request body: `request_id u64 | priority u8 | namespace u32 |
//! deadline_ms u32 | QuerySpec JSON`. `deadline_ms` is a *budget* relative
//! to server receipt (0 = none): clients don't share a clock with the
//! server, so the server anchors the deadline at decode time and queue wait
//! counts against it.
//!
//! Reply body: `request_id u64 | trace_id u128 | flags u8 | queue_wait_us
//! u64 | service_us u64 | plan JSON` — flags bit 0 = shed, bit 1 = deadline
//! expired.
//!
//! Error body: `request_id u64 | code u8 | UTF-8 message` (request id 0
//! when the error is not attributable to a decoded request).

use raqo_catalog::{QuerySpec, TableId};
use raqo_core::Priority;
use serde::Value;

/// Frame magic: the first four bytes of every RAQO wire frame.
pub const MAGIC: [u8; 4] = *b"RQNW";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size: magic + version + kind + body length.
pub const HEADER_LEN: usize = 10;
/// Default cap on body size; a length prefix above the cap is rejected as
/// [`DecodeError::Oversized`] *before* buffering the body, so a hostile
/// 4 GiB length prefix cannot balloon server memory.
pub const DEFAULT_MAX_BODY: usize = 1 << 20;

/// Frame kinds on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Request = 1,
    Reply = 2,
    Error = 3,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Reply),
            3 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// Typed error codes carried in [`ErrorFrame`]s. The split drives client
/// retry policy: transport-shaped failures ([`retryable`](Self::retryable))
/// may succeed on a fresh connection, protocol bugs will not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame did not start with [`MAGIC`].
    BadMagic = 1,
    /// Unknown protocol version.
    BadVersion = 2,
    /// Body length exceeded the server's cap.
    Oversized = 3,
    /// The connection closed (or was cut) mid-frame.
    Torn = 4,
    /// The body failed validation (bad JSON, missing fields, bad enum).
    BadBody = 5,
    /// Admission control shed the request (planning queue full).
    Overloaded = 6,
    /// The server is draining for shutdown and accepts no new work.
    Draining = 7,
    /// Planning did not finish within the server's ticket timeout.
    WaitTimeout = 8,
    /// Unattributable server-side failure.
    Internal = 9,
}

impl ErrorCode {
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::BadMagic),
            2 => Some(ErrorCode::BadVersion),
            3 => Some(ErrorCode::Oversized),
            4 => Some(ErrorCode::Torn),
            5 => Some(ErrorCode::BadBody),
            6 => Some(ErrorCode::Overloaded),
            7 => Some(ErrorCode::Draining),
            8 => Some(ErrorCode::WaitTimeout),
            9 => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Stable lowercase name, used in logs and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad_magic",
            ErrorCode::BadVersion => "bad_version",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Torn => "torn",
            ErrorCode::BadBody => "bad_body",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::WaitTimeout => "wait_timeout",
            ErrorCode::Internal => "internal",
        }
    }

    /// Whether a client may retry the same request id after this error.
    /// Transient server conditions are retryable; protocol violations mean
    /// the client itself is broken and retrying would repeat the offense.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::Draining
                | ErrorCode::WaitTimeout
                | ErrorCode::Torn
                | ErrorCode::Internal
        )
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen id; echoed in the reply and used for retry dedup.
    pub request_id: u64,
    pub priority: Priority,
    /// Tenant cache namespace (0 = shared default).
    pub namespace: u32,
    /// Deadline budget in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    pub query: QuerySpec,
}

impl RequestFrame {
    /// FNV-1a content fingerprint over every request field. The server's
    /// reply ring deduplicates on `(request_id, fingerprint)`: a retry of
    /// the *same* request is answered from the ring, while an unrelated
    /// client that happens to reuse an id (every client counts from the
    /// same default sequence) can never be handed another request's reply.
    pub fn fingerprint(&self) -> u64 {
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = eat(h, &self.request_id.to_be_bytes());
        h = eat(h, &[self.priority as u8]);
        h = eat(h, &self.namespace.to_be_bytes());
        h = eat(h, &self.deadline_ms.to_be_bytes());
        h = eat(h, self.query.name.as_bytes());
        for relation in &self.query.relations {
            h = eat(h, &relation.0.to_be_bytes());
        }
        h
    }
}

/// Reply flag bit: the request was shed and planned at the zero-eval rung.
pub const FLAG_SHED: u8 = 1 << 0;
/// Reply flag bit: the deadline expired in the queue; bottom-rung answer.
pub const FLAG_DEADLINE_EXPIRED: u8 = 1 << 1;

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyFrame {
    pub request_id: u64,
    /// Telemetry trace id for this request (0 if telemetry disabled), so a
    /// client can point an operator at the exact exported trace.
    pub trace_id: u128,
    /// [`FLAG_SHED`] | [`FLAG_DEADLINE_EXPIRED`].
    pub flags: u8,
    pub queue_wait_us: u64,
    pub service_us: u64,
    /// The plan as rendered by `serde_json::to_string(&reply.plan)` —
    /// `"null"` when the optimizer found the query unplannable. Kept as raw
    /// text so clients can bit-compare against in-process planning.
    pub plan_json: String,
}

impl ReplyFrame {
    pub fn shed(&self) -> bool {
        self.flags & FLAG_SHED != 0
    }

    pub fn deadline_expired(&self) -> bool {
        self.flags & FLAG_DEADLINE_EXPIRED != 0
    }
}

/// A decoded error frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// The request this answers, or 0 when the stream itself is broken.
    pub request_id: u64,
    pub code: ErrorCode,
    pub message: String,
}

/// Any frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Request(RequestFrame),
    Reply(ReplyFrame),
    Error(ErrorFrame),
}

/// Why a buffer failed to decode. Each maps onto the [`ErrorCode`] the
/// server answers with before closing the connection.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    BadMagic,
    BadVersion(u8),
    BadKind(u8),
    Oversized { len: usize, max: usize },
    BadBody(String),
}

impl DecodeError {
    pub fn code(&self) -> ErrorCode {
        match self {
            DecodeError::BadMagic => ErrorCode::BadMagic,
            DecodeError::BadVersion(_) => ErrorCode::BadVersion,
            // An unknown kind byte means the streams disagree about where
            // frames start — same failure class as bad magic.
            DecodeError::BadKind(_) => ErrorCode::BadMagic,
            DecodeError::Oversized { .. } => ErrorCode::Oversized,
            DecodeError::BadBody(_) => ErrorCode::BadBody,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "frame does not start with RQNW magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            DecodeError::BadBody(msg) => write!(f, "bad frame body: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result of [`decode`] on a byte buffer.
#[derive(Debug)]
pub enum Decoded {
    /// One complete frame, plus the number of bytes it consumed from the
    /// front of the buffer.
    Frame(Frame, usize),
    /// Not enough bytes yet. `needed` is the total frame size once the
    /// header is readable, or [`HEADER_LEN`] before that — a torn prefix is
    /// simply "wait for more", never an error, so slow or chunked writers
    /// are handled for free.
    Incomplete { needed: usize },
    /// The stream is corrupt at the front of the buffer. Framing is lost
    /// from here on: answer with a typed error and close.
    Corrupt(DecodeError),
}

// ---- encoding ----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn finish(kind: FrameKind, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind as u8);
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    out
}

impl RequestFrame {
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.request_id);
        body.push(self.priority as u8);
        put_u32(&mut body, self.namespace);
        put_u32(&mut body, self.deadline_ms);
        let json = serde_json::to_string(&self.query).unwrap_or_default();
        body.extend_from_slice(json.as_bytes());
        finish(FrameKind::Request, body)
    }
}

impl ReplyFrame {
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.request_id);
        put_u128(&mut body, self.trace_id);
        body.push(self.flags);
        put_u64(&mut body, self.queue_wait_us);
        put_u64(&mut body, self.service_us);
        body.extend_from_slice(self.plan_json.as_bytes());
        finish(FrameKind::Reply, body)
    }
}

impl ErrorFrame {
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.request_id);
        body.push(self.code as u8);
        body.extend_from_slice(self.message.as_bytes());
        finish(FrameKind::Error, body)
    }
}

impl Frame {
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Request(f) => f.encode(),
            Frame::Reply(f) => f.encode(),
            Frame::Error(f) => f.encode(),
        }
    }
}

// ---- decoding ----------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.bytes.len() {
            return Err(DecodeError::BadBody(format!(
                "body truncated: wanted {n} bytes at offset {}, body is {} bytes",
                self.pos,
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_be_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn rest_utf8(&mut self) -> Result<&'a str, DecodeError> {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        std::str::from_utf8(rest)
            .map_err(|e| DecodeError::BadBody(format!("body tail is not UTF-8: {e}")))
    }
}

fn decode_priority(b: u8) -> Result<Priority, DecodeError> {
    match b {
        0 => Ok(Priority::Interactive),
        1 => Ok(Priority::Standard),
        2 => Ok(Priority::Batch),
        other => Err(DecodeError::BadBody(format!("unknown priority class {other}"))),
    }
}

/// Hand-walk the `Value` tree of a QuerySpec document (`{"name": "...",
/// "relations": [ints]}`) — the vendored serde has no runtime deserializer.
fn decode_query(json: &str) -> Result<QuerySpec, DecodeError> {
    let value = serde_json::from_str(json)
        .map_err(|e| DecodeError::BadBody(format!("query JSON: {e}")))?;
    let Value::Object(fields) = value else {
        return Err(DecodeError::BadBody("query JSON is not an object".into()));
    };
    let mut name: Option<String> = None;
    let mut relations: Option<Vec<TableId>> = None;
    for (key, val) in fields {
        match (key.as_str(), val) {
            ("name", Value::String(s)) => name = Some(s),
            ("relations", Value::Array(items)) => {
                let mut rels = Vec::with_capacity(items.len());
                for item in items {
                    let Value::Num(n) = item else {
                        return Err(DecodeError::BadBody("relation id is not a number".into()));
                    };
                    if !(n.is_finite() && n >= 0.0 && n <= u32::MAX as f64 && n.fract() == 0.0) {
                        return Err(DecodeError::BadBody(format!(
                            "relation id {n} is not a valid table id"
                        )));
                    }
                    rels.push(TableId(n as u32));
                }
                relations = Some(rels);
            }
            _ => {
                return Err(DecodeError::BadBody(format!(
                    "unexpected or mistyped query field `{key}`"
                )))
            }
        }
    }
    let name = name.ok_or_else(|| DecodeError::BadBody("query JSON missing `name`".into()))?;
    let relations =
        relations.ok_or_else(|| DecodeError::BadBody("query JSON missing `relations`".into()))?;
    // QuerySpec::new asserts non-empty; validate first so a hostile frame
    // cannot panic the server.
    if relations.is_empty() {
        return Err(DecodeError::BadBody("query references no relations".into()));
    }
    Ok(QuerySpec::new(name, relations))
}

/// Decode one frame body. A reply's plan JSON is parsed here to validate
/// it; the tree comes back beside the frame so the client's summary walk
/// need not parse the same text again (`None` for the other kinds).
fn decode_body(kind: FrameKind, body: &[u8]) -> Result<(Frame, Option<Value>), DecodeError> {
    let mut r = Reader { bytes: body, pos: 0 };
    Ok(match kind {
        FrameKind::Request => {
            let request_id = r.u64()?;
            let priority = decode_priority(r.u8()?)?;
            let namespace = r.u32()?;
            let deadline_ms = r.u32()?;
            let query = decode_query(r.rest_utf8()?)?;
            let request = RequestFrame { request_id, priority, namespace, deadline_ms, query };
            (Frame::Request(request), None)
        }
        FrameKind::Reply => {
            let request_id = r.u64()?;
            let trace_id = r.u128()?;
            let flags = r.u8()?;
            let queue_wait_us = r.u64()?;
            let service_us = r.u64()?;
            let plan_json = r.rest_utf8()?.to_string();
            // Validate the tail parses so a corrupt reply surfaces here as
            // a typed error, not later inside a client summary walk.
            let plan = serde_json::from_str(&plan_json)
                .map_err(|e| DecodeError::BadBody(format!("plan JSON: {e}")))?;
            let reply =
                ReplyFrame { request_id, trace_id, flags, queue_wait_us, service_us, plan_json };
            (Frame::Reply(reply), Some(plan))
        }
        FrameKind::Error => {
            let request_id = r.u64()?;
            let code_byte = r.u8()?;
            let code = ErrorCode::from_u8(code_byte)
                .ok_or_else(|| DecodeError::BadBody(format!("unknown error code {code_byte}")))?;
            let message = r.rest_utf8()?.to_string();
            (Frame::Error(ErrorFrame { request_id, code, message }), None)
        }
    })
}

/// Try to decode one frame from the front of `buf`. Never panics on any
/// input; never reads past `buf`. See [`Decoded`] for the three outcomes.
pub fn decode(buf: &[u8], max_body: usize) -> Decoded {
    decode_with_plan(buf, max_body).0
}

/// [`decode`], also handing out the parsed plan JSON of a reply frame.
pub(crate) fn decode_with_plan(buf: &[u8], max_body: usize) -> (Decoded, Option<Value>) {
    let corrupt = |e| (Decoded::Corrupt(e), None);
    if buf.len() < HEADER_LEN {
        // Check what we do have of the magic so garbage fails fast instead
        // of idling as a forever-incomplete header.
        let have = buf.len().min(MAGIC.len());
        if buf[..have] != MAGIC[..have] {
            return corrupt(DecodeError::BadMagic);
        }
        return (Decoded::Incomplete { needed: HEADER_LEN }, None);
    }
    if buf[..4] != MAGIC {
        return corrupt(DecodeError::BadMagic);
    }
    if buf[4] != VERSION {
        return corrupt(DecodeError::BadVersion(buf[4]));
    }
    let Some(kind) = FrameKind::from_u8(buf[5]) else {
        return corrupt(DecodeError::BadKind(buf[5]));
    };
    let len = u32::from_be_bytes(buf[6..10].try_into().unwrap()) as usize;
    if len > max_body {
        return corrupt(DecodeError::Oversized { len, max: max_body });
    }
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return (Decoded::Incomplete { needed: total }, None);
    }
    match decode_body(kind, &buf[HEADER_LEN..total]) {
        Ok((frame, plan)) => (Decoded::Frame(frame, total), plan),
        Err(e) => corrupt(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> RequestFrame {
        RequestFrame {
            request_id: 42,
            priority: Priority::Interactive,
            namespace: 7,
            deadline_ms: 1500,
            query: QuerySpec::tpch_q3(),
        }
    }

    fn reply() -> ReplyFrame {
        ReplyFrame {
            request_id: 42,
            trace_id: 0xdead_beef_dead_beef_dead_beef,
            flags: FLAG_SHED | FLAG_DEADLINE_EXPIRED,
            queue_wait_us: 1234,
            service_us: 5678,
            plan_json: r#"{"cost": 10.5, "note": "not a real plan, any JSON rides"}"#.into(),
        }
    }

    fn error() -> ErrorFrame {
        ErrorFrame {
            request_id: 9,
            code: ErrorCode::Overloaded,
            message: "dispatch queue full".into(),
        }
    }

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        match decode(&bytes, DEFAULT_MAX_BODY) {
            Decoded::Frame(decoded, consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(decoded, frame);
            }
            other => panic!("roundtrip failed: {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Request(request()));
        roundtrip(Frame::Reply(reply()));
        roundtrip(Frame::Error(error()));
    }

    #[test]
    fn reply_decode_hands_out_the_tree_it_validated() {
        let (decoded, plan) = decode_with_plan(&Frame::Reply(reply()).encode(), DEFAULT_MAX_BODY);
        assert!(matches!(decoded, Decoded::Frame(Frame::Reply(_), _)));
        assert_eq!(plan, serde_json::from_str(&reply().plan_json).ok());
        for other in [Frame::Request(request()), Frame::Error(error())] {
            let (decoded, plan) = decode_with_plan(&other.encode(), DEFAULT_MAX_BODY);
            assert!(matches!(decoded, Decoded::Frame(..)));
            assert_eq!(plan, None);
        }
    }

    #[test]
    fn every_truncation_is_incomplete_never_a_frame() {
        // A torn frame must never decode, never error, never panic: every
        // strict prefix is Incomplete (the stream just waits for the rest).
        for frame in [Frame::Request(request()), Frame::Reply(reply()), Frame::Error(error())] {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                match decode(&bytes[..cut], DEFAULT_MAX_BODY) {
                    Decoded::Incomplete { needed } => {
                        assert!(needed > cut, "needed {needed} must exceed the {cut} bytes held");
                        assert!(needed <= bytes.len());
                    }
                    other => panic!("prefix of {cut} bytes decoded as {other:?}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_left_for_the_next_frame() {
        let mut bytes = Frame::Request(request()).encode();
        let first_len = bytes.len();
        bytes.extend_from_slice(&Frame::Error(error()).encode());
        match decode(&bytes, DEFAULT_MAX_BODY) {
            Decoded::Frame(Frame::Request(_), consumed) => assert_eq!(consumed, first_len),
            other => panic!("{other:?}"),
        }
        match decode(&bytes[first_len..], DEFAULT_MAX_BODY) {
            Decoded::Frame(Frame::Error(e), _) => assert_eq!(e, error()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_prefix_is_rejected_before_the_full_header_arrives() {
        // Even one wrong byte of magic fails immediately — a garbage stream
        // must not sit in "incomplete" limbo until the idle reaper.
        match decode(b"HTTP", DEFAULT_MAX_BODY) {
            Decoded::Corrupt(DecodeError::BadMagic) => {}
            other => panic!("{other:?}"),
        }
        match decode(b"R", DEFAULT_MAX_BODY) {
            Decoded::Incomplete { .. } => {}
            other => panic!("valid magic prefix must wait for more: {other:?}"),
        }
    }

    #[test]
    fn bad_version_kind_and_oversize_are_typed() {
        let mut bytes = Frame::Request(request()).encode();
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_BODY),
            Decoded::Corrupt(DecodeError::BadVersion(99))
        ));
        let mut bytes = Frame::Request(request()).encode();
        bytes[5] = 0;
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_BODY),
            Decoded::Corrupt(DecodeError::BadKind(0))
        ));
        // Oversized is judged from the header alone: no body bytes needed.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(FrameKind::Request as u8);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        match decode(&bytes, DEFAULT_MAX_BODY) {
            Decoded::Corrupt(DecodeError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, DEFAULT_MAX_BODY);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hostile_request_bodies_are_typed_errors_not_panics() {
        let hostile: &[&[u8]] = &[
            b"",                          // no fixed fields at all
            b"\0\0\0\0\0\0\0\x01\x07",    // id + bad priority, nothing else
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0not json",
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0[1,2]", // not an object
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0{\"name\":\"q\",\"relations\":[]}",
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0{\"name\":\"q\",\"relations\":[-1]}",
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0{\"name\":\"q\",\"relations\":[1.5]}",
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0{\"name\":\"q\"}",
            b"\0\0\0\0\0\0\0\x01\x00\0\0\0\0\0\0\0\0{\"relations\":[1]}",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for body in hostile {
            let bytes = finish(FrameKind::Request, body.to_vec());
            match decode(&bytes, DEFAULT_MAX_BODY) {
                Decoded::Corrupt(DecodeError::BadBody(_)) => {}
                other => panic!("hostile body {body:?} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn request_query_json_matches_in_process_serialization() {
        // The wire carries exactly serde_json::to_string(&query); a decoded
        // request reconstructs a QuerySpec equal to the original.
        let bytes = Frame::Request(request()).encode();
        let json = serde_json::to_string(&QuerySpec::tpch_q3()).unwrap();
        let tail = &bytes[bytes.len() - json.len()..];
        assert_eq!(tail, json.as_bytes());
    }

    #[test]
    fn fingerprint_tracks_every_request_field() {
        let base = RequestFrame {
            request_id: 9,
            priority: Priority::Standard,
            namespace: 3,
            deadline_ms: 250,
            query: QuerySpec::tpch_q12(),
        };
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let variants = [
            RequestFrame { request_id: 10, ..base.clone() },
            RequestFrame { priority: Priority::Batch, ..base.clone() },
            RequestFrame { namespace: 4, ..base.clone() },
            RequestFrame { deadline_ms: 0, ..base.clone() },
            RequestFrame { query: QuerySpec::tpch_q3(), ..base.clone() },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                base.fingerprint(),
                v.fingerprint(),
                "variant {i} collided with the base fingerprint"
            );
        }
    }

    #[test]
    fn error_codes_roundtrip_and_classify() {
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::Oversized,
            ErrorCode::Torn,
            ErrorCode::BadBody,
            ErrorCode::Overloaded,
            ErrorCode::Draining,
            ErrorCode::WaitTimeout,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(200), None);
        assert!(ErrorCode::Overloaded.retryable());
        assert!(ErrorCode::WaitTimeout.retryable());
        assert!(!ErrorCode::BadBody.retryable());
        assert!(!ErrorCode::BadMagic.retryable());
    }

    // ---- property tests -------------------------------------------------

    fn build_request(
        request_id: u64,
        class: usize,
        namespace: u32,
        deadline_ms: u32,
        rels: Vec<u32>,
    ) -> RequestFrame {
        RequestFrame {
            request_id,
            priority: Priority::ALL[class],
            namespace,
            deadline_ms,
            query: QuerySpec::new(
                format!("q{request_id}"),
                rels.into_iter().map(TableId).collect(),
            ),
        }
    }

    proptest::proptest! {
        fn prop_request_roundtrips(
            request_id in 0u64..u64::MAX,
            class in 0usize..3,
            namespace in 0u32..u32::MAX,
            deadline_ms in 0u32..100_000,
            rels in proptest::collection::vec(0u32..8, 1..6usize),
        ) {
            let req = build_request(request_id, class, namespace, deadline_ms, rels);
            let bytes = req.encode();
            match decode(&bytes, DEFAULT_MAX_BODY) {
                Decoded::Frame(Frame::Request(out), consumed) => {
                    proptest::prop_assert_eq!(consumed, bytes.len());
                    proptest::prop_assert_eq!(out, req);
                }
                other => proptest::prop_assert!(false, "roundtrip failed: {:?}", other),
            }
        }

        fn prop_truncation_at_every_boundary_is_incomplete(
            request_id in 0u64..u64::MAX,
            class in 0usize..3,
            rels in proptest::collection::vec(0u32..8, 1..6usize),
            cut_seed in 0u64..u64::MAX,
        ) {
            let req = build_request(request_id, class, 0, 250, rels);
            let bytes = req.encode();
            let cut = (cut_seed % bytes.len() as u64) as usize;
            match decode(&bytes[..cut], DEFAULT_MAX_BODY) {
                Decoded::Incomplete { needed } => proptest::prop_assert!(needed > cut),
                other => proptest::prop_assert!(false, "cut {}: {:?}", cut, other),
            }
        }

        fn prop_seeded_corruption_never_panics_and_never_lies(
            request_id in 0u64..u64::MAX,
            class in 0usize..3,
            rels in proptest::collection::vec(0u32..8, 1..6usize),
            idx_seed in 0u64..u64::MAX,
            xor in 1u8..=255,
        ) {
            // Flip one byte anywhere in the frame: decode must return
            // *something* sane — a frame (if the flip landed in a don't-care
            // spot like the request id), Corrupt, or Incomplete (the flip
            // grew the length prefix) — and the consumed/needed accounting
            // must stay consistent with the buffer.
            let req = build_request(request_id, class, 3, 250, rels);
            let mut bytes = req.encode();
            let idx = (idx_seed % bytes.len() as u64) as usize;
            bytes[idx] ^= xor;
            match decode(&bytes, DEFAULT_MAX_BODY) {
                Decoded::Frame(_, consumed) => proptest::prop_assert!(consumed <= bytes.len()),
                Decoded::Incomplete { needed } => proptest::prop_assert!(needed > bytes.len()),
                Decoded::Corrupt(_) => {}
            }
        }

        fn prop_random_garbage_never_panics_the_decoder(
            bytes in proptest::collection::vec(0u8..=255, 0..128usize),
        ) {
            // Random bytes must never panic the decoder. (They can only
            // decode as a frame by actually being one — vanishingly
            // unlikely and harmless; corrupt or incomplete are the
            // expected outcomes.)
            let _ = decode(&bytes, DEFAULT_MAX_BODY);
        }
    }
}
