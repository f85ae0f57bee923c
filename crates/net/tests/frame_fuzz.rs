//! Deterministic mutation fuzz of the frame decoder, the server's trust
//! boundary: every byte of a frame comes from the peer. Each test starts
//! from a corpus of valid frames — requests, a reply carrying a real plan,
//! errors — and feeds [`decode`] a few thousand seeded mutants of one
//! class. The decoder must answer each with a frame, "incomplete", or a
//! typed error; a panic (or a stack overflow) fails the run.

use raqo_catalog::tpch::TpchSchema;
use raqo_catalog::{QuerySpec, TableId};
use raqo_core::{PlannerKind, Priority, RaqoOptimizer, ResourceStrategy};
use raqo_cost::SimOracleCost;
use raqo_net::{
    decode, DecodeError, Decoded, ErrorCode, ErrorFrame, Frame, FrameKind, ReplyFrame,
    RequestFrame, DEFAULT_MAX_BODY, HEADER_LEN,
};
use raqo_resource::ClusterConditions;

/// Mutants per test and mutation class.
const MUTANTS: usize = 4000;

/// splitmix64: a seeded, dependency-free stream, so every run draws the
/// same mutants.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Valid frames of every kind: requests of each priority, replies holding
/// two real plans' JSON and one holding `null`, and error frames.
fn corpus() -> Vec<Vec<u8>> {
    let schema = TpchSchema::new(1.0);
    let model = SimOracleCost::hive();
    let mut opt = RaqoOptimizer::new(
        &schema.catalog,
        &schema.graph,
        &model,
        ClusterConditions::paper_default(),
        PlannerKind::Selinger,
        ResourceStrategy::HillClimb,
    );
    let mut plan_json = |query: &QuerySpec| {
        let plan = opt.optimize(query).expect("TPC-H plans");
        serde_json::to_string(&plan).expect("plan serializes")
    };
    let (q3, all) = (plan_json(&QuerySpec::tpch_q3()), plan_json(&QuerySpec::tpch_all(&schema)));
    let request = |request_id, priority, query: QuerySpec| {
        RequestFrame { request_id, priority, namespace: 7, deadline_ms: 250, query }.encode()
    };
    let reply = |request_id, plan_json: &str| {
        ReplyFrame {
            request_id,
            trace_id: 0xfeed_f00d,
            flags: 0,
            queue_wait_us: 12,
            service_us: 345,
            plan_json: plan_json.to_string(),
        }
        .encode()
    };
    vec![
        request(1, Priority::Interactive, QuerySpec::tpch_q3()),
        request(2, Priority::Standard, QuerySpec::tpch_q12()),
        request(u64::MAX, Priority::Batch, QuerySpec::tpch_all(&schema)),
        reply(3, &q3),
        reply(4, "null"),
        reply(6, &all),
        ErrorFrame { request_id: 5, code: ErrorCode::Overloaded, message: "busy".into() }.encode(),
        ErrorFrame { request_id: 0, code: ErrorCode::BadBody, message: String::new() }.encode(),
    ]
}

/// The first frame of `kind` (its header's kind byte) in `corpus`.
fn of_kind(corpus: &[Vec<u8>], kind: FrameKind) -> &[u8] {
    corpus.iter().find(|f| f[5] == kind as u8).expect("the corpus holds every kind")
}

/// The body length a header announces.
fn announced(buf: &[u8]) -> usize {
    u32::from_be_bytes(buf[6..10].try_into().unwrap()) as usize
}

/// `buf` decodes to one of the three outcomes, and each is honest: a frame
/// consumed exactly what its header announced and survives a re-encode,
/// "incomplete" asks for more than is there, an error has a wire code.
fn assert_typed(buf: &[u8], max_body: usize) {
    match decode(buf, max_body) {
        Decoded::Frame(frame, consumed) => {
            assert_eq!(consumed, HEADER_LEN + announced(buf), "{buf:?}");
            assert!(consumed <= buf.len());
            let again = frame.encode();
            match decode(&again, DEFAULT_MAX_BODY) {
                Decoded::Frame(twin, n) => {
                    assert_eq!(twin, frame);
                    assert_eq!(n, again.len());
                }
                other => panic!("a decoded frame re-encodes to {other:?}"),
            }
        }
        Decoded::Incomplete { needed } => assert!(needed > buf.len(), "{needed} for {buf:?}"),
        Decoded::Corrupt(e) => {
            let _ = (e.code(), e.to_string());
        }
    }
}

#[test]
fn bit_flipped_frames_decode_to_a_frame_or_a_typed_error() {
    let corpus = corpus();
    let mut rng = Mutator(0xB17_F11B);
    for _ in 0..MUTANTS {
        let mut buf = corpus[rng.below(corpus.len())].clone();
        for _ in 0..1 + rng.below(4) {
            let i = rng.below(buf.len());
            buf[i] ^= 1 << rng.below(8);
        }
        assert_typed(&buf, DEFAULT_MAX_BODY);
    }
}

#[test]
fn every_strict_prefix_of_a_frame_is_incomplete() {
    let mut prefixes = 0;
    for frame in corpus() {
        for cut in 0..frame.len() {
            let want = if cut < HEADER_LEN { HEADER_LEN } else { frame.len() };
            match decode(&frame[..cut], DEFAULT_MAX_BODY) {
                Decoded::Incomplete { needed } => assert_eq!(needed, want, "cut {cut}"),
                other => panic!("prefix of {cut} bytes decoded to {other:?}"),
            }
            prefixes += 1;
        }
    }
    assert!(prefixes >= MUTANTS, "{prefixes} prefixes");
}

#[test]
fn spliced_frames_decode_to_a_frame_or_a_typed_error() {
    let corpus = corpus();
    let mut rng = Mutator(0x0059_11CE);
    for round in 0..MUTANTS {
        let a = &corpus[rng.below(corpus.len())];
        let b = &corpus[rng.below(corpus.len())];
        let buf = match round % 3 {
            // The head of one frame on the tail of another.
            0 => [&a[..rng.below(a.len())], &b[rng.below(b.len())..]].concat(),
            // A slice of one frame pasted into another.
            1 => {
                let (at, from) = (rng.below(a.len()), rng.below(b.len()));
                let to = from + rng.below(b.len() - from + 1);
                [&a[..at], &b[from..to], &a[at..]].concat()
            }
            // Whole frames back to back: each decodes in turn, then the
            // empty rest waits for a header.
            _ => {
                let mut stream = [a.as_slice(), b].concat();
                for want in [a, b] {
                    match decode(&stream, DEFAULT_MAX_BODY) {
                        Decoded::Frame(frame, n) => {
                            assert_eq!(n, want.len());
                            assert_eq!(frame.encode(), *want);
                            stream.drain(..n);
                        }
                        other => panic!("back-to-back frames decoded to {other:?}"),
                    }
                }
                stream
            }
        };
        assert_typed(&buf, DEFAULT_MAX_BODY);
    }
    // A body that opens a hundred thousand JSON arrays: deep nesting is a
    // typed error, not a stack overflow on the event loop's thread.
    // (The request's binary fields take 17 bytes, the reply's 41.)
    for (kind, fixed) in [(FrameKind::Request, 17), (FrameKind::Reply, 41)] {
        let frame = of_kind(&corpus, kind);
        let mut body = frame[HEADER_LEN..HEADER_LEN + fixed].to_vec();
        body.extend(std::iter::repeat_n(b'[', 100_000));
        let buf = [&with_length(&frame[..HEADER_LEN], body.len() as u32)[..], &body].concat();
        match decode(&buf, DEFAULT_MAX_BODY) {
            Decoded::Corrupt(DecodeError::BadBody(_)) => {}
            other => panic!("deeply nested JSON decoded to {other:?}"),
        }
    }
}

/// `buf` with its announced body length set to `len`.
fn with_length(buf: &[u8], len: u32) -> Vec<u8> {
    let mut out = buf.to_vec();
    out[6..10].copy_from_slice(&len.to_be_bytes());
    out
}

/// A request frame whose query JSON lists `relation` as its one table id.
fn request_naming(relation: &str) -> Vec<u8> {
    let good = RequestFrame {
        request_id: 9,
        priority: Priority::Standard,
        namespace: 0,
        deadline_ms: 0,
        query: QuerySpec::new("q", vec![TableId(1)]),
    }
    .encode();
    let json = format!(r#"{{"name":"q","relations":[{relation}]}}"#);
    let body = [&good[HEADER_LEN..HEADER_LEN + 17], json.as_bytes()].concat();
    [&with_length(&good[..HEADER_LEN], body.len() as u32)[..], &body].concat()
}

#[test]
fn length_and_numeric_fields_are_checked() {
    let corpus = corpus();
    let mut rng = Mutator(0x1E17_6745);
    for _ in 0..MUTANTS {
        let frame = &corpus[rng.below(corpus.len())];
        let max_body = 1 + rng.below(4096);
        let len = max_body as u32 + 1 + (rng.next() % u64::from(u32::MAX - max_body as u32)) as u32;
        // Oversized from the header alone: no body needs to arrive.
        let header = with_length(&frame[..HEADER_LEN], len);
        match decode(&header, max_body) {
            Decoded::Corrupt(DecodeError::Oversized { len: got, max }) => {
                assert_eq!((got, max), (len as usize, max_body));
            }
            other => panic!("length {len} over {max_body} decoded to {other:?}"),
        }
        // Within the bound, a length past the bytes waits for them; one
        // short of the body cuts it, which decodes or fails typed.
        let body = frame.len() - HEADER_LEN;
        let longer = with_length(frame, (body + 1 + rng.below(1000)) as u32);
        match decode(&longer, DEFAULT_MAX_BODY) {
            Decoded::Incomplete { needed } => assert_eq!(needed, HEADER_LEN + announced(&longer)),
            other => panic!("an over-long length decoded to {other:?}"),
        }
        assert_typed(&with_length(frame, rng.below(body) as u32), DEFAULT_MAX_BODY);
    }

    // The priority and error-code bytes take only their listed values.
    for byte in 0..=u8::MAX {
        let mut request = of_kind(&corpus, FrameKind::Request).to_vec();
        request[HEADER_LEN + 8] = byte;
        let mut error = of_kind(&corpus, FrameKind::Error).to_vec();
        error[HEADER_LEN + 8] = byte;
        for (buf, valid) in [(request, byte < 3), (error, (1..=9).contains(&byte))] {
            match decode(&buf, DEFAULT_MAX_BODY) {
                Decoded::Frame(..) if valid => {}
                Decoded::Corrupt(DecodeError::BadBody(_)) if !valid => {}
                other => panic!("byte {byte}: {other:?}"),
            }
        }
    }

    // Table ids are whole numbers in u32 range; NaN, infinities, huge,
    // negative and fractional ids are typed errors.
    for bad in ["NaN", "Infinity", "1e999", "-1e999", "1e300", "4294967296", "-1", "-0.5", "1.5"] {
        match decode(&request_naming(bad), DEFAULT_MAX_BODY) {
            Decoded::Corrupt(DecodeError::BadBody(_)) => {}
            other => panic!("relation id {bad} decoded to {other:?}"),
        }
    }
    for (good, id) in [("0", 0), ("4294967295", u32::MAX), ("3e0", 3)] {
        match decode(&request_naming(good), DEFAULT_MAX_BODY) {
            Decoded::Frame(Frame::Request(r), _) => assert_eq!(r.query.relations, [TableId(id)]),
            other => panic!("relation id {good} decoded to {other:?}"),
        }
    }
}

/// The JSON parser under the decoder takes nesting up to the real
/// serde_json's limit of 128 levels and refuses one more, whatever mix of
/// arrays and objects opens them.
#[test]
fn json_nesting_is_capped_at_128_levels() {
    for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
        for (depth, parses) in [(1, true), (128, true), (129, false), (4096, false)] {
            let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
            let parsed = serde_json::from_str(&text);
            assert_eq!(parsed.is_ok(), parses, "{open} × {depth}: {parsed:?}");
        }
    }
    let mixed = format!("{}0{}", r#"[{"a":"#.repeat(65), "}]".repeat(65));
    assert!(serde_json::from_str(&mixed).is_err(), "130 mixed levels");
}

#[test]
fn inserted_and_deleted_bytes_decode_to_a_frame_or_a_typed_error() {
    let corpus = corpus();
    let mut rng = Mutator(0x1D5E_7ED0);
    for _ in 0..MUTANTS {
        let mut buf = corpus[rng.below(corpus.len())].clone();
        for _ in 0..1 + rng.below(3) {
            if rng.below(2) == 0 && !buf.is_empty() {
                // Delete a run of up to 8 bytes: the body no longer fills
                // what the header announces, or the header itself shifts.
                let at = rng.below(buf.len());
                let to = (at + 1 + rng.below(8)).min(buf.len());
                buf.drain(at..to);
            } else {
                let at = rng.below(buf.len() + 1);
                buf.insert(at, rng.next() as u8);
            }
        }
        assert_typed(&buf, DEFAULT_MAX_BODY);
    }
}

/// Every value of the magic, version and kind bytes, in every frame of
/// the corpus and in a header cut short just after the byte: the original
/// value decodes, any other is named by its own typed error — from the
/// bytes that have arrived, without waiting for the rest.
#[test]
fn every_value_of_every_fixed_header_byte_is_checked() {
    for frame in corpus() {
        for at in 0..6 {
            for byte in 0..=u8::MAX {
                let mut buf = frame.clone();
                buf[at] = byte;
                let decoded = decode(&buf, DEFAULT_MAX_BODY);
                if byte == frame[at] {
                    assert!(matches!(decoded, Decoded::Frame(..)), "byte {at} = {byte}");
                    continue;
                }
                match (at, decoded) {
                    (0..=3, Decoded::Corrupt(DecodeError::BadMagic)) => {}
                    (4, Decoded::Corrupt(DecodeError::BadVersion(v))) => assert_eq!(v, byte),
                    (5, Decoded::Corrupt(DecodeError::BadKind(k))) => {
                        assert_eq!(k, byte);
                        assert!(!(1..=3).contains(&byte), "kind {byte} is a real kind");
                    }
                    // Another real kind reads this body as its own: a
                    // frame of that kind or a typed body error.
                    (5, Decoded::Frame(f, _)) => assert_eq!(f.encode()[5], byte),
                    (5, Decoded::Corrupt(DecodeError::BadBody(_))) => {
                        assert!((1..=3).contains(&byte), "kind {byte}");
                    }
                    (_, other) => panic!("byte {at} = {byte}: {other:?}"),
                }
                // A bad magic byte fails the stream before the header is whole.
                if at < 4 {
                    let torn = &buf[..at + 1];
                    let failed = matches!(decode(torn, DEFAULT_MAX_BODY), Decoded::Corrupt(_));
                    assert!(failed, "{at}-byte prefix with byte {byte}");
                }
            }
        }
    }
}
