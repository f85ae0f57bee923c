//! Deterministic mutation fuzz of the checkpoint loader, the other trust
//! boundary: a cache-bank file may be torn by a crash, edited by hand or
//! written by another build. Each test starts from a corpus of valid
//! checkpoints — stamped and unstamped, one to three resource dimensions,
//! empty and non-empty — and feeds [`ShardedCacheBank::from_json`] a few
//! thousand seeded mutants of one class. Every mutant loads as a bank or
//! fails as [`PersistError::Corrupt`]; a panic fails the run.

use raqo_resource::{PersistError, ResourceConfig, ShardedCacheBank, MAX_DIMS};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Mutants per test and mutation class.
const MUTANTS: usize = 4000;

/// The cost-model fingerprint stamped into the stamped documents.
const FINGERPRINT: u64 = 0xfeed_beef;

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

/// `from_json` into one shard, the shard count whose checkpoint lists the
/// member caches in key order.
fn from_json(text: &str, expected: Option<u64>) -> Result<(ShardedCacheBank, bool), PersistError> {
    ShardedCacheBank::from_json(text, 1, expected)
}

/// A checkpoint file in the temporary directory that no other call uses:
/// the tests of this binary run side by side.
fn scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("raqo_checkpoint_fuzz_{}_{n}.json", std::process::id()))
}

/// `bank`'s checkpoint, as text.
fn checkpoint(bank: &ShardedCacheBank, fingerprint: Option<u64>) -> String {
    let path = scratch();
    match fingerprint {
        Some(fp) => bank.checkpoint_with_fingerprint(&path, fp),
        None => bank.checkpoint(&path),
    }
    .expect("the temporary directory is writable");
    let text = std::fs::read_to_string(&path).expect("a checkpoint reads back");
    std::fs::remove_file(&path).ok();
    text
}

/// Valid documents: a stamped multi-cache bank, the same bank unstamped,
/// an empty bank, and a stamped bank of one longer cache.
fn corpus() -> Vec<String> {
    let bank = ShardedCacheBank::with_shards(4);
    let entries: [(u32, u32, f64, &[f64]); 6] = [
        (0, 0, 0.5, &[10.0, 3.0]),
        (0, 0, 2.25, &[40.0, 8.0]),
        (0, 0, 17.0, &[100.0, 1.0]),
        (0, 1, -7.25, &[4.0]),
        (0, 1, 1e-9, &[1.0]),
        (3, 2, 1.0, &[20.0, 4.0, 2.0]),
    ];
    for (model, operator, key, config) in entries {
        bank.insert(model, operator, key, ResourceConfig::from_slice(config));
    }
    let long = ShardedCacheBank::with_shards(1);
    for i in 0..16 {
        let key = 0.1 * f64::from(i * i);
        long.insert(1, 0, key, ResourceConfig::containers_and_size(f64::from(5 * i + 1), 2.0));
    }
    vec![
        checkpoint(&bank, Some(FINGERPRINT)),
        checkpoint(&bank, None),
        checkpoint(&ShardedCacheBank::with_shards(1), None),
        checkpoint(&long, Some(FINGERPRINT)),
    ]
}

/// Load `text` as a checkpoint expecting `fingerprint`: a bank, or a
/// typed corruption error. A bank that was not discarded as stale
/// checkpoints to a document that loads back to the same checkpoint.
fn assert_loads_or_corrupt(text: &str, fingerprint: Option<u64>) {
    match from_json(text, fingerprint) {
        Ok((bank, true)) => assert_eq!(bank.total_entries(), 0, "a stale bank comes back empty"),
        Ok((bank, false)) => {
            let rendered = checkpoint(&bank, None);
            let (again, _) = from_json(&rendered, None).expect("a loaded bank reloads");
            assert_eq!(checkpoint(&again, None), rendered);
        }
        Err(PersistError::Corrupt { quarantined: None, .. }) => {}
        Err(e) => panic!("{e:?} for {text:?}"),
    }
}

/// Expect the stamp on even rounds, nothing on odd ones.
fn expected(round: usize) -> Option<u64> {
    round.is_multiple_of(2).then_some(FINGERPRINT)
}

#[test]
fn bit_flipped_checkpoints_load_or_fail_as_corrupt() {
    let corpus = corpus();
    let mut rng = Mutator(0x00C0_FFEE);
    for round in 0..MUTANTS {
        let mut bytes = corpus[rng.below(corpus.len())].clone().into_bytes();
        for _ in 0..1 + rng.below(3) {
            let i = rng.below(bytes.len());
            // The low seven bits: the file stays ASCII, so the text path
            // (not the UTF-8 check in front of it) sees the mutant.
            bytes[i] ^= 1 << rng.below(7);
        }
        let text = String::from_utf8(bytes).expect("ASCII");
        assert_loads_or_corrupt(&text, expected(round));
    }
}

#[test]
fn every_truncated_checkpoint_is_corrupt() {
    let mut prefixes = 0;
    for (i, doc) in corpus().iter().enumerate() {
        // Cutting only the trailing newline leaves the whole document.
        for cut in 0..doc.trim_end().len() {
            for fingerprint in [None, Some(FINGERPRINT)] {
                match from_json(&doc[..cut], fingerprint) {
                    Err(PersistError::Corrupt { .. }) => {}
                    other => panic!("doc {i} cut at {cut}: {other:?}"),
                }
                prefixes += 1;
            }
        }
    }
    assert!(prefixes >= MUTANTS, "{prefixes} prefixes");
}

#[test]
fn spliced_checkpoints_load_or_fail_as_corrupt() {
    let corpus = corpus();
    let mut rng = Mutator(0x0591_1CE5);
    for round in 0..MUTANTS {
        let a = &corpus[rng.below(corpus.len())];
        let b = &corpus[rng.below(corpus.len())];
        let (i, j) = (rng.below(a.len()), rng.below(b.len()));
        let text = if round % 2 == 0 {
            // The head of one document on the tail of another.
            format!("{}{}", &a[..i], &b[j..])
        } else {
            // A slice of one document pasted into another.
            let to = j + rng.below(b.len() - j + 1);
            format!("{}{}{}", &a[..i], &b[j..to], &a[i..])
        };
        assert_loads_or_corrupt(&text, expected(round));
    }
    // A hundred thousand nested arrays where the caches go: a typed error,
    // not a stack overflow.
    let deep = format!(r#"{{"version": 1, "caches": {}}}"#, "[".repeat(100_000));
    assert!(matches!(from_json(&deep, None), Err(PersistError::Corrupt { .. })));
}

/// A one-entry document with the given tokens in its numeric fields.
fn document(version: &str, model: &str, operator: &str, key: &str, coordinate: &str) -> String {
    format!(
        r#"{{"version": {version}, "caches": [{{"model": {model}, "operator": {operator},
            "entries": [[{key}, [{coordinate}, 4]]]}}]}}"#
    )
}

#[test]
fn numeric_fields_out_of_range_are_corrupt() {
    // Whether `token` is a valid value of each field: the version is
    // exactly 1; a model or operator id a whole number in u32 range; a key
    // any finite number; a coordinate a finite, non-negative amount.
    type Field = fn(f64) -> bool;
    let fields: [(&str, Field); 5] = [
        ("version", |n| n == 1.0),
        ("model", |n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n)),
        ("operator", |n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n)),
        ("key", f64::is_finite),
        ("coordinate", |n| n.is_finite() && n >= 0.0),
    ];
    let fixed =
        ["-1", "-0.5", "0", "1", "1.5", "4294967295", "4294967296", "1e300", "1e999", "-1e999"];
    let mut rng = Mutator(0x1E17_6745);
    for round in 0..MUTANTS {
        let token = match fixed.get(round / fields.len()) {
            Some(token) => token.to_string(),
            // After every fixed token in every field, random numbers:
            // integers either side of the u32 range, fractions, and
            // exponents past the f64 range.
            None => {
                let sign = if rng.below(3) == 0 { "-" } else { "" };
                let mantissa = rng.next() >> rng.below(64);
                match rng.below(3) {
                    0 => format!("{sign}{mantissa}"),
                    1 => format!("{sign}{mantissa}.{}", rng.below(1000)),
                    _ => format!("{sign}{mantissa}e{}", rng.below(700)),
                }
            }
        };
        let n: f64 = token.parse().expect("a JSON number");
        let (field, valid) = fields[round % fields.len()];
        let mut tokens = ["1", "0", "2", "2.5", "10"];
        tokens[round % fields.len()] = &token;
        let [version, model, operator, key, coordinate] = tokens;
        let text = document(version, model, operator, key, coordinate);
        match from_json(&text, None) {
            Ok(_) if valid(n) => {}
            Err(PersistError::Corrupt { .. }) if !valid(n) => {}
            other => panic!("{field} = {token}: {other:?}"),
        }
    }
    // What JSON cannot say at all is corrupt too: NaN, infinities, strings
    // and nulls where a number belongs.
    for token in ["NaN", "Infinity", "-Infinity", "null", "\"1\""] {
        for i in 0..fields.len() {
            let mut tokens = ["1", "0", "2", "2.5", "10"];
            tokens[i] = token;
            let [version, model, operator, key, coordinate] = tokens;
            let text = document(version, model, operator, key, coordinate);
            assert!(
                matches!(from_json(&text, None), Err(PersistError::Corrupt { .. })),
                "{} = {token}",
                fields[i].0
            );
        }
    }
}

#[test]
fn inserted_and_deleted_bytes_load_or_fail_as_corrupt() {
    let corpus = corpus();
    let mut rng = Mutator(0x1D5E_7ED0);
    // Bytes a hand edit or a torn write tends to leave behind.
    let stray = b"0123456789-+.eE,:[]{}\" \nx";
    for round in 0..MUTANTS {
        let mut bytes = corpus[rng.below(corpus.len())].clone().into_bytes();
        for _ in 0..1 + rng.below(3) {
            if rng.below(2) == 0 && !bytes.is_empty() {
                // Delete a run of up to 8 bytes.
                let at = rng.below(bytes.len());
                let to = (at + 1 + rng.below(8)).min(bytes.len());
                bytes.drain(at..to);
            } else {
                let at = rng.below(bytes.len() + 1);
                bytes.insert(at, stray[rng.below(stray.len())]);
            }
        }
        let text = String::from_utf8(bytes).expect("ASCII");
        assert_loads_or_corrupt(&text, expected(round));
    }
}

/// A one-cache, one-entry document, with field `drop` left out if given.
fn document_without(drop: Option<&str>) -> String {
    let cache: Vec<String> = [("model", "0"), ("operator", "2"), ("entries", "[[2.5, [10, 4]]]")]
        .iter()
        .filter(|(name, _)| Some(*name) != drop)
        .map(|(name, value)| format!(r#""{name}": {value}"#))
        .collect();
    let cache = format!("{{{}}}", cache.join(", "));
    let top: Vec<String> = [("version", "1".to_string()), ("caches", format!("[{cache}]"))]
        .iter()
        .filter(|(name, _)| Some(*name) != drop)
        .map(|(name, value)| format!(r#""{name}": {value}"#))
        .collect();
    format!("{{{}}}", top.join(", "))
}

#[test]
fn a_checkpoint_missing_a_required_field_is_corrupt() {
    let whole = document_without(None);
    let (bank, stale) = from_json(&whole, None).expect("the whole document loads");
    assert_eq!((bank.total_entries(), stale), (1, false));
    for field in ["version", "caches", "model", "operator", "entries"] {
        match from_json(&document_without(Some(field)), None) {
            Err(PersistError::Corrupt { msg, quarantined: None }) => {
                assert!(msg.contains(field), "{field}: {msg}");
            }
            other => panic!("without {field}: {other:?}"),
        }
    }
    // The fingerprint is the one optional field: a document without it is
    // a legacy file, stale under an expected fingerprint, never corrupt.
    let (bank, stale) = from_json(&whole, Some(FINGERPRINT)).expect("loads");
    assert_eq!((bank.total_entries(), stale), (0, true));
}

#[test]
fn containers_of_the_wrong_shape_are_corrupt() {
    let with = |caches: &str| format!(r#"{{"version": 1, "caches": {caches}}}"#);
    let with_entries = |entries: &str| {
        with(&format!(r#"[{{"model": 0, "operator": 1, "entries": {entries}}}]"#))
    };
    let coords = |n: usize| with_entries(&format!("[[2.5, [{}]]]", vec!["3"; n].join(", ")));
    let mut bad = vec![
        // The document, the caches list and a cache of the wrong type.
        "[]".to_string(),
        "1".to_string(),
        r#""caches""#.to_string(),
        "null".to_string(),
        with("{}"),
        with("7"),
        with(r#""[]""#),
        with("[[]]"),
        with("[1]"),
        // Entries that are not a list of [key, config] pairs.
        with_entries("{}"),
        with_entries("[7]"),
        with_entries("[[]]"),
        with_entries("[[2.5]]"),
        with_entries("[[2.5, [3], 1]]"),
        with_entries("[[[2.5], [3]]]"),
        with_entries("[[2.5, 3]]"),
        with_entries(r#"[[2.5, {"containers": 3}]]"#),
        with_entries("[[2.5, [[3]]]]"),
    ];
    // A configuration has 1 to MAX_DIMS coordinates.
    bad.push(coords(0));
    bad.push(coords(MAX_DIMS + 1));
    for text in &bad {
        match from_json(text, None) {
            Err(PersistError::Corrupt { quarantined: None, .. }) => {}
            other => panic!("{text}: {other:?}"),
        }
    }
    for n in [1, MAX_DIMS] {
        let (bank, _) = from_json(&coords(n), None).expect("a valid config loads");
        assert_eq!(bank.total_entries(), 1, "{n} coordinates");
    }
    let (empty, _) = from_json(&with("[]"), None).expect("no caches is a bank");
    assert_eq!(empty.total_entries(), 0);
}
