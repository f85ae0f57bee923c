//! Cache-bank persistence: save/load a [`CacheBank`] as versioned JSON so
//! `repro` sweeps can warm-start across processes (the Fig. 15(b)
//! across-query caching mode, extended across process lifetimes).
//!
//! Format (version 1):
//!
//! ```json
//! {
//!   "version": 1,
//!   "caches": [
//!     {"model": 0, "operator": 0, "entries": [[3.4, [10, 3]], ...]},
//!     ...
//!   ]
//! }
//! ```
//!
//! Keys and configuration coordinates are `f64`s rendered with Rust's
//! shortest-repr `Display` (integral values as integers), which parses back
//! to the identical bits — a reloaded bank answers exact-match lookups
//! byte-for-byte like the bank that was saved. Hit/miss/insertion statistics
//! are *not* persisted; a loaded bank starts with fresh counters.

use crate::cache::{CacheBank, ResourcePlanCache};
use crate::config::{ResourceConfig, MAX_DIMS};
use serde::Value;
use std::fmt::Write;
use std::io;
use std::path::{Path, PathBuf};

/// Current on-disk format version.
pub const FORMAT_VERSION: u64 = 1;

/// Typed persistence failure. Truncated, garbage, or wrong-shape JSON is
/// always reported as [`PersistError::Corrupt`] — never a panic — and the
/// file-loading entry points quarantine the offending file by renaming it
/// to `<name>.corrupt` so it can be inspected instead of silently
/// re-parsed (and re-failed) on every warm start.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error (missing file, permissions, ...).
    Io(io::Error),
    /// The content is not a valid version-1 cache-bank document.
    Corrupt {
        /// What was wrong with the document.
        msg: String,
        /// Where the bad file was moved, when loading from disk and the
        /// quarantine rename succeeded.
        quarantined: Option<PathBuf>,
    },
}

impl PersistError {
    fn corrupt(msg: &str) -> PersistError {
        PersistError::Corrupt { msg: msg.to_string(), quarantined: None }
    }

    /// True for content-level corruption (as opposed to I/O failure).
    pub fn is_corrupt(&self) -> bool {
        matches!(self, PersistError::Corrupt { .. })
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache bank file: {e}"),
            PersistError::Corrupt { msg, quarantined: None } => {
                write!(f, "cache bank file: {msg}")
            }
            PersistError::Corrupt { msg, quarantined: Some(q) } => {
                write!(f, "cache bank file: {msg} (quarantined to {})", q.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Render `bank` as the version-1 JSON document without a model
/// fingerprint (legacy writer; loads under any model).
pub fn bank_to_json(bank: &CacheBank) -> String {
    bank_to_json_with(bank, None)
}

/// Render `bank` as the version-1 JSON document, optionally stamping the
/// cost-model fingerprint into the header. Cached resource plans are only
/// as good as the model that priced them — a stamped file is invalidated
/// on load when the model has retrained (fingerprint mismatch).
pub fn bank_to_json_with(bank: &CacheBank, model_fingerprint: Option<u64>) -> String {
    document_from_fragments([caches_fragment(bank).as_str()], model_fingerprint)
}

/// One member cache as its `caches[]` array element: the `Value`-tree
/// rendition [`write_cache`] must reproduce byte for byte.
#[cfg(test)]
fn cache_value(model: u32, operator: u32, cache: &ResourcePlanCache) -> Value {
    let entries: Vec<Value> = cache
        .entries()
        .iter()
        .map(|(key, cfg)| {
            let coords: Vec<Value> = (0..cfg.dims()).map(|i| Value::Num(cfg.get(i))).collect();
            Value::Array(vec![Value::Num(*key), Value::Array(coords)])
        })
        .collect();
    Value::Object(vec![
        ("model".to_string(), Value::Num(model as f64)),
        ("operator".to_string(), Value::Num(operator as f64)),
        ("entries".to_string(), Value::Array(entries)),
    ])
}

/// Stream one member cache into `out` as its `caches[]` array element.
/// The `caches` array sits at depth 1 of the document, so the element
/// renders at depth 2 behind a 4-space pad: exactly the bytes
/// `serde::write_value` renders the equivalent `Value` tree to at that
/// depth, without building the tree. (A configuration has 1 to
/// [`MAX_DIMS`](crate::config::MAX_DIMS) coordinates, so its array is
/// never the empty `[]`.)
pub(crate) fn write_cache(out: &mut String, model: u32, operator: u32, cache: &ResourcePlanCache) {
    // The one number rule (integral values as integers, non-finite as
    // `null`) stays in `serde`.
    use serde::write_num as num;
    // `write!` into a `String` cannot fail.
    let _ = write!(
        out,
        "    {{\n      \"model\": {model},\n      \"operator\": {operator},\n      \"entries\": ["
    );
    if cache.is_empty() {
        out.push_str("]\n    }");
        return;
    }
    for (i, (key, cfg)) in cache.entries().iter().enumerate() {
        out.push_str(if i == 0 { "\n        [\n          " } else { ",\n        [\n          " });
        num(out, *key);
        out.push_str(",\n          [");
        for (d, coord) in cfg.as_slice().iter().enumerate() {
            out.push_str(if d == 0 { "\n            " } else { ",\n            " });
            num(out, *coord);
        }
        out.push_str("\n          ]\n        ]");
    }
    out.push_str("\n      ]\n    }");
}

/// Render `bank`'s member caches as a pre-indented, comma-joined run of
/// `caches[]` array elements (empty string for an empty bank). Fragments
/// from disjoint banks concatenate into one document via
/// [`document_from_fragments`] — the sharded bank keeps one single-cache
/// fragment per member cache and re-renders only the caches whose content
/// changed since the last checkpoint.
pub(crate) fn caches_fragment(bank: &CacheBank) -> String {
    let mut out = String::new();
    for (i, (&(model, operator), cache)) in bank.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write_cache(&mut out, model, operator, cache);
    }
    out
}

/// Assemble the version-1 document from pre-rendered [`caches_fragment`]
/// runs, in one buffer sized up front. With a single whole-bank fragment
/// this is byte-identical to the historical writer; with per-cache
/// fragments in shard order the element order follows shard order instead
/// of global key order, which loads identically (parsing is
/// order-independent).
pub(crate) fn document_from_fragments<I>(fragments: I, model_fingerprint: Option<u64>) -> String
where
    I: IntoIterator,
    I::IntoIter: Clone,
    I::Item: AsRef<str>,
{
    let live = fragments.into_iter().filter(|f| !f.as_ref().is_empty());
    // Header and footer are under 100 bytes; each fragment brings a
    // two-byte separator.
    let body: usize = live.clone().map(|f| f.as_ref().len() + 2).sum();
    let mut out = String::with_capacity(body + 100);
    // `write!` into a `String` cannot fail.
    let _ = write!(out, "{{\n  \"version\": {FORMAT_VERSION},");
    if let Some(fp) = model_fingerprint {
        // Hex string, not a number: the JSON number space is f64 (53-bit
        // mantissa) and cannot hold a 64-bit fingerprint losslessly.
        let _ = write!(out, "\n  \"model_fingerprint\": \"{fp:016x}\",");
    }
    out.push_str("\n  \"caches\": [");
    let mut any = false;
    for fragment in live {
        out.push_str(if any { ",\n" } else { "\n" });
        out.push_str(fragment.as_ref());
        any = true;
    }
    out.push_str(if any { "\n  ]\n}\n" } else { "]\n}\n" });
    out
}

/// `<path><suffix>`: a file beside `path`, named after it.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Replace `path` with `bytes` in one step: write `<path>.tmp` beside it,
/// then rename over it, so a reader — or a restart after a crash mid-write
/// — finds the previous file or the new one, never a torn one. On failure
/// `path` is untouched and the temporary is removed. Not `fsync`ed: losing
/// the newest checkpoint to a power cut costs a cold start, nothing else.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = sibling(path, ".tmp");
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn bad(msg: &str) -> PersistError {
    PersistError::corrupt(msg)
}

fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, PersistError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| bad(&format!("missing field `{name}`")))
}

fn as_num(v: &Value, what: &str) -> Result<f64, PersistError> {
    match v {
        Value::Num(n) => Ok(*n),
        _ => Err(bad(&format!("{what} is not a number"))),
    }
}

/// A cache id: a whole number that fits a `u32` (`as` would saturate a
/// negative, fractional or huge one into some other cache's id).
fn as_id(v: &Value, what: &str) -> Result<u32, PersistError> {
    let n = as_num(v, what)?;
    if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
        Ok(n as u32)
    } else {
        Err(bad(&format!("{what} {n} is not a u32")))
    }
}

/// Parse the `model_fingerprint` header of a version-1 document, if
/// present (files written before fingerprint stamping have none).
pub fn json_fingerprint(text: &str) -> Result<Option<u64>, PersistError> {
    let doc = serde_json::from_str(text).map_err(|e| bad(&e.to_string()))?;
    let Value::Object(top) = &doc else {
        return Err(bad("top level is not an object"));
    };
    match top.iter().find(|(k, _)| k == "model_fingerprint") {
        None => Ok(None),
        Some((_, Value::String(s))) => u64::from_str_radix(s, 16)
            .map(Some)
            .map_err(|_| bad("model_fingerprint is not a hex u64")),
        Some(_) => Err(bad("model_fingerprint is not a string")),
    }
}

/// Parse a version-1 document, enforcing the model fingerprint when the
/// caller expects one. Returns `(bank, invalidated)`: on mismatch — a file
/// stamped with a *different* fingerprint, or an unstamped legacy file
/// when a fingerprint is expected — the stale entries are discarded and an
/// empty bank comes back with `invalidated = true`. The file itself is
/// untouched; the next save overwrites it with freshly stamped entries.
pub fn bank_from_json_checked(
    text: &str,
    expected_fingerprint: Option<u64>,
) -> Result<(CacheBank, bool), PersistError> {
    if let Some(expected) = expected_fingerprint {
        if json_fingerprint(text)? != Some(expected) {
            return Ok((CacheBank::new(), true));
        }
    }
    Ok((bank_from_json(text)?, false))
}

/// Parse the version-1 JSON document back into a [`CacheBank`].
pub fn bank_from_json(text: &str) -> Result<CacheBank, PersistError> {
    let doc = serde_json::from_str(text).map_err(|e| bad(&e.to_string()))?;
    let Value::Object(top) = &doc else {
        return Err(bad("top level is not an object"));
    };
    let version = as_num(field(top, "version")?, "version")?;
    if version != FORMAT_VERSION as f64 {
        return Err(bad(&format!(
            "unsupported version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let Value::Array(caches) = field(top, "caches")? else {
        return Err(bad("`caches` is not an array"));
    };
    let mut bank = CacheBank::new();
    for cache in caches {
        let Value::Object(obj) = cache else {
            return Err(bad("cache element is not an object"));
        };
        let model = as_id(field(obj, "model")?, "model")?;
        let operator = as_id(field(obj, "operator")?, "operator")?;
        let Value::Array(raw_entries) = field(obj, "entries")? else {
            return Err(bad("`entries` is not an array"));
        };
        let mut entries = Vec::with_capacity(raw_entries.len());
        for e in raw_entries {
            let Value::Array(pair) = e else {
                return Err(bad("entry is not a [key, config] pair"));
            };
            let [key, config] = pair.as_slice() else {
                return Err(bad("entry is not a [key, config] pair"));
            };
            // A live cache holds finite keys only (`insert` asserts it).
            let key = as_num(key, "entry key")?;
            if !key.is_finite() {
                return Err(bad(&format!("entry key {key} is not finite")));
            }
            let Value::Array(coords) = config else {
                return Err(bad("entry config is not an array"));
            };
            // `from_slice` asserts the dimension count; a file is not
            // trusted to respect it.
            if coords.is_empty() || coords.len() > MAX_DIMS {
                return Err(bad(&format!(
                    "entry config has {} coordinates, not 1..={MAX_DIMS}",
                    coords.len()
                )));
            }
            let mut vals = Vec::with_capacity(coords.len());
            for c in coords {
                let amount = as_num(c, "config coordinate")?;
                if !(amount.is_finite() && amount >= 0.0) {
                    let msg = format!("config coordinate {amount} is not a resource amount");
                    return Err(bad(&msg));
                }
                vals.push(amount);
            }
            entries.push((key, ResourceConfig::from_slice(&vals)));
        }
        bank.insert_cache(model, operator, ResourcePlanCache::from_entries(entries));
    }
    Ok(bank)
}

/// Write `bank` to `path` (version-1 JSON), replacing any previous file in
/// one step (see [`write_atomic`]).
pub fn save_bank(bank: &CacheBank, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_bank_with(bank, path, None)
}

/// Move a corrupt file out of the way by renaming it to `<name>.corrupt`.
/// Best-effort: a failed rename (e.g. read-only directory) leaves the file
/// in place and reports no quarantine location.
fn quarantine(path: &Path) -> Option<PathBuf> {
    let target = sibling(path, ".corrupt");
    std::fs::rename(path, &target).ok().map(|_| target)
}

/// Attach a quarantine step to a parse result: corrupt content moves the
/// source file to `<name>.corrupt` and records where it went.
fn with_quarantine<T>(result: Result<T, PersistError>, path: &Path) -> Result<T, PersistError> {
    result.map_err(|e| match e {
        PersistError::Corrupt { msg, quarantined: None } => {
            PersistError::Corrupt { msg, quarantined: quarantine(path) }
        }
        other => other,
    })
}

/// Read the file as text, classifying invalid UTF-8 as corruption (the
/// writer only ever emits ASCII JSON) rather than a plain I/O failure, so
/// byte-mangled files take the quarantine path instead of looking like a
/// transient read error.
fn read_text(path: &Path) -> Result<String, PersistError> {
    let bytes = std::fs::read(path)?;
    String::from_utf8(bytes)
        .map_err(|_| PersistError::corrupt("cache file is not valid UTF-8"))
}

/// Read a bank previously written by [`save_bank`]. Truncated or garbage
/// content returns [`PersistError::Corrupt`] and the file is quarantined
/// (renamed to `<name>.corrupt`) so the next warm start doesn't trip over
/// it again.
pub fn load_bank(path: impl AsRef<Path>) -> Result<CacheBank, PersistError> {
    let path = path.as_ref();
    with_quarantine(read_text(path).and_then(|text| bank_from_json(&text)), path)
}

/// Write `bank` to `path` with the cost-model fingerprint stamped into the
/// header (see [`bank_to_json_with`]), replacing any previous file in one
/// step (see [`write_atomic`]).
pub fn save_bank_with(
    bank: &CacheBank,
    path: impl AsRef<Path>,
    model_fingerprint: Option<u64>,
) -> Result<(), PersistError> {
    write_atomic(path.as_ref(), bank_to_json_with(bank, model_fingerprint).as_bytes())?;
    Ok(())
}

/// Read a bank, discarding it as stale when its stamped fingerprint does
/// not match `expected_fingerprint` (see [`bank_from_json_checked`]).
/// Corrupt files are quarantined like [`load_bank`].
pub fn load_bank_checked(
    path: impl AsRef<Path>,
    expected_fingerprint: Option<u64>,
) -> Result<(CacheBank, bool), PersistError> {
    let path = path.as_ref();
    with_quarantine(
        read_text(path).and_then(|text| bank_from_json_checked(&text, expected_fingerprint)),
        path,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheLookup;

    fn cfg(c: f64, s: f64) -> ResourceConfig {
        ResourceConfig::containers_and_size(c, s)
    }

    #[test]
    fn bank_round_trips_through_json() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(3.4, cfg(10.0, 3.0));
        bank.cache(0, 0).insert(0.1, cfg(1.0, 1.0));
        bank.cache(1, 0).insert(1.0 / 3.0, cfg(99.0, 9.0));
        bank.cache(2, 7); // empty member cache persists too

        let json = bank_to_json(&bank);
        let mut loaded = bank_from_json(&json).unwrap();

        assert_eq!(loaded.total_entries(), bank.total_entries());
        // Exact-match lookups see bit-identical keys after the round trip.
        assert_eq!(loaded.cache(0, 0).lookup(3.4, CacheLookup::Exact), Some(cfg(10.0, 3.0)));
        assert_eq!(loaded.cache(0, 0).lookup(0.1, CacheLookup::Exact), Some(cfg(1.0, 1.0)));
        assert_eq!(
            loaded.cache(1, 0).lookup(1.0 / 3.0, CacheLookup::Exact),
            Some(cfg(99.0, 9.0))
        );
        // Stats start fresh: the original insertions are not replayed.
        assert_eq!(loaded.aggregate_stats().insertions, 0);
    }

    #[test]
    fn save_load_via_files() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(5.5, cfg(40.0, 7.0));
        let path = std::env::temp_dir().join("raqo_persist_test_bank.json");
        save_bank(&bank, &path).unwrap();
        let mut loaded = load_bank(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.cache(0, 0).lookup(5.5, CacheLookup::Exact), Some(cfg(40.0, 7.0)));
    }

    #[test]
    fn version_and_shape_checks() {
        assert!(bank_from_json("[]").is_err());
        assert!(bank_from_json(r#"{"version": 2, "caches": []}"#).is_err());
        assert!(bank_from_json(r#"{"version": 1}"#).is_err());
        assert!(bank_from_json(r#"{"version": 1, "caches": [{"model": 0}]}"#).is_err());
        assert!(bank_from_json("not json").is_err());
        // Minimal valid document.
        let bank = bank_from_json(r#"{"version": 1, "caches": []}"#).unwrap();
        assert_eq!(bank.total_entries(), 0);
    }

    #[test]
    fn fingerprint_stamp_round_trips() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(3.4, cfg(10.0, 3.0));
        let fp = 0xdead_beef_0123_4567u64;
        let json = bank_to_json_with(&bank, Some(fp));
        assert!(json.contains("\"model_fingerprint\": \"deadbeef01234567\""));
        assert_eq!(json_fingerprint(&json).unwrap(), Some(fp));

        // Matching fingerprint: entries load intact.
        let (mut loaded, invalidated) = bank_from_json_checked(&json, Some(fp)).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.cache(0, 0).lookup(3.4, CacheLookup::Exact), Some(cfg(10.0, 3.0)));

        // Mismatched fingerprint: stale file discarded, empty bank back.
        let (stale, invalidated) = bank_from_json_checked(&json, Some(fp ^ 1)).unwrap();
        assert!(invalidated);
        assert_eq!(stale.total_entries(), 0);

        // No expectation: the stamp is ignored, entries load.
        let (loaded, invalidated) = bank_from_json_checked(&json, None).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.total_entries(), 1);
    }

    #[test]
    fn unstamped_legacy_file_is_stale_when_fingerprint_expected() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(1.0, cfg(2.0, 2.0));
        let legacy = bank_to_json(&bank); // no fingerprint header
        assert_eq!(json_fingerprint(&legacy).unwrap(), None);
        let (loaded, invalidated) = bank_from_json_checked(&legacy, Some(7)).unwrap();
        assert!(invalidated, "unverifiable legacy file must not warm-start a stamped run");
        assert_eq!(loaded.total_entries(), 0);
        // Fingerprint-over-2^53 values survive the hex-string encoding.
        let big = u64::MAX - 12;
        let json = bank_to_json_with(&bank, Some(big));
        assert_eq!(json_fingerprint(&json).unwrap(), Some(big));
    }

    #[test]
    fn fingerprinted_save_load_via_files() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(5.5, cfg(40.0, 7.0));
        let path = std::env::temp_dir().join("raqo_persist_test_bank_fp.json");
        save_bank_with(&bank, &path, Some(42)).unwrap();
        let (mut loaded, invalidated) = load_bank_checked(&path, Some(42)).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.cache(0, 0).lookup(5.5, CacheLookup::Exact), Some(cfg(40.0, 7.0)));
        let (_, invalidated) = load_bank_checked(&path, Some(43)).unwrap();
        assert!(invalidated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_file_returns_typed_error_and_is_quarantined() {
        let dir = std::env::temp_dir();
        for (name, content) in [
            ("raqo_persist_truncated.json", &br#"{"version": 1, "cach"#[..]),
            ("raqo_persist_garbage.json", &b"\x00\xffnot json at all"[..]),
            ("raqo_persist_wrong_shape.json", &br#"{"version": 1}"#[..]),
        ] {
            let path = dir.join(name);
            let quarantined = dir.join(format!("{name}.corrupt"));
            std::fs::remove_file(&quarantined).ok();
            std::fs::write(&path, content).unwrap();
            let err = load_bank(&path).expect_err("corrupt content must not load");
            match &err {
                PersistError::Corrupt { quarantined: Some(q), .. } => {
                    assert_eq!(q, &quarantined, "{name}");
                }
                other => panic!("expected Corrupt with quarantine, got {other:?}"),
            }
            assert!(err.is_corrupt());
            assert!(!path.exists(), "{name}: original must be renamed away");
            assert!(quarantined.exists(), "{name}: quarantine file must exist");
            assert_eq!(std::fs::read(&quarantined).unwrap(), content, "content preserved");
            std::fs::remove_file(&quarantined).ok();
        }
    }

    #[test]
    fn corrupt_file_quarantined_under_checked_load_too() {
        let dir = std::env::temp_dir();
        let path = dir.join("raqo_persist_checked_corrupt.json");
        let quarantined = dir.join("raqo_persist_checked_corrupt.json.corrupt");
        std::fs::remove_file(&quarantined).ok();
        std::fs::write(&path, "{{{{").unwrap();
        let err = load_bank_checked(&path, Some(42)).expect_err("must fail");
        assert!(err.is_corrupt());
        assert!(quarantined.exists());
        std::fs::remove_file(&quarantined).ok();
    }

    #[test]
    fn coordinate_counts_outside_the_config_bounds_are_corrupt_not_a_panic() {
        let doc = |entry: &str| {
            format!(r#"{{"version": 1, "caches": [{{"model": 0, "operator": 0, "entries": [{entry}]}}]}}"#)
        };
        let dir = std::env::temp_dir();
        for (name, entry) in [
            ("raqo_persist_zero_coords.json", "[1,[]]"),
            ("raqo_persist_five_coords.json", "[1,[1,2,3,4,5]]"),
        ] {
            assert!(bank_from_json(&doc(entry)).unwrap_err().is_corrupt(), "{name}");
            let path = dir.join(name);
            let quarantined = dir.join(format!("{name}.corrupt"));
            std::fs::remove_file(&quarantined).ok();
            std::fs::write(&path, doc(entry)).unwrap();
            match load_bank(&path) {
                Err(PersistError::Corrupt { quarantined: Some(q), .. }) => {
                    assert_eq!(q, quarantined, "{name}")
                }
                other => panic!("{name}: expected Corrupt with quarantine, got {other:?}"),
            }
            std::fs::remove_file(&quarantined).ok();
        }
        // The bounds themselves load.
        for entry in ["[1,[4]]", "[1,[1,2,3,4]]"] {
            assert_eq!(bank_from_json(&doc(entry)).unwrap().total_entries(), 1, "{entry}");
        }
    }

    #[test]
    fn saves_replace_the_file_in_one_step() {
        let path = std::env::temp_dir().join("raqo_persist_atomic_save.json");
        let tmp = sibling(&path, ".tmp");
        std::fs::remove_dir(&tmp).ok();
        let mut old = CacheBank::new();
        old.cache(0, 0).insert(1.0, cfg(2.0, 3.0));
        let mut new = CacheBank::new();
        new.cache(0, 0).insert(4.0, cfg(5.0, 6.0));
        new.cache(1, 0).insert(7.0, cfg(8.0, 9.0));
        for fingerprint in [None, Some(0xfeed)] {
            save_bank_with(&old, &path, fingerprint).unwrap();
            assert!(!tmp.exists(), "no temporary is left behind");
            // A directory where the temporary goes makes the next save
            // fail before it can touch the file.
            std::fs::create_dir(&tmp).unwrap();
            assert!(save_bank_with(&new, &path, fingerprint).is_err());
            assert!(save_bank(&new, &path).is_err());
            std::fs::remove_dir(&tmp).unwrap();
            let (loaded, _) = load_bank_checked(&path, fingerprint).unwrap();
            assert_eq!(bank_to_json(&loaded), bank_to_json(&old), "the previous file still loads");
            save_bank_with(&new, &path, fingerprint).unwrap();
            assert!(!tmp.exists());
            let (loaded, _) = load_bank_checked(&path, fingerprint).unwrap();
            assert_eq!(bank_to_json(&loaded), bank_to_json(&new));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_not_corrupt_and_nothing_quarantined() {
        let path = std::env::temp_dir().join("raqo_persist_never_written.json");
        let err = load_bank(&path).expect_err("missing file");
        assert!(matches!(err, PersistError::Io(_)));
        assert!(!err.is_corrupt());
    }

    #[test]
    fn fragment_assembly_matches_whole_bank_writer() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(3.4, cfg(10.0, 3.0));
        bank.cache(1, 0).insert(0.5, cfg(4.0, 2.0));
        bank.cache(2, 7); // empty member cache
        let canonical = bank_to_json_with(&bank, Some(0xfeed));

        // Splitting the bank into per-cache fragments and re-assembling
        // must reproduce the canonical bytes when order is preserved.
        let mut split = CacheBank::new();
        split.cache(0, 0).insert(3.4, cfg(10.0, 3.0));
        let mut rest = CacheBank::new();
        rest.cache(1, 0).insert(0.5, cfg(4.0, 2.0));
        rest.cache(2, 7);
        let doc = document_from_fragments(
            &[caches_fragment(&split), String::new(), caches_fragment(&rest)],
            Some(0xfeed),
        );
        assert_eq!(doc, canonical);

        // Out-of-order fragments still parse to the same bank.
        let reordered = document_from_fragments(
            &[caches_fragment(&rest), caches_fragment(&split)],
            None,
        );
        let loaded = bank_from_json(&reordered).unwrap();
        assert_eq!(bank_to_json(&loaded), bank_to_json(&bank));

        // All-empty fragments render the canonical empty document.
        assert_eq!(
            document_from_fragments(&[String::new()], None),
            bank_to_json(&CacheBank::new())
        );
    }

    /// `write_cache` against its oracle: the `Value` tree rendered by
    /// `serde::write_value` at depth 2 behind the 4-space pad.
    #[test]
    fn streamed_cache_matches_the_value_tree_bytes() {
        let mut mixed = ResourcePlanCache::new();
        mixed.insert(3.0, cfg(10.0, 3.0)); // integers
        mixed.insert(1.0 / 3.0, cfg(0.1, 2.5e-7)); // fractions
        mixed.insert(-7.25, ResourceConfig::from_slice(&[4.0])); // 1 dim
        mixed.insert(1e16, ResourceConfig::from_slice(&[1.0, 2.5, 8.0])); // 3 dims, key too big for the integer form
        mixed.insert(9.0, ResourceConfig::from_slice(&[1.0, 2.0, 3.0, 4.5])); // 4 dims
        mixed.insert(2.0, cfg(f64::INFINITY, f64::NAN)); // non-finite → null
        let mut one = ResourcePlanCache::new();
        one.insert(0.0, cfg(-0.0, 1.0));
        for (model, operator, cache) in [
            (0u32, 0u32, &mixed),
            (u32::MAX, 0x8000_0001, &one),
            (7, 2, &ResourcePlanCache::new()), // empty cache
        ] {
            let mut oracle = String::from("    ");
            serde::write_value(&mut oracle, &cache_value(model, operator, cache), Some(2), 2);
            let mut streamed = String::new();
            write_cache(&mut streamed, model, operator, cache);
            assert_eq!(streamed, oracle);
        }
    }

    #[test]
    fn from_entries_last_duplicate_wins() {
        let cache = ResourcePlanCache::from_entries(vec![
            (2.0, cfg(1.0, 1.0)),
            (1.0, cfg(5.0, 5.0)),
            (2.0, cfg(9.0, 9.0)),
            (f64::NAN, cfg(3.0, 3.0)), // dropped: non-finite key
        ]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.entries()[0].0, 1.0);
        assert_eq!(cache.entries()[1], (2.0, cfg(9.0, 9.0)));
    }
}
