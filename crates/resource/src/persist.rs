//! Cache-bank persistence: the versioned JSON a
//! [`ShardedCacheBank`](crate::ShardedCacheBank) checkpoints to and loads
//! from, so `repro` sweeps and the planning service warm-start across
//! processes (the Fig. 15(b) across-query caching mode, extended across
//! process lifetimes).
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
//! byte-for-byte like the bank that was checkpointed. Hit/miss/insertion
//! statistics are *not* persisted; a loaded bank starts with fresh counters.

use crate::cache::ResourcePlanCache;
use crate::config::{ResourceConfig, MAX_DIMS};
use serde::Value;
use std::fmt::Write;
use std::io;
use std::path::{Path, PathBuf};

/// Current on-disk format version.
pub const FORMAT_VERSION: u64 = 1;

/// Typed persistence failure. Truncated, garbage, or wrong-shape JSON is
/// always reported as [`PersistError::Corrupt`] — never a panic — and the
/// file loader quarantines the offending file by renaming it to
/// `<name>.corrupt` so it can be inspected instead of silently re-parsed
/// (and re-failed) on every warm start.
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

/// Assemble the version-1 document from `caches[]` elements rendered by
/// [`write_cache`], in one buffer sized up front, optionally stamping the
/// cost-model fingerprint into the header. Cached resource plans are only
/// as good as the model that priced them: a stamped file is invalidated on
/// load when the model has retrained. Elements keep the caller's order;
/// loading is order-independent.
pub(crate) fn document_from_fragments<I>(fragments: I, model_fingerprint: Option<u64>) -> String
where
    I: IntoIterator,
    I::IntoIter: Clone,
    I::Item: AsRef<str>,
{
    let fragments = fragments.into_iter();
    // Header and footer are under 100 bytes; each fragment brings a
    // two-byte separator.
    let body: usize = fragments.clone().map(|f| f.as_ref().len() + 2).sum();
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
    for fragment in fragments {
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
    PersistError::Corrupt { msg: msg.to_string(), quarantined: None }
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

/// The `model_fingerprint` header of a document's top-level object, if
/// present (files written before fingerprint stamping have none).
fn fingerprint(top: &[(String, Value)]) -> Result<Option<u64>, PersistError> {
    match top.iter().find(|(k, _)| k == "model_fingerprint") {
        None => Ok(None),
        Some((_, Value::String(s))) => u64::from_str_radix(s, 16)
            .map(Some)
            .map_err(|_| bad("model_fingerprint is not a hex u64")),
        Some(_) => Err(bad("model_fingerprint is not a string")),
    }
}

/// Parse a version-1 document once and hand each member cache to
/// `install`. When `expected_fingerprint` is given and the document is
/// stamped with a *different* one — or is an unstamped legacy file —
/// nothing is installed and the answer is `Ok(true)`: the entries are
/// stale. The file itself is untouched; the next checkpoint overwrites it
/// with freshly stamped entries.
pub(crate) fn read_document(
    text: &str,
    expected_fingerprint: Option<u64>,
    mut install: impl FnMut(u32, u32, ResourcePlanCache),
) -> Result<bool, PersistError> {
    let doc = serde_json::from_str(text).map_err(|e| bad(&e.to_string()))?;
    let Value::Object(top) = &doc else {
        return Err(bad("top level is not an object"));
    };
    if let Some(expected) = expected_fingerprint {
        if fingerprint(top)? != Some(expected) {
            return Ok(true);
        }
    }
    let version = as_num(field(top, "version")?, "version")?;
    if version != FORMAT_VERSION as f64 {
        return Err(bad(&format!(
            "unsupported version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let Value::Array(caches) = field(top, "caches")? else {
        return Err(bad("`caches` is not an array"));
    };
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
        install(model, operator, ResourcePlanCache::from_entries(entries));
    }
    Ok(false)
}

/// Read `path` as text and `parse` it. Content-level corruption — invalid
/// UTF-8 (the writer only ever emits ASCII JSON) or whatever `parse`
/// reports as [`PersistError::Corrupt`] — moves the file to
/// `<name>.corrupt`, so the next warm start doesn't trip over it again,
/// and records where it went. The rename is best-effort: a failed one
/// (e.g. a read-only directory) leaves the file in place and reports no
/// quarantine location. I/O failures touch nothing.
pub(crate) fn read_file<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let bytes = std::fs::read(path)?;
    let text = String::from_utf8(bytes).map_err(|_| bad("cache file is not valid UTF-8"));
    text.and_then(|text| parse(&text)).map_err(|e| match e {
        PersistError::Corrupt { msg, quarantined: None } => {
            let target = sibling(path, ".corrupt");
            let quarantined = std::fs::rename(path, &target).ok().map(|()| target);
            PersistError::Corrupt { msg, quarantined }
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheLookup, ShardedCacheBank};

    fn cfg(c: f64, s: f64) -> ResourceConfig {
        ResourceConfig::containers_and_size(c, s)
    }

    fn from_json(text: &str) -> Result<ShardedCacheBank, PersistError> {
        ShardedCacheBank::from_json(text, 1, None).map(|(bank, _)| bank)
    }

    /// `bank`'s checkpoint text, written to a file named after `name`.
    fn checkpoint_text(bank: &ShardedCacheBank, name: &str, fingerprint: Option<u64>) -> String {
        let path = std::env::temp_dir().join(format!("{name}_{}.json", std::process::id()));
        match fingerprint {
            Some(fp) => bank.checkpoint_with_fingerprint(&path, fp),
            None => bank.checkpoint(&path),
        }
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text
    }

    #[test]
    fn bank_round_trips_through_json() {
        let bank = ShardedCacheBank::with_shards(4);
        bank.insert(0, 0, 3.4, cfg(10.0, 3.0));
        bank.insert(0, 0, 0.1, cfg(1.0, 1.0));
        bank.insert(1, 0, 1.0 / 3.0, cfg(99.0, 9.0));
        bank.lookup(2, 7, 1.0, CacheLookup::Exact); // empty member cache persists too

        let json = checkpoint_text(&bank, "raqo_persist_round_trip", None);
        assert!(json.contains("\"model\": 2,\n      \"operator\": 7,\n      \"entries\": []"));
        let loaded = from_json(&json).unwrap();

        assert_eq!(loaded.total_entries(), bank.total_entries());
        // Stats start fresh: the original insertions are not replayed.
        assert_eq!(loaded.aggregate_stats().insertions, 0);
        // Exact-match lookups see bit-identical keys after the round trip.
        assert_eq!(loaded.lookup(0, 0, 3.4, CacheLookup::Exact), Some(cfg(10.0, 3.0)));
        assert_eq!(loaded.lookup(0, 0, 0.1, CacheLookup::Exact), Some(cfg(1.0, 1.0)));
        assert_eq!(loaded.lookup(1, 0, 1.0 / 3.0, CacheLookup::Exact), Some(cfg(99.0, 9.0)));
    }

    #[test]
    fn checkpoint_load_via_files() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 5.5, cfg(40.0, 7.0));
        let path = std::env::temp_dir()
            .join(format!("raqo_persist_test_bank_{}.json", std::process::id()));
        bank.checkpoint(&path).unwrap();
        let (loaded, stale) = ShardedCacheBank::load(&path, 1, None).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!stale);
        assert_eq!(loaded.lookup(0, 0, 5.5, CacheLookup::Exact), Some(cfg(40.0, 7.0)));
    }

    #[test]
    fn fingerprinted_checkpoint_load_via_files() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 5.5, cfg(40.0, 7.0));
        let path = std::env::temp_dir()
            .join(format!("raqo_persist_test_bank_fp_{}.json", std::process::id()));
        bank.checkpoint_with_fingerprint(&path, 42).unwrap();
        let (loaded, invalidated) = ShardedCacheBank::load(&path, 1, Some(42)).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.lookup(0, 0, 5.5, CacheLookup::Exact), Some(cfg(40.0, 7.0)));
        let (stale, invalidated) = ShardedCacheBank::load(&path, 1, Some(43)).unwrap();
        assert!(invalidated);
        assert_eq!(stale.total_entries(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// Per-cache fragments assembled in (model, operator) order are the
    /// one-shard checkpoint's bytes; in any other order they still load to
    /// the same bank; and no fragments at all are the empty bank's
    /// document.
    #[test]
    fn fragment_assembly_matches_the_one_shard_checkpoint() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 3.4, cfg(10.0, 3.0));
        bank.insert(1, 0, 0.5, cfg(4.0, 2.0));
        bank.lookup(2, 7, 1.0, CacheLookup::Exact); // empty member cache
        let canonical = checkpoint_text(&bank, "raqo_persist_fragments", Some(0xfeed));

        let fragment = |model, operator, entries: &[(f64, ResourceConfig)]| {
            let mut text = String::new();
            let cache = ResourcePlanCache::from_entries(entries.to_vec());
            write_cache(&mut text, model, operator, &cache);
            text
        };
        let fragments = [
            fragment(0, 0, &[(3.4, cfg(10.0, 3.0))]),
            fragment(1, 0, &[(0.5, cfg(4.0, 2.0))]),
            fragment(2, 7, &[]),
        ];
        assert_eq!(document_from_fragments(&fragments, Some(0xfeed)), canonical);

        let reordered = [&fragments[2], &fragments[0], &fragments[1]];
        let loaded = from_json(&document_from_fragments(reordered, None)).unwrap();
        assert_eq!(checkpoint_text(&loaded, "raqo_persist_reordered", Some(0xfeed)), canonical);

        let empty = checkpoint_text(&ShardedCacheBank::with_shards(4), "raqo_persist_empty", None);
        assert_eq!(document_from_fragments(Vec::<String>::new(), None), empty);
    }

    #[test]
    fn version_and_shape_checks() {
        assert!(from_json("[]").is_err());
        assert!(from_json(r#"{"version": 2, "caches": []}"#).is_err());
        assert!(from_json(r#"{"version": 1}"#).is_err());
        assert!(from_json(r#"{"version": 1, "caches": [{"model": 0}]}"#).is_err());
        assert!(from_json("not json").is_err());
        // Minimal valid document.
        let bank = from_json(r#"{"version": 1, "caches": []}"#).unwrap();
        assert_eq!(bank.total_entries(), 0);
    }

    #[test]
    fn fingerprint_stamp_round_trips() {
        let bank = ShardedCacheBank::with_shards(2);
        bank.insert(0, 0, 3.4, cfg(10.0, 3.0));
        let fp = 0xdead_beef_0123_4567u64;
        let json = checkpoint_text(&bank, "raqo_persist_stamp", Some(fp));
        assert!(json.contains("\"model_fingerprint\": \"deadbeef01234567\""));

        // Matching fingerprint: entries load intact.
        let (loaded, invalidated) = ShardedCacheBank::from_json(&json, 1, Some(fp)).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.lookup(0, 0, 3.4, CacheLookup::Exact), Some(cfg(10.0, 3.0)));

        // Mismatched fingerprint: stale file discarded, empty bank back.
        let (stale, invalidated) = ShardedCacheBank::from_json(&json, 1, Some(fp ^ 1)).unwrap();
        assert!(invalidated);
        assert_eq!(stale.total_entries(), 0);

        // No expectation: the stamp is ignored, entries load.
        let (loaded, invalidated) = ShardedCacheBank::from_json(&json, 1, None).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.total_entries(), 1);

        // A malformed stamp is corrupt, not stale, when one is expected.
        let malformed = json.replace("deadbeef01234567", "not hex");
        let err = ShardedCacheBank::from_json(&malformed, 1, Some(fp)).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }

    /// A stale file is discarded, not deleted or quarantined: it stays as
    /// it was until the next checkpoint replaces it with fresh entries.
    #[test]
    fn a_stale_file_stays_in_place_until_the_next_checkpoint() {
        let path = std::env::temp_dir().join("raqo_persist_stale_in_place.json");
        let old = ShardedCacheBank::with_shards(2);
        old.insert(0, 0, 1.0, cfg(2.0, 2.0));
        old.checkpoint_with_fingerprint(&path, 1).unwrap();
        let before = std::fs::read(&path).unwrap();
        let (fresh, stale) = ShardedCacheBank::load(&path, 2, Some(2)).unwrap();
        assert!(stale);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(!sibling(&path, ".corrupt").exists());
        fresh.insert(1, 0, 3.0, cfg(4.0, 4.0));
        fresh.checkpoint_with_fingerprint(&path, 2).unwrap();
        let (loaded, stale) = ShardedCacheBank::load(&path, 2, Some(2)).unwrap();
        assert!(!stale);
        assert_eq!(loaded.total_entries(), 1);
        assert_eq!(loaded.lookup(1, 0, 3.0, CacheLookup::Exact), Some(cfg(4.0, 4.0)));
        std::fs::remove_file(&path).ok();
    }

    /// A hand-edited document may list a member cache twice: the last
    /// element wins, as a second `insert_cache` of the pair would.
    #[test]
    fn a_repeated_member_cache_keeps_the_last_element() {
        let text = r#"{"version": 1, "caches": [
            {"model": 4, "operator": 1, "entries": [[1, [1, 1]], [2, [2, 2]]]},
            {"model": 4, "operator": 1, "entries": [[3, [3, 3]]]}]}"#;
        let bank = from_json(text).unwrap();
        assert_eq!(bank.total_entries(), 1);
        assert_eq!(bank.lookup(4, 1, 3.0, CacheLookup::Exact), Some(cfg(3.0, 3.0)));
        assert_eq!(bank.lookup(4, 1, 1.0, CacheLookup::Exact), None);
    }

    #[test]
    fn unstamped_legacy_file_is_stale_when_fingerprint_expected() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 1.0, cfg(2.0, 2.0));
        let legacy = checkpoint_text(&bank, "raqo_persist_legacy", None);
        assert!(!legacy.contains("model_fingerprint"));
        let (loaded, invalidated) = ShardedCacheBank::from_json(&legacy, 1, Some(7)).unwrap();
        assert!(invalidated, "unverifiable legacy file must not warm-start a stamped run");
        assert_eq!(loaded.total_entries(), 0);
        // Fingerprint-over-2^53 values survive the hex-string encoding.
        let big = u64::MAX - 12;
        let json = checkpoint_text(&bank, "raqo_persist_big_stamp", Some(big));
        let (loaded, invalidated) = ShardedCacheBank::from_json(&json, 1, Some(big)).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.total_entries(), 1);
    }

    /// A document as the whole-bank `save` of earlier builds wrote it,
    /// unstamped and stamped, for a bank of two-, three- and
    /// one-dimensional configurations, a key of 10¹⁶ and an empty member
    /// cache. The format has not changed: both load into any shard count,
    /// and a one-shard checkpoint of the same entries reproduces them byte
    /// for byte.
    #[test]
    fn documents_written_by_the_canonical_save_still_load() {
        const UNSTAMPED: &str = r#"{
  "version": 1,
  "caches": [
    {
      "model": 0,
      "operator": 0,
      "entries": [
        [
          0.3333333333333333,
          [
            1,
            0.5
          ]
        ],
        [
          3.4,
          [
            10,
            3
          ]
        ]
      ]
    },
    {
      "model": 1,
      "operator": 0,
      "entries": [
        [
          0.1,
          [
            99,
            9,
            2
          ]
        ]
      ]
    },
    {
      "model": 2,
      "operator": 7,
      "entries": [
        [
          10000000000000000,
          [
            4
          ]
        ]
      ]
    },
    {
      "model": 3,
      "operator": 1,
      "entries": []
    }
  ]
}
"#;
        let fp = 0xdead_beef_0123_4567u64;
        let stamped = UNSTAMPED.replacen(
            "\n  \"caches\"",
            "\n  \"model_fingerprint\": \"deadbeef01234567\",\n  \"caches\"",
            1,
        );
        let want = [
            (0, 0, 1.0 / 3.0, ResourceConfig::containers_and_size(1.0, 0.5)),
            (0, 0, 3.4, ResourceConfig::containers_and_size(10.0, 3.0)),
            (1, 0, 0.1, ResourceConfig::from_slice(&[99.0, 9.0, 2.0])),
            (2, 7, 1e16, ResourceConfig::from_slice(&[4.0])),
        ];
        for (text, expected) in [(UNSTAMPED, None), (stamped.as_str(), Some(fp))] {
            for shards in [1, 8] {
                let (loaded, stale) = ShardedCacheBank::from_json(text, shards, expected).unwrap();
                assert!(!stale);
                assert_eq!(loaded.total_entries(), want.len());
                for &(model, operator, key, config) in &want {
                    let got = loaded.lookup(model, operator, key, CacheLookup::Exact);
                    assert_eq!(got, Some(config));
                }
            }
            let bank = ShardedCacheBank::with_shards(1);
            for &(model, operator, key, config) in &want {
                bank.insert(model, operator, key, config);
            }
            bank.lookup(3, 1, 1.0, CacheLookup::Exact);
            assert_eq!(checkpoint_text(&bank, "raqo_persist_literal", expected), text);
        }
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
            let loaded = ShardedCacheBank::load(&path, 1, None);
            let err = loaded.expect_err("corrupt content must not load");
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
        let err = ShardedCacheBank::load(&path, 1, Some(42)).expect_err("must fail");
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
            assert!(from_json(&doc(entry)).unwrap_err().is_corrupt(), "{name}");
            let path = dir.join(name);
            let quarantined = dir.join(format!("{name}.corrupt"));
            std::fs::remove_file(&quarantined).ok();
            std::fs::write(&path, doc(entry)).unwrap();
            match ShardedCacheBank::load(&path, 1, None) {
                Err(PersistError::Corrupt { quarantined: Some(q), .. }) => {
                    assert_eq!(q, quarantined, "{name}")
                }
                other => panic!("{name}: expected Corrupt with quarantine, got {other:?}"),
            }
            std::fs::remove_file(&quarantined).ok();
        }
        // The bounds themselves load.
        for entry in ["[1,[4]]", "[1,[1,2,3,4]]"] {
            assert_eq!(from_json(&doc(entry)).unwrap().total_entries(), 1, "{entry}");
        }
    }

    #[test]
    fn missing_file_is_io_not_corrupt_and_nothing_quarantined() {
        let path = std::env::temp_dir().join("raqo_persist_never_written.json");
        let err = ShardedCacheBank::load(&path, 1, None).expect_err("missing file");
        assert!(matches!(err, PersistError::Io(_)));
        assert!(!err.is_corrupt());
    }

    /// A checkpoint into a directory that does not exist is an I/O error
    /// that leaves nothing behind, and the bank checkpoints as before once
    /// the directory is there.
    #[test]
    fn a_checkpoint_into_a_missing_directory_is_io_and_writes_nothing() {
        let dir = std::env::temp_dir()
            .join(format!("raqo_persist_missing_dir_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("bank.json");
        let bank = ShardedCacheBank::with_shards(2);
        bank.insert(0, 0, 1.0, cfg(2.0, 2.0));
        let err = bank.checkpoint_with_fingerprint(&path, 5).expect_err("no directory");
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
        assert!(!dir.exists());
        std::fs::create_dir_all(&dir).unwrap();
        bank.checkpoint_with_fingerprint(&path, 5).unwrap();
        assert!(!sibling(&path, ".tmp").exists());
        let (loaded, stale) = ShardedCacheBank::load(&path, 2, Some(5)).unwrap();
        assert!(!stale);
        assert_eq!(loaded.lookup(0, 0, 1.0, CacheLookup::Exact), Some(cfg(2.0, 2.0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One member cache as its `caches[]` array element: the `Value`-tree
    /// rendition [`write_cache`] must reproduce byte for byte.
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
