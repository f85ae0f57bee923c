//! Sharded resource-plan cache banks.
//!
//! [`ShardedCacheBank`] is the thread-safe handle onto the §VI-B3
//! [`CacheBank`]. Clones share state, so one bank serves concurrent costers
//! (the planning service's workers) and the Fig. 15(b) "across-query
//! caching" mode, where a workload's queries warm a cache that outlives any
//! single optimizer run. The bank is split into `N` independently locked
//! shards:
//!
//! * a (cost model, operator) pair is owned by exactly one shard, chosen by
//!   an FNV-1a hash of the pair salted with a tenant/cluster salt, so the
//!   per-pair cache semantics (and therefore every lookup result and every
//!   statistic) are bit-identical to one unsharded [`CacheBank`];
//! * each shard keeps, per member cache, the text it last rendered for it
//!   in the version-1 persistence format and the content
//!   [`revision`](crate::ResourcePlanCache::revision) that text was
//!   rendered from. A [`checkpoint`] re-renders only the caches whose
//!   revision moved since the previous checkpoint — `O(entries in changed
//!   caches)`, whatever the shard count — appends the kept texts for the
//!   rest, and replaces the file atomically outside every bank lock;
//! * `N = 1` is one lock over one bank (a coster's private default), and
//!   checkpoints just as incrementally;
//! * a [`PairGuard`] holds the shards of two pairs — a coster's SMJ and
//!   BHJ caches — across a batch of lookups: one lock when both pairs
//!   share a shard, otherwise two. Wherever this crate holds more than one
//!   shard's lock at once it takes them in ascending shard order, so no two
//!   holders can wait on each other.
//!
//! [`checkpoint`]: ShardedCacheBank::checkpoint

use crate::cache::{self, CacheBank, CacheLookup, CacheStats};
use crate::config::ResourceConfig;
use crate::persist::{self, PersistError};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use raqo_telemetry::{Counter, Hist, Telemetry};
use std::sync::Arc;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One member cache's `caches[]` element as last rendered.
struct Text {
    key: (u32, u32),
    /// The content revision `text` was rendered from.
    revision: u64,
    text: String,
}

/// One lock's worth of the bank, plus its incremental-checkpoint state.
struct Shard {
    bank: RwLock<CacheBank>,
    /// What the previous checkpoint rendered for each member cache, in the
    /// bank's key order. The mutex also serializes concurrent checkpoints
    /// per shard so a stale render can never overwrite a fresher one.
    texts: Mutex<Vec<Text>>,
}

impl Shard {
    fn new(bank: CacheBank) -> Shard {
        Shard { bank: RwLock::new(bank), texts: Mutex::new(Vec::new()) }
    }

    /// Bring `texts` in line with the shard's member caches — drop the
    /// texts of caches that are gone, render those of caches that are new
    /// or whose revision moved — under the shard's read lock, held for
    /// exactly that. Returns the number of caches rendered.
    fn refresh(&self, texts: &mut Vec<Text>) -> usize {
        let mut kept = std::mem::take(texts).into_iter().peekable();
        let mut rendered = 0;
        let bank = self.bank.read();
        for (&key, cache) in bank.iter() {
            // Both sides run in key order: a text that sorts before this
            // cache belongs to one that no longer exists.
            while kept.next_if(|t| t.key < key).is_some() {}
            texts.push(match kept.next_if(|t| t.key == key) {
                Some(current) if current.revision == cache.revision() => current,
                reused => {
                    let mut text = reused.map_or_else(String::new, |t| t.text);
                    text.clear();
                    persist::write_cache(&mut text, key.0, key.1, cache);
                    rendered += 1;
                    Text { key, revision: cache.revision(), text }
                }
            });
        }
        rendered
    }
}

struct Inner {
    shards: Vec<Shard>,
    salt: u64,
}

/// A cloneable handle to a cache bank split across independently locked
/// shards. Clones share the shards; telemetry is per-handle, so each
/// worker can carry its own sink (or none).
#[derive(Clone)]
pub struct ShardedCacheBank {
    inner: Arc<Inner>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for ShardedCacheBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCacheBank")
            .field("shards", &self.inner.shards.len())
            .field("salt", &self.inner.salt)
            .field("entries", &self.total_entries())
            .finish()
    }
}

impl Default for ShardedCacheBank {
    fn default() -> Self {
        Self::new()
    }
}

/// Twice the core count, rounded up to a power of two: enough shards that
/// workers rarely collide, few enough that a checkpoint's fragment walk
/// stays trivial.
fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (2 * cores).next_power_of_two()
}

impl ShardedCacheBank {
    /// An empty bank with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// An empty bank with `shards` shards (rounded up to a power of two so
    /// the shard index is a mask, minimum 1). `with_shards(1)` is the
    /// single-lock bank.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_salt(shards, 0)
    }

    /// An empty bank with an explicit tenant/cluster salt folded into the
    /// shard hash, so co-hosted tenants with identical (model, operator)
    /// working sets land on different shards.
    pub fn with_shards_and_salt(shards: usize, salt: u64) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n).map(|_| Shard::new(CacheBank::new())).collect();
        ShardedCacheBank {
            inner: Arc::new(Inner { shards, salt }),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Distribute an existing bank (e.g. one loaded from disk) across the
    /// default shard count.
    pub fn from_bank(bank: CacheBank) -> Self {
        Self::from_bank_with_shards(bank, default_shard_count())
    }

    /// Distribute an existing bank across `shards` shards.
    pub fn from_bank_with_shards(bank: CacheBank, shards: usize) -> Self {
        Self::from_bank_with_shards_and_salt(bank, shards, 0)
    }

    /// Distribute an existing bank across `shards` shards under `salt`.
    pub fn from_bank_with_shards_and_salt(bank: CacheBank, shards: usize, salt: u64) -> Self {
        let out = Self::with_shards_and_salt(shards, salt);
        for (&(model, operator), cache) in bank.iter() {
            let shard = &out.inner.shards[out.shard_of(model, operator)];
            shard.bank.write().insert_cache(model, operator, cache.clone());
        }
        out
    }

    /// Attach a telemetry sink to this handle (shard-lookup counters and
    /// the lock-wait histogram). Clones made afterwards inherit it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of live handles to this bank (diagnostics/tests).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// The shard owning a (model, operator) pair: salted FNV-1a over the
    /// pair's little-endian bytes, masked onto the power-of-two shard
    /// count.
    pub fn shard_of(&self, model: u32, operator: u32) -> usize {
        let mut h = FNV_BASIS ^ self.inner.salt;
        for b in model.to_le_bytes().into_iter().chain(operator.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        (h as usize) & (self.inner.shards.len() - 1)
    }

    /// Look up the (model, operator) cache under `mode`. Counts a hit or a
    /// miss, exactly as the unsharded [`CacheBank`] does — only the shard's
    /// lock is taken, not the whole bank's.
    pub fn lookup(
        &self,
        model: u32,
        operator: u32,
        key: f64,
        mode: CacheLookup,
    ) -> Option<ResourceConfig> {
        let idx = self.shard_of(model, operator);
        self.telemetry.inc(Counter::cache_shard(idx));
        let sw = self.telemetry.stopwatch();
        let mut bank = self.inner.shards[idx].bank.write();
        self.telemetry.observe_elapsed_us(Hist::CacheLockWaitUs, &sw);
        bank.cache(model, operator).lookup(key, mode)
    }

    /// A [`PairGuard`] over the caches of pairs `a` and `b`. It takes no
    /// lock until its first lookup or insert.
    pub fn lock_pair(&self, a: (u32, u32), b: (u32, u32)) -> PairGuard<'_> {
        PairGuard {
            bank: self,
            pairs: [a, b],
            shards: [self.shard_of(a.0, a.1), self.shard_of(b.0, b.1)],
            held: None,
        }
    }

    /// Insert the best configuration found for `key` into the
    /// (model, operator) cache.
    pub fn insert(&self, model: u32, operator: u32, key: f64, config: ResourceConfig) {
        let idx = self.shard_of(model, operator);
        let sw = self.telemetry.stopwatch();
        let mut bank = self.inner.shards[idx].bank.write();
        self.telemetry.observe_elapsed_us(Hist::CacheLockWaitUs, &sw);
        bank.cache(model, operator).insert(key, config);
    }

    /// Aggregate hit/miss/insertion counters summed across every shard.
    pub fn aggregate_stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for shard in &self.inner.shards {
            let s = shard.bank.read().aggregate_stats();
            out.hits += s.hits;
            out.misses += s.misses;
            out.insertions += s.insertions;
        }
        out
    }

    /// Total entries across every shard.
    pub fn total_entries(&self) -> usize {
        self.inner.shards.iter().map(|s| s.bank.read().total_entries()).sum()
    }

    /// Clear every member cache in every shard.
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            shard.bank.write().clear();
        }
    }

    /// Run `f` with exclusive access to the shard owning (model, operator),
    /// for multi-step atomic sections on that pair's cache.
    pub fn with_shard_bank<T>(
        &self,
        model: u32,
        operator: u32,
        f: impl FnOnce(&mut CacheBank) -> T,
    ) -> T {
        f(&mut self.inner.shards[self.shard_of(model, operator)].bank.write())
    }

    /// Evict the coldest entries across every shard until the bank holds
    /// at most `high_water` entries — the same staleness-first,
    /// deterministic-tie-break policy as [`CacheBank::compact`], applied
    /// globally, so a sharded bank and a single-lock bank with the same
    /// access history compact to the same retained set. Evictions are
    /// counted on `raqo_cache_evictions_total`. Candidate
    /// collection runs under per-shard read locks, eviction under
    /// per-shard write locks — best-effort against concurrent use:
    /// entries added mid-compaction survive, and so does every entry of a
    /// cache that was accessed in between (see `CacheBank::evict`; the
    /// bank then ends a few entries above the mark until the next
    /// compaction). Returns the eviction count.
    pub fn compact(&self, high_water: usize) -> usize {
        let total = self.total_entries();
        if total <= high_water {
            return 0;
        }
        let mut victims = Vec::with_capacity(total);
        for (idx, shard) in self.inner.shards.iter().enumerate() {
            cache::push_victims(&shard.bank.read(), idx, &mut victims);
        }
        cache::keep_coldest(&mut victims, total - high_water);
        let mut evicted = 0u64;
        for (idx, shard) in self.inner.shards.iter().enumerate() {
            let mine: Vec<&cache::Victim> = victims.iter().filter(|v| v.shard == idx).collect();
            if mine.is_empty() {
                continue;
            }
            let mut bank = shard.bank.write();
            for victim in mine {
                if bank.evict(victim) {
                    evicted += 1;
                }
            }
        }
        self.telemetry.add(Counter::CacheEvictions, evicted);
        evicted as usize
    }

    /// A merged copy of all shards as one [`CacheBank`] (canonical global
    /// key order). Shard locks are taken one at a time, read-only.
    pub fn merged_bank(&self) -> CacheBank {
        let mut merged = CacheBank::new();
        for shard in &self.inner.shards {
            for (&(model, operator), cache) in shard.bank.read().iter() {
                merged.insert_cache(model, operator, cache.clone());
            }
        }
        merged
    }

    /// Persist the merged bank to `path` in the canonical version-1 format
    /// — byte-identical to saving an unsharded [`CacheBank`] with the same
    /// entries. Serialization and I/O run outside all locks.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        persist::save_bank(&self.merged_bank(), path)
    }

    /// Canonical save with the cost-model fingerprint stamped in.
    pub fn save_with_fingerprint(
        &self,
        path: impl AsRef<std::path::Path>,
        model_fingerprint: u64,
    ) -> Result<(), PersistError> {
        persist::save_bank_with(&self.merged_bank(), path, Some(model_fingerprint))
    }

    /// Load a bank saved by any of the v1 writers into a fresh sharded
    /// handle with the default shard count.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        Self::load_with_shards(path, default_shard_count())
    }

    /// Load into an explicit shard count.
    pub fn load_with_shards(
        path: impl AsRef<std::path::Path>,
        shards: usize,
    ) -> Result<Self, PersistError> {
        Ok(Self::from_bank_with_shards(persist::load_bank(path)?, shards))
    }

    /// Load a bank into `shards` shards, discarding it as stale when its
    /// stamped fingerprint differs from `model_fingerprint` (or when the
    /// file predates stamping). Returns `(bank, invalidated)`; an
    /// invalidated load yields an empty, usable bank. Corrupt files are
    /// quarantined and reported as [`PersistError::Corrupt`].
    pub fn load_checked_with_shards(
        path: impl AsRef<std::path::Path>,
        model_fingerprint: u64,
        shards: usize,
    ) -> Result<(Self, bool), PersistError> {
        let (bank, invalidated) = persist::load_bank_checked(path, Some(model_fingerprint))?;
        Ok((Self::from_bank_with_shards(bank, shards), invalidated))
    }

    /// Incremental checkpoint: re-render only the member caches whose
    /// content changed since the previous checkpoint, append the kept
    /// texts of the rest, and atomically replace `path` with one valid
    /// version-1 document (element order follows shard order; loads are
    /// order-independent). No bank lock is held while the document is
    /// assembled or written. Returns the number of caches that had to be
    /// re-rendered.
    pub fn checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<usize, PersistError> {
        self.checkpoint_inner(path, None)
    }

    /// Incremental checkpoint with the cost-model fingerprint stamped in.
    pub fn checkpoint_with_fingerprint(
        &self,
        path: impl AsRef<std::path::Path>,
        model_fingerprint: u64,
    ) -> Result<usize, PersistError> {
        self.checkpoint_inner(path, Some(model_fingerprint))
    }

    fn checkpoint_inner(
        &self,
        path: impl AsRef<std::path::Path>,
        model_fingerprint: Option<u64>,
    ) -> Result<usize, PersistError> {
        let mut rendered = 0;
        // Every shard's texts stay locked until the file is in place, so
        // the document is assembled straight from them, and a concurrent
        // checkpoint of this bank queues behind this one: the two never
        // interleave in the temporary file, and the later — fresher — one
        // is the file that stays. Lookups and inserts never take this lock.
        let locked: Vec<_> = self
            .inner
            .shards
            .iter()
            .map(|shard| {
                let mut texts = shard.texts.lock();
                rendered += shard.refresh(&mut texts);
                texts
            })
            .collect();
        let doc = persist::document_from_fragments(
            locked.iter().flat_map(|texts| texts.iter().map(|t| &t.text)),
            model_fingerprint,
        );
        persist::write_atomic(path.as_ref(), doc.as_bytes())?;
        Ok(rendered)
    }
}

/// Exclusive hold on the shards owning two (model, operator) pairs, for a
/// batch of lookups that would otherwise hash, lock and unlock once each.
/// Made by [`ShardedCacheBank::lock_pair`]; pair `i` is addressed by its
/// index. The first lookup or insert takes the locks — one if both pairs
/// share a shard, otherwise both in ascending shard order — and they stay
/// held until [`PairGuard::release`] or drop. Release before any long
/// computation (a hill climb): nothing should run under a shard lock that
/// another thread's lookup could be waiting on for long.
pub struct PairGuard<'b> {
    bank: &'b ShardedCacheBank,
    pairs: [(u32, u32); 2],
    shards: [usize; 2],
    /// The lower shard's write guard, and the higher one's when the pairs
    /// live apart; `None` while released.
    held: Option<(RwLockWriteGuard<'b, CacheBank>, Option<RwLockWriteGuard<'b, CacheBank>>)>,
}

impl PairGuard<'_> {
    /// The bank of pair `i`'s shard, locking both shards first if needed.
    fn bank_of(&mut self, i: usize) -> &mut CacheBank {
        let (low, high) = (self.shards[0].min(self.shards[1]), self.shards[0].max(self.shards[1]));
        let (bank, shards) = (self.bank, &self.bank.inner.shards);
        let (low_bank, high_bank) = self.held.get_or_insert_with(|| {
            let sw = bank.telemetry.stopwatch();
            let locked = (shards[low].bank.write(), (high != low).then(|| shards[high].bank.write()));
            bank.telemetry.observe_elapsed_us(Hist::CacheLockWaitUs, &sw);
            locked
        });
        match high_bank {
            Some(high_bank) if self.shards[i] == high => high_bank,
            _ => low_bank,
        }
    }

    /// [`ShardedCacheBank::lookup`] on pair `i`'s cache.
    pub fn lookup(&mut self, i: usize, key: f64, mode: CacheLookup) -> Option<ResourceConfig> {
        self.bank.telemetry.inc(Counter::cache_shard(self.shards[i]));
        let (model, operator) = self.pairs[i];
        self.bank_of(i).cache(model, operator).lookup(key, mode)
    }

    /// [`ShardedCacheBank::insert`] into pair `i`'s cache.
    pub fn insert(&mut self, i: usize, key: f64, config: ResourceConfig) {
        let (model, operator) = self.pairs[i];
        self.bank_of(i).cache(model, operator).insert(key, config);
    }

    /// Unlock the shards; the next lookup or insert locks them again.
    pub fn release(&mut self) {
        self.held = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(c: f64, s: f64) -> ResourceConfig {
        ResourceConfig::containers_and_size(c, s)
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCacheBank::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedCacheBank::with_shards(1).shard_count(), 1);
        assert_eq!(ShardedCacheBank::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedCacheBank::with_shards(16).shard_count(), 16);
        assert!(ShardedCacheBank::new().shard_count().is_power_of_two());
    }

    #[test]
    fn clones_share_state() {
        let a = ShardedCacheBank::with_shards(8);
        let b = a.clone();
        a.insert(0, 0, 1.5, cfg(10.0, 3.0));
        assert_eq!(b.lookup(0, 0, 1.5, CacheLookup::Exact), Some(cfg(10.0, 3.0)));
        assert_eq!(b.total_entries(), 1);
        assert_eq!(a.handle_count(), 2);
        b.clear();
        assert_eq!(a.total_entries(), 0);
    }

    #[test]
    fn salt_changes_placement_not_semantics() {
        let plain = ShardedCacheBank::with_shards_and_salt(16, 0);
        let salted = ShardedCacheBank::with_shards_and_salt(16, 0x5eed);
        let mut moved = 0;
        for model in 0..32 {
            if plain.shard_of(model, 0) != salted.shard_of(model, 0) {
                moved += 1;
            }
            plain.insert(model, 0, 1.0, cfg(model as f64, 1.0));
            salted.insert(model, 0, 1.0, cfg(model as f64, 1.0));
        }
        assert!(moved > 0, "salt must perturb shard placement");
        for model in 0..32 {
            assert_eq!(
                plain.lookup(model, 0, 1.0, CacheLookup::Exact),
                salted.lookup(model, 0, 1.0, CacheLookup::Exact),
            );
        }
    }

    /// The core bit-parity claim: any op sequence gives identical results,
    /// stats, and persisted bytes on the sharded bank and one bare
    /// [`CacheBank`].
    fn parity_under_ops(shards: usize, salt: u64, ops: &[(u32, u32, f64, u8)]) {
        let sharded = ShardedCacheBank::with_shards_and_salt(shards, salt);
        let mut single = CacheBank::new();
        for &(model, operator, key, kind) in ops {
            let mode = match kind % 5 {
                0 => {
                    sharded.insert(model, operator, key, cfg(key + 1.0, 2.0));
                    single.cache(model, operator).insert(key, cfg(key + 1.0, 2.0));
                    continue;
                }
                1 => CacheLookup::Exact,
                2 => CacheLookup::NearestNeighbor { threshold: 1.5 },
                3 => CacheLookup::WeightedAverage { threshold: 2.5 },
                _ => {
                    sharded.clear();
                    single.clear();
                    continue;
                }
            };
            assert_eq!(
                sharded.lookup(model, operator, key, mode),
                single.cache(model, operator).lookup(key, mode),
            );
        }
        assert_eq!(sharded.total_entries(), single.total_entries());
        assert_eq!(sharded.aggregate_stats(), single.aggregate_stats());
        // Canonical persistence is byte-identical.
        let merged = sharded.merged_bank();
        assert_eq!(persist::bank_to_json(&merged), persist::bank_to_json(&single));
    }

    #[test]
    fn bit_parity_with_single_lock_bank() {
        let ops: Vec<(u32, u32, f64, u8)> = (0..200)
            .map(|i| {
                let model = (i * 7) % 13;
                let operator = (i * 3) % 2;
                let key = ((i * 31) % 17) as f64 / 2.0;
                (model as u32, operator as u32, key, (i % 5) as u8)
            })
            .collect();
        for shards in [1, 2, 8, 16] {
            for salt in [0u64, 0xdead_beef] {
                parity_under_ops(shards, salt, &ops);
            }
        }
    }

    proptest::proptest! {
        /// Property form of the parity claim: arbitrary op sequences over
        /// arbitrary shard counts and salts never diverge from a bare
        /// [`CacheBank`] in results, stats, or persisted bytes.
        #[test]
        fn prop_sharded_bank_is_bit_identical(
            raw_ops in proptest::collection::vec((0u32..12, 0u32..3, 0u64..48, 0u8..5), 0..120),
            shards in 1usize..33,
            salt in 0u64..=u64::MAX,
        ) {
            let ops: Vec<(u32, u32, f64, u8)> = raw_ops
                .into_iter()
                .map(|(m, o, k, t)| (m, o, k as f64 / 4.0, t))
                .collect();
            parity_under_ops(shards, salt, &ops);
        }
    }

    #[test]
    fn one_shard_is_the_single_lock_bank() {
        let one = ShardedCacheBank::with_shards(1);
        for model in 0..64 {
            for operator in 0..4 {
                assert_eq!(one.shard_of(model, operator), 0);
            }
        }
    }

    /// The checkpoint file at `path` loads to exactly the bank's contents.
    fn assert_reloads_to_merged(bank: &ShardedCacheBank, path: &std::path::Path) {
        let loaded = persist::load_bank(path).unwrap();
        assert_eq!(persist::bank_to_json(&loaded), persist::bank_to_json(&bank.merged_bank()));
    }

    #[test]
    fn checkpoint_rerenders_only_changed_caches() {
        let bank = ShardedCacheBank::with_shards(8);
        for model in 0..32u32 {
            bank.insert(model, 0, 1.0, cfg(model as f64, 1.0));
        }
        let path = std::env::temp_dir().join("raqo_sharded_ckpt_test.json");
        // First checkpoint renders every cache.
        assert_eq!(bank.checkpoint(&path).unwrap(), 32, "nothing is rendered yet");
        assert_reloads_to_merged(&bank, &path);
        // No mutations: the next checkpoint appends kept texts only.
        assert_eq!(bank.checkpoint(&path).unwrap(), 0);
        assert_reloads_to_merged(&bank, &path);
        // One insert changes exactly one cache, however many share its shard.
        bank.insert(5, 0, 2.0, cfg(9.0, 9.0));
        assert_eq!(bank.checkpoint(&path).unwrap(), 1);
        assert_reloads_to_merged(&bank, &path);
        // Compaction changes exactly the caches it evicts from: the older
        // of cache 5's two entries is the only stale one, and among the
        // rest the tie-break takes the only entries of caches 0 and 1 —
        // those caches vanish, so there is nothing to render for them.
        assert_eq!(bank.compact(30), 3);
        assert_eq!(bank.checkpoint(&path).unwrap(), 1, "caches 0 and 1 are gone, 5 shrank");
        assert_reloads_to_merged(&bank, &path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("\"model\": 0,"), "an emptied cache leaves the file");
        assert!(text.contains("\"model\": 2,"));
        // Clearing and refilling a pair must not replay an old text, even
        // though the fresh cache repeats the old one's insert count.
        bank.clear();
        bank.insert(7, 0, 3.0, cfg(3.0, 3.0));
        assert_eq!(bank.checkpoint(&path).unwrap(), 1);
        assert_reloads_to_merged(&bank, &path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lookups_between_checkpoints_rerender_nothing() {
        let bank = ShardedCacheBank::with_shards(4);
        for model in 0..12u32 {
            bank.insert(model, 0, 1.0, cfg(model as f64, 1.0));
        }
        let path = std::env::temp_dir().join("raqo_sharded_lookup_only_ckpt.json");
        assert_eq!(bank.checkpoint(&path).unwrap(), 12);
        let before = std::fs::read(&path).unwrap();
        // Hits, misses in a known pair and misses in a never-seen pair all
        // move access clocks and statistics, never content.
        for model in 0..12u32 {
            assert!(bank.lookup(model, 0, 1.0, CacheLookup::Exact).is_some());
            assert!(bank.lookup(model, 0, 2.0, CacheLookup::Exact).is_none());
        }
        assert!(bank.lookup(99, 0, 1.0, CacheLookup::Exact).is_none());
        // The missed pair now exists as an empty cache: that one is new.
        assert_eq!(bank.checkpoint(&path).unwrap(), 1);
        for model in 0..12u32 {
            bank.lookup(model, 0, 1.0, CacheLookup::NearestNeighbor { threshold: 0.5 });
        }
        assert_eq!(bank.checkpoint(&path).unwrap(), 0);
        assert_reloads_to_merged(&bank, &path);
        assert_eq!(persist::load_bank(&path).unwrap().total_entries(), 12);
        assert_ne!(std::fs::read(&path).unwrap(), before, "the empty cache is persisted too");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_replaces_the_file_atomically() {
        let dir = std::env::temp_dir().join("raqo_sharded_atomic_ckpt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bank.json");
        let tmp = dir.join("bank.json.tmp");
        let bank = ShardedCacheBank::with_shards(4);
        bank.insert(1, 0, 1.0, cfg(1.0, 1.0));
        bank.checkpoint_with_fingerprint(&path, 7).unwrap();
        assert!(path.exists() && !tmp.exists(), "the temporary is renamed away");
        let good = std::fs::read(&path).unwrap();
        // The temporary cannot be created (its name is taken by a
        // directory): the call fails and the last good file is untouched.
        std::fs::create_dir(&tmp).unwrap();
        bank.insert(2, 0, 2.0, cfg(2.0, 2.0));
        let err = bank.checkpoint_with_fingerprint(&path, 7).expect_err("no temporary, no write");
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
        assert_eq!(std::fs::read(&path).unwrap(), good);
        let (loaded, invalidated) =
            ShardedCacheBank::load_checked_with_shards(&path, 7, 4).unwrap();
        assert!(!invalidated);
        assert_eq!(loaded.total_entries(), 1);
        // Once the obstacle is gone the same bank checkpoints everything.
        std::fs::remove_dir(&tmp).unwrap();
        bank.checkpoint_with_fingerprint(&path, 7).unwrap();
        assert_reloads_to_merged(&bank, &path);
        // The destination is a directory: the rename fails, and the
        // temporary written beside it is cleaned up.
        let taken = dir.join("taken");
        std::fs::create_dir(&taken).unwrap();
        assert!(bank.checkpoint(&taken).is_err());
        assert!(!dir.join("taken.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_and_canonical_save_load_identically() {
        let bank = ShardedCacheBank::with_shards_and_salt(4, 7);
        for i in 0..20u32 {
            bank.insert(i % 6, i % 2, i as f64 / 3.0, cfg(i as f64, 2.0));
        }
        let dir = std::env::temp_dir();
        let ckpt = dir.join("raqo_sharded_ckpt_vs_save_a.json");
        let save = dir.join("raqo_sharded_ckpt_vs_save_b.json");
        bank.checkpoint_with_fingerprint(&ckpt, 0xabc).unwrap();
        bank.save_with_fingerprint(&save, 0xabc).unwrap();
        let (from_ckpt, inv_a) = persist::load_bank_checked(&ckpt, Some(0xabc)).unwrap();
        let (from_save, inv_b) = persist::load_bank_checked(&save, Some(0xabc)).unwrap();
        assert!(!inv_a && !inv_b);
        assert_eq!(persist::bank_to_json(&from_ckpt), persist::bank_to_json(&from_save));
        // Stale fingerprint invalidates the checkpoint file like any v1 file.
        let (stale, invalidated) = ShardedCacheBank::load_checked_with_shards(&ckpt, 0xdef, 4)
            .unwrap();
        assert!(invalidated);
        assert_eq!(stale.total_entries(), 0);
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&save).ok();
    }

    #[test]
    fn canonical_save_matches_single_bank_bytes() {
        let sharded = ShardedCacheBank::with_shards(16);
        let mut single = CacheBank::new();
        for i in 0..40u32 {
            let key = i as f64 / 7.0;
            sharded.insert(i % 9, i % 3, key, cfg(i as f64, 3.0));
            single.cache(i % 9, i % 3).insert(key, cfg(i as f64, 3.0));
        }
        let dir = std::env::temp_dir();
        let a = dir.join("raqo_sharded_canonical_a.json");
        let b = dir.join("raqo_sharded_canonical_b.json");
        sharded.save_with_fingerprint(&a, 42).unwrap();
        persist::save_bank_with(&single, &b, Some(42)).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn from_bank_round_trips_through_shards() {
        let mut bank = CacheBank::new();
        for i in 0..24u32 {
            bank.cache(i % 8, i % 2).insert(i as f64, cfg(i as f64, 1.0));
        }
        let canonical = persist::bank_to_json(&bank);
        let sharded = ShardedCacheBank::from_bank_with_shards(bank, 8);
        assert_eq!(persist::bank_to_json(&sharded.merged_bank()), canonical);
    }

    #[test]
    fn telemetry_counts_shard_lookups_and_lock_waits() {
        let tel = Telemetry::enabled();
        let bank = ShardedCacheBank::with_shards(8).with_telemetry(tel.clone());
        for model in 0..16u32 {
            bank.insert(model, 0, 1.0, cfg(1.0, 1.0));
            bank.lookup(model, 0, 1.0, CacheLookup::Exact);
        }
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.cache_shard_lookups_total(), 16);
        // Inserts and lookups both time the lock acquire.
        assert_eq!(snap.hist(Hist::CacheLockWaitUs).count, 32);
    }

    #[test]
    fn compact_matches_single_lock_bank_and_dirties_shards() {
        let sharded = ShardedCacheBank::with_shards(8);
        let mut single = CacheBank::new();
        for i in 0..40u32 {
            let key = i as f64 / 3.0;
            sharded.insert(i % 7, i % 2, key, cfg(i as f64, 2.0));
            single.cache(i % 7, i % 2).insert(key, cfg(i as f64, 2.0));
        }
        // Touch a hot subset on both banks identically.
        for i in 0..12u32 {
            let key = i as f64 / 3.0;
            sharded.lookup(i % 7, i % 2, key, CacheLookup::Exact);
            single.cache(i % 7, i % 2).lookup(key, CacheLookup::Exact);
        }
        let path = std::env::temp_dir().join("raqo_sharded_compact_ckpt.json");
        sharded.checkpoint(&path).unwrap();
        let evicted_sharded = sharded.compact(15);
        let evicted_single = single.compact(15);
        assert_eq!(evicted_sharded, evicted_single);
        assert_eq!(sharded.total_entries(), 15);
        assert_eq!(single.total_entries(), 15);
        // Same global eviction policy → identical retained sets and bytes.
        assert_eq!(persist::bank_to_json(&sharded.merged_bank()), persist::bank_to_json(&single));
        // The next checkpoint persists the compacted contents.
        sharded.checkpoint(&path).unwrap();
        let loaded = persist::load_bank(&path).unwrap();
        assert_eq!(loaded.total_entries(), 15);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_counts_evictions_in_telemetry() {
        let tel = Telemetry::enabled();
        let bank = ShardedCacheBank::with_shards(4).with_telemetry(tel.clone());
        for i in 0..20u32 {
            bank.insert(i, 0, 1.0, cfg(1.0, 1.0));
        }
        assert_eq!(bank.compact(8), 12);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.get(Counter::CacheEvictions), 12);
        assert_eq!(bank.compact(8), 0, "already at the mark");
    }

    #[test]
    fn concurrent_inserts_and_checkpoints_lose_nothing() {
        let bank = ShardedCacheBank::with_shards(8);
        let path = std::env::temp_dir().join("raqo_sharded_concurrent_ckpt.json");
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let handle = bank.clone();
                scope.spawn(move || {
                    for k in 0..50u32 {
                        let key = (t * 1000 + k) as f64;
                        handle.insert(t, 0, key, cfg(k as f64 + 1.0, t as f64 + 1.0));
                        assert_eq!(
                            handle.lookup(t, 0, key, CacheLookup::Exact),
                            Some(cfg(k as f64 + 1.0, t as f64 + 1.0)),
                            "thread {t} lost its own insert for key {key}"
                        );
                    }
                });
            }
            let ckpt = bank.clone();
            let ckpt_path = path.clone();
            scope.spawn(move || {
                for _ in 0..20 {
                    ckpt.checkpoint(&ckpt_path).unwrap();
                }
            });
        });
        assert_eq!(bank.total_entries(), 200);
        let stats = bank.aggregate_stats();
        assert_eq!(stats.insertions, 200);
        assert_eq!(stats.hits, 200);
        // A final checkpoint reflects every insert.
        bank.checkpoint(&path).unwrap();
        let loaded = persist::load_bank(&path).unwrap();
        assert_eq!(loaded.total_entries(), 200);
        std::fs::remove_file(&path).ok();
    }

    /// Two models of `bank` whose caches live on different shards, the
    /// lower shard's first.
    fn models_on_two_shards(bank: &ShardedCacheBank) -> (u32, u32) {
        let low = 0;
        let high = (1..).find(|&m| bank.shard_of(m, 0) != bank.shard_of(low, 0)).unwrap();
        if bank.shard_of(low, 0) < bank.shard_of(high, 0) { (low, high) } else { (high, low) }
    }

    #[test]
    fn pair_guard_answers_like_the_bank_and_counts_every_lookup() {
        let tel = Telemetry::enabled();
        let bank = ShardedCacheBank::with_shards(8).with_telemetry(tel.clone());
        let (a, b) = models_on_two_shards(&bank);
        let mut guard = bank.lock_pair((b, 0), (a, 0));
        guard.insert(0, 1.0, cfg(2.0, 2.0));
        guard.insert(1, 1.0, cfg(3.0, 3.0));
        assert_eq!(guard.lookup(0, 1.0, CacheLookup::Exact), Some(cfg(2.0, 2.0)));
        assert_eq!(guard.lookup(1, 1.0, CacheLookup::Exact), Some(cfg(3.0, 3.0)));
        assert_eq!(guard.lookup(1, 9.0, CacheLookup::Exact), None);
        // Both shards stay locked until the guard lets go.
        for model in [a, b] {
            assert!(bank.inner.shards[bank.shard_of(model, 0)].bank.try_write().is_none());
        }
        guard.release();
        assert_eq!(bank.lookup(b, 0, 1.0, CacheLookup::Exact), Some(cfg(2.0, 2.0)));
        drop(guard);
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.cache_shard_lookups_total(), 4, "one count per lookup, guarded or not");
        assert_eq!(bank.aggregate_stats().hits, 3);
        // Pairs that share a shard take its lock once (twice would never
        // return).
        let op = (1..).find(|&op| bank.shard_of(a, op) == bank.shard_of(a, 0)).unwrap();
        let mut same = bank.lock_pair((a, 0), (a, op));
        assert_eq!(same.lookup(0, 1.0, CacheLookup::Exact), Some(cfg(3.0, 3.0)));
        same.insert(1, 2.0, cfg(4.0, 4.0));
        drop(same);
        assert_eq!(bank.lookup(a, op, 2.0, CacheLookup::Exact), Some(cfg(4.0, 4.0)));
    }

    /// Whichever order its pairs come in, a guard takes the lower shard
    /// first: with the higher one held elsewhere, the guard waits holding
    /// the lower one. (The other order is what would let two guards over
    /// the same shards deadlock.)
    #[test]
    fn pair_guard_locks_shards_in_ascending_order() {
        let bank = ShardedCacheBank::with_shards(8);
        let (a, b) = models_on_two_shards(&bank);
        let (low, high) = (bank.shard_of(a, 0), bank.shard_of(b, 0));
        for pairs in [[(a, 0), (b, 0)], [(b, 0), (a, 0)]] {
            let blocker = bank.inner.shards[high].bank.write();
            std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    bank.lock_pair(pairs[0], pairs[1]).lookup(0, 1.0, CacheLookup::Exact)
                });
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                while bank.inner.shards[low].bank.try_write().is_some() {
                    assert!(std::time::Instant::now() < deadline, "{pairs:?}: lower shard never taken");
                    std::thread::yield_now();
                }
                drop(blocker);
                assert_eq!(waiter.join().unwrap(), None);
            });
        }
    }

    #[test]
    fn lookup_modes_match_unshared_semantics() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 1.0, cfg(10.0, 2.0));
        bank.insert(0, 0, 3.0, cfg(30.0, 6.0));
        assert_eq!(bank.lookup(0, 0, 2.0, CacheLookup::Exact), None);
        assert_eq!(
            bank.lookup(0, 0, 2.2, CacheLookup::NearestNeighbor { threshold: 1.0 }),
            Some(cfg(30.0, 6.0))
        );
        let wa = bank.lookup(0, 0, 2.0, CacheLookup::WeightedAverage { threshold: 1.5 }).unwrap();
        assert!((wa.containers() - 20.0).abs() < 1e-9);
        // 1 miss + 2 hits recorded, as the unshared cache would.
        let stats = bank.aggregate_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn model_operator_pairs_stay_separate() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 1.0, cfg(1.0, 1.0));
        bank.insert(1, 0, 1.0, cfg(2.0, 2.0));
        assert_eq!(bank.lookup(0, 0, 1.0, CacheLookup::Exact), Some(cfg(1.0, 1.0)));
        assert_eq!(bank.lookup(1, 0, 1.0, CacheLookup::Exact), Some(cfg(2.0, 2.0)));
    }

    #[test]
    fn fingerprinted_save_and_checked_load() {
        let bank = ShardedCacheBank::with_shards(1);
        bank.insert(0, 0, 1.0, cfg(4.0, 2.0));
        let path = std::env::temp_dir().join("raqo_sharded_bank_fp_test.json");
        bank.save_with_fingerprint(&path, 0xabc).unwrap();
        let (same, invalidated) =
            ShardedCacheBank::load_checked_with_shards(&path, 0xabc, 1).unwrap();
        assert!(!invalidated);
        assert_eq!(same.total_entries(), 1);
        let (stale, invalidated) =
            ShardedCacheBank::load_checked_with_shards(&path, 0xdef, 1).unwrap();
        assert!(invalidated, "retrained model must invalidate the persisted bank");
        assert_eq!(stale.total_entries(), 0);
        // Unstamped legacy files are also stale under a checked load.
        bank.save(&path).unwrap();
        let (_, invalidated) = ShardedCacheBank::load_checked_with_shards(&path, 0xabc, 1).unwrap();
        assert!(invalidated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panic_inside_with_bank_does_not_poison_the_lock() {
        // The vendored parking_lot locks recover from a panicking critical
        // section (no std-style poisoning), so a worker dying mid-update must
        // leave the shared bank fully usable for every other handle.
        let shared = ShardedCacheBank::with_shards(1);
        shared.insert(0, 0, 1.0, cfg(5.0, 2.0));
        let clone = shared.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clone.with_shard_bank(0, 1, |bank| {
                bank.cache(0, 1).insert(9.0, cfg(9.0, 9.0));
                panic!("injected panic while holding the write lock");
            })
        }));
        assert!(caught.is_err(), "the injected panic must propagate");
        // Lock is free again: reads, writes, and multi-step sections all work.
        assert_eq!(shared.lookup(0, 0, 1.0, CacheLookup::Exact), Some(cfg(5.0, 2.0)));
        shared.insert(0, 0, 2.0, cfg(6.0, 3.0));
        assert_eq!(shared.lookup(0, 0, 2.0, CacheLookup::Exact), Some(cfg(6.0, 3.0)));
        assert_eq!(shared.with_shard_bank(0, 0, |bank| bank.total_entries()), 3);
    }
}
