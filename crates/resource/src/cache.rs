//! The resource-plan cache (§VI-B3).
//!
//! > "Our key insight is that for the same cost model and sub-plan (e.g.,
//! > join operation), same (or similar) data characteristics, e.g., data
//! > size, will require same (or similar) resource configuration. [...] For
//! > each cost model (e.g., SMJ, BHJ) and sub-plan (e.g., join operator,
//! > scan operator), we maintain an in-memory index of data characteristic
//! > keys, each of which point to the best resource configuration for those
//! > data characteristics. Our current prototype keeps a sorted array of
//! > keys, with automatic resizing whenever the array gets full, and we
//! > perform a binary search for lookup."
//!
//! [`ResourcePlanCache`] is that sorted array (a `Vec` gives the
//! automatically resizing contiguous storage; lookups are binary searches).
//! [`CacheBank`] keys one cache per (cost model, operator) pair.
//! The three lookup modes of the paper — exact match, nearest neighbour,
//! weighted average — are [`CacheLookup`] variants. Both approximate modes
//! "first look for exact match before trying the interpolation" (§VII-B).

use crate::config::ResourceConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of [`ResourcePlanCache::revision`] stamps. Process-wide, so a
/// stamp is never handed out twice — not to another cache, and not to a
/// cache re-created under the same (model, operator) key after a clear or
/// an eviction dropped its predecessor. `Relaxed` is enough: the atomic
/// add alone makes each stamp unique, and a stamp publishes no other data
/// (caches are read and written under their bank's lock).
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);

fn next_revision() -> u64 {
    NEXT_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// Cache lookup policy (§VI-B3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CacheLookup {
    /// "returns a hit only when exact same data characteristics match."
    Exact,
    /// "returns the resource configuration corresponding to the nearest data
    /// characteristic match (within a threshold)." The threshold is in key
    /// units (GB of smaller-input size in the paper's Fig. 14 sweeps).
    NearestNeighbor { threshold: f64 },
    /// "returns the weighted average of neighboring resource configurations
    /// when their data characteristics are within a threshold." Weights are
    /// inverse distances; the result is snapped back onto the resource grid
    /// by the caller if needed.
    WeightedAverage { threshold: f64 },
}

/// Hit/miss counters, used by the Fig. 14 experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
}

impl CacheStats {
    /// Hit rate in \[0,1\]; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sorted-array cache from a scalar data-characteristic key (the paper
/// keys on data size) to the best known resource configuration.
///
/// ```
/// use raqo_resource::{CacheLookup, ResourceConfig, ResourcePlanCache};
///
/// let mut cache = ResourcePlanCache::new();
/// cache.insert(3.4, ResourceConfig::containers_and_size(10.0, 3.0));
/// // Exact hit:
/// assert!(cache.lookup(3.4, CacheLookup::Exact).is_some());
/// // Similar data characteristics reuse the plan (§VI-B3):
/// let near = cache.lookup(3.45, CacheLookup::NearestNeighbor { threshold: 0.1 });
/// assert_eq!(near, Some(ResourceConfig::containers_and_size(10.0, 3.0)));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResourcePlanCache {
    /// Sorted by key. `Vec` doubles on demand — the "automatic resizing
    /// whenever the array gets full" of the prototype.
    entries: Vec<(f64, ResourceConfig)>,
    /// Last-hit generation per entry (parallel to `entries`): the value of
    /// [`clock`](Self::generation) when the entry last contributed to a
    /// hit or was (re)inserted. Compaction evicts the stalest entries
    /// first. Not persisted — a loaded bank starts cold.
    generations: Vec<u64>,
    /// Monotonic access clock, bumped once per insert or lookup.
    clock: u64,
    /// Content stamp: see [`revision`](Self::revision).
    revision: u64,
    stats: CacheStats,
}

impl ResourcePlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached configurations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all entries (the evaluation "always cleared the resource plan
    /// cache before each query run" unless testing across-query caching).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.generations.clear();
        self.clock = 0;
        self.revision = next_revision();
        self.stats = CacheStats::default();
    }

    /// Content stamp: 0 for a cache that never held anything, otherwise a
    /// process-unique value renewed by every [`insert`](Self::insert),
    /// successful [`remove`](Self::remove) and [`clear`](Self::clear) —
    /// never by a lookup, which moves only the access clock and the
    /// statistics. Two reads that return the same stamp saw the same
    /// `(key, config)` entries, which is what lets a checkpoint reuse the
    /// text it rendered last time. A clone keeps its source's stamp.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The sorted `(key, config)` entries — read access for persistence and
    /// diagnostics.
    pub fn entries(&self) -> &[(f64, ResourceConfig)] {
        &self.entries
    }

    /// Rebuild a cache from `(key, config)` pairs (persistence load path).
    /// Entries are sorted by key and deduplicated (last wins, matching
    /// repeated [`ResourcePlanCache::insert`] calls); statistics start
    /// fresh — hit/miss/insertion counters are not persisted.
    pub fn from_entries(mut entries: Vec<(f64, ResourceConfig)>) -> Self {
        entries.retain(|(k, _)| k.is_finite());
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        entries.reverse();
        entries.dedup_by(|a, b| a.0 == b.0);
        entries.reverse();
        let generations = vec![0; entries.len()];
        ResourcePlanCache {
            entries,
            generations,
            clock: 0,
            revision: next_revision(),
            stats: CacheStats::default(),
        }
    }

    /// The current value of the access clock (bumped once per insert or
    /// lookup). An entry whose last-hit generation is far below this is
    /// cold and is evicted first by [`CacheBank::compact`].
    pub fn generation(&self) -> u64 {
        self.clock
    }

    /// `(key, last-hit generation)` per entry, in key order.
    pub fn entry_generations(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.entries.iter().map(|(k, _)| *k).zip(self.generations.iter().copied())
    }

    /// Remove the entry at exactly `key`. Returns whether one existed.
    /// Statistics are untouched: eviction is bookkeeping, not a miss.
    pub fn remove(&mut self, key: f64) -> bool {
        let i = self.partition(key);
        if i < self.entries.len() && self.entries[i].0 == key {
            self.entries.remove(i);
            self.generations.remove(i);
            self.revision = next_revision();
            true
        } else {
            false
        }
    }

    /// Binary search for the insertion point of `key`.
    fn partition(&self, key: f64) -> usize {
        self.entries.partition_point(|(k, _)| *k < key)
    }

    /// Insert (or overwrite) the configuration for `key`, keeping the array
    /// sorted. "In case of a miss, we run the hill climbing ... and insert
    /// the newly found resource configuration into the cache."
    pub fn insert(&mut self, key: f64, config: ResourceConfig) {
        assert!(key.is_finite(), "cache keys must be finite");
        self.clock += 1;
        self.revision = next_revision();
        let i = self.partition(key);
        if i < self.entries.len() && self.entries[i].0 == key {
            self.entries[i].1 = config;
            self.generations[i] = self.clock;
        } else {
            self.entries.insert(i, (key, config));
            self.generations.insert(i, self.clock);
        }
        self.stats.insertions += 1;
    }

    /// Look up a configuration for `key` under the given policy. Counts a
    /// hit or a miss in [`CacheStats`]; a hit refreshes the last-hit
    /// generation of every entry that contributed to the answer.
    pub fn lookup(&mut self, key: f64, mode: CacheLookup) -> Option<ResourceConfig> {
        self.clock += 1;
        match self.lookup_indexed(key, mode) {
            Some((cfg, touched)) => {
                let clock = self.clock;
                for g in &mut self.generations[touched] {
                    *g = clock;
                }
                self.stats.hits += 1;
                Some(cfg)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The lookup result plus the index range of the entries it was built
    /// from (one entry for exact/nearest hits, the neighbor window for
    /// weighted averages).
    fn lookup_indexed(
        &self,
        key: f64,
        mode: CacheLookup,
    ) -> Option<(ResourceConfig, std::ops::Range<usize>)> {
        if self.entries.is_empty() {
            return None;
        }
        let i = self.partition(key);
        // Exact match first, for every mode (§VII-B: "Both variants first
        // look for exact match before trying the interpolation").
        if i < self.entries.len() && self.entries[i].0 == key {
            return Some((self.entries[i].1, i..i + 1));
        }
        match mode {
            CacheLookup::Exact => None,
            CacheLookup::NearestNeighbor { threshold } => {
                let (dist, j) = self.nearest(key, i)?;
                (dist <= threshold).then(|| (self.entries[j].1, j..j + 1))
            }
            CacheLookup::WeightedAverage { threshold } => {
                let window = self.neighbors_within(key, threshold);
                if window.is_empty() {
                    return None;
                }
                Some((weighted_average(key, &self.entries[window.clone()]), window))
            }
        }
    }

    /// Nearest entry to `key`, given the partition point `i`. Returns the
    /// distance and entry index.
    fn nearest(&self, key: f64, i: usize) -> Option<(f64, usize)> {
        let lo = i.checked_sub(1).map(|j| ((key - self.entries[j].0).abs(), j));
        let hi = (i < self.entries.len()).then(|| ((key - self.entries[i].0).abs(), i));
        match (lo, hi) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x),
            (Some((dl, jl)), Some((dh, jh))) => {
                Some(if dl <= dh { (dl, jl) } else { (dh, jh) })
            }
        }
    }

    /// Index range of entries with |entry.key − key| ≤ threshold.
    fn neighbors_within(&self, key: f64, threshold: f64) -> std::ops::Range<usize> {
        let lo = self.entries.partition_point(|(k, _)| *k < key - threshold);
        let hi = self.entries.partition_point(|(k, _)| *k <= key + threshold);
        lo..hi
    }
}

/// Inverse-distance weighted average of the neighbours' configurations.
fn weighted_average(key: f64, neighbors: &[(f64, ResourceConfig)]) -> ResourceConfig {
    debug_assert!(!neighbors.is_empty());
    let dims = neighbors[0].1.dims();
    let mut acc = vec![0.0; dims];
    let mut wsum = 0.0;
    for (k, cfg) in neighbors {
        // Guard distance away from zero; exact matches were already
        // returned before interpolation.
        let w = 1.0 / ((key - k).abs()).max(1e-12);
        wsum += w;
        for (d, a) in acc.iter_mut().enumerate() {
            *a += w * cfg.get(d);
        }
    }
    for a in acc.iter_mut() {
        *a /= wsum;
    }
    ResourceConfig::from_slice(&acc)
}

/// One compaction candidate: an entry, how cold it is, and what eviction
/// needs to find it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Victim {
    /// Accesses its cache has seen since the entry last answered one.
    pub staleness: u64,
    pub model: u32,
    pub operator: u32,
    pub key_bits: u64,
    /// Its cache's access clock when the candidate was listed; see
    /// [`CacheBank::evict`].
    pub clock: u64,
    /// Owning shard (0 in a plain bank): rides along for the sharded
    /// bank's eviction pass and never influences the order.
    pub shard: usize,
}

/// Append every entry of `bank` (shard `shard` of its owner) to `out`.
pub(crate) fn push_victims(bank: &CacheBank, shard: usize, out: &mut Vec<Victim>) {
    for (&(model, operator), cache) in bank.iter() {
        let clock = cache.generation();
        for (key, generation) in cache.entry_generations() {
            let staleness = clock - generation;
            out.push(Victim { staleness, model, operator, key_bits: key.to_bits(), clock, shard });
        }
    }
}

/// The one eviction policy, shared by [`CacheBank::compact`] and
/// [`ShardedCacheBank::compact`](crate::ShardedCacheBank::compact): cut
/// `victims` down to its `evict` coldest members — stalest first, ties
/// broken on (model, operator, key bits), which no two entries share, so
/// the chosen set is unique. A selection, not a sort: the order among the
/// victims decides nothing.
pub(crate) fn keep_coldest(victims: &mut Vec<Victim>, evict: usize) {
    if evict == 0 {
        victims.clear();
    } else if evict < victims.len() {
        victims.select_nth_unstable_by(evict - 1, |a, b| {
            (b.staleness.cmp(&a.staleness))
                .then(a.model.cmp(&b.model))
                .then(a.operator.cmp(&b.operator))
                .then(a.key_bits.cmp(&b.key_bits))
        });
        victims.truncate(evict);
    }
}

/// One [`ResourcePlanCache`] per (cost model, operator kind) pair, as §VI-B3
/// prescribes. Model/operator identifiers are small integers assigned by the
/// optimizer layer.
#[derive(Debug, Clone, Default)]
pub struct CacheBank {
    caches: BTreeMap<(u32, u32), ResourcePlanCache>,
}

impl CacheBank {
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache for a (model, operator) pair, created on first use.
    pub fn cache(&mut self, model: u32, operator: u32) -> &mut ResourcePlanCache {
        self.caches.entry((model, operator)).or_default()
    }

    /// Total entries across all member caches.
    pub fn total_entries(&self) -> usize {
        self.caches.values().map(|c| c.len()).sum()
    }

    /// Iterate the member caches with their (model, operator) keys, in key
    /// order (persistence and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &ResourcePlanCache)> {
        self.caches.iter()
    }

    /// Install a fully-built cache for a (model, operator) pair, replacing
    /// any existing one (persistence load path).
    pub fn insert_cache(&mut self, model: u32, operator: u32, cache: ResourcePlanCache) {
        self.caches.insert((model, operator), cache);
    }

    /// Aggregate statistics across all member caches.
    pub fn aggregate_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for c in self.caches.values() {
            s.hits += c.stats().hits;
            s.misses += c.stats().misses;
            s.insertions += c.stats().insertions;
        }
        s
    }

    /// Clear every member cache (between queries, unless across-query
    /// caching is being evaluated as in Fig. 15(b)).
    pub fn clear(&mut self) {
        self.caches.clear();
    }

    /// Remove the entry at exactly `key` from the (model, operator) cache,
    /// dropping the member cache when it becomes empty. Returns whether an
    /// entry existed.
    pub fn remove_entry(&mut self, model: u32, operator: u32, key: f64) -> bool {
        let Some(cache) = self.caches.get_mut(&(model, operator)) else { return false };
        let removed = cache.remove(key);
        if cache.is_empty() {
            self.caches.remove(&(model, operator));
        }
        removed
    }

    /// Remove the entry `victim` names — unless its cache has been
    /// accessed since the victim was listed. Then a plan is working in that
    /// cache right now (a sharded bank lists under a read lock and evicts
    /// later under a write lock), and evicting under it would make it
    /// climb again for what it had just cached: the same plan for more
    /// work, and a reply that differs from the one an undisturbed request
    /// gets. Such a cache keeps its entries until the next compaction.
    /// Returns whether an entry was removed.
    pub(crate) fn evict(&mut self, victim: &Victim) -> bool {
        let pair = (victim.model, victim.operator);
        let idle = self.caches.get(&pair).is_some_and(|c| c.generation() == victim.clock);
        idle && self.remove_entry(pair.0, pair.1, f64::from_bits(victim.key_bits))
    }

    /// Evict the coldest entries until the bank holds at most `high_water`
    /// entries. Coldness is staleness under each cache's access clock
    /// (`clock − last-hit generation`); ties break deterministically on
    /// (model, operator, key bits), so any two banks with the same access
    /// history compact to the same retained set. Retained entries answer
    /// every lookup bit-identically to the pre-compaction bank. Returns the
    /// number of entries evicted.
    pub fn compact(&mut self, high_water: usize) -> usize {
        let total = self.total_entries();
        if total <= high_water {
            return 0;
        }
        let mut victims = Vec::with_capacity(total);
        push_victims(self, 0, &mut victims);
        keep_coldest(&mut victims, total - high_water);
        let mut evicted = 0;
        for victim in &victims {
            if self.evict(victim) {
                evicted += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(c: f64, s: f64) -> ResourceConfig {
        ResourceConfig::containers_and_size(c, s)
    }

    #[test]
    fn exact_roundtrip() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(3.4, cfg(10.0, 3.0));
        assert_eq!(cache.lookup(3.4, CacheLookup::Exact), Some(cfg(10.0, 3.0)));
        assert_eq!(cache.lookup(3.5, CacheLookup::Exact), None);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn insert_overwrites_same_key() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(1.0, 1.0));
        cache.insert(1.0, cfg(9.0, 9.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(1.0, CacheLookup::Exact), Some(cfg(9.0, 9.0)));
    }

    #[test]
    fn entries_stay_sorted() {
        let mut cache = ResourcePlanCache::new();
        for k in [5.0, 1.0, 3.0, 2.0, 4.0] {
            cache.insert(k, cfg(k, k));
        }
        // Nearest-neighbour lookups only work if the array is sorted.
        for k in [1.0, 2.0, 3.0, 4.0, 5.0] {
            assert_eq!(cache.lookup(k, CacheLookup::Exact), Some(cfg(k, k)));
        }
    }

    #[test]
    fn nearest_neighbor_within_threshold() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(10.0, 2.0));
        cache.insert(2.0, cfg(20.0, 4.0));
        // 1.4 is nearer to 1.0.
        assert_eq!(
            cache.lookup(1.4, CacheLookup::NearestNeighbor { threshold: 0.5 }),
            Some(cfg(10.0, 2.0))
        );
        // 1.6 is nearer to 2.0.
        assert_eq!(
            cache.lookup(1.6, CacheLookup::NearestNeighbor { threshold: 0.5 }),
            Some(cfg(20.0, 4.0))
        );
        // Outside the threshold: miss.
        assert_eq!(
            cache.lookup(5.0, CacheLookup::NearestNeighbor { threshold: 0.5 }),
            None
        );
    }

    #[test]
    fn nearest_neighbor_at_boundaries() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(10.0, cfg(5.0, 5.0));
        // Query below the only key and above it.
        assert_eq!(
            cache.lookup(9.9, CacheLookup::NearestNeighbor { threshold: 0.2 }),
            Some(cfg(5.0, 5.0))
        );
        assert_eq!(
            cache.lookup(10.1, CacheLookup::NearestNeighbor { threshold: 0.2 }),
            Some(cfg(5.0, 5.0))
        );
    }

    #[test]
    fn weighted_average_interpolates() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(10.0, 2.0));
        cache.insert(3.0, cfg(30.0, 6.0));
        // Midpoint: equal weights → arithmetic mean.
        let got = cache
            .lookup(2.0, CacheLookup::WeightedAverage { threshold: 1.5 })
            .unwrap();
        assert!((got.containers() - 20.0).abs() < 1e-9);
        assert!((got.container_size_gb() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_average_weights_by_inverse_distance() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(0.0, cfg(0.0, 0.0));
        cache.insert(4.0, cfg(4.0, 4.0));
        // Query at 1.0: weights 1/1 and 1/3 → value (0*1 + 4*(1/3))/(4/3) = 1.
        let got = cache
            .lookup(1.0, CacheLookup::WeightedAverage { threshold: 10.0 })
            .unwrap();
        assert!((got.containers() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_average_misses_outside_threshold() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(10.0, 2.0));
        assert_eq!(
            cache.lookup(2.0, CacheLookup::WeightedAverage { threshold: 0.5 }),
            None
        );
    }

    #[test]
    fn approximate_modes_prefer_exact_match() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(10.0, 2.0));
        cache.insert(1.1, cfg(99.0, 9.0));
        // Exact key present: both modes must return it untouched.
        assert_eq!(
            cache.lookup(1.0, CacheLookup::NearestNeighbor { threshold: 1.0 }),
            Some(cfg(10.0, 2.0))
        );
        assert_eq!(
            cache.lookup(1.0, CacheLookup::WeightedAverage { threshold: 1.0 }),
            Some(cfg(10.0, 2.0))
        );
    }

    #[test]
    fn empty_cache_misses_all_modes() {
        let mut cache = ResourcePlanCache::new();
        for mode in [
            CacheLookup::Exact,
            CacheLookup::NearestNeighbor { threshold: 1.0 },
            CacheLookup::WeightedAverage { threshold: 1.0 },
        ] {
            assert_eq!(cache.lookup(1.0, mode), None);
        }
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn clear_resets_entries_and_stats() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(1.0, 1.0));
        cache.lookup(1.0, CacheLookup::Exact);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn bank_separates_model_operator_pairs() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(1.0, cfg(1.0, 1.0));
        bank.cache(1, 0).insert(1.0, cfg(2.0, 2.0));
        assert_eq!(bank.cache(0, 0).lookup(1.0, CacheLookup::Exact), Some(cfg(1.0, 1.0)));
        assert_eq!(bank.cache(1, 0).lookup(1.0, CacheLookup::Exact), Some(cfg(2.0, 2.0)));
        assert_eq!(bank.total_entries(), 2);
        let stats = bank.aggregate_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 2);
        bank.clear();
        assert_eq!(bank.total_entries(), 0);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats { hits: 3, misses: 1, insertions: 0 };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_key_rejected() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(f64::NAN, cfg(1.0, 1.0));
    }

    #[test]
    fn remove_keeps_entries_and_generations_aligned() {
        let mut cache = ResourcePlanCache::new();
        for k in [1.0, 2.0, 3.0] {
            cache.insert(k, cfg(k, k));
        }
        assert!(cache.remove(2.0));
        assert!(!cache.remove(2.0), "already gone");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.entry_generations().count(), 2);
        assert_eq!(cache.lookup(1.0, CacheLookup::Exact), Some(cfg(1.0, 1.0)));
        assert_eq!(cache.lookup(3.0, CacheLookup::Exact), Some(cfg(3.0, 3.0)));
    }

    #[test]
    fn lookups_refresh_last_hit_generations() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(1.0, 1.0));
        cache.insert(2.0, cfg(2.0, 2.0));
        cache.insert(3.0, cfg(3.0, 3.0));
        // Touch 1.0 repeatedly; 2.0 and 3.0 go stale.
        for _ in 0..5 {
            cache.lookup(1.0, CacheLookup::Exact);
        }
        let gens: std::collections::BTreeMap<u64, u64> = cache
            .entry_generations()
            .map(|(k, g)| (k.to_bits(), g))
            .collect();
        assert_eq!(gens[&1.0f64.to_bits()], cache.generation());
        assert!(gens[&2.0f64.to_bits()] < gens[&1.0f64.to_bits()]);
        // A nearest-neighbor hit refreshes the entry that answered it.
        cache.lookup(2.9, CacheLookup::NearestNeighbor { threshold: 0.5 });
        let g3: u64 = cache
            .entry_generations()
            .find(|(k, _)| *k == 3.0)
            .map(|(_, g)| g)
            .unwrap();
        assert_eq!(g3, cache.generation());
    }

    #[test]
    fn weighted_hit_refreshes_every_contributing_neighbor() {
        let mut cache = ResourcePlanCache::new();
        cache.insert(1.0, cfg(1.0, 1.0));
        cache.insert(2.0, cfg(2.0, 2.0));
        cache.insert(9.0, cfg(9.0, 9.0));
        cache.lookup(1.5, CacheLookup::WeightedAverage { threshold: 1.0 });
        let clock = cache.generation();
        let gens: Vec<(f64, u64)> = cache.entry_generations().collect();
        assert_eq!(gens[0].1, clock, "1.0 contributed");
        assert_eq!(gens[1].1, clock, "2.0 contributed");
        assert!(gens[2].1 < clock, "9.0 was outside the window");
    }

    #[test]
    fn compact_evicts_coldest_first_and_answers_retained_keys_identically() {
        let mut bank = CacheBank::new();
        for k in 0..10u32 {
            bank.cache(0, 0).insert(k as f64, cfg(k as f64, 1.0));
        }
        // Keep keys 0..5 hot.
        for k in 0..5u32 {
            bank.cache(0, 0).lookup(k as f64, CacheLookup::Exact);
        }
        let before: Vec<Option<ResourceConfig>> = (0..5u32)
            .map(|k| bank.cache(0, 0).lookup_indexed(k as f64, CacheLookup::Exact).map(|(c, _)| c))
            .collect();
        let evicted = bank.compact(5);
        assert_eq!(evicted, 5);
        assert_eq!(bank.total_entries(), 5);
        for k in 0..5u32 {
            let got = bank.cache(0, 0).lookup(k as f64, CacheLookup::Exact);
            assert_eq!(got, before[k as usize], "retained key answers bit-identically");
        }
        for k in 5..10u32 {
            assert_eq!(bank.cache(0, 0).lookup(k as f64, CacheLookup::Exact), None);
        }
    }

    #[test]
    fn compact_below_high_water_is_a_no_op() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(1.0, cfg(1.0, 1.0));
        assert_eq!(bank.compact(10), 0);
        assert_eq!(bank.total_entries(), 1);
        assert_eq!(bank.compact(1), 0, "exactly at the mark is fine");
    }

    #[test]
    fn compact_drops_emptied_member_caches() {
        let mut bank = CacheBank::new();
        bank.cache(0, 0).insert(1.0, cfg(1.0, 1.0));
        bank.cache(1, 0).insert(2.0, cfg(2.0, 2.0));
        // Touch the (1, 0) entry so (0, 0)'s entry is the stalest.
        bank.cache(1, 0).lookup(2.0, CacheLookup::Exact);
        assert_eq!(bank.compact(1), 1);
        assert_eq!(bank.iter().count(), 1, "emptied cache is pruned");
        assert_eq!(bank.iter().next().unwrap().0, &(1, 0));
    }

    #[test]
    fn revision_follows_content_not_access() {
        let mut cache = ResourcePlanCache::new();
        assert_eq!(cache.revision(), 0, "never held anything");
        cache.insert(1.0, cfg(1.0, 1.0));
        let inserted = cache.revision();
        assert_ne!(inserted, 0);
        // Hits and misses move the clock and the statistics only.
        cache.lookup(1.0, CacheLookup::Exact);
        cache.lookup(2.0, CacheLookup::NearestNeighbor { threshold: 0.1 });
        assert!(!cache.remove(2.0), "nothing there");
        assert_eq!(cache.revision(), inserted);
        assert_eq!(cache.clone().revision(), inserted, "a clone has the same content");
        // Overwriting, removing and clearing each renew it, and a fresh
        // cache that repeats this one's history never repeats its stamps.
        let mut seen = vec![inserted];
        cache.insert(1.0, cfg(9.0, 9.0));
        seen.push(cache.revision());
        assert!(cache.remove(1.0));
        seen.push(cache.revision());
        cache.clear();
        seen.push(cache.revision());
        let mut again = ResourcePlanCache::new();
        again.insert(1.0, cfg(1.0, 1.0));
        seen.push(again.revision());
        seen.push(ResourcePlanCache::from_entries(vec![(1.0, cfg(1.0, 1.0))]).revision());
        let distinct: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "{seen:?}");
    }

    #[test]
    fn eviction_spares_a_cache_accessed_since_it_was_listed() {
        let mut bank = CacheBank::new();
        for k in 0..4u32 {
            bank.cache(0, 0).insert(k as f64, cfg(1.0, 1.0));
            bank.cache(1, 0).insert(k as f64, cfg(1.0, 1.0));
        }
        let mut victims = Vec::new();
        push_victims(&bank, 0, &mut victims);
        assert_eq!(victims.len(), 8);
        // A plan looks into cache (1, 0) — hit or miss — after the listing.
        bank.cache(1, 0).lookup(9.0, CacheLookup::Exact);
        let evicted: Vec<(u32, bool)> = victims.iter().map(|v| (v.model, bank.evict(v))).collect();
        assert!(evicted.iter().all(|&(model, gone)| gone == (model == 0)), "{evicted:?}");
        assert_eq!(bank.total_entries(), 4);
        // Listed again, the cache is idle and loses its entries like any other.
        victims.clear();
        push_victims(&bank, 0, &mut victims);
        assert!(victims.iter().all(|v| bank.evict(v)));
        assert_eq!(bank.total_entries(), 0);
    }

    proptest::proptest! {
        /// The selection keeps exactly the set the full sort kept, for any
        /// candidates (ties in staleness included) and any eviction count.
        #[test]
        fn prop_keep_coldest_matches_the_full_sort(
            raw in proptest::collection::vec((0u64..4, 0u32..3, 0u32..2, 0u64..6), 0..60),
            evict in 0usize..70,
        ) {
            // (model, operator, key bits) identifies an entry: no duplicates.
            let mut seen = std::collections::BTreeSet::new();
            let candidates: Vec<Victim> = raw
                .into_iter()
                .filter(|&(_, m, o, k)| seen.insert((m, o, k)))
                .enumerate()
                .map(|(i, (staleness, model, operator, key_bits))| Victim {
                    staleness,
                    model,
                    operator,
                    key_bits,
                    clock: 0,
                    shard: i % 3,
                })
                .collect();
            let mut sorted = candidates.clone();
            sorted.sort_by(|a, b| {
                (b.staleness.cmp(&a.staleness))
                    .then(a.model.cmp(&b.model))
                    .then(a.operator.cmp(&b.operator))
                    .then(a.key_bits.cmp(&b.key_bits))
            });
            sorted.truncate(evict);
            let mut selected = candidates;
            keep_coldest(&mut selected, evict);
            selected.sort();
            sorted.sort();
            proptest::prop_assert_eq!(selected, sorted);
        }

        /// Compaction never changes what a retained key answers: for any
        /// insert/lookup history and any high-water mark, every key that
        /// survives answers its exact lookup bit-identically to the
        /// pre-compaction bank.
        #[test]
        fn prop_compacted_bank_answers_retained_keys_bit_identically(
            raw_ops in proptest::collection::vec((0u32..4, 0u64..32, proptest::bool::ANY), 1..80),
            high_water in 0usize..40,
        ) {
            let mut bank = CacheBank::new();
            for (model, k, is_insert) in &raw_ops {
                let key = *k as f64 / 2.0;
                if *is_insert {
                    bank.cache(*model, 0).insert(key, cfg(key + 1.0, (*model + 1) as f64));
                } else {
                    bank.cache(*model, 0).lookup(key, CacheLookup::Exact);
                }
            }
            // Record every present key's answer before compaction.
            let mut answers: Vec<(u32, f64, ResourceConfig)> = Vec::new();
            let pairs: Vec<(u32, u32)> = bank.iter().map(|(&p, _)| p).collect();
            for (model, operator) in pairs {
                let keys: Vec<f64> = bank
                    .cache(model, operator)
                    .entries()
                    .iter()
                    .map(|(k, _)| *k)
                    .collect();
                for key in keys {
                    let got = bank
                        .cache(model, operator)
                        .lookup_indexed(key, CacheLookup::Exact)
                        .map(|(c, _)| c)
                        .expect("present key must answer");
                    answers.push((model, key, got));
                }
            }
            let total = bank.total_entries();
            let evicted = bank.compact(high_water);
            proptest::prop_assert_eq!(evicted, total.saturating_sub(high_water));
            proptest::prop_assert_eq!(bank.total_entries(), total.min(high_water));
            for (model, key, before) in answers {
                if let Some((after, _)) =
                    bank.cache(model, 0).lookup_indexed(key, CacheLookup::Exact)
                {
                    proptest::prop_assert_eq!(after, before, "retained key diverged");
                }
            }
        }
    }
}
