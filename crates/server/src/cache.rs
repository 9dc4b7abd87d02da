//! Generation-keyed answer cache: memoizing hot slice answers across
//! requests.
//!
//! The admission layer probes this cache for every query before executing
//! it; hits replay a stored answer with zero
//! planning, pinning, or page I/O, and misses execute normally and populate
//! the cache on the way out. Correctness rests on *structural* freshness,
//! not TTLs: entries are stored with the [`AnswerStamp`] vector of the
//! pinned state they were computed from, and a probe compares those against
//! the engine's current stamps ([`ServingEngine::answer_stamps`]). Both
//! stamp components — generation number and delta epoch — are strictly
//! monotone, so equality proves the visible state is identical to the one
//! the answer was read under: a hit is MVCC-equivalent to a fresh pinned
//! execution. A refresh flip or a delta ingest bumps a component, the
//! stamps stop matching, and the stale entry is removed at first probe
//! (counted as `cache.invalidations`) or reclaimed by eviction.
//!
//! The cache is sharded by query-key digest to keep the lock cheap, bounded
//! by a byte budget with second-chance (clock) eviction, and guarded by a
//! frequency-gated admission filter so one-off queries never displace hot
//! entries: a query's first arrival is observed but not cached, and only a
//! repeat within the doorkeeper's memory is admitted.
//!
//! [`ServingEngine::answer_stamps`]: cubetree::ServingEngine::answer_stamps

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ct_common::query::QueryRow;
use ct_common::QueryKey;
use cubetree::AnswerStamp;

/// Frequency-doorkeeper slots per cache shard. Collisions only ever admit
/// early (two queries sharing a slot pool their counts), never reject a
/// genuinely hot query, so a small table suffices.
const FREQ_SLOTS: usize = 512;

/// After this many doorkeeper observations in a shard, every slot count is
/// halved — an aging scheme that lets yesterday's hot set decay instead of
/// saturating the counters forever.
const FREQ_HALVE_AT: u32 = 8192;

/// Fixed per-entry bookkeeping charge (map node, ring slot, stamp vector,
/// `Arc` header) added on top of the measured key/row payload bytes.
const ENTRY_OVERHEAD: u64 = 160;

/// Answer-cache tuning knobs (surfaced as `ServerConfig::cache`).
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Disable switch: `false` routes every query down the execute path
    /// untouched — bit-identical to a server built without the cache.
    pub enabled: bool,
    /// Total byte budget across all cache shards. Entries are charged
    /// their approximate key + row payload plus a fixed overhead; eviction
    /// keeps each shard within its `max_bytes / shards` slice.
    pub max_bytes: u64,
    /// A query is cached only once the doorkeeper has seen it this many
    /// times (the arrival that would be cached counts). `1` caches on
    /// first sight; the default `2` keeps one-off queries out.
    pub admission_threshold: u32,
    /// Lock shards (clamped to at least 1). Probes hash the query key to a
    /// shard, so concurrent connection threads rarely contend.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            max_bytes: 32 * 1024 * 1024,
            admission_threshold: 2,
            shards: 8,
        }
    }
}

/// Outcome of [`AnswerCache::probe`].
pub enum Probe {
    /// A stored answer whose stamps match the engine's current state; the
    /// rows are shared, not copied.
    Hit(Arc<Vec<QueryRow>>),
    /// No current entry. `admit` is the doorkeeper's verdict for this
    /// arrival: pass it to [`AnswerCache::populate`] so the filter is
    /// consulted once per miss, not once per probe and once per insert.
    Miss {
        /// True when this query is hot enough to cache on the way out.
        admit: bool,
    },
}

struct Entry {
    /// Stamps of the pinned state the rows were computed from.
    stamps: Vec<AnswerStamp>,
    /// The memoized answer, shared with in-flight hit responses.
    rows: Arc<Vec<QueryRow>>,
    /// Second-chance bit: set on hit, cleared when the clock hand passes.
    referenced: bool,
    /// Matches the entry's live ring slot; older slots for the same key are
    /// dangling and skipped by the eviction hand.
    slot_epoch: u64,
    /// Approximate bytes charged against the shard budget.
    cost: u64,
}

struct CacheShard {
    map: HashMap<QueryKey, Entry>,
    /// Clock ring of (key, slot_epoch) candidates, oldest at the front.
    ring: VecDeque<(QueryKey, u64)>,
    bytes: u64,
    next_slot_epoch: u64,
    freq: [u8; FREQ_SLOTS],
    freq_observations: u32,
}

impl CacheShard {
    fn new() -> CacheShard {
        CacheShard {
            map: HashMap::new(),
            ring: VecDeque::new(),
            bytes: 0,
            next_slot_epoch: 0,
            freq: [0; FREQ_SLOTS],
            freq_observations: 0,
        }
    }

    /// Observes one arrival of `digest` and reports whether the query has
    /// now been seen at least `threshold` times (approximately — slots are
    /// shared, so collisions can only admit early).
    fn observe(&mut self, digest: u64, threshold: u32) -> bool {
        let slot = (digest >> 9) as usize % FREQ_SLOTS;
        self.freq[slot] = self.freq[slot].saturating_add(1);
        self.freq_observations += 1;
        if self.freq_observations >= FREQ_HALVE_AT {
            for c in &mut self.freq {
                *c >>= 1;
            }
            self.freq_observations = 0;
        }
        u32::from(self.freq[slot]) >= threshold
    }
}

/// The sharded, byte-bounded, generation-keyed answer cache.
pub struct AnswerCache {
    shards: Vec<Mutex<CacheShard>>,
    /// Per-shard byte budget (`max_bytes / shards`).
    shard_budget: u64,
    admission_threshold: u32,
    /// Total resident bytes across shards (feeds the `cache.bytes` gauge).
    bytes: AtomicU64,
    hits: ct_obs::Counter,
    misses: ct_obs::Counter,
    inserts: ct_obs::Counter,
    evictions: ct_obs::Counter,
    invalidations: ct_obs::Counter,
    bytes_gauge: ct_obs::Gauge,
    hit_rate: ct_obs::Gauge,
}

impl AnswerCache {
    /// Builds a cache from `config`, registering its `cache.*` metrics on
    /// `recorder`. Returns `None` when the cache is disabled, so callers
    /// carry an `Option<Arc<AnswerCache>>` and a disabled cache costs
    /// nothing on the query path.
    pub fn from_config(config: &CacheConfig, recorder: &ct_obs::Recorder) -> Option<Arc<AnswerCache>> {
        if !config.enabled || config.max_bytes == 0 {
            return None;
        }
        let shards = config.shards.max(1);
        Some(Arc::new(AnswerCache {
            shards: (0..shards).map(|_| Mutex::new(CacheShard::new())).collect(),
            shard_budget: (config.max_bytes / shards as u64).max(1),
            admission_threshold: config.admission_threshold.max(1),
            bytes: AtomicU64::new(0),
            hits: recorder.counter("cache.hits"),
            misses: recorder.counter("cache.misses"),
            inserts: recorder.counter("cache.inserts"),
            evictions: recorder.counter("cache.evictions"),
            invalidations: recorder.counter("cache.invalidations"),
            bytes_gauge: recorder.gauge("cache.bytes"),
            hit_rate: recorder.gauge("cache.hit_rate"),
        }))
    }

    fn shard_of(&self, digest: u64) -> &Mutex<CacheShard> {
        &self.shards[digest as usize % self.shards.len()]
    }

    /// Looks up `key` against the engine's current `stamps`. A stored entry
    /// with different stamps is structurally stale — it is removed here
    /// (counted as an invalidation) and the probe reports a miss. An empty
    /// `stamps` (unloaded engine) can never match and is never admitted.
    pub fn probe(&self, key: &QueryKey, stamps: &[AnswerStamp]) -> Probe {
        let digest = key.digest();
        let mut shard = self.shard_of(digest).lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = shard.map.get_mut(key) {
            if !stamps.is_empty() && entry.stamps == stamps {
                entry.referenced = true;
                let rows = Arc::clone(&entry.rows);
                drop(shard);
                self.hits.inc();
                self.publish_rates();
                return Probe::Hit(rows);
            }
            let cost = entry.cost;
            shard.map.remove(key);
            shard.bytes -= cost;
            self.bytes.fetch_sub(cost, Ordering::Relaxed);
            self.invalidations.inc();
            // The ring slot dangles; the eviction hand skips it.
        }
        let admit = !stamps.is_empty() && shard.observe(digest, self.admission_threshold);
        drop(shard);
        self.misses.inc();
        self.publish_rates();
        Probe::Miss { admit }
    }

    /// Stores an answer computed under `stamps`. Call only when the miss
    /// that produced it reported `admit: true`. Oversized answers (cost
    /// above one shard's whole budget) are skipped rather than flushing a
    /// shard to hold one entry.
    pub fn populate(&self, key: QueryKey, stamps: Vec<AnswerStamp>, rows: Arc<Vec<QueryRow>>) {
        if stamps.is_empty() {
            return;
        }
        let cost = entry_cost(&key, &stamps, &rows);
        if cost > self.shard_budget {
            return;
        }
        let digest = key.digest();
        let mut shard = self.shard_of(digest).lock().unwrap_or_else(|p| p.into_inner());
        let mut evicted = 0u64;
        if let Some(old) = shard.map.remove(&key) {
            // Concurrent requests answered the same query; keep the newer
            // stamps (monotone, so "newer" is whichever arrives last —
            // either way the next probe validates against live stamps).
            shard.bytes -= old.cost;
            self.bytes.fetch_sub(old.cost, Ordering::Relaxed);
        }
        // Second-chance hand: advance until the budget fits, giving each
        // referenced entry one reprieve per lap.
        while shard.bytes + cost > self.shard_budget {
            let Some((victim_key, slot_epoch)) = shard.ring.pop_front() else {
                break;
            };
            let reprieve = match shard.map.get_mut(&victim_key) {
                // Dangling slot (entry replaced or invalidated): skip.
                None => continue,
                Some(e) if e.slot_epoch != slot_epoch => continue,
                Some(e) if e.referenced => {
                    e.referenced = false;
                    true
                }
                Some(_) => false,
            };
            if reprieve {
                let epoch = shard.next_slot_epoch;
                shard.next_slot_epoch += 1;
                if let Some(e) = shard.map.get_mut(&victim_key) {
                    e.slot_epoch = epoch;
                }
                shard.ring.push_back((victim_key, epoch));
            } else {
                let e = shard.map.remove(&victim_key).expect("entry present");
                shard.bytes -= e.cost;
                self.bytes.fetch_sub(e.cost, Ordering::Relaxed);
                evicted += 1;
            }
        }
        let epoch = shard.next_slot_epoch;
        shard.next_slot_epoch += 1;
        shard.ring.push_back((key.clone(), epoch));
        shard.map.insert(
            key,
            Entry { stamps, rows, referenced: false, slot_epoch: epoch, cost },
        );
        shard.bytes += cost;
        self.bytes.fetch_add(cost, Ordering::Relaxed);
        drop(shard);
        self.inserts.inc();
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        self.bytes_gauge.set(self.bytes.load(Ordering::Relaxed) as f64);
    }

    /// Resident bytes across every shard.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn publish_rates(&self) {
        let hits = self.hits.get();
        let total = hits + self.misses.get();
        if total > 0 {
            self.hit_rate.set(hits as f64 / total as f64);
        }
        self.bytes_gauge.set(self.bytes.load(Ordering::Relaxed) as f64);
    }
}

/// Approximate resident bytes of one entry: measured key bytes, row
/// payload (`key` coordinates + aggregate + `Vec` headers), stamps, and the
/// fixed bookkeeping overhead.
fn entry_cost(key: &QueryKey, stamps: &[AnswerStamp], rows: &[QueryRow]) -> u64 {
    let row_bytes: u64 =
        rows.iter().map(|r| 32 + 8 * r.key.len() as u64 + 8).sum();
    key.approx_bytes() + 16 * stamps.len() as u64 + row_bytes + ENTRY_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::SliceQuery;

    fn stamp(generation: u64, delta_epoch: u64) -> AnswerStamp {
        AnswerStamp { generation, delta_epoch }
    }

    fn rows(n: u64) -> Arc<Vec<QueryRow>> {
        Arc::new((0..n).map(|i| QueryRow { key: vec![i], agg: i as f64 }).collect())
    }

    fn cache(config: CacheConfig) -> (Arc<AnswerCache>, ct_obs::Recorder) {
        let recorder = ct_obs::Recorder::enabled();
        let cache = AnswerCache::from_config(&config, &recorder).expect("enabled");
        (cache, recorder)
    }

    fn key_of(preds: &[(u16, u64)]) -> QueryKey {
        let q = SliceQuery::new(
            vec![],
            preds.iter().map(|&(a, v)| (ct_common::AttrId(a), v)).collect(),
        );
        q.cache_key()
    }

    #[test]
    fn hit_after_admitted_populate() {
        let (cache, _) = cache(CacheConfig { admission_threshold: 1, ..CacheConfig::default() });
        let key = key_of(&[(0, 1)]);
        let stamps = vec![stamp(3, 7)];
        let Probe::Miss { admit } = cache.probe(&key, &stamps) else {
            panic!("first probe must miss")
        };
        assert!(admit, "threshold 1 admits on first sight");
        cache.populate(key.clone(), stamps.clone(), rows(4));
        match cache.probe(&key, &stamps) {
            Probe::Hit(r) => assert_eq!(r.len(), 4),
            Probe::Miss { .. } => panic!("stamped entry must hit"),
        }
    }

    #[test]
    fn stamp_mismatch_invalidates() {
        let (cache, recorder) =
            cache(CacheConfig { admission_threshold: 1, ..CacheConfig::default() });
        let key = key_of(&[(0, 1)]);
        cache.probe(&key, &[stamp(3, 7)]);
        cache.populate(key.clone(), vec![stamp(3, 7)], rows(2));
        // Generation moved (refresh): the entry must not serve.
        assert!(matches!(cache.probe(&key, &[stamp(4, 7)]), Probe::Miss { .. }));
        assert_eq!(recorder.counter("cache.invalidations").get(), 1);
        // Delta epoch moved (ingest): same story.
        cache.populate(key.clone(), vec![stamp(4, 7)], rows(2));
        assert!(matches!(cache.probe(&key, &[stamp(4, 8)]), Probe::Miss { .. }));
        assert_eq!(recorder.counter("cache.invalidations").get(), 2);
        // Invalidation released the bytes.
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn doorkeeper_blocks_one_off_queries() {
        let (cache, _) = cache(CacheConfig { admission_threshold: 2, ..CacheConfig::default() });
        let key = key_of(&[(0, 9)]);
        let stamps = vec![stamp(1, 1)];
        let Probe::Miss { admit } = cache.probe(&key, &stamps) else { panic!("miss") };
        assert!(!admit, "first sight is observed, not admitted");
        let Probe::Miss { admit } = cache.probe(&key, &stamps) else { panic!("miss") };
        assert!(admit, "second sight passes threshold 2");
    }

    #[test]
    fn eviction_respects_byte_budget_and_second_chance() {
        let (cache, recorder) = cache(CacheConfig {
            max_bytes: 2048,
            shards: 1,
            admission_threshold: 1,
            ..CacheConfig::default()
        });
        let stamps = vec![stamp(1, 0)];
        // Touch key 0 so it carries the referenced bit, then overflow the
        // budget with fresh keys.
        let hot = key_of(&[(0, 0)]);
        cache.probe(&hot, &stamps);
        cache.populate(hot.clone(), stamps.clone(), rows(8));
        for v in 1..8u64 {
            // A genuinely hot entry keeps getting probed between fills;
            // each hit re-arms its second-chance bit.
            assert!(matches!(cache.probe(&hot, &stamps), Probe::Hit(_)));
            let k = key_of(&[(0, v)]);
            cache.probe(&k, &stamps);
            cache.populate(k, stamps.clone(), rows(8));
        }
        assert!(cache.resident_bytes() <= 2048, "budget held: {}", cache.resident_bytes());
        assert!(recorder.counter("cache.evictions").get() > 0, "something was evicted");
        // The referenced entry survived its first clock lap.
        assert!(
            matches!(cache.probe(&hot, &stamps), Probe::Hit(_)),
            "second chance kept the hot entry"
        );
    }

    #[test]
    fn oversized_answers_are_not_cached() {
        let (cache, _) = cache(CacheConfig {
            max_bytes: 1024,
            shards: 1,
            admission_threshold: 1,
            ..CacheConfig::default()
        });
        let key = key_of(&[(0, 1)]);
        let stamps = vec![stamp(1, 0)];
        cache.probe(&key, &stamps);
        cache.populate(key.clone(), stamps.clone(), rows(1000));
        assert!(matches!(cache.probe(&key, &stamps), Probe::Miss { .. }));
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn empty_stamps_never_match_or_admit() {
        let (cache, _) = cache(CacheConfig { admission_threshold: 1, ..CacheConfig::default() });
        let key = key_of(&[(0, 1)]);
        let Probe::Miss { admit } = cache.probe(&key, &[]) else { panic!("miss") };
        assert!(!admit, "unloaded-engine probes are never admitted");
        cache.populate(key.clone(), vec![], rows(2));
        assert!(matches!(cache.probe(&key, &[]), Probe::Miss { .. }));
    }

    #[test]
    fn disabled_config_builds_no_cache() {
        let recorder = ct_obs::Recorder::enabled();
        let off = CacheConfig { enabled: false, ..CacheConfig::default() };
        assert!(AnswerCache::from_config(&off, &recorder).is_none());
    }

    #[test]
    fn multi_stamp_entries_match_only_in_full() {
        let (cache, _) = cache(CacheConfig { admission_threshold: 1, ..CacheConfig::default() });
        let key = key_of(&[(0, 2)]);
        // `ServedAnswer.stamps` is a list: every element must match.
        let stored = vec![stamp(2, 5), stamp(9, 0)];
        cache.probe(&key, &stored);
        cache.populate(key.clone(), stored.clone(), rows(1));
        assert!(matches!(cache.probe(&key, &stored), Probe::Hit(_)));
        // Only the second stamp moved: must miss.
        assert!(matches!(cache.probe(&key, &[stamp(2, 5), stamp(10, 0)]), Probe::Miss { .. }));
    }
}
