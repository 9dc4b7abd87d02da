//! Stamp-keyed answer cache: memoizing slice answers across requests.
//!
//! The admission layer probes this cache for every query before executing
//! it; hits replay a stored answer with zero planning, pinning, or page I/O,
//! and misses execute normally and populate the cache on the way out.
//! Correctness rests on *structural* freshness, not TTLs: the cache holds
//! one [`AnswerStamp`] vector, the stamps every stored answer was computed
//! under, and each probe and populate brings the engine's current stamps
//! ([`ServingEngine::answer_stamps`]). Both stamp components — generation
//! number and delta epoch — are strictly monotone, so equality proves the
//! visible state is identical to the one the answers were read under: a hit
//! is MVCC-equivalent to a fresh pinned execution. A refresh flip or a delta
//! ingest bumps a component, the stamps stop matching, and the next probe or
//! populate clears every entry (each counted as `cache.invalidations`) and
//! adopts the new stamps. One forest gives every query the same stamps, so
//! one stamp per cache loses no hits.
//!
//! One mutex guards a map and its insertion-order queue; a populate evicts
//! the oldest entries until the new answer fits the byte budget (FIFO).
//!
//! [`ServingEngine::answer_stamps`]: cubetree::ServingEngine::answer_stamps

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ct_common::query::QueryRow;
use ct_common::QueryKey;
use cubetree::AnswerStamp;

/// Fixed per-entry bookkeeping charge (map node, queue slot, `Arc` header)
/// added on top of the measured key/row payload bytes.
const ENTRY_OVERHEAD: u64 = 160;

/// Answer-cache tuning (surfaced as `ServerConfig::cache`).
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Byte budget. Entries are charged their approximate key + row payload
    /// plus a fixed overhead. `0` builds no cache: every query executes,
    /// bit-identical to a server built without it.
    pub max_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_bytes: 32 * 1024 * 1024 }
    }
}

struct State {
    /// Stored answers and their charged bytes.
    map: HashMap<QueryKey, (Arc<Vec<QueryRow>>, u64)>,
    /// The keys of `map` in insertion order, oldest at the front.
    order: VecDeque<QueryKey>,
    bytes: u64,
    /// The stamps every stored answer was computed under.
    stamps: Vec<AnswerStamp>,
}

/// The byte-bounded, stamp-keyed answer cache.
pub struct AnswerCache {
    state: Mutex<State>,
    max_bytes: u64,
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
    /// `recorder`. Returns `None` when `max_bytes` is `0`, so callers carry
    /// an `Option<Arc<AnswerCache>>` and a disabled cache costs nothing on
    /// the query path.
    pub fn from_config(config: &CacheConfig, recorder: &ct_obs::Recorder) -> Option<Arc<AnswerCache>> {
        if config.max_bytes == 0 {
            return None;
        }
        let state = State { map: HashMap::new(), order: VecDeque::new(), bytes: 0, stamps: vec![] };
        Some(Arc::new(AnswerCache {
            state: Mutex::new(state),
            max_bytes: config.max_bytes,
            hits: recorder.counter("cache.hits"),
            misses: recorder.counter("cache.misses"),
            inserts: recorder.counter("cache.inserts"),
            evictions: recorder.counter("cache.evictions"),
            invalidations: recorder.counter("cache.invalidations"),
            bytes_gauge: recorder.gauge("cache.bytes"),
            hit_rate: recorder.gauge("cache.hit_rate"),
        }))
    }

    /// The worst a panicking holder can leave is a queued key missing from
    /// the map, which eviction skips, so poison carries no information.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` against the engine's current `stamps`. Stamps that
    /// differ from the cache's clear it first, so the probe misses. Empty
    /// `stamps` (unloaded engine) never match.
    pub fn probe(&self, key: &QueryKey, stamps: &[AnswerStamp]) -> Option<Arc<Vec<QueryRow>>> {
        let hit = if stamps.is_empty() {
            None
        } else {
            let mut state = self.lock();
            self.adopt(&mut state, stamps);
            state.map.get(key).map(|(rows, _)| Arc::clone(rows))
        };
        match hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        let hits = self.hits.get();
        self.hit_rate.set(hits as f64 / (hits + self.misses.get()) as f64);
        hit
    }

    /// Stores an answer computed under `stamps`, evicting the oldest entries
    /// until it fits. A key already present keeps its entry. Answers costing
    /// more than the whole budget, and answers with empty stamps, are not
    /// stored.
    pub fn populate(&self, key: QueryKey, stamps: Vec<AnswerStamp>, rows: Arc<Vec<QueryRow>>) {
        let cost = entry_cost(&key, &rows);
        if stamps.is_empty() || cost > self.max_bytes {
            return;
        }
        let mut state = self.lock();
        self.adopt(&mut state, &stamps);
        if state.map.contains_key(&key) {
            return;
        }
        let mut evicted = 0;
        while state.bytes + cost > self.max_bytes {
            let Some(oldest) = state.order.pop_front() else { break };
            if let Some((_, freed)) = state.map.remove(&oldest) {
                state.bytes -= freed;
                evicted += 1;
            }
        }
        state.order.push_back(key.clone());
        state.map.insert(key, (rows, cost));
        state.bytes += cost;
        self.bytes_gauge.set(state.bytes as f64);
        drop(state);
        self.inserts.inc();
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }

    /// Clears every entry if `stamps` differ from the cache's, counting each
    /// as an invalidation, and adopts them.
    fn adopt(&self, state: &mut State, stamps: &[AnswerStamp]) {
        if state.stamps == stamps {
            return;
        }
        self.invalidations.add(state.map.len() as u64);
        self.bytes_gauge.set(0.0);
        state.map.clear();
        state.order.clear();
        state.bytes = 0;
        state.stamps = stamps.to_vec();
    }

    /// Resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().bytes
    }
}

/// Approximate resident bytes of one entry: measured key bytes, row payload
/// (`key` coordinates + aggregate + `Vec` headers), and the fixed
/// bookkeeping overhead.
fn entry_cost(key: &QueryKey, rows: &[QueryRow]) -> u64 {
    let row_bytes: u64 = rows.iter().map(|r| 32 + 8 * r.key.len() as u64 + 8).sum();
    key.approx_bytes() + row_bytes + ENTRY_OVERHEAD
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

    fn cache(max_bytes: u64) -> (Arc<AnswerCache>, ct_obs::Recorder) {
        let recorder = ct_obs::Recorder::enabled();
        let cache =
            AnswerCache::from_config(&CacheConfig { max_bytes }, &recorder).expect("enabled");
        (cache, recorder)
    }

    fn key_of(preds: &[(u16, u64)]) -> QueryKey {
        let q = SliceQuery::new(
            vec![],
            preds.iter().map(|&(a, v)| (ct_common::AttrId(a), v)).collect(),
        );
        q.cache_key()
    }

    fn queue_len(cache: &AnswerCache) -> (usize, usize) {
        let state = cache.lock();
        (state.order.len(), state.map.len())
    }

    #[test]
    fn hit_after_populate() {
        let (cache, _) = cache(32 << 20);
        let key = key_of(&[(0, 1)]);
        let stamps = vec![stamp(3, 7)];
        assert!(cache.probe(&key, &stamps).is_none(), "first probe must miss");
        cache.populate(key.clone(), stamps.clone(), rows(4));
        assert_eq!(cache.probe(&key, &stamps).expect("stamped entry must hit").len(), 4);
    }

    #[test]
    fn stamp_change_clears_every_entry() {
        let (cache, recorder) = cache(32 << 20);
        let keys: Vec<QueryKey> = (0..5).map(|v| key_of(&[(0, v)])).collect();
        for k in &keys {
            cache.populate(k.clone(), vec![stamp(3, 7)], rows(2));
        }
        // The delta epoch moved (an ingest): nothing stored may serve.
        assert!(cache.probe(&keys[0], &[stamp(3, 8)]).is_none());
        assert_eq!(recorder.counter("cache.invalidations").get(), 5);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(queue_len(&cache), (0, 0));
        // Entries stored under the adopted stamps hit again; a generation
        // move (a refresh) clears them the same way, from a populate too.
        cache.populate(keys[1].clone(), vec![stamp(3, 8)], rows(2));
        assert!(cache.probe(&keys[1], &[stamp(3, 8)]).is_some());
        cache.populate(keys[2].clone(), vec![stamp(4, 8)], rows(2));
        assert_eq!(recorder.counter("cache.invalidations").get(), 6);
        assert!(cache.probe(&keys[1], &[stamp(4, 8)]).is_none());
        assert!(cache.probe(&keys[2], &[stamp(4, 8)]).is_some());
    }

    #[test]
    fn late_populate_under_old_stamps_never_serves_new_probes() {
        let (cache, _) = cache(32 << 20);
        let key = key_of(&[(0, 1)]);
        // A miss under (1, 1) executes; an ingest lands before it populates.
        assert!(cache.probe(&key, &[stamp(1, 1)]).is_none());
        assert!(cache.probe(&key, &[stamp(1, 2)]).is_none());
        cache.populate(key.clone(), vec![stamp(1, 1)], rows(3));
        assert!(cache.probe(&key, &[stamp(1, 2)]).is_none(), "stale answer served");
        cache.populate(key.clone(), vec![stamp(1, 2)], rows(1));
        assert_eq!(cache.probe(&key, &[stamp(1, 2)]).expect("current entry").len(), 1);
    }

    #[test]
    fn queue_tracks_live_entries_across_invalidations() {
        let (cache, _) = cache(32 << 20);
        let key = key_of(&[(0, 1)]);
        for i in 0..10_000u64 {
            cache.populate(key.clone(), vec![stamp(1, i)], rows(1));
            assert!(cache.probe(&key, &[stamp(1, i + 1)]).is_none());
            let (queued, live) = queue_len(&cache);
            assert_eq!(queued, live, "queue leaked at iteration {i}");
        }
        // Re-populating a present key leaves one entry and one queue slot.
        cache.populate(key.clone(), vec![stamp(1, 10_000)], rows(1));
        cache.populate(key.clone(), vec![stamp(1, 10_000)], rows(1));
        assert_eq!(queue_len(&cache), (1, 1));
    }

    #[test]
    fn fifo_evicts_oldest_first_within_budget() {
        let (cache, recorder) = cache(2048);
        let stamps = vec![stamp(1, 0)];
        let keys: Vec<QueryKey> = (0..8).map(|v| key_of(&[(0, v)])).collect();
        for k in &keys {
            cache.populate(k.clone(), stamps.clone(), rows(8));
            assert!(cache.resident_bytes() <= 2048, "budget held: {}", cache.resident_bytes());
        }
        let evicted = recorder.counter("cache.evictions").get() as usize;
        assert!(evicted > 0, "something was evicted");
        // Hits do not protect an entry: the oldest go first, in order.
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(cache.probe(k, &stamps).is_some(), i >= evicted, "key {i}");
        }
        let (queued, live) = queue_len(&cache);
        assert_eq!((queued, live), (keys.len() - evicted, keys.len() - evicted));
    }

    #[test]
    fn oversized_answers_and_empty_stamps_are_not_stored() {
        let (cache, recorder) = cache(1024);
        let key = key_of(&[(0, 1)]);
        let stamps = vec![stamp(1, 0)];
        cache.populate(key.clone(), stamps.clone(), rows(1000));
        assert!(cache.probe(&key, &stamps).is_none());
        cache.populate(key.clone(), vec![], rows(2));
        assert!(cache.probe(&key, &[]).is_none());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(recorder.counter("cache.inserts").get(), 0);
    }

    #[test]
    fn zero_budget_builds_no_cache() {
        let recorder = ct_obs::Recorder::enabled();
        assert!(AnswerCache::from_config(&CacheConfig { max_bytes: 0 }, &recorder).is_none());
    }

    #[test]
    fn multi_stamp_entries_match_only_in_full() {
        let (cache, _) = cache(32 << 20);
        let key = key_of(&[(0, 2)]);
        // `ServedAnswer.stamps` is a list: every element must match.
        let stored = vec![stamp(2, 5), stamp(9, 0)];
        cache.populate(key.clone(), stored.clone(), rows(1));
        assert!(cache.probe(&key, &stored).is_some());
        // Only the second stamp moved: must miss.
        assert!(cache.probe(&key, &[stamp(2, 5), stamp(10, 0)]).is_none());
    }
}
