//! In-memory delta tier: streaming ingestion over the merge-pack forest.
//!
//! The paper's bulk-incremental update (Figure 15) assumes the delta arrives
//! as one pre-sorted batch. Production traffic trickles in row by row, so
//! the forest carries a small LSM-style tier above the packed trees. The
//! tier has one representation: a short list of immutable, `Arc`-shared
//! **sorted columnar runs**.
//!
//! * **Layout.** A run holds grouped rows — one [`AggState`] per distinct
//!   key — as a flat `keys` vector (stride = arity, canonical attribute
//!   order) beside a `states` vector, rows in *packed sort order* (the order
//!   `ct_storage::sort::cmp_records` with reversed key columns produces,
//!   which is what the pack pipeline sorts by). Each run also carries one
//!   `u32` row permutation per attribute, sorted by that column: the
//!   in-memory counterpart of the paper's sort-order replicas (§2.3), so a
//!   predicate on *any* attribute selects a contiguous span of some ordering.
//! * **Merge rule.** [`DeltaTier::ingest`] sorts and groups its batch into a
//!   new run, then merges it with the newest active runs while the next one
//!   is less than twice the merged size (the logarithmic method): active run
//!   sizes at least double towards the oldest, so there are O(log n) runs
//!   and a row is rewritten O(log n) times. A group present in several runs
//!   is counted once per run until a merge folds it.
//! * **Locks.** Sorting and merging happen outside every lock a reader
//!   takes; the reader-visible critical sections only swap `Arc`s in the run
//!   list and advance the epoch. Writers that restructure the active runs
//!   (ingest, rotation) serialize on a separate lock no reader touches.
//! * [`DeltaTier::rotate`] seals the active runs — sealed runs are never
//!   merged again, so ingestion never stalls behind a compaction;
//! * compaction is the existing merge-pack: [`DeltaTier::drain`] k-way
//!   merges every sealed run into one fact [`Relation`] for
//!   [`crate::forest::CubetreeForest::update`], and the forest removes the
//!   compacted runs *atomically with the generation flip*, so a reader
//!   snapshot sees each ingested row exactly once — in the delta before the
//!   flip, in the trees after.
//!
//! Queries take a [`DeltaSnapshot`] together with their generation pin
//! ([`crate::forest::CubetreeForest::pin_with_delta`]) — a clone of the run
//! list, sharing every run — and fold the resident groups into the tree scan
//! through [`crate::query::RollupAggregator`]. [`DeltaSnapshot::scan`] offers
//! the aggregator only the rows a *direct* equality or range predicate can
//! select: per run it binary-searches the permutation of every bounded
//! attribute and walks the narrowest span. The aggregator still re-checks
//! every predicate, so the index only prunes; and because COUNT/SUM/MIN/MAX
//! states are distributive and AVG composes via its SUM+COUNT state, which
//! rows are visited, in which order, and across how many runs a group is
//! split cannot change the finished answer — it is identical to a forest
//! rebuilt from base ∪ delta.
//!
//! A failed compaction loses nothing: the sealed runs stay resident (and
//! visible to queries) until a later merge-pack commits.

use ct_common::{AggState, AttrId, CtError, Result};
use ct_cube::Relation;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row/age thresholds that decide when the resident delta should be
/// compacted into the forest (checked by callers — typically a background
/// thread — via [`DeltaTier::should_compact`]).
#[derive(Clone, Debug)]
pub struct DeltaConfig {
    /// Compact once this many groups are resident. A group is counted once
    /// per run that holds it, until a run merge folds the copies.
    pub max_rows: u64,
    /// Compact once the oldest resident row has waited this long.
    pub max_age: Duration,
}

impl Default for DeltaConfig {
    /// 200,000 groups of a three-attribute tier (the paper's views are keyed
    /// by partkey, suppkey and custkey) hold about 14 MB (68 bytes a group:
    /// 12 per key column for the key and its permutation entry, 32 for the
    /// aggregate state), so the row trigger is also the memory bound. Reading
    /// the tier costs O(log resident + matching rows), so its size is bounded
    /// by memory and by how long rows may wait for the trees, not by query
    /// cost; and a merge-pack rewrites the whole forest whatever the batch,
    /// so larger batches mean proportionally less compaction work per
    /// ingested row. The server derives its ingest cap (`4 × max_rows`) and
    /// its compactor's poll interval (`max_age / 16`, within 5–100 ms) from
    /// these two values.
    fn default() -> Self {
        DeltaConfig {
            max_rows: 200_000,
            max_age: Duration::from_secs(30),
        }
    }
}

/// Resident-delta accounting, for threshold checks and observability.
/// Groups are counted once per run until merged: a key ingested twice shows
/// twice while its two runs are separate and once after they merge.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaStats {
    /// Groups in the active runs (the ones ingestion still merges).
    pub active_rows: u64,
    /// Groups across sealed runs.
    pub sealed_rows: u64,
    /// Raw fact rows ingested and still resident (pre-grouping).
    pub source_rows: u64,
    /// Sealed runs awaiting compaction.
    pub sealed_tiers: usize,
    /// Age of the oldest resident row, if any rows are resident.
    pub oldest: Option<Duration>,
}

impl DeltaStats {
    /// Groups resident across the active and sealed runs.
    pub fn resident_rows(&self) -> u64 {
        self.active_rows + self.sealed_rows
    }
}

/// Packed sort order: the *last* key column is the most significant.
fn cmp_packed(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

/// Grouped rows in packed order: `arity`-strided keys beside their states.
type SortedRows = (Vec<u64>, Vec<AggState>);

/// Sorts a batch into packed order and folds rows with equal keys, reading
/// canonical column `c` of each key from relation column `cols[c]`.
fn sort_and_group(rows: &Relation, cols: &[usize]) -> SortedRows {
    let arity = cols.len();
    let mut canonical = Vec::with_capacity(rows.len() * arity);
    for i in 0..rows.len() {
        let key = rows.key(i);
        canonical.extend(cols.iter().map(|&c| key[c]));
    }
    let key_of = |i: usize| &canonical[i * arity..(i + 1) * arity];
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_unstable_by(|&a, &b| cmp_packed(key_of(a), key_of(b)));
    let mut keys: Vec<u64> = Vec::with_capacity(canonical.len());
    let mut states: Vec<AggState> = Vec::with_capacity(rows.len());
    for i in order {
        match states.last_mut() {
            Some(last) if keys[keys.len() - arity..] == *key_of(i) => last.merge(&rows.states[i]),
            _ => {
                keys.extend_from_slice(key_of(i));
                states.push(rows.states[i]);
            }
        }
    }
    (keys, states)
}

/// K-way merge of inputs that are each grouped and packed-sorted; a group
/// present in several inputs folds into one row. The inputs are few (the
/// run list is logarithmic), so the minimum is found by scanning the heads.
fn merge_sorted(arity: usize, inputs: &[(&[u64], &[AggState])]) -> SortedRows {
    let key_at = |r: usize, i: usize| &inputs[r].0[i * arity..(i + 1) * arity];
    let total: usize = inputs.iter().map(|(_, states)| states.len()).sum();
    let mut keys = Vec::with_capacity(total * arity);
    let mut states = Vec::with_capacity(total);
    let mut heads = vec![0usize; inputs.len()];
    loop {
        let live = (0..inputs.len()).filter(|&r| heads[r] < inputs[r].1.len());
        let Some(min) = live.min_by(|&a, &b| cmp_packed(key_at(a, heads[a]), key_at(b, heads[b])))
        else {
            return (keys, states);
        };
        let key = key_at(min, heads[min]);
        let mut state = AggState::identity();
        for (r, head) in heads.iter_mut().enumerate() {
            if *head < inputs[r].1.len() && key_at(r, *head) == key {
                state.merge(&inputs[r].1[*head]);
                *head += 1;
            }
        }
        keys.extend_from_slice(key);
        states.push(state);
    }
}

/// One immutable sorted columnar run (see the module docs for the layout).
struct Run {
    id: u64,
    arity: usize,
    /// Row keys, `arity`-strided, canonical attribute order, packed order.
    keys: Vec<u64>,
    states: Vec<AggState>,
    /// `by_attr[c]` lists the row numbers ordered by key column `c`.
    by_attr: Vec<Vec<u32>>,
    /// Raw fact rows folded into this run.
    source_rows: u64,
    /// Arrival of the oldest row in the run.
    first_ingest: Instant,
}

impl Run {
    /// Indexes grouped, packed-sorted rows. Callers keep runs under
    /// `u32::MAX` rows (checked in [`DeltaTier::ingest`]).
    fn new(
        id: u64,
        arity: usize,
        rows: SortedRows,
        source_rows: u64,
        first_ingest: Instant,
    ) -> Run {
        let (keys, states) = rows;
        let by_attr = (0..arity)
            .map(|c| {
                // Sorting (value, row) pairs keeps the sort's memory access
                // sequential; the row numbers are then peeled off.
                let column = keys.iter().skip(c).step_by(arity);
                let mut pairs: Vec<(u64, u32)> = column.copied().zip(0u32..).collect();
                pairs.sort_unstable();
                pairs.into_iter().map(|(_, row)| row).collect()
            })
            .collect();
        Run {
            id,
            arity,
            keys,
            states,
            by_attr,
            source_rows,
            first_ingest,
        }
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn row(&self, i: usize) -> (&[u64], &AggState) {
        (
            &self.keys[i * self.arity..(i + 1) * self.arity],
            &self.states[i],
        )
    }

    fn sorted_rows(&self) -> (&[u64], &[AggState]) {
        (&self.keys, &self.states)
    }

    /// The rows whose key column `col` lies in `[lo, hi]`: a contiguous span
    /// of that column's permutation. `None` for a column the run lacks.
    fn span(&self, (col, lo, hi): (usize, u64, u64)) -> Option<&[u32]> {
        let perm = self.by_attr.get(col)?;
        let value = |i: &u32| self.keys[*i as usize * self.arity + col];
        let start = perm.partition_point(|i| value(i) < lo);
        let len = perm[start..].partition_point(|i| value(i) <= hi);
        Some(&perm[start..start + len])
    }
}

/// The reader-visible state: the run list and its running totals, so that
/// [`DeltaTier::stats`] never walks a run.
#[derive(Default)]
struct TierState {
    /// Sealed runs (oldest first), then the active runs, sizes at least
    /// doubling towards the oldest (see the module docs).
    runs: Vec<Arc<Run>>,
    /// How many leading `runs` are sealed.
    sealed: usize,
    next_id: u64,
    active_rows: u64,
    sealed_rows: u64,
    source_rows: u64,
}

/// An immutable view of the resident delta, taken together with a
/// generation pin (see [`crate::forest::CubetreeForest::pin_with_delta`]).
/// It is a clone of the run list: every run is shared with the tier and
/// with every other snapshot, and no row is copied to take or clone one.
#[derive(Clone)]
pub struct DeltaSnapshot {
    attrs: Arc<Vec<AttrId>>,
    runs: Vec<Arc<Run>>,
    groups: u64,
    epoch: u64,
}

impl DeltaSnapshot {
    /// The canonical fact-attribute order of every row's key columns.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// True when no rows are resident.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// Groups across all runs (a group appearing in several runs is counted
    /// once per run; the copies merge in the aggregator).
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// The tier's mutation epoch at snapshot time: every ingest, rotation
    /// and compaction removal bumps it, so two snapshots with equal epochs
    /// hold identical resident rows. Together with the generation number
    /// this is the freshness stamp answer caches invalidate on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Iterates every resident `(key, state)` pair, run by run, each run in
    /// packed order.
    pub fn rows(&self) -> impl Iterator<Item = (&[u64], &AggState)> {
        self.runs
            .iter()
            .flat_map(|run| (0..run.len()).map(move |i| run.row(i)))
    }

    /// Offers `visit` every resident row that can satisfy `bounds` — a list
    /// of `(key column, lo, hi)` inclusive ranges that all hold for a wanted
    /// row — and returns how many rows it offered. Per run, only the
    /// narrowest bound's span is walked, so the rows offered are a superset
    /// of the matches and the caller still checks every predicate; with no
    /// bounds the span is the whole run.
    pub fn scan(
        &self,
        bounds: &[(usize, u64, u64)],
        mut visit: impl FnMut(&[u64], &AggState),
    ) -> u64 {
        let mut offered = 0;
        for run in &self.runs {
            let narrowest = bounds
                .iter()
                .filter_map(|&b| run.span(b))
                .min_by_key(|s| s.len());
            let mut offer = |i: usize| {
                let (key, state) = run.row(i);
                visit(key, state);
                offered += 1;
            };
            match narrowest {
                Some(span) => span.iter().for_each(|&i| offer(i as usize)),
                None => (0..run.len()).for_each(&mut offer),
            }
        }
        offered
    }

    /// `Some(self)` when rows are resident — the shape the delta-aware
    /// query executors take, so an empty tier is bit-for-bit a no-op.
    pub fn as_option(&self) -> Option<&DeltaSnapshot> {
        if self.is_empty() {
            None
        } else {
            Some(self)
        }
    }
}

/// The forest's delta tier: active runs plus sealed runs awaiting
/// compaction. All methods take `&self`; internal state is lock-protected
/// and safe to drive from the HTTP ingest path, query pins and a background
/// compactor concurrently.
pub struct DeltaTier {
    attrs: Arc<Vec<AttrId>>,
    /// Whether every materialized aggregate absorbs retractions; checked at
    /// ingest time so a bad delta is refused *before* it becomes visible.
    deletion_safe: bool,
    /// The run list readers clone. Held for pointer swaps and counter
    /// updates only — never across a sort, a merge or a per-row loop.
    state: Mutex<TierState>,
    /// Serializes the writers that restructure the active runs (ingest's
    /// merge, rotation), so the tail an ingest merged is still the tail
    /// when it swaps the result in. No reader takes it, and it is never
    /// taken under the forest's generation lock.
    restructure: Mutex<()>,
    /// Advanced inside every `state` critical section that changes the run
    /// list, so [`DeltaTier::epoch`] needs no lock.
    epoch: AtomicU64,
    g_rows: ct_obs::Gauge,
    g_bytes: ct_obs::Gauge,
    g_runs: ct_obs::Gauge,
    rotations: ct_obs::Counter,
    ingested: ct_obs::Counter,
    compactions: ct_obs::Counter,
    run_merges: ct_obs::Counter,
}

impl DeltaTier {
    /// Creates an empty tier for fact rows keyed by `attrs` (canonical
    /// column order; ingested relations may permute it and carry more).
    pub fn new(recorder: &ct_obs::Recorder, attrs: Vec<AttrId>, deletion_safe: bool) -> DeltaTier {
        DeltaTier {
            attrs: Arc::new(attrs),
            deletion_safe,
            state: Mutex::new(TierState::default()),
            restructure: Mutex::new(()),
            epoch: AtomicU64::new(0),
            g_rows: recorder.gauge("ingest.memtable.rows"),
            g_bytes: recorder.gauge("ingest.memtable.bytes"),
            g_runs: recorder.gauge("ingest.delta.runs"),
            rotations: recorder.counter("ingest.memtable.rotations"),
            ingested: recorder.counter("ingest.rows"),
            compactions: recorder.counter("ingest.compactions"),
            run_merges: recorder.counter("ingest.delta.run_merges"),
        }
    }

    /// The canonical fact-attribute order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Approximate bytes per resident group: its key columns, the four
    /// `i64` fields of [`AggState`], and one `u32` per permutation.
    fn bytes_per_group(&self) -> u64 {
        self.attrs.len() as u64 * 12 + 32
    }

    /// Ends a `state` critical section that changed the run list: advances
    /// the epoch and mirrors the totals into the gauges.
    fn publish(&self, st: &TierState) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let groups = st.active_rows + st.sealed_rows;
        self.g_rows.set(groups as f64);
        self.g_bytes.set((groups * self.bytes_per_group()) as f64);
        self.g_runs.set(st.runs.len() as f64);
    }

    /// Absorbs a fact relation as a new run, merged with the newest active
    /// runs of similar size. The relation's attributes must include the
    /// tier's, in any order; keys are projected to the tier's attributes in
    /// canonical order as they land, and other columns are dropped. The rows
    /// are visible to snapshots taken after this returns.
    ///
    /// Returns the number of source rows absorbed.
    ///
    /// # Errors
    /// [`CtError::InvalidArgument`] if a tier attribute is missing;
    /// [`CtError::Unsupported`] if the rows carry retractions but a
    /// materialized aggregate cannot absorb them.
    pub fn ingest(&self, rows: &Relation) -> Result<u64> {
        if rows.is_empty() {
            return Ok(0);
        }
        if rows.has_retractions() && !self.deletion_safe {
            return Err(CtError::unsupported(
                "ingest contains deletions but a materialized view uses an aggregate \
                 that cannot absorb retractions (use count, avg or sum+count)",
            ));
        }
        if rows.len() > u32::MAX as usize {
            return Err(CtError::invalid(
                "one ingest holds at most u32::MAX rows".to_string(),
            ));
        }
        // Column of each canonical attribute in the incoming relation.
        let cols = self
            .attrs
            .iter()
            .map(|a| {
                rows.col_of(*a).ok_or_else(|| {
                    CtError::invalid(format!("ingest schema is missing attribute {a:?}"))
                })
            })
            .collect::<Result<Vec<usize>>>()?;
        let arity = cols.len();
        let arrived = Instant::now();
        let batch = sort_and_group(rows, &cols);

        let _restructure = self.restructure.lock();
        // With `restructure` held nobody else changes the active runs, so
        // the tail merged here is the tail replaced below.
        let (active, id) = {
            let mut st = self.state.lock();
            st.next_id += 1;
            (st.runs[st.sealed..].to_vec(), st.next_id)
        };
        let mut merged_len = batch.1.len();
        let mut tail = active.len();
        while tail > 0
            && active[tail - 1].len() < 2 * merged_len
            && merged_len + active[tail - 1].len() <= u32::MAX as usize
        {
            tail -= 1;
            merged_len += active[tail].len();
        }
        let replaced = &active[tail..];
        let merged = if replaced.is_empty() {
            batch
        } else {
            let mut inputs: Vec<_> = replaced.iter().map(|run| run.sorted_rows()).collect();
            inputs.push((&batch.0, &batch.1));
            merge_sorted(arity, &inputs)
        };
        let run = Arc::new(Run::new(
            id,
            arity,
            merged,
            replaced.iter().map(|r| r.source_rows).sum::<u64>() + rows.len() as u64,
            replaced
                .first()
                .map_or(arrived, |oldest| oldest.first_ingest),
        ));

        let mut st = self.state.lock();
        let keep = st.runs.len() - replaced.len();
        st.runs.truncate(keep);
        st.active_rows -= replaced.iter().map(|r| r.len() as u64).sum::<u64>();
        st.active_rows += run.len() as u64;
        st.source_rows += rows.len() as u64;
        st.runs.push(run);
        self.publish(&st);
        drop(st);
        self.ingested.add(rows.len() as u64);
        if !replaced.is_empty() {
            self.run_merges.inc();
        }
        Ok(rows.len() as u64)
    }

    /// Marks every active run sealed. Caller holds `restructure`.
    fn seal_active(&self, st: &mut TierState) -> bool {
        if st.sealed == st.runs.len() {
            return false;
        }
        st.sealed = st.runs.len();
        st.sealed_rows += std::mem::take(&mut st.active_rows);
        self.rotations.inc();
        self.publish(st);
        true
    }

    /// Seals the active runs (no-op when there are none): they stop taking
    /// part in merges and wait for compaction. Ingestion continues into
    /// fresh runs immediately.
    pub fn rotate(&self) -> bool {
        let _restructure = self.restructure.lock();
        self.seal_active(&mut self.state.lock())
    }

    /// Rotates, then k-way merges every sealed run into one grouped fact
    /// relation (canonical attribute order, packed sort order) for
    /// merge-pack, returning it with the sealed run ids. The sealed runs
    /// stay resident — and visible to queries — until the compaction
    /// commits and [`DeltaTier::mark_compacted`] removes them; a failed
    /// compaction therefore loses nothing.
    pub fn drain(&self) -> Option<(Relation, Vec<u64>)> {
        let sealed: Vec<Arc<Run>> = {
            let _restructure = self.restructure.lock();
            let mut st = self.state.lock();
            self.seal_active(&mut st);
            st.runs.clone()
        };
        if sealed.is_empty() {
            return None;
        }
        let ids = sealed.iter().map(|run| run.id).collect();
        let inputs: Vec<_> = sealed.iter().map(|run| run.sorted_rows()).collect();
        let (keys, states) = merge_sorted(self.attrs.len(), &inputs);
        Some((
            Relation {
                attrs: self.attrs.as_ref().clone(),
                keys,
                states,
            },
            ids,
        ))
    }

    /// Removes sealed runs whose rows a committed compaction now serves
    /// from the trees. The forest calls this under its generation lock,
    /// atomically with the flip, so no snapshot ever sees a row in both
    /// places (or neither).
    pub fn mark_compacted(&self, ids: &[u64]) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut at = 0;
        st.runs.retain(|run| {
            let gone = at < st.sealed && ids.contains(&run.id);
            at += 1;
            if gone {
                st.sealed_rows -= run.len() as u64;
                st.source_rows -= run.source_rows;
            }
            !gone
        });
        st.sealed -= at - st.runs.len();
        self.compactions.inc();
        self.publish(st);
    }

    /// An immutable snapshot of everything resident right now: a clone of
    /// the run list, O(runs) whatever the number of rows.
    pub fn snapshot(&self) -> DeltaSnapshot {
        let st = self.state.lock();
        DeltaSnapshot {
            attrs: self.attrs.clone(),
            runs: st.runs.clone(),
            groups: st.active_rows + st.sealed_rows,
            epoch: self.epoch.load(Ordering::SeqCst),
        }
    }

    /// The current mutation epoch (see [`DeltaSnapshot::epoch`]). Lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Current resident accounting, from the running totals.
    pub fn stats(&self) -> DeltaStats {
        let st = self.state.lock();
        DeltaStats {
            active_rows: st.active_rows,
            sealed_rows: st.sealed_rows,
            source_rows: st.source_rows,
            sealed_tiers: st.sealed,
            // Runs are listed oldest first, and a merged run keeps the
            // arrival time of its oldest input.
            oldest: st.runs.first().map(|run| run.first_ingest.elapsed()),
        }
    }

    /// True when [`DeltaTier::stats`] exceeds any `config` threshold.
    pub fn should_compact(&self, config: &DeltaConfig) -> bool {
        let s = self.stats();
        if s.resident_rows() == 0 {
            return false;
        }
        s.resident_rows() >= config.max_rows
            || s.oldest.is_some_and(|age| age >= config.max_age)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ct_common::AggFn;
    use std::collections::BTreeMap;

    fn tier() -> (DeltaTier, [AttrId; 2]) {
        let a = AttrId(0);
        let b = AttrId(1);
        (
            DeltaTier::new(&ct_obs::Recorder::disabled(), vec![a, b], false),
            [a, b],
        )
    }

    /// `n` distinct groups `(from.., 1)`, one fact row each.
    fn distinct(attrs: [AttrId; 2], from: u64, n: u64) -> Relation {
        let keys = (from..from + n).flat_map(|k| [k, 1]).collect();
        Relation::from_fact(attrs.to_vec(), keys, &vec![1; n as usize])
    }

    fn run_lens(t: &DeltaTier) -> Vec<usize> {
        t.snapshot().runs.iter().map(|r| r.len()).collect()
    }

    #[test]
    fn ingest_groups_and_permutes_to_canonical_order() {
        let (t, [a, b]) = tier();
        // Same logical rows, once in (a,b) order and once permuted (b,a).
        t.ingest(&Relation::from_fact(vec![a, b], vec![1, 2, 1, 2], &[10, 5]))
            .unwrap();
        t.ingest(&Relation::from_fact(vec![b, a], vec![2, 1], &[7]))
            .unwrap();
        let snap = t.snapshot();
        let rows: Vec<(Vec<u64>, AggState)> = snap.rows().map(|(k, s)| (k.to_vec(), *s)).collect();
        assert_eq!(
            rows.len(),
            1,
            "all three rows share group (1,2), and the runs merged"
        );
        assert_eq!(rows[0].0, vec![1, 2]);
        assert_eq!(rows[0].1.finalize(AggFn::Sum), 22.0);
        assert_eq!(rows[0].1.count, 3);
    }

    #[test]
    fn rows_come_out_in_packed_sort_order() {
        let (t, [a, b]) = tier();
        t.ingest(&Relation::from_fact(
            vec![a, b],
            vec![3, 1, 1, 2, 2, 1, 1, 1],
            &[1, 1, 1, 1],
        ))
        .unwrap();
        let snap = t.snapshot();
        let keys: Vec<Vec<u64>> = snap.rows().map(|(k, _)| k.to_vec()).collect();
        // Packed order compares the *last* column first — exactly
        // cmp_records over reversed key columns.
        let rev_cols = [1usize, 0];
        for w in keys.windows(2) {
            assert_eq!(
                ct_storage::sort::cmp_records(&w[0], &w[1], &rev_cols),
                std::cmp::Ordering::Less,
                "{keys:?} not packed-sorted"
            );
        }
        assert_eq!(keys, vec![vec![1, 1], vec![2, 1], vec![3, 1], vec![1, 2]]);
    }

    #[test]
    fn rotate_drain_and_mark_compacted_lifecycle() {
        let (t, [a, b]) = tier();
        assert!(!t.rotate(), "no active run, nothing to seal");
        assert!(t.drain().is_none());
        t.ingest(&Relation::from_fact(vec![a, b], vec![1, 1], &[4]))
            .unwrap();
        assert!(t.rotate());
        t.ingest(&Relation::from_fact(vec![a, b], vec![1, 1, 2, 2], &[6, 9]))
            .unwrap();
        let stats = t.stats();
        assert_eq!(stats.sealed_tiers, 1);
        assert_eq!(
            stats.resident_rows(),
            3,
            "a sealed run is never merged into"
        );
        assert_eq!(stats.source_rows, 3);
        let (rel, ids) = t.drain().unwrap();
        assert_eq!(ids.len(), 2, "drain seals the active run too");
        // Groups re-merged across runs: (1,1) from both folds.
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.key(0), &[1, 1]);
        assert_eq!(rel.states[0].sum, 10);
        assert_eq!(rel.key(1), &[2, 2]);
        // Still visible until the compaction commits, and rows ingested
        // meanwhile survive the removal.
        assert_eq!(t.snapshot().groups(), 3);
        t.ingest(&Relation::from_fact(vec![a, b], vec![5, 5], &[1]))
            .unwrap();
        t.mark_compacted(&ids);
        let stats = t.stats();
        assert_eq!(
            (stats.active_rows, stats.sealed_rows, stats.source_rows),
            (1, 0, 1)
        );
        assert_eq!(stats.sealed_tiers, 0);
        let (_, ids) = t.drain().unwrap();
        t.mark_compacted(&ids);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.stats().resident_rows(), 0);
        assert!(t.stats().oldest.is_none());
    }

    #[test]
    fn schema_mismatches_and_retractions_are_refused() {
        let (t, [a, _]) = tier();
        let c = AttrId(7);
        assert!(t
            .ingest(&Relation::from_fact(vec![a], vec![1], &[1]))
            .is_err());
        assert!(t
            .ingest(&Relation::from_fact(vec![a, c], vec![1, 1], &[1]))
            .is_err());
        let retracting = Relation::from_changes(vec![a, AttrId(1)], vec![1, 1], &[5], &[true]);
        assert!(
            t.ingest(&retracting).is_err(),
            "deletion-unsafe tier refuses retractions"
        );
        let safe = DeltaTier::new(&ct_obs::Recorder::disabled(), vec![a, AttrId(1)], true);
        assert!(safe.ingest(&retracting).is_ok());
    }

    #[test]
    fn extra_columns_are_dropped() {
        let (t, [a, b]) = tier();
        // A column the tier is not keyed by: rows differing only there
        // fold into one group.
        let extra = Relation::from_fact(vec![AttrId(7), b, a], vec![1, 2, 3, 9, 2, 3], &[4, 5]);
        assert_eq!(t.ingest(&extra).unwrap(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.attrs(), &[a, b]);
        let rows: Vec<_> = snap.rows().map(|(k, st)| (k.to_vec(), st.sum)).collect();
        assert_eq!(rows, vec![(vec![3, 2], 9)]);
    }

    #[test]
    fn thresholds_drive_should_compact() {
        let (t, [a, b]) = tier();
        let cfg = DeltaConfig { max_rows: 2, max_age: Duration::MAX };
        assert!(!t.should_compact(&cfg), "empty tier never compacts");
        t.ingest(&Relation::from_fact(vec![a, b], vec![1, 1], &[1]))
            .unwrap();
        assert!(!t.should_compact(&cfg));
        t.ingest(&Relation::from_fact(vec![a, b], vec![2, 2], &[1]))
            .unwrap();
        assert!(t.should_compact(&cfg));
        let aged = DeltaConfig { max_rows: u64::MAX, max_age: Duration::ZERO };
        assert!(t.should_compact(&aged), "resident rows are older than zero");
    }

    #[test]
    fn gauges_and_counters_mirror_the_tier() {
        let rec = ct_obs::Recorder::enabled();
        let a = AttrId(0);
        let b = AttrId(1);
        let t = DeltaTier::new(&rec, vec![a, b], false);
        t.ingest(&Relation::from_fact(vec![a, b], vec![1, 1, 2, 2], &[1, 1]))
            .unwrap();
        assert_eq!(rec.gauge("ingest.memtable.rows").get(), 2.0);
        assert_eq!(rec.counter("ingest.rows").get(), 2);
        assert_eq!(rec.gauge("ingest.delta.runs").get(), 1.0);
        assert_eq!(rec.counter("ingest.delta.run_merges").get(), 0);
        t.ingest(&Relation::from_fact(vec![a, b], vec![3, 3, 1, 1], &[1, 1]))
            .unwrap();
        assert_eq!(
            rec.counter("ingest.delta.run_merges").get(),
            1,
            "equal sizes merge"
        );
        assert_eq!(rec.gauge("ingest.delta.runs").get(), 1.0);
        t.rotate();
        assert_eq!(rec.counter("ingest.memtable.rotations").get(), 1);
        assert_eq!(
            rec.gauge("ingest.memtable.rows").get(),
            3.0,
            "sealed rows stay resident"
        );
        assert_eq!(rec.counter("ingest.rows").get(), 4);
        let (_, ids) = t.drain().unwrap();
        t.mark_compacted(&ids);
        assert_eq!(rec.counter("ingest.compactions").get(), 1);
        assert_eq!(rec.gauge("ingest.memtable.rows").get(), 0.0);
        assert_eq!(rec.gauge("ingest.memtable.bytes").get(), 0.0);
        assert_eq!(rec.gauge("ingest.delta.runs").get(), 0.0);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let (t, [a, b]) = tier();
        let e0 = t.epoch();
        assert_eq!(t.snapshot().epoch(), e0, "empty snapshot carries the epoch");
        t.ingest(&Relation::from_fact(vec![a, b], vec![1, 1], &[4]))
            .unwrap();
        let e1 = t.epoch();
        assert!(e1 > e0, "ingest bumps the epoch");
        assert_eq!(t.snapshot().epoch(), e1);
        t.rotate();
        let e2 = t.epoch();
        assert!(e2 > e1, "rotation bumps the epoch");
        let (_, ids) = t.drain().unwrap();
        t.mark_compacted(&ids);
        assert!(t.epoch() > e2, "compaction removal bumps the epoch");
    }

    #[test]
    fn runs_merge_logarithmically_and_totals_track_them() {
        let (t, attrs) = tier();
        for batch in 0..64 {
            t.ingest(&distinct(attrs, batch * 4 + 1, 4)).unwrap();
            let lens = run_lens(&t);
            assert!(
                lens.windows(2).all(|w| w[0] >= 2 * w[1]),
                "sizes must double: {lens:?}"
            );
            let stats = t.stats();
            assert_eq!(stats.active_rows, lens.iter().sum::<usize>() as u64);
            assert_eq!(stats.source_rows, (batch + 1) * 4);
        }
        assert_eq!(run_lens(&t), vec![256], "64 equal batches end as one run");
    }

    #[test]
    fn a_snapshot_shares_every_run_an_ingest_left_alone() {
        let (t, attrs) = tier();
        t.ingest(&distinct(attrs, 1, 100)).unwrap();
        t.ingest(&distinct(attrs, 200, 10)).unwrap();
        let before = t.snapshot();
        assert_eq!(run_lens(&t), vec![100, 10]);
        // Too small to merge with its neighbour: both old runs are shared.
        t.ingest(&distinct(attrs, 300, 2)).unwrap();
        let after = t.snapshot();
        assert_eq!(after.runs.len(), 3);
        for (old, new) in before.runs.iter().zip(&after.runs) {
            assert!(Arc::ptr_eq(old, new), "a pin copies no rows");
        }
        // A merge replaces only the tail; the earlier snapshot keeps its own.
        t.ingest(&distinct(attrs, 400, 9)).unwrap();
        let merged = t.snapshot();
        assert_eq!(run_lens(&t), vec![100, 21]);
        assert!(Arc::ptr_eq(&before.runs[0], &merged.runs[0]));
        assert_eq!(
            (before.groups(), after.groups(), merged.groups()),
            (110, 112, 121)
        );
        assert_eq!(after.rows().count(), 112, "earlier snapshots are immutable");
    }

    #[test]
    fn drain_merges_overlapping_runs_grouped_and_packed_sorted() {
        let (t, [a, b]) = tier();
        let mut expect: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        let mut x = 7u64;
        for _ in 0..4 {
            let mut keys = Vec::new();
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (ka, kb) = ((x >> 20) % 6 + 1, (x >> 40) % 5 + 1);
                keys.extend_from_slice(&[ka, kb]);
                // Keyed (b, a): BTreeMap order is then packed order.
                *expect.entry((kb, ka)).or_default() += 3;
            }
            t.ingest(&Relation::from_fact(vec![a, b], keys, &[3; 40]))
                .unwrap();
            t.rotate();
        }
        assert_eq!(t.stats().sealed_tiers, 4, "sealed runs stay apart");
        let (rel, ids) = t.drain().unwrap();
        assert_eq!(ids.len(), 4);
        let got: Vec<((u64, u64), i64)> = (0..rel.len())
            .map(|i| ((rel.key(i)[1], rel.key(i)[0]), rel.states[i].sum))
            .collect();
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "strictly packed-sorted, no repeats"
        );
        assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn scan_prunes_by_the_narrowest_bound_and_never_drops_a_match() {
        let (t, [a, b]) = tier();
        // Three runs (two sealed, one active) over a 20 x 10 key space.
        for round in 0..3u64 {
            let keys = (0..60)
                .flat_map(|i| [(i * 7 + round) % 20 + 1, (i + round) % 10 + 1])
                .collect();
            t.ingest(&Relation::from_fact(vec![a, b], keys, &[1; 60]))
                .unwrap();
            if round < 2 {
                t.rotate();
            }
        }
        let snap = t.snapshot();
        let all: Vec<(Vec<u64>, AggState)> = snap.rows().map(|(k, s)| (k.to_vec(), *s)).collect();
        let cases: [&[(usize, u64, u64)]; 7] = [
            &[],
            &[(0, 3, 3)],
            &[(1, 2, 4)],
            &[(0, 1, 20), (1, 5, 5)],
            &[(0, 4, 2)],
            &[(0, 21, u64::MAX)],
            &[(9, 1, 1)],
        ];
        for bounds in cases {
            let mut seen = Vec::new();
            let offered = snap.scan(bounds, |k, s| seen.push((k.to_vec(), *s)));
            assert_eq!(offered as usize, seen.len());
            let known: Vec<_> = bounds.iter().filter(|b| b.0 < 2).collect();
            let matches = |k: &[u64]| {
                known
                    .iter()
                    .all(|&&(col, lo, hi)| (lo..=hi).contains(&k[col]))
            };
            let mut want: Vec<_> = all.iter().filter(|(k, _)| matches(k)).cloned().collect();
            let mut got: Vec<_> = seen.iter().filter(|(k, _)| matches(k)).cloned().collect();
            want.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.sum.cmp(&y.1.sum)));
            got.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.sum.cmp(&y.1.sum)));
            assert_eq!(
                got, want,
                "bounds {bounds:?} lost or repeated a matching row"
            );
            if let Some(narrowest) = known
                .iter()
                .map(|&&(col, lo, hi)| {
                    all.iter()
                        .filter(|(k, _)| (lo..=hi).contains(&k[col]))
                        .count()
                })
                .min()
            {
                assert_eq!(
                    seen.len(),
                    narrowest,
                    "bounds {bounds:?}: only the narrowest span"
                );
            } else {
                assert_eq!(
                    seen.len(),
                    all.len(),
                    "no usable bound walks every run whole"
                );
            }
        }
    }
}
