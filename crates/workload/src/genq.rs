//! The random slice-query generator (paper §3.3).

use std::collections::HashMap;

use ct_common::{AttrId, Catalog, SliceQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries per hot pool when skew is enabled: the Zipf draw selects among
/// this many distinct (up to collision) uniformly generated queries.
const HOT_POOL: usize = 64;

/// Pool key for queries drawn over the whole lattice (masks are always
/// `< 2^MAX_DIMS`, so this value never collides with a real node mask).
const WHOLE_LATTICE: usize = usize::MAX;

/// Generates random slice queries over a cube lattice.
///
/// Mirrors the paper's generator: a lattice view is drawn uniformly, then a
/// query type (which subset of the view's attributes is sliced) uniformly,
/// then each sliced attribute gets a uniform constant from its domain.
/// No-predicate types are excluded by default.
///
/// With [`QueryGenerator::with_skew`], draws instead follow a Zipf
/// distribution over a fixed pool of uniformly generated queries — the
/// hot-set repeat pattern of real dashboard traffic. Skew `0` keeps the
/// uniform path byte-identical to a generator built without the knob.
pub struct QueryGenerator {
    base: Vec<AttrId>,
    cards: Vec<u64>,
    include_full_view: bool,
    rng: StdRng,
    skew: f64,
    /// Zipf CDF over pool ranks (empty when skew is 0).
    zipf_cdf: Vec<f64>,
    /// Lazily built hot pools, one per lattice node (plus the
    /// whole-lattice sentinel). Built with the shared RNG, so a seeded
    /// generator stays deterministic.
    hot_pools: HashMap<usize, Vec<SliceQuery>>,
}

impl QueryGenerator {
    /// A generator over the lattice of `base` attributes.
    pub fn new(catalog: &Catalog, base: Vec<AttrId>, seed: u64) -> Self {
        let cards = base.iter().map(|&a| catalog.attr(a).cardinality).collect();
        QueryGenerator {
            base,
            cards,
            include_full_view: false,
            rng: StdRng::seed_from_u64(seed),
            skew: 0.0,
            zipf_cdf: Vec::new(),
            hot_pools: HashMap::new(),
        }
    }

    /// Also generate no-predicate (whole-view) queries.
    pub fn with_full_view_queries(mut self) -> Self {
        self.include_full_view = true;
        self
    }

    /// Draws queries Zipf(`skew`)-distributed over a fixed-size (64) hot
    /// pool of uniform queries: rank `i` is drawn with weight
    /// `1/(i+1)^skew`, so higher skew concentrates traffic on fewer
    /// queries (`1.0` is the classic Zipf of web/OLAP traces). `0.0`
    /// disables the pool entirely — the generator remains byte-identical
    /// to one without the knob, not merely statistically uniform.
    pub fn with_skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be a finite non-negative value");
        self.skew = skew;
        self.zipf_cdf = if skew == 0.0 {
            Vec::new()
        } else {
            let mut total = 0.0;
            (0..HOT_POOL)
                .map(|i| {
                    total += 1.0 / ((i + 1) as f64).powf(skew);
                    total
                })
                .collect()
        };
        self
    }

    /// The non-empty lattice nodes, as attribute lists (the 7 views of the
    /// paper's Figure 12 for a 3-attribute base).
    pub fn nodes(&self) -> Vec<Vec<AttrId>> {
        (1..(1usize << self.base.len())).map(|m| self.node_attrs(m)).collect()
    }

    fn node_attrs(&self, mask: usize) -> Vec<AttrId> {
        (0..self.base.len()).filter(|i| mask & (1 << i) != 0).map(|i| self.base[i]).collect()
    }

    /// The next random query over the whole lattice (Zipf-skewed over a
    /// hot pool when [`QueryGenerator::with_skew`] is set).
    pub fn next_query(&mut self) -> SliceQuery {
        if self.skew != 0.0 {
            return self.skewed_query(WHOLE_LATTICE);
        }
        let mask = self.rng.gen_range(1..(1usize << self.base.len()));
        self.uniform_query_on(mask)
    }

    /// The next random query on one lattice node (given as a bitmask over
    /// the base attributes) — Figure 12 batches 100 queries per node. With
    /// skew, draws come from the node's own hot pool.
    pub fn next_query_on(&mut self, mask: usize) -> SliceQuery {
        if self.skew != 0.0 {
            return self.skewed_query(mask);
        }
        self.uniform_query_on(mask)
    }

    /// A Zipf draw from the pool keyed by `key` (a node mask or
    /// [`WHOLE_LATTICE`]), building the pool on first use.
    fn skewed_query(&mut self, key: usize) -> SliceQuery {
        if !self.hot_pools.contains_key(&key) {
            let pool: Vec<SliceQuery> = (0..HOT_POOL)
                .map(|_| {
                    let mask = if key == WHOLE_LATTICE {
                        self.rng.gen_range(1..(1usize << self.base.len()))
                    } else {
                        key
                    };
                    self.uniform_query_on(mask)
                })
                .collect();
            self.hot_pools.insert(key, pool);
        }
        let rank = self.zipf_rank();
        self.hot_pools[&key][rank].clone()
    }

    /// Inverse-CDF Zipf rank draw. The uniform variate comes from an
    /// integer draw (the vendored RNG has no float ranges).
    fn zipf_rank(&mut self) -> usize {
        // Skew is non-zero here, so the CDF holds HOT_POOL entries.
        let total = self.zipf_cdf.last().copied().unwrap_or(0.0);
        let u = self.rng.gen_range(0..u64::MAX) as f64 / u64::MAX as f64 * total;
        self.zipf_cdf.partition_point(|&c| c <= u).min(HOT_POOL - 1)
    }

    fn uniform_query_on(&mut self, mask: usize) -> SliceQuery {
        let attrs: Vec<usize> =
            (0..self.base.len()).filter(|i| mask & (1 << i) != 0).collect();
        let k = attrs.len();
        loop {
            let fix_mask = self.rng.gen_range(0..(1usize << k));
            if fix_mask == 0 && !self.include_full_view && k > 0 {
                continue;
            }
            let mut group_by = Vec::new();
            let mut predicates = Vec::new();
            for (j, &i) in attrs.iter().enumerate() {
                if fix_mask & (1 << j) != 0 {
                    let v = self.rng.gen_range(1..=self.cards[i]);
                    predicates.push((self.base[i], v));
                } else {
                    group_by.push(self.base[i]);
                }
            }
            return SliceQuery::new(group_by, predicates);
        }
    }

    /// A batch of `n` random queries over the whole lattice.
    pub fn batch(&mut self, n: usize) -> Vec<SliceQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }

    /// A batch of `n` random queries on one node.
    pub fn batch_on(&mut self, mask: usize, n: usize) -> Vec<SliceQuery> {
        (0..n).map(|_| self.next_query_on(mask)).collect()
    }

    /// A random *bounded-range* query on one node: one attribute gets an
    /// inclusive range covering roughly `span_frac` of its domain, the rest
    /// are grouped. This exercises the paper's §3.1 remark that "R-trees in
    /// general behave faster in bounded range queries".
    pub fn next_range_query_on(&mut self, mask: usize, span_frac: f64) -> SliceQuery {
        let attrs: Vec<usize> =
            (0..self.base.len()).filter(|i| mask & (1 << i) != 0).collect();
        assert!(!attrs.is_empty(), "range queries need a non-empty node");
        let pick = attrs[self.rng.gen_range(0..attrs.len())];
        let card = self.cards[pick];
        let span = ((card as f64 * span_frac).round() as u64).clamp(1, card);
        let lo = self.rng.gen_range(1..=card - span + 1);
        let hi = lo + span - 1;
        let group_by: Vec<AttrId> =
            attrs.iter().filter(|&&i| i != pick).map(|&i| self.base[i]).collect();
        SliceQuery::new(group_by, Vec::new()).with_range(self.base[pick], lo, hi)
    }

    /// A batch of `n` bounded-range queries on one node.
    pub fn range_batch_on(&mut self, mask: usize, n: usize, span_frac: f64) -> Vec<SliceQuery> {
        (0..n).map(|_| self.next_range_query_on(mask, span_frac)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ct_common::Catalog;

    fn generator(seed: u64) -> QueryGenerator {
        let mut c = Catalog::new();
        let p = c.add_attr("partkey", 100);
        let s = c.add_attr("suppkey", 10);
        let cu = c.add_attr("custkey", 50);
        QueryGenerator::new(&c, vec![p, s, cu], seed)
    }

    #[test]
    fn seven_nodes_for_three_attrs() {
        let g = generator(1);
        assert_eq!(g.nodes().len(), 7);
    }

    #[test]
    fn no_predicate_queries_excluded_by_default() {
        let mut g = generator(2);
        for q in g.batch(500) {
            assert!(!q.is_full_view(), "unexpected full-view query {q:?}");
        }
    }

    #[test]
    fn full_view_queries_appear_when_enabled() {
        let mut g = generator(3).with_full_view_queries();
        let batch = g.batch(500);
        assert!(batch.iter().any(|q| q.is_full_view()));
    }

    #[test]
    fn values_respect_domains() {
        let mut g = generator(4);
        for q in g.batch(300) {
            for (a, v) in &q.predicates {
                let card = match a.0 {
                    0 => 100,
                    1 => 10,
                    2 => 50,
                    _ => panic!("unknown attr"),
                };
                assert!((1..=card).contains(v));
            }
        }
    }

    #[test]
    fn node_batches_stay_on_node() {
        let mut g = generator(5);
        // mask 0b101 = {partkey, custkey}
        for q in g.batch_on(0b101, 200) {
            let node = q.node();
            assert_eq!(node, vec![AttrId(0), AttrId(2)]);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generator(7).batch(50);
        let b = generator(7).batch(50);
        assert_eq!(a, b);
        let c = generator(8).batch(50);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_skew_is_byte_identical_to_no_skew() {
        let plain = generator(11).batch(200);
        let skewed = generator(11).with_skew(0.0).batch(200);
        assert_eq!(plain, skewed, "skew=0 must not perturb the uniform stream");
    }

    #[test]
    fn skew_concentrates_repeats() {
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut g = generator(12).with_skew(1.0);
        const N: usize = 2000;
        for q in g.batch(N) {
            *counts.entry(format!("{q:?}")).or_default() += 1;
        }
        assert!(counts.len() <= HOT_POOL, "draws stay inside the hot pool");
        let top = counts.values().copied().max().unwrap();
        // Zipf(1) over 64 ranks puts ~21% of mass on rank 0; a uniform
        // draw over the pool would give ~1.6%. Split the difference.
        assert!(top * 10 >= N, "hottest query should absorb ≥10% of draws, got {top}/{N}");
        // It is still a mix, not a single query.
        assert!(counts.len() >= 8, "expected a spread of hot queries, got {}", counts.len());
    }

    #[test]
    fn skewed_node_draws_stay_on_node() {
        let mut g = generator(13).with_skew(1.2);
        for _ in 0..200 {
            let q = g.next_query_on(0b101);
            assert_eq!(q.node(), vec![AttrId(0), AttrId(2)]);
        }
    }

    #[test]
    fn skew_is_deterministic_under_seed() {
        let a = generator(14).with_skew(0.8).batch(100);
        let b = generator(14).with_skew(0.8).batch(100);
        assert_eq!(a, b);
    }

    #[test]
    fn all_query_types_eventually_appear() {
        let mut g = generator(9);
        let mut seen = std::collections::HashSet::new();
        for q in g.batch(2000) {
            let node: Vec<u16> = q.node().iter().map(|a| a.0).collect();
            let fixed: Vec<u16> = {
                let mut f: Vec<u16> = q.predicates.iter().map(|(a, _)| a.0).collect();
                f.sort();
                f
            };
            seen.insert((node, fixed));
        }
        // 27 total types minus 7 excluded no-predicate types minus the
        // `none` node's single type (the generator draws non-empty nodes).
        assert_eq!(seen.len(), 19);
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use ct_common::Catalog;

    fn generator(seed: u64) -> QueryGenerator {
        let mut c = Catalog::new();
        let p = c.add_attr("partkey", 100);
        let s = c.add_attr("suppkey", 10);
        let cu = c.add_attr("custkey", 50);
        QueryGenerator::new(&c, vec![p, s, cu], seed)
    }

    #[test]
    fn range_queries_have_one_range_and_rest_grouped() {
        let mut g = generator(21);
        for q in g.range_batch_on(0b111, 100, 0.25) {
            assert_eq!(q.ranges.len(), 1);
            assert!(q.predicates.is_empty());
            assert_eq!(q.group_by.len(), 2);
            let (_, lo, hi) = q.ranges[0];
            assert!(lo <= hi);
        }
    }

    #[test]
    fn range_span_respects_fraction_and_domain() {
        let mut g = generator(22);
        for q in g.range_batch_on(0b001, 200, 0.1) {
            let (attr, lo, hi) = q.ranges[0];
            assert_eq!(attr, AttrId(0));
            assert!(lo >= 1 && hi <= 100);
            assert_eq!(hi - lo + 1, 10, "10% of partkey's 100-value domain");
        }
    }

    #[test]
    fn full_span_covers_domain() {
        let mut g = generator(23);
        let q = g.next_range_query_on(0b010, 1.0);
        assert_eq!(q.ranges[0].1, 1);
        assert_eq!(q.ranges[0].2, 10);
    }
}
