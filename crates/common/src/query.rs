//! The slice-query model of the paper's evaluation (§3.1).
//!
//! A slice query targets one node of the Data Cube lattice: it aggregates the
//! measure grouped by a set of attributes, with a list of *equality*
//! predicates on a disjoint set of attributes (TPC-D attributes are foreign
//! keys, so generic range predicates "don't seem applicable" — §3.1). For a
//! lattice node `W` there are `2^|W|` slice-query types, one per subset of
//! `W` chosen as the fixed attributes.

use crate::schema::{AttrId, Catalog};

/// One slice query.
///
/// SQL shape:
/// ```sql
/// SELECT g1, …, gk, AGG(measure)
/// FROM   cube
/// WHERE  f1 = v1 AND … AND fm = vm
/// GROUP BY g1, …, gk
/// ```
/// where `{g…} ∪ {f…}` is the lattice node the query addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceQuery {
    /// Attributes to group by (the "open" dimensions).
    pub group_by: Vec<AttrId>,
    /// Equality predicates `(attribute, constant)` (the "sliced" dimensions).
    pub predicates: Vec<(AttrId, u64)>,
    /// Inclusive range predicates `(attribute, lo, hi)`. The paper's TPC-D
    /// workload uses equality only (foreign keys, §3.1), but notes that
    /// R-trees "behave faster in bounded range queries" — this extension
    /// exercises that claim.
    pub ranges: Vec<(AttrId, u64, u64)>,
}

impl SliceQuery {
    /// Builds a query; `group_by` and predicate attributes must be disjoint.
    ///
    /// # Panics
    /// Panics if an attribute appears both as group-by and predicate.
    pub fn new(group_by: Vec<AttrId>, predicates: Vec<(AttrId, u64)>) -> Self {
        for (a, _) in &predicates {
            assert!(!group_by.contains(a), "attribute {a:?} is both grouped and sliced");
        }
        SliceQuery { group_by, predicates, ranges: Vec::new() }
    }

    /// Adds an inclusive range predicate on an attribute not already grouped
    /// or equality-sliced.
    ///
    /// # Panics
    /// Panics if the attribute is already used, or the bounds are inverted.
    pub fn with_range(mut self, attr: AttrId, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "inverted range on {attr:?}");
        assert!(!self.group_by.contains(&attr), "attribute {attr:?} is grouped");
        assert!(
            self.predicates.iter().all(|&(a, _)| a != attr)
                && self.ranges.iter().all(|&(a, _, _)| a != attr),
            "attribute {attr:?} already constrained"
        );
        self.ranges.push((attr, lo, hi));
        self
    }

    /// The lattice node this query addresses: group-by ∪ predicate ∪ range
    /// attributes, in a canonical (sorted) order.
    pub fn node(&self) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = self
            .group_by
            .iter()
            .copied()
            .chain(self.predicates.iter().map(|&(a, _)| a))
            .chain(self.ranges.iter().map(|&(a, _, _)| a))
            .collect();
        attrs.sort();
        attrs
    }

    /// The inclusive range on `attr`, if the query constrains it (an
    /// equality predicate is the degenerate range `[v, v]`).
    pub fn range_of(&self, attr: AttrId) -> Option<(u64, u64)> {
        if let Some(v) = self.predicate_value(attr) {
            return Some((v, v));
        }
        self.ranges.iter().find(|&&(a, _, _)| a == attr).map(|&(_, lo, hi)| (lo, hi))
    }

    /// The fixed value of `attr`, if the query slices on it.
    pub fn predicate_value(&self, attr: AttrId) -> Option<u64> {
        self.predicates.iter().find(|&&(a, _)| a == attr).map(|&(_, v)| v)
    }

    /// True if the query has no predicates (whole-view output). The paper's
    /// generator excludes these because their huge output "dilutes the actual
    /// retrieval cost" (§3.3).
    pub fn is_full_view(&self) -> bool {
        self.predicates.is_empty() && self.ranges.is_empty()
    }

    /// SQL-ish rendering for logs and examples.
    pub fn display(&self, catalog: &Catalog) -> String {
        let gb: Vec<&str> = self.group_by.iter().map(|&a| catalog.attr(a).name.as_str()).collect();
        let preds: Vec<String> = self
            .predicates
            .iter()
            .map(|&(a, v)| format!("{} = {v}", catalog.attr(a).name))
            .chain(
                self.ranges
                    .iter()
                    .map(|&(a, lo, hi)| format!("{} between {lo} and {hi}", catalog.attr(a).name)),
            )
            .collect();
        let mut s = String::from("select ");
        if gb.is_empty() {
            s.push_str("agg(measure)");
        } else {
            s.push_str(&format!("{}, agg(measure)", gb.join(", ")));
        }
        s.push_str(" from cube");
        if !preds.is_empty() {
            s.push_str(&format!(" where {}", preds.join(" and ")));
        }
        if !gb.is_empty() {
            s.push_str(&format!(" group by {}", gb.join(", ")));
        }
        s
    }
}

/// The canonical, hashable identity of a [`SliceQuery`] — the memoization
/// key of the serving layer's answer cache.
///
/// Two requests that differ only in WHERE-clause order ask the same
/// question, so predicates and ranges are sorted into a canonical order.
/// `group_by` is kept in *request* order: result rows carry their key values
/// aligned with the group-by list, so reordering it changes the answer shape
/// and must produce a different key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    group_by: Vec<AttrId>,
    predicates: Vec<(AttrId, u64)>,
    ranges: Vec<(AttrId, u64, u64)>,
}

impl QueryKey {
    /// Approximate heap bytes this key holds (cache byte accounting).
    pub fn approx_bytes(&self) -> u64 {
        (self.group_by.len() * std::mem::size_of::<AttrId>()
            + self.predicates.len() * std::mem::size_of::<(AttrId, u64)>()
            + self.ranges.len() * std::mem::size_of::<(AttrId, u64, u64)>()
            + std::mem::size_of::<QueryKey>()) as u64
    }
}

impl SliceQuery {
    /// The canonical cache key of this query (see [`QueryKey`]).
    pub fn cache_key(&self) -> QueryKey {
        let mut predicates = self.predicates.clone();
        predicates.sort_unstable();
        let mut ranges = self.ranges.clone();
        ranges.sort_unstable();
        QueryKey { group_by: self.group_by.clone(), predicates, ranges }
    }
}

/// One output row of a slice query: the group-by key values (in
/// [`SliceQuery::group_by`] order) and the finalized aggregate.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRow {
    /// Group key values, aligned with the query's `group_by` list.
    pub key: Vec<u64>,
    /// Finalized aggregate value.
    pub agg: f64,
}

/// Canonicalizes a result set so answers from different engines (which may
/// produce rows in different physical orders) can be compared.
pub fn normalize_rows(mut rows: Vec<QueryRow>) -> Vec<QueryRow> {
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFn;
    use crate::schema::ViewDef;

    fn catalog() -> (Catalog, AttrId, AttrId, AttrId) {
        let mut c = Catalog::new();
        let p = c.add_attr("partkey", 10);
        let s = c.add_attr("suppkey", 10);
        let cu = c.add_attr("custkey", 10);
        (c, p, s, cu)
    }

    #[test]
    fn node_is_union_sorted() {
        let (_, p, s, cu) = catalog();
        let q = SliceQuery::new(vec![cu, p], vec![(s, 3)]);
        assert_eq!(q.node(), vec![p, s, cu]);
        assert_eq!(q.predicate_value(s), Some(3));
        assert_eq!(q.predicate_value(p), None);
        assert!(!q.is_full_view());
    }

    #[test]
    #[should_panic(expected = "both grouped and sliced")]
    fn overlapping_attrs_panic() {
        let (_, p, s, _) = catalog();
        let _ = SliceQuery::new(vec![p, s], vec![(p, 1)]);
    }

    #[test]
    fn sql_display() {
        let (c, p, s, _) = catalog();
        let q = SliceQuery::new(vec![s], vec![(p, 7)]);
        assert_eq!(
            q.display(&c),
            "select suppkey, agg(measure) from cube where partkey = 7 group by suppkey"
        );
        let scalar = SliceQuery::new(vec![], vec![(p, 7)]);
        assert_eq!(scalar.display(&c), "select agg(measure) from cube where partkey = 7");
        let v = ViewDef::new(0, vec![p, s], AggFn::Sum);
        assert!(v.covers_exactly(&q.node()));
    }

    #[test]
    fn ranges_extend_node_and_display() {
        let (c, p, s, cu) = catalog();
        let q = SliceQuery::new(vec![cu], vec![(s, 2)]).with_range(p, 3, 7);
        assert_eq!(q.node(), vec![p, s, cu]);
        assert_eq!(q.range_of(p), Some((3, 7)));
        assert_eq!(q.range_of(s), Some((2, 2)), "equality is a degenerate range");
        assert_eq!(q.range_of(cu), None);
        assert!(!q.is_full_view());
        assert_eq!(
            q.display(&c),
            "select custkey, agg(measure) from cube where suppkey = 2 and \
             partkey between 3 and 7 group by custkey"
        );
    }

    #[test]
    #[should_panic(expected = "already constrained")]
    fn duplicate_range_panics() {
        let (_, p, _, _) = catalog();
        let _ = SliceQuery::new(vec![], vec![(p, 1)]).with_range(p, 1, 2);
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_panics() {
        let (_, p, _, _) = catalog();
        let _ = SliceQuery::new(vec![], vec![]).with_range(p, 5, 2);
    }

    #[test]
    fn cache_key_canonicalizes_predicate_order_only() {
        let (_, p, s, cu) = catalog();
        let a = SliceQuery::new(vec![cu], vec![(p, 1), (s, 2)]);
        let b = SliceQuery::new(vec![cu], vec![(s, 2), (p, 1)]);
        assert_eq!(a.cache_key(), b.cache_key(), "WHERE order is not identity");
        // Group-by order shapes the result rows, so it stays significant.
        let c = SliceQuery::new(vec![p, s], vec![]);
        let d = SliceQuery::new(vec![s, p], vec![]);
        assert_ne!(c.cache_key(), d.cache_key(), "group-by order changes row keys");
        // Different constants are different questions.
        let e = SliceQuery::new(vec![cu], vec![(p, 1), (s, 3)]);
        assert_ne!(a.cache_key(), e.cache_key());
        assert!(a.cache_key().approx_bytes() > 0);
    }

    #[test]
    fn ranges_are_part_of_the_cache_key() {
        let (_, p, s, _) = catalog();
        let q = SliceQuery::new(vec![s], vec![(p, 7)]).with_range(AttrId(2), 1, 4);
        assert_eq!(q.cache_key(), q.cache_key());
        let trimmed = SliceQuery::new(vec![s], vec![(p, 7)]);
        assert_ne!(q.cache_key(), trimmed.cache_key(), "ranges are part of the key");
    }

    #[test]
    fn normalize_sorts_by_key() {
        let rows = vec![
            QueryRow { key: vec![3], agg: 1.0 },
            QueryRow { key: vec![1], agg: 2.0 },
            QueryRow { key: vec![2], agg: 3.0 },
        ];
        let n = normalize_rows(rows);
        assert_eq!(n.iter().map(|r| r.key[0]).collect::<Vec<_>>(), vec![1, 2, 3]);
    }
}
