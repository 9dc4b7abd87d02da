//! Sort-based view computation (\[AAD+96\]; paper §3.2).
//!
//! [`compute_view`] computes a target view from a *source* relation (the
//! fact table or any parent view) in three steps:
//!
//! 1. **translate** — each target attribute is either projected from the
//!    source or rolled up through a dimension hierarchy (e.g.
//!    `partkey → part.brand`);
//! 2. **sort** — rows are sorted on the requested column order using the
//!    external merge sorter (sequential spill I/O);
//! 3. **aggregate** — adjacent rows with equal keys have their aggregate
//!    states merged.
//!
//! The *same* sort produces the view and the load order of the physical
//! structure, which is the paper's argument that the Cubetree preprocessing
//! sort "can be hardly considered as an overhead".
//!
//! [`compute_view_linear`] skips the sort when the source is already sorted
//! on the target's order (the target's sort attributes are a prefix of the
//! source's, see [`crate::plan`]): one pass projects each row and merges
//! adjacent equal keys.

use crate::relation::Relation;
use ct_common::{AggState, AttrId, Catalog, CtError, Result};
use ct_storage::sort::cmp_records;
use ct_storage::{ExternalSorter, StorageEnv};
use std::cmp::Ordering;

/// Computes the view grouping by `target_attrs` from `source`, returning it
/// sorted by `sort_cols` (a permutation of the target column indices).
///
/// # Errors
/// * [`CtError::Unsupported`] if a target attribute is not derivable from the
///   source schema.
/// * [`CtError::InvalidArgument`] if `sort_cols` is not a permutation of
///   `0..target_attrs.len()`.
pub fn compute_view(
    env: &StorageEnv,
    catalog: &Catalog,
    source: &Relation,
    target_attrs: &[AttrId],
    sort_cols: &[usize],
) -> Result<Relation> {
    let arity = target_attrs.len();
    validate_permutation(sort_cols, arity)?;
    // Resolve each target attribute against the source schema once.
    let mut resolvers = Vec::with_capacity(arity);
    for &t in target_attrs {
        let (src_attr, path) = catalog.derivation_path(&source.attrs, t).ok_or_else(|| {
            CtError::unsupported(format!(
                "attribute {} is not derivable from the source projection",
                catalog.attr(t).name
            ))
        })?;
        let col = source
            .col_of(src_attr)
            .ok_or_else(|| CtError::invalid("derivation source attribute is not in the schema"))?;
        resolvers.push((col, path));
    }

    // Record layout: [target keys (arity)] ++ [full state (4 words)].
    let width = arity + 4;
    let mut sorter = ExternalSorter::new(env, width, sort_cols.to_vec());
    let mut rec = vec![0u64; width];
    for i in 0..source.len() {
        let key = source.key(i);
        for (c, (col, path)) in resolvers.iter().enumerate() {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            rec[c] = v;
        }
        rec[arity..].copy_from_slice(&Relation::state_to_words(&source.states[i]));
        sorter.push(&rec)?;
    }
    env.stats().add_tuples(source.len() as u64);

    // Stream out, merging adjacent equal keys.
    let mut groups = Grouper::new(target_attrs);
    let mut stream = sorter.finish()?;
    while let Some(r) = stream.next_record()? {
        groups.push(&r[..arity], Relation::words_to_state(&r[arity..]));
    }
    let out = groups.finish();
    env.stats().add_tuples(out.len() as u64);
    Ok(out)
}

/// Computes the view grouping by `target_attrs` from a `source` that is
/// already sorted on the target's order, in one linear pass: each source row
/// is projected onto the target columns and adjacent equal keys merge. The
/// result is sorted by `sort_cols`, exactly like [`compute_view`]'s.
///
/// The caller guarantees the order (see [`crate::plan`]): every target
/// attribute is a source column, and the target's sort attributes are a
/// prefix of the source's sort attributes.
///
/// # Errors
/// * [`CtError::Unsupported`] if a target attribute is not a source column
///   (a hierarchy rollup needs [`compute_view`]).
/// * [`CtError::InvalidArgument`] if `sort_cols` is not a permutation of
///   `0..target_attrs.len()`, or if the source turns out not to be sorted on
///   the target's order.
pub fn compute_view_linear(
    env: &StorageEnv,
    source: &Relation,
    target_attrs: &[AttrId],
    sort_cols: &[usize],
) -> Result<Relation> {
    validate_permutation(sort_cols, target_attrs.len())?;
    let cols = target_attrs
        .iter()
        .map(|&t| {
            source.col_of(t).ok_or_else(|| {
                CtError::unsupported("a linear pass needs every target attribute as a column")
            })
        })
        .collect::<Result<Vec<usize>>>()?;
    let mut groups = Grouper::new(target_attrs);
    let mut key = vec![0u64; cols.len()];
    for i in 0..source.len() {
        let row = source.key(i);
        for (k, &c) in key.iter_mut().zip(&cols) {
            *k = row[c];
        }
        if let Some(last) = groups.open_key() {
            if cmp_records(last, &key, sort_cols) == Ordering::Greater {
                return Err(CtError::invalid("linear pass over a source not sorted on the target"));
            }
        }
        groups.push(&key, source.states[i]);
    }
    let out = groups.finish();
    env.stats().add_tuples((source.len() + out.len()) as u64);
    Ok(out)
}

/// Collects key-ordered rows into a relation, merging the states of
/// adjacent equal keys.
struct Grouper {
    out: Relation,
    /// The open group's key (a buffer reused across groups).
    key: Vec<u64>,
    /// The open group's state; `None` before the first row.
    state: Option<AggState>,
}

impl Grouper {
    fn new(attrs: &[AttrId]) -> Self {
        Grouper {
            out: Relation::empty(attrs.to_vec()),
            key: Vec::with_capacity(attrs.len()),
            state: None,
        }
    }

    /// The open group's key, if any row has been pushed.
    fn open_key(&self) -> Option<&[u64]> {
        self.state.as_ref().map(|_| &self.key[..])
    }

    fn push(&mut self, key: &[u64], state: AggState) {
        match &mut self.state {
            Some(s) if self.key[..] == *key => s.merge(&state),
            _ => {
                if let Some(s) = self.state.replace(state) {
                    self.out.push(&self.key, s);
                }
                self.key.clear();
                self.key.extend_from_slice(key);
            }
        }
    }

    fn finish(mut self) -> Relation {
        if let Some(s) = self.state {
            self.out.push(&self.key, s);
        }
        self.out
    }
}

fn validate_permutation(sort_cols: &[usize], arity: usize) -> Result<()> {
    if sort_cols.len() != arity {
        return Err(CtError::invalid("sort order must cover all target columns"));
    }
    let mut seen = vec![false; arity];
    for &c in sort_cols {
        if c >= arity || seen[c] {
            return Err(CtError::invalid("sort order must be a permutation of target columns"));
        }
        seen[c] = true;
    }
    Ok(())
}

/// The packing sort order for a view of arity `k`: reversed projection
/// (`x_k, …, x_1` — paper §2.3).
pub fn packed_sort_cols(arity: usize) -> Vec<usize> {
    (0..arity).rev().collect()
}

/// The projection sort order for a view of arity `k`: `x_1, …, x_k` (the
/// conventional engine's primary-key order).
pub fn projection_sort_cols(arity: usize) -> Vec<usize> {
    (0..arity).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running warehouse: fact over partkey/suppkey/custkey with
    /// a brand hierarchy on part.
    fn setup() -> (StorageEnv, Catalog, Relation, [AttrId; 4]) {
        let env = StorageEnv::new("compute-test").unwrap();
        let mut c = Catalog::new();
        let p = c.add_attr("partkey", 6);
        let s = c.add_attr("suppkey", 3);
        let cu = c.add_attr("custkey", 3);
        let brand = c.add_attr("part.brand", 2);
        c.add_hierarchy(p, brand, vec![0, 1, 1, 1, 2, 2, 2]);
        // Fact rows: (p, s, c, quantity)
        let rows: Vec<(u64, u64, u64, i64)> = vec![
            (1, 1, 1, 10),
            (1, 1, 1, 5), // same group as above
            (2, 1, 3, 7),
            (4, 2, 1, 3),
            (5, 2, 1, 2),
            (6, 3, 3, 8),
            (1, 2, 2, 4),
        ];
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        for (a, b, d, q) in rows {
            keys.extend_from_slice(&[a, b, d]);
            measures.push(q);
        }
        let fact = Relation::from_fact(vec![p, s, cu], keys, &measures);
        (env, c, fact, [p, s, cu, brand])
    }

    #[test]
    fn top_view_groups_duplicates() {
        let (env, c, fact, [p, s, cu, _]) = setup();
        let v = compute_view(&env, &c, &fact, &[p, s, cu], &[2, 1, 0]).unwrap();
        assert_eq!(v.len(), 6, "the two (1,1,1) rows must merge");
        // Sorted by (custkey, suppkey, partkey).
        assert_eq!(v.key(0), &[1, 1, 1]);
        assert_eq!(v.states[0].sum, 15);
        assert_eq!(v.states[0].count, 2);
        let last = v.key(v.len() - 1);
        assert_eq!(last[2], 3, "largest custkey last");
    }

    #[test]
    fn single_attr_view_from_fact() {
        let (env, c, fact, [p, _, _, _]) = setup();
        let v = compute_view(&env, &c, &fact, &[p], &[0]).unwrap();
        let keys: Vec<u64> = (0..v.len()).map(|i| v.key(i)[0]).collect();
        assert_eq!(keys, vec![1, 2, 4, 5, 6]);
        assert_eq!(v.states[0].sum, 19); // part 1: 10+5+4
    }

    #[test]
    fn view_from_parent_equals_view_from_fact() {
        let (env, c, fact, [p, s, cu, _]) = setup();
        let top = compute_view(&env, &c, &fact, &[p, s, cu], &[2, 1, 0]).unwrap();
        let from_fact = compute_view(&env, &c, &fact, &[s], &[0]).unwrap();
        let from_parent = compute_view(&env, &c, &top, &[s], &[0]).unwrap();
        assert_eq!(from_fact.keys, from_parent.keys);
        for i in 0..from_fact.len() {
            assert_eq!(from_fact.states[i], from_parent.states[i]);
        }
    }

    #[test]
    fn hierarchy_rollup_through_brand() {
        let (env, c, fact, [_, _, _, brand]) = setup();
        let v = compute_view(&env, &c, &fact, &[brand], &[0]).unwrap();
        assert_eq!(v.len(), 2);
        // Brand 1 = parts 1-3: 10+5+7+4 = 26; brand 2 = parts 4-6: 3+2+8 = 13.
        assert_eq!(v.key(0), &[1]);
        assert_eq!(v.states[0].sum, 26);
        assert_eq!(v.key(1), &[2]);
        assert_eq!(v.states[1].sum, 13);
    }

    #[test]
    fn scalar_none_view() {
        let (env, c, fact, _) = setup();
        let v = compute_view(&env, &c, &fact, &[], &[]).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.states[0].sum, 39);
        assert_eq!(v.states[0].count, 7);
    }

    #[test]
    fn underivable_target_errors() {
        let (env, c, fact, [p, _, _, brand]) = setup();
        let brand_view = compute_view(&env, &c, &fact, &[brand], &[0]).unwrap();
        // partkey cannot be derived back from brand.
        assert!(compute_view(&env, &c, &brand_view, &[p], &[0]).is_err());
    }

    #[test]
    fn invalid_sort_orders_rejected() {
        let (env, c, fact, [p, s, _, _]) = setup();
        assert!(compute_view(&env, &c, &fact, &[p, s], &[0]).is_err());
        assert!(compute_view(&env, &c, &fact, &[p, s], &[0, 0]).is_err());
        assert!(compute_view(&env, &c, &fact, &[p, s], &[0, 2]).is_err());
    }

    /// Row-for-row equality of keys and states.
    fn assert_same(a: &Relation, b: &Relation) {
        assert_eq!(a.attrs, b.attrs);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.states, b.states);
    }

    #[test]
    fn linear_pass_over_a_sorted_parent_equals_a_sort() {
        let (env, c, fact, [p, s, cu, _]) = setup();
        // (c,s,p)-sorted top view holds V{c} and V{} in order.
        let top = compute_view(&env, &c, &fact, &[p, s, cu], &[2, 1, 0]).unwrap();
        for target in [&[cu][..], &[]] {
            let sort = packed_sort_cols(target.len());
            let linear = compute_view_linear(&env, &top, target, &sort).unwrap();
            assert_same(&linear, &compute_view(&env, &c, &fact, target, &sort).unwrap());
        }
        // Two columns, projected out of order: (s,p) is a prefix of (s,p,c).
        let spc = compute_view(&env, &c, &fact, &[cu, p, s], &[2, 1, 0]).unwrap();
        let ps = compute_view_linear(&env, &spc, &[p, s], &[1, 0]).unwrap();
        assert_same(&ps, &compute_view(&env, &c, &fact, &[p, s], &[1, 0]).unwrap());
    }

    #[test]
    fn linear_pass_rejects_unsorted_source_and_rollups() {
        let (env, c, fact, [p, s, cu, brand]) = setup();
        let top = compute_view(&env, &c, &fact, &[p, s, cu], &[2, 1, 0]).unwrap();
        // V{p} is not a prefix of (c,s,p): the pass notices the disorder.
        assert!(compute_view_linear(&env, &top, &[p], &[0]).is_err());
        // A hierarchy attribute is not a column of the source.
        assert!(compute_view_linear(&env, &top, &[brand], &[0]).is_err());
        assert!(compute_view_linear(&env, &top, &[cu], &[0, 0]).is_err());
    }

    #[test]
    fn packed_sort_cols_reverse() {
        assert_eq!(packed_sort_cols(3), vec![2, 1, 0]);
        assert_eq!(packed_sort_cols(0), Vec::<usize>::new());
    }

    #[test]
    fn counts_roll_up_correctly() {
        // COUNT at a coarse node must equal the number of *fact rows*, not
        // the number of parent groups — the classic count-of-counts trap.
        let (env, c, fact, [p, s, cu, _]) = setup();
        let top = compute_view(&env, &c, &fact, &[p, s, cu], &[2, 1, 0]).unwrap();
        let none = compute_view(&env, &c, &top, &[], &[]).unwrap();
        assert_eq!(none.states[0].count, 7);
        assert_eq!(none.states[0].min, 2);
        assert_eq!(none.states[0].max, 10);
    }

    #[test]
    fn large_input_spills_and_stays_correct() {
        let (env, c, _, [p, s, cu, _]) = setup();
        // 60k fact rows over a 50x20x30 key space.
        let n = 60_000u64;
        let mut keys = Vec::with_capacity(n as usize * 3);
        let mut measures = Vec::with_capacity(n as usize);
        let mut x = 12345u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.push(x % 50 + 1);
            keys.push((x >> 8) % 20 + 1);
            keys.push((x >> 16) % 30 + 1);
            measures.push(((x >> 24) % 100) as i64);
        }
        let expected_total: i64 = measures.iter().sum();
        let fact = Relation::from_fact(vec![p, s, cu], keys, &measures);
        let v = compute_view(&env, &c, &fact, &[p, s, cu], &[2, 1, 0]).unwrap();
        assert!(v.len() <= 50 * 20 * 30);
        let total: i64 = v.states.iter().map(|st| st.sum).sum();
        let count: i64 = v.states.iter().map(|st| st.count).sum();
        assert_eq!(total, expected_total);
        assert_eq!(count, n as i64);
        // Keys strictly ascending in (c, s, p) order.
        for i in 1..v.len() {
            let (a, b) = (v.key(i - 1), v.key(i));
            assert!((a[2], a[1], a[0]) < (b[2], b[1], b[0]));
        }
    }

    #[test]
    fn empty_source_gives_empty_view() {
        let (env, c, _, [p, s, _, _]) = setup();
        let empty = Relation::empty(vec![p, s]);
        let v = compute_view(&env, &c, &empty, &[p], &[0]).unwrap();
        assert!(v.is_empty());
        let none = compute_view(&env, &c, &empty, &[], &[]).unwrap();
        assert!(none.is_empty(), "a none view over zero rows has zero rows");
    }
}
