//! The correctness gate. Served answers must equal the engine's own, the
//! engine's must equal a naive group-by over the generated rows (Gray et
//! al.'s CUBE semantics: filter, group, sum), and every acknowledged ingest
//! must show in the grand total once the delta tier is drained.

use std::collections::BTreeMap;

use ct_common::query::{normalize_rows, QueryRow};
use ct_common::SliceQuery;
use ct_cube::Relation;
use ct_server::json::Json;
use ct_workload::serving::{HttpClient, HttpReply};
use cubetree::engine::RolapEngine;

use crate::setup::Stack;
use crate::spec::Workload;
use crate::stream::{Request, Stream};

/// Answers compared and how many differed.
#[derive(Clone, Copy, Default)]
pub struct Check {
    pub checked: u64,
    pub mismatches: u64,
}

impl Check {
    fn record(&mut self, equal: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !equal {
            self.mismatches += 1;
            eprintln!("wrong answer: {}", what());
        }
    }
}

/// Replays the first `n` queries of client 0's stream over HTTP and compares
/// each answer, row for row, with `engine.query()`.
pub fn verify_http(addr: &str, stack: &Stack, workload: Workload, seed: u64, n: usize) -> Check {
    let mut check = Check::default();
    let mut stream = Stream::new(&stack.data.warehouse, workload, seed, 0);
    let mut conn = HttpClient::connect(addr).expect("connect to the server");
    for _ in 0..n {
        let Request::Query { query, body } = stream.next_query() else { unreachable!() };
        let served = conn.request("POST", "/query", &body).ok().and_then(|r| parse_rows(&r));
        let expected = stack.engine.query(&query).map(normalize_rows).ok();
        check.record(served.is_some() && served == expected, || format!("{query:?} over HTTP"));
    }
    check
}

/// The rows of a `POST /query` reply (JSON or CSV), `None` if it is not a
/// well-formed 200.
fn parse_rows(reply: &HttpReply) -> Option<Vec<QueryRow>> {
    if reply.status != 200 {
        return None;
    }
    let text = reply.text();
    let row = |cells: Vec<f64>| {
        let (agg, key) = cells.split_last()?;
        Some(QueryRow { key: key.iter().map(|k| *k as u64).collect(), agg: *agg })
    };
    if reply.header("content-type").is_some_and(|t| t.contains("csv")) {
        text.lines()
            .skip(1)
            .map(|line| row(line.split(',').map(|c| c.parse().ok()).collect::<Option<_>>()?))
            .collect()
    } else {
        Json::parse(&text)
            .ok()?
            .get("rows")?
            .as_array()?
            .iter()
            .map(|r| row(r.as_array()?.iter().map(Json::as_f64).collect::<Option<_>>()?))
            .collect()
    }
}

/// Filter, group and sum over the raw rows: the reference answer.
pub fn naive_group_by<'a>(
    relations: impl Iterator<Item = &'a Relation>,
    query: &SliceQuery,
) -> Vec<QueryRow> {
    let mut groups: BTreeMap<Vec<u64>, i64> = BTreeMap::new();
    for rel in relations {
        let col = |a| rel.col_of(a).expect("query attribute is a fact attribute");
        let group_cols: Vec<usize> = query.group_by.iter().map(|a| col(*a)).collect();
        let filters: Vec<(usize, u64, u64)> = query
            .predicates
            .iter()
            .map(|(a, v)| (col(*a), *v, *v))
            .chain(query.ranges.iter().map(|(a, lo, hi)| (col(*a), *lo, *hi)))
            .collect();
        for i in 0..rel.len() {
            let key = rel.key(i);
            if filters.iter().all(|(c, lo, hi)| (*lo..=*hi).contains(&key[*c])) {
                *groups.entry(group_cols.iter().map(|c| key[*c]).collect()).or_default() +=
                    rel.states[i].sum;
            }
        }
    }
    groups.into_iter().map(|(key, sum)| QueryRow { key, agg: sum as f64 }).collect()
}

/// Compares `n` probe queries of a fresh uniform stream with the naive
/// group-by over everything loaded and refreshed.
pub fn verify_oracle(stack: &Stack, workload: Workload, seed: u64, n: usize) -> Check {
    let mut check = Check::default();
    let mut stream = Stream::new(&stack.data.warehouse, workload, seed ^ 0x0AC1E, 0);
    for _ in 0..n {
        let Request::Query { query, .. } = stream.next_query() else { unreachable!() };
        let expected = naive_group_by(stack.data.relations(), &query);
        let got = stack.engine.query(&query).map(normalize_rows).ok();
        check.record(got.as_ref() == Some(&expected), || format!("{query:?} against the oracle"));
    }
    check
}

/// After the delta tier is drained: nothing resident, and the grand total is
/// the generated rows' plus every acknowledged ingest's.
pub fn verify_drained_total(stack: &Stack, acked_measure: i64) -> Check {
    let mut check = Check::default();
    let resident = stack.engine.delta_stats().map_or(0, |s| s.resident_rows());
    check.record(resident == 0, || format!("{resident} delta rows resident after the drain"));
    let expected = (stack.data.total_measure() + acked_measure) as f64;
    let got = crate::drive::grand_total(&stack.engine);
    check.record(got == expected, || format!("grand total {got}, expected {expected}"));
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::AttrId;

    #[test]
    fn naive_group_by_filters_groups_and_sums() {
        let (p, s) = (AttrId(0), AttrId(1));
        let rel = Relation::from_fact(vec![p, s], vec![1, 1, 1, 2, 2, 1, 1, 1], &[10, 20, 5, 7]);
        let by_s = naive_group_by([&rel].into_iter(), &SliceQuery::new(vec![s], vec![(p, 1)]));
        assert_eq!(
            by_s,
            vec![QueryRow { key: vec![1], agg: 17.0 }, QueryRow { key: vec![2], agg: 20.0 }]
        );
        let total = naive_group_by([&rel, &rel].into_iter(), &SliceQuery::new(vec![], vec![]));
        assert_eq!(total, vec![QueryRow { key: vec![], agg: 84.0 }]);
        let ranged = SliceQuery::new(vec![], vec![]).with_range(p, 2, 9);
        assert_eq!(naive_group_by([&rel].into_iter(), &ranged)[0].agg, 5.0);
    }
}
