//! The paper's §2.4 "more complete example": nine views (Figure 6) over a
//! four-dimension warehouse with hierarchies, mapped by SelectMapping onto
//! three Cubetrees (Figure 7), then queried through rollup and drill-down.
//!
//! Run with: `cargo run --release --example star_schema_views`

use cubetrees_repro::core::query::execute_query_with_delta;
use cubetrees_repro::core::{select_mapping, CubetreeForest};
use cubetrees_repro::rtree::LeafFormat;
use cubetrees_repro::storage::StorageEnv;
use cubetrees_repro::tpcd::{TpcdConfig, TpcdWarehouse};
use cubetrees_repro::{AggFn, SliceQuery, ViewDef};

fn main() {
    let warehouse = TpcdWarehouse::new(TpcdConfig { scale_factor: 0.002, seed: 7 });
    let catalog = warehouse.catalog().clone();
    let a = *warehouse.attrs();
    let fact = warehouse.generate_fact();
    println!(
        "warehouse: {} parts, {} suppliers, {} customers, {} fact rows\n",
        warehouse.parts(),
        warehouse.suppliers(),
        warehouse.customers(),
        fact.len()
    );

    // Figure 6: the selected set of views V1..V9.
    let views = vec![
        ViewDef::new(1, vec![a.brand], AggFn::Count), // V1: count(*) by brand
        ViewDef::new(2, vec![a.suppkey, a.partkey], AggFn::Sum),
        ViewDef::new(3, vec![a.brand, a.suppkey, a.custkey, a.month], AggFn::Sum),
        ViewDef::new(4, vec![a.partkey, a.suppkey, a.custkey, a.year], AggFn::Sum),
        ViewDef::new(5, vec![a.partkey, a.custkey, a.year], AggFn::Sum),
        ViewDef::new(6, vec![a.custkey], AggFn::Avg),
        ViewDef::new(7, vec![a.custkey, a.partkey], AggFn::Avg),
        ViewDef::new(8, vec![a.partkey], AggFn::Sum),
        ViewDef::new(9, vec![a.suppkey, a.custkey], AggFn::Sum),
    ];

    // Figure 7: SelectMapping groups the views by arity into three trees.
    let plan = select_mapping(&views);
    println!("SelectMapping allocation (paper Figure 7):");
    for (i, tree) in plan.trees.iter().enumerate() {
        let names: Vec<String> = tree
            .views
            .iter()
            .map(|id| {
                views.iter().find(|v| v.id == *id).unwrap().display_name(&catalog)
            })
            .collect();
        println!("  R{}{{{} dims}}: {}", i + 1, tree.dims, names.join("  "));
    }

    // Build the forest and run the paper's drill-down narrative (§2.1):
    // total sales per year → months of one year → brand detail.
    let env = StorageEnv::new("star-schema-example").unwrap();
    let forest =
        CubetreeForest::build(&env, &catalog, &fact, &views, &[], LeafFormat::ZeroElided)
            .unwrap();

    println!("\ndrill-down: total quantity per year (from V5 by rollup):");
    let by_year = run(&forest, &env, &catalog, SliceQuery::new(vec![a.year], vec![]));
    for (k, v) in &by_year {
        println!("  year {k}: {v}");
    }

    let year = by_year.last().unwrap().0;
    println!("\n… per month of year {year} (from V3 by rollup):");
    for (k, v) in run(
        &forest,
        &env,
        &catalog,
        SliceQuery::new(vec![a.month], vec![(a.year, year)]),
    ) {
        println!("  month {k}: {v}");
    }

    println!("\nroll-up: count of line items per brand (V1, count(*)):");
    for (k, v) in run(&forest, &env, &catalog, SliceQuery::new(vec![a.brand], vec![])) {
        println!("  brand {k}: {v}");
    }

    println!("\naverage quantity per customer (V6, avg) — first five:");
    let avg = run(&forest, &env, &catalog, SliceQuery::new(vec![a.custkey], vec![]));
    for (k, v) in avg.iter().take(5) {
        println!("  customer {k}: {v:.2}");
    }
}

fn run(
    forest: &CubetreeForest,
    env: &StorageEnv,
    catalog: &cubetrees_repro::Catalog,
    q: SliceQuery,
) -> Vec<(u64, f64)> {
    let mut rows = execute_query_with_delta(&forest.pin(), None, env, catalog, &q).unwrap();
    rows.sort_by(|x, y| x.key.cmp(&y.key));
    rows.into_iter().map(|r| (r.key.first().copied().unwrap_or(0), r.agg)).collect()
}
