//! The load/refresh side of the ladder: the stages `engine.load` and
//! `engine.refresh` run, each called directly on the top view
//! `V{partkey,suppkey,custkey}` and timed from outside with its page-I/O
//! delta. The top rung, `engine.load`/`refresh` itself, is timed by the
//! set-up.

use ct_common::{AggFn, CostModel, Point};
use ct_cube::compute::packed_sort_cols;
use ct_cube::{compute_view, Relation};
use ct_obs::Recorder;
use ct_rtree::{merge_pack, LeafFormat, TreeBuilder, VecStream, ViewInfo};
use ct_storage::{ExternalSorter, FaultPlan, Parallelism, StorageEnv};

use crate::setup::{Dataset, WorkDir};
use crate::spec::{POOL_PAGES, THREADS};
use crate::trace::Tracer;

/// Rows (or entries) per second through each stage.
pub struct BulkRungs {
    pub compute_rows_per_s: f64,
    pub sort_rows_per_s: f64,
    pub pack_rows_per_s: f64,
    pub merge_rows_per_s: f64,
}

pub fn run(work: &mut WorkDir, data: &Dataset, tracer: &mut Tracer) -> BulkRungs {
    let (env, _) = StorageEnv::open_at(
        work.fresh(),
        POOL_PAGES,
        CostModel::default(),
        Parallelism::new(THREADS),
        Recorder::disabled(),
        FaultPlan::none(),
    )
    .expect("open the rung environment");
    let catalog = data.warehouse.catalog();
    let a = data.warehouse.attrs();
    let top = [a.partkey, a.suppkey, a.custkey];
    let sort_cols = packed_sort_cols(top.len());
    let rate = |rows: usize, us: f64| rows as f64 / (us / 1e6);
    // Brackets one stage with a span and the I/O it caused.
    macro_rules! stage {
        ($name:literal, $body:expr) => {{
            let before = env.snapshot();
            let (out, us) = tracer.time($name, "engine.load", 0, || $body);
            tracer.attach_io(env.snapshot().since(&before));
            (out.expect($name), us)
        }};
    }

    let (view, us) =
        stage!("cube.compute_view", compute_view(&env, catalog, &data.fact, &top, &sort_cols));
    let compute_rows_per_s = rate(data.fact.len(), us);

    let (sorted_rows, us) = stage!("storage.external_sort", {
        let width = top.len() + 4;
        let mut sorter = ExternalSorter::new(&env, width, sort_cols.clone());
        let mut record = vec![0u64; width];
        (|| {
            for i in 0..data.fact.len() {
                record[..top.len()].copy_from_slice(&data.fact.key(i)[..top.len()]);
                record[top.len()..]
                    .copy_from_slice(&Relation::state_to_words(&data.fact.states[i]));
                sorter.push(&record)?;
            }
            let mut stream = sorter.finish()?;
            let mut drained = 0usize;
            while stream.next_record()?.is_some() {
                drained += 1;
            }
            ct_common::Result::Ok(drained)
        })()
    });
    assert_eq!(sorted_rows, data.fact.len(), "the sorter returns every record");
    let sort_rows_per_s = rate(sorted_rows, us);

    let infos = vec![ViewInfo { view: 0, arity: top.len() as u8, agg: AggFn::Sum }];
    let entries = |rel: &Relation| -> Vec<(u32, Point, ct_common::AggState)> {
        (0..rel.len()).map(|r| (0, Point::new(rel.key(r), top.len()), rel.states[r])).collect()
    };
    // The entry lists are inputs: they are built outside the timed stages.
    let view_entries = entries(&view);
    let packed_fid = env.create_file("rung-pack").expect("create the pack file");
    let (old_tree, us) = stage!("rtree.pack", {
        (|| {
            let mut builder = TreeBuilder::new(
                env.pool().clone(),
                packed_fid,
                top.len(),
                infos.clone(),
                LeafFormat::default(),
            )?;
            for (id, point, state) in view_entries {
                builder.push(id, point, &state)?;
            }
            let tree = builder.finish()?;
            env.pool().flush_all()?;
            ct_common::Result::Ok(tree)
        })()
    });
    let pack_rows_per_s = rate(view.len(), us);

    let delta_view = compute_view(&env, catalog, &data.increments[0], &top, &sort_cols)
        .expect("compute the increment's top view");
    let mut delta = VecStream::new(entries(&delta_view));
    let merged_fid = env.create_file("rung-merge").expect("create the merge file");
    let (merged, us) = stage!("rtree.merge_pack", {
        merge_pack(
            env.pool().clone(),
            &old_tree,
            &mut delta,
            merged_fid,
            infos.clone(),
            LeafFormat::default(),
        )
        .and_then(|tree| env.pool().flush_all().map(|()| tree))
    });
    assert!(merged.entry_count() >= old_tree.entry_count(), "merge-pack keeps every entry");
    let merge_rows_per_s = rate(view.len() + delta_view.len(), us);

    BulkRungs { compute_rows_per_s, sort_rows_per_s, pack_rows_per_s, merge_rows_per_s }
}
