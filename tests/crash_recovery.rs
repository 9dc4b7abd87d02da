//! Crash-safety of the Cubetree refresh: an update killed at any point must
//! leave the environment recoverable to exactly the pre-update or the
//! post-update state — never anything in between.
//!
//! The harness builds a forest in a persistent directory, snapshots the
//! manifest-named file set before and after a clean update, then replays the
//! same update with a deterministic fault armed (each named crash point, and
//! every Nth physical page write in turn). After the injected failure the
//! directory is reopened through [`StorageEnv::open_at`] recovery and the
//! surviving file set must be bit-identical to one of the two snapshots.

use cubetrees_repro::common::{AggFn, CostModel, CtError, SliceQuery};
use cubetrees_repro::core::query::execute_query_with_delta;
use cubetrees_repro::core::CubetreeForest;
use cubetrees_repro::obs::Recorder;
use cubetrees_repro::rtree::LeafFormat;
use cubetrees_repro::storage::{FaultPlan, Manifest, Parallelism, Recovery, StorageEnv, TempDir};
use cubetrees_repro::{Catalog, Relation, ViewDef};
use std::collections::BTreeMap;
use std::path::Path;

fn setup() -> (Catalog, Relation, Relation, Vec<ViewDef>) {
    let mut cat = Catalog::new();
    let p = cat.add_attr("p", 7);
    let s = cat.add_attr("s", 4);
    let gen = |rows: usize, mut x: u64| {
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        for _ in 0..rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.extend_from_slice(&[x % 7 + 1, (x >> 23) % 4 + 1]);
            measures.push(((x >> 41) % 9) as i64 + 1);
        }
        Relation::from_fact(vec![p, s], keys, &measures)
    };
    let fact = gen(400, 0xFACE);
    let delta = gen(80, 0xD017A);
    let views = vec![
        ViewDef::new(0, vec![p, s], AggFn::Sum),
        ViewDef::new(1, vec![s], AggFn::Sum),
        ViewDef::new(2, vec![], AggFn::Sum),
    ];
    (cat, fact, delta, views)
}

fn open_env(dir: &Path, faults: FaultPlan) -> (StorageEnv, Recovery) {
    StorageEnv::open_at(
        dir,
        256,
        CostModel::default(),
        Parallelism::new(1),
        Recorder::disabled(),
        faults,
    )
    .expect("open_at")
}

/// The byte content of every manifest-named file, keyed by component.
fn live_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let m = Manifest::load(dir).expect("manifest readable").expect("manifest present");
    m.entries
        .iter()
        .map(|e| (e.component.clone(), std::fs::read(dir.join(&e.file)).expect("live file")))
        .collect()
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// After recovery, every data file in the directory must be named by the
/// manifest: a crash between the manifest rename and the old generation's
/// reclamation leaves committed MANIFEST plus prior-generation survivors,
/// and `open_at` must have deleted the latter.
fn assert_no_orphans(dir: &Path) {
    let m = Manifest::load(dir).expect("manifest readable").expect("manifest present");
    let named: std::collections::BTreeSet<&str> =
        m.entries.iter().map(|e| e.file.as_str()).collect();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".pages") || name.ends_with(".run") {
            assert!(named.contains(name.as_str()), "recovery left orphan file {name}");
        }
    }
}

struct Fixture {
    _host: TempDir,
    base: std::path::PathBuf,
    pre: BTreeMap<String, Vec<u8>>,
    post: BTreeMap<String, Vec<u8>>,
    /// The scalar-rollup answer over the pre-update generation; what any
    /// reader pinned before the update must keep seeing.
    pre_scalar: f64,
    cat: Catalog,
    delta: Relation,
    views: Vec<ViewDef>,
    scratch: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let host = TempDir::new(&format!("crash-recovery-{tag}")).unwrap();
        let (cat, fact, delta, views) = setup();
        let base = host.path().join("base");

        // Build the pre-update generation at `base`.
        let pre_scalar = {
            let (env, _) = open_env(&base, FaultPlan::none());
            let forest =
                CubetreeForest::build(&env, &cat, &fact, &views, &[], LeafFormat::Compressed)
                    .expect("build");
            let scalar = SliceQuery::new(vec![], vec![]);
            let rows = execute_query_with_delta(&forest.pin(), None, &env, &cat, &scalar)
                .expect("pre-update scalar");
            env.pool().flush_all().unwrap();
            rows[0].agg
        };
        let pre = live_bytes(&base);

        // Run the update cleanly once to learn the post-update bytes.
        let post_dir = host.path().join("post");
        copy_dir(&base, &post_dir);
        {
            let (env, _) = open_env(&post_dir, FaultPlan::none());
            let forest =
                CubetreeForest::open(&env, &cat, &views, &[], LeafFormat::Compressed).expect("reopen");
            forest.update(&env, &cat, &delta).expect("clean update");
            env.pool().flush_all().unwrap();
        }
        let post = live_bytes(&post_dir);
        assert_ne!(pre, post, "the update must actually change the stored bytes");

        let scratch = host.path().join("work");
        Fixture { _host: host, base, pre, post, pre_scalar, cat, delta, views, scratch }
    }

    /// Replays the update at a fresh copy of `base` with `arm` applied to an
    /// active fault plan. Returns the update result and the recovered state.
    fn injected_update(&self, arm: impl Fn(&FaultPlan)) -> (Result<(), CtError>, BTreeMap<String, Vec<u8>>) {
        let _ = std::fs::remove_dir_all(&self.scratch);
        copy_dir(&self.base, &self.scratch);
        let plan = FaultPlan::new();
        let outcome = {
            let (env, _) = open_env(&self.scratch, plan.clone());
            let forest =
                CubetreeForest::open(&env, &self.cat, &self.views, &[], LeafFormat::Compressed)
                    .expect("reopen pristine copy");
            // A reader in flight across the crash: pinned before the fault
            // arms, finished after the update died (or committed).
            let pin = forest.pin();
            arm(&plan);
            let r = forest.update(&env, &self.cat, &self.delta);
            if r.is_ok() {
                env.pool().flush_all().unwrap();
            }
            // However the update ended, the pinned reader completes on its
            // generation — pre-update answer, no panic. Its files cannot
            // have been reclaimed while the pin is held.
            let rows = execute_query_with_delta(
                &pin,
                None,
                &env,
                &self.cat,
                &SliceQuery::new(vec![], vec![]),
            )
            .expect("pinned reader finishes on its generation");
            assert_eq!(rows.len(), 1);
            assert_eq!(
                rows[0].agg, self.pre_scalar,
                "pinned reader must keep seeing pre-update answers"
            );
            r
        };
        // Simulated restart: recover the directory and verify the reopened
        // forest is usable before comparing bytes.
        let (env, _recovery) = open_env(&self.scratch, FaultPlan::none());
        let forest = CubetreeForest::open(&env, &self.cat, &self.views, &[], LeafFormat::Compressed)
            .expect("recovered forest reopens");
        let rows = execute_query_with_delta(
            &forest.pin(),
            None,
            &env,
            &self.cat,
            &SliceQuery::new(vec![], vec![]),
        )
        .expect("recovered forest answers queries");
        assert_eq!(rows.len(), 1, "scalar rollup yields one row");
        drop(env);
        // Recovery reconciles strictly from the manifest: no unreferenced
        // data files may survive it, whatever the crash left behind.
        assert_no_orphans(&self.scratch);
        (outcome, live_bytes(&self.scratch))
    }

    fn assert_pre(&self, got: &BTreeMap<String, Vec<u8>>, what: &str) {
        assert_eq!(got, &self.pre, "{what}: recovered state must equal the pre-update bytes");
    }

    fn assert_post(&self, got: &BTreeMap<String, Vec<u8>>, what: &str) {
        assert_eq!(got, &self.post, "{what}: recovered state must equal the post-update bytes");
    }
}

#[test]
fn crash_points_recover_to_pre_or_post_state() {
    let fx = Fixture::new("points");

    // Before the manifest rename the commit has not happened: recovery must
    // roll back to the pre-update generation.
    for point in ["update/pre_commit", "manifest/before_tmp", "manifest/before_rename"] {
        let (outcome, got) = fx.injected_update(|p| p.arm_crash_point(point));
        let err = outcome.expect_err("armed crash point must abort the update");
        assert!(err.is_injected(), "{point}: {err}");
        fx.assert_pre(&got, point);
    }

    // After the rename the commit is durable: recovery must surface the
    // post-update generation even though the process died mid-swap.
    // `before_reclaim` is the nastiest of these: the manifest is committed
    // but the prior generation's files were never doomed in-process, so
    // recovery itself must delete them as unreferenced survivors.
    for point in ["update/post_commit", "update/before_reclaim", "update/after_swap"] {
        let (outcome, got) = fx.injected_update(|p| p.arm_crash_point(point));
        let err = outcome.expect_err("armed crash point must abort the update");
        assert!(err.is_injected(), "{point}: {err}");
        fx.assert_post(&got, point);
    }
}

/// The flip commits and the old generation retires, but a pinned reader
/// holds the old files on disk until it drops — even when the updater was
/// killed right after the swap.
#[test]
fn pinned_reader_defers_reclamation_past_a_committed_swap() {
    let fx = Fixture::new("reclaim");
    let _ = std::fs::remove_dir_all(&fx.scratch);
    copy_dir(&fx.base, &fx.scratch);
    let plan = FaultPlan::new();
    let (env, _) = open_env(&fx.scratch, plan.clone());
    let forest =
        CubetreeForest::open(&env, &fx.cat, &fx.views, &[], LeafFormat::Compressed).unwrap();
    let pin = forest.pin();
    let old_paths = pin.file_paths();
    assert!(!old_paths.is_empty() && old_paths.iter().all(|p| p.exists()));
    plan.arm_crash_point("update/after_swap");
    let err = forest.update(&env, &fx.cat, &fx.delta).expect_err("armed crash point");
    assert!(err.is_injected(), "{err}");
    // The manifest flipped and the base generation retired; the pin is all
    // that keeps its files alive — and it still answers from them.
    assert!(old_paths.iter().all(|p| p.exists()), "pins defer reclamation");
    let rows =
        execute_query_with_delta(&pin, None, &env, &fx.cat, &SliceQuery::new(vec![], vec![]))
            .unwrap();
    assert_eq!(rows[0].agg, fx.pre_scalar);
    drop(pin);
    assert!(
        old_paths.iter().all(|p| !p.exists()),
        "last pin drop unlinks the retired generation"
    );
}

#[test]
fn every_nth_write_failure_recovers_cleanly() {
    let fx = Fixture::new("nth-write");
    let mut completed = false;
    for n in 1..=10_000u64 {
        let (outcome, got) = fx.injected_update(|p| p.fail_nth_write(n));
        match outcome {
            Err(e) => {
                assert!(e.is_injected(), "write #{n} surfaced a foreign error: {e}");
                // Page writes all precede the manifest commit (the commit
                // itself goes through std::fs), so an injected write always
                // rolls back.
                fx.assert_pre(&got, &format!("failed write #{n}"));
            }
            Ok(()) => {
                // The update used fewer than n physical writes: done.
                fx.assert_post(&got, &format!("clean run at n={n}"));
                completed = true;
                break;
            }
        }
    }
    assert!(completed, "the sweep never exhausted the update's write count");
}
