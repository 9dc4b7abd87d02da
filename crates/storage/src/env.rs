//! Storage environment: a directory + buffer pool + counters + manifest.

use crate::buffer::BufferPool;
use crate::fault::FaultPlan;
use crate::io::{IoSnapshot, IoStats};
use crate::manifest::{self, Manifest, ManifestEntry, Recovery};
use crate::pager::{DiskFile, FileId};
use ct_common::{CostModel, CtError, Result};
use ct_obs::{Recorder, SpanGuard};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
static CLEANUP_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Number of temp-directory removals that failed process-wide (reported by
/// [`TempDir`]'s drop). A non-zero value at process exit means temp state
/// leaked; `examples/quickstart.rs` turns it into a non-zero exit code.
pub fn cleanup_failures() -> u64 {
    CLEANUP_FAILURES.load(Ordering::Relaxed)
}

/// A self-deleting temporary directory (removed on drop).
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn new(prefix: &str) -> Result<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "cubetrees-{prefix}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes the directory now, surfacing the error a plain drop can only
    /// log. An already-gone directory is fine.
    pub fn close(self) -> Result<()> {
        let path = self.path.clone();
        std::mem::forget(self);
        match std::fs::remove_dir_all(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop cannot return the error, but it must not vanish either: count
        // it for process-exit checks and say where the leak is.
        if let Err(e) = std::fs::remove_dir_all(&self.path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                CLEANUP_FAILURES.fetch_add(1, Ordering::Relaxed);
                eprintln!("warning: failed to remove temp dir {}: {e}", self.path.display());
            }
        }
    }
}

/// Where an environment's files live: a self-deleting temp directory (the
/// default) or a caller-owned persistent directory that survives the
/// environment (what crash-recovery reopening needs).
#[derive(Debug)]
enum EnvDir {
    Owned(TempDir),
    Persistent(PathBuf),
}

impl EnvDir {
    fn path(&self) -> &Path {
        match self {
            EnvDir::Owned(d) => d.path(),
            EnvDir::Persistent(p) => p,
        }
    }
}

/// Worker-thread budget for the parallel sort→pack pipeline.
///
/// `threads = 1` is the fully sequential pipeline. Larger values let the
/// view computation run independent sorts side by side and the forest
/// build/refresh dispatch one job per Cubetree; a single sort never starts a
/// thread. The simulated-I/O totals are identical for every value, for
/// builds, refreshes and queries alike: each worker touches its own files in
/// the same per-file page order the sequential pipeline would, the counters
/// aggregate atomically, and a query is one in-order scan on the caller's
/// thread through one shared clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (clamped to at least 1).
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism { threads: 1 }
    }
}

impl Parallelism {
    /// A budget of `threads` workers (zero is treated as one).
    pub fn new(threads: usize) -> Self {
        Parallelism { threads: threads.max(1) }
    }
}

/// Everything a storage engine needs: where files live, the shared buffer
/// pool, the I/O counters, the cost model that prices them, the durability
/// manifest and the fault plan.
pub struct StorageEnv {
    dir: EnvDir,
    stats: Arc<IoStats>,
    pool: Arc<BufferPool>,
    cost: CostModel,
    file_seq: AtomicU64,
    parallelism: Parallelism,
    recorder: Recorder,
    faults: FaultPlan,
    manifest: Mutex<Manifest>,
    manifest_commits: ct_obs::Counter,
}

/// Default buffer pool size: 4096 × 8 KiB = 32 MiB, matching the paper's
/// testbed RAM ("a single processor Ultra Sparc I, with 32MB main memory").
pub const DEFAULT_POOL_PAGES: usize = 4096;

impl StorageEnv {
    /// Creates an environment with the default (paper-matching) buffer size
    /// and cost model, one worker, no metrics and no faults.
    pub fn new(prefix: &str) -> Result<Self> {
        StorageEnv::with_config(
            prefix,
            DEFAULT_POOL_PAGES,
            CostModel::default(),
            Parallelism::default(),
            Recorder::disabled(),
            FaultPlan::none(),
        )
    }

    /// Creates an environment in a fresh self-deleting temp directory named
    /// after `prefix`, with [`StorageEnv::open_at`]'s settings: pool pages,
    /// cost model, worker budget, metrics [`Recorder`] (disabled costs
    /// nothing) and the [`FaultPlan`] threaded into every file it creates.
    pub fn with_config(
        prefix: &str,
        pool_pages: usize,
        cost: CostModel,
        parallelism: Parallelism,
        recorder: Recorder,
        faults: FaultPlan,
    ) -> Result<Self> {
        let dir = EnvDir::Owned(TempDir::new(prefix)?);
        Ok(Self::assemble(dir, pool_pages, cost, parallelism, recorder, faults, Manifest::default(), 0))
    }

    /// Opens (or creates) an environment over a *persistent* directory,
    /// running recovery first: a torn `MANIFEST.tmp` is discarded, every
    /// manifest-named file is verified against its recorded content
    /// checksum, and orphaned `.pages`/`.run` files from an interrupted
    /// build or update are deleted. The directory is left on disk when the
    /// environment drops, so a test (or a real caller) can crash an update
    /// and reopen.
    ///
    /// Returns the environment plus the [`Recovery`] report. Manifest-named
    /// files are *not* auto-registered with the pool — callers re-attach the
    /// components they know via [`StorageEnv::open_file`].
    pub fn open_at(
        dir: impl AsRef<Path>,
        pool_pages: usize,
        cost: CostModel,
        parallelism: Parallelism,
        recorder: Recorder,
        faults: FaultPlan,
    ) -> Result<(Self, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let recovery = manifest::recover(&dir)?;
        recorder.counter("storage.manifest.recoveries").inc();
        recorder
            .counter("storage.manifest.orphans_removed")
            .add(recovery.orphans_removed.len() as u64);
        let man = recovery.manifest.clone().unwrap_or_default();
        // Resume file numbering past every surviving file so new files never
        // collide with manifest-named ones.
        let mut next_seq = 0u64;
        for e in &man.entries {
            if let Some(n) = e.file.split('-').next().and_then(|p| p.parse::<u64>().ok()) {
                next_seq = next_seq.max(n + 1);
            }
        }
        let env = Self::assemble(
            EnvDir::Persistent(dir),
            pool_pages,
            cost,
            parallelism,
            recorder,
            faults,
            man,
            next_seq,
        );
        Ok((env, recovery))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: EnvDir,
        pool_pages: usize,
        cost: CostModel,
        parallelism: Parallelism,
        recorder: Recorder,
        faults: FaultPlan,
        manifest: Manifest,
        next_seq: u64,
    ) -> Self {
        let stats = Arc::new(IoStats::new());
        let pool = Arc::new(BufferPool::with_recorder(pool_pages, stats.clone(), recorder.clone()));
        faults.attach_recorder(&recorder);
        let manifest_commits = recorder.counter("storage.manifest.commits");
        StorageEnv {
            dir,
            stats,
            pool,
            cost,
            file_seq: AtomicU64::new(next_seq),
            parallelism: Parallelism::new(parallelism.threads),
            recorder,
            faults,
            manifest: Mutex::new(manifest),
            manifest_commits,
        }
    }

    /// The environment's metrics recorder (disabled unless the environment
    /// was built with an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Opens a root phase span (e.g. `"load"`) that, when dropped, records
    /// both its wall time and the environment-wide page-I/O delta spanning
    /// its lifetime.
    ///
    /// I/O attribution reads the *global* counters, so root phases must not
    /// overlap each other in time; open them on the engine's main thread
    /// around complete operations. For concurrent per-tree work, use
    /// wall-only child spans ([`Phase::child_wall`]) instead — attributing
    /// shared counters to concurrent siblings would misattribute.
    pub fn phase(&self, path: &str) -> Phase {
        Phase::open(self.recorder.span(path), &self.stats, self.recorder.is_enabled())
    }

    /// The environment's worker budget.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The directory the environment's files live in.
    pub fn dir_path(&self) -> &Path {
        self.dir.path()
    }

    /// The environment's fault plan (inert unless built with an armed one).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Creates a new page file in the environment directory and registers it
    /// with the buffer pool.
    pub fn create_file(&self, name: &str) -> Result<FileId> {
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.path().join(format!("{n:04}-{name}.pages"));
        let file = Arc::new(DiskFile::create_with(path, self.stats.clone(), self.faults.clone())?);
        Ok(self.pool.register(file))
    }

    /// Creates an *unbuffered* page file (bypassing the pool) for streaming
    /// uses like sort runs, where caching would only pollute the pool.
    pub fn create_raw_file(&self, name: &str) -> Result<Arc<DiskFile>> {
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.path().join(format!("{n:04}-{name}.run"));
        Ok(Arc::new(DiskFile::create_with(path, self.stats.clone(), self.faults.clone())?))
    }

    /// Re-attaches the manifest-named file backing `component` (opened
    /// without truncation) and registers it with the pool. The normal path
    /// after [`StorageEnv::open_at`] recovery.
    pub fn open_file(&self, component: &str) -> Result<FileId> {
        let man = self.manifest.lock();
        let entry = man.entry(component).ok_or_else(|| {
            CtError::invalid(format!("manifest has no entry for component {component:?}"))
        })?;
        let path = self.dir.path().join(&entry.file);
        let file =
            Arc::new(DiskFile::open_existing(path, self.stats.clone(), self.faults.clone())?);
        Ok(self.pool.register(file))
    }

    /// The last committed (or recovered) manifest.
    pub fn manifest(&self) -> Manifest {
        self.manifest.lock().clone()
    }

    /// Builds the manifest entry recording `fid`'s current on-disk state
    /// (page count + whole-file content checksum) under `component`. The
    /// checksum is computed via `std::fs`, so the simulated I/O counters are
    /// untouched; call only after the file's pages are flushed.
    pub fn manifest_entry(&self, component: &str, fid: FileId) -> Result<ManifestEntry> {
        let file = self.pool.file(fid)?;
        let name = file
            .path()
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CtError::invalid("file has no utf-8 name"))?
            .to_string();
        Ok(ManifestEntry {
            component: component.to_string(),
            file: name,
            pages: file.page_count(),
            checksum: manifest::file_checksum(file.path())?,
        })
    }

    /// Atomically replaces the manifest's live file set with `entries`
    /// (write-temp → fsync → rename → fsync-dir), bumping the commit
    /// sequence number. This is the single commit point of every
    /// build-then-swap: before it the old file set is live, after it the new
    /// one is, and recovery deletes whichever side lost.
    pub fn commit_manifest(&self, entries: Vec<ManifestEntry>) -> Result<()> {
        let mut man = self.manifest.lock();
        let next = Manifest { seq: man.seq + 1, entries };
        next.write_atomic(self.dir.path(), &self.faults)?;
        *man = next;
        self.manifest_commits.inc();
        Ok(())
    }

    /// Drops a buffered file: evicts its frames (discarding dirty state) and
    /// deletes it from disk — or, if other components still hold handles,
    /// dooms it so deletion happens on last release and any straggler I/O
    /// fails loudly (see [`BufferPool::remove_file`]). Used when merge-pack
    /// replaces an old Cubetree and when the conventional engine rebuilds
    /// views from scratch.
    pub fn remove_file(&self, fid: FileId) -> Result<()> {
        self.pool.remove_file(fid)
    }

    /// Tears the environment down now, surfacing cleanup errors a plain drop
    /// can only log. A persistent ([`StorageEnv::open_at`]) directory is
    /// left on disk — that durability is its point.
    pub fn close(self) -> Result<()> {
        match self.dir {
            EnvDir::Owned(tmp) => tmp.close(),
            EnvDir::Persistent(_) => Ok(()),
        }
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// A point-in-time copy of the I/O counters.
    pub fn snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// The environment's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Total bytes currently allocated by all live buffered files.
    pub fn total_bytes(&self) -> u64 {
        self.pool.total_bytes()
    }

    /// Allocated bytes of one file (zero for a removed handle).
    pub fn file_bytes(&self, fid: FileId) -> u64 {
        self.pool.file(fid).map_or(0, |f| f.size_bytes())
    }
}

/// An open phase span with automatic page-I/O attribution.
///
/// Created by [`StorageEnv::phase`]. On drop, the wall time since opening
/// and the delta of the environment's [`IoStats`] over the phase's lifetime
/// are folded into the recorder under the span's path. With a disabled
/// recorder the guard is fully inert — no snapshots are taken.
#[derive(Debug)]
#[must_use = "a phase measures until dropped; binding it to _ closes it immediately"]
pub struct Phase {
    guard: SpanGuard,
    // `None` when the recorder is disabled (skips counter snapshots).
    stats: Option<Arc<IoStats>>,
    start: IoSnapshot,
}

impl Phase {
    fn open(guard: SpanGuard, stats: &Arc<IoStats>, enabled: bool) -> Phase {
        let (stats, start) = if enabled {
            (Some(stats.clone()), stats.snapshot())
        } else {
            (None, IoSnapshot::default())
        };
        Phase { guard, stats, start }
    }

    /// Opens a child phase (`self`'s path + `/` + `name`) that attributes
    /// its own I/O interval. Children must run sequentially within the
    /// parent (same single-writer rule as root phases).
    pub fn child(&self, name: &str) -> Phase {
        let guard = self.guard.child(name);
        match &self.stats {
            Some(stats) => {
                let start = stats.snapshot();
                Phase { guard, stats: Some(stats.clone()), start }
            }
            None => Phase { guard, stats: None, start: IoSnapshot::default() },
        }
    }

    /// Opens a wall-clock-only child span, safe to move into a worker
    /// thread running concurrently with its siblings (no I/O attribution,
    /// so shared global counters cannot be misattributed).
    pub fn child_wall(&self, name: &str) -> SpanGuard {
        self.guard.child(name)
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        if let Some(stats) = &self.stats {
            let delta = stats.snapshot().since(&self.start);
            self.guard.add_io(delta.to_delta());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_is_removed_on_drop() {
        let path;
        {
            let d = TempDir::new("probe").unwrap();
            path = d.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn env_creates_distinct_files() {
        let env = StorageEnv::new("env-test").unwrap();
        let a = env.create_file("alpha").unwrap();
        let b = env.create_file("alpha").unwrap();
        assert_ne!(a, b);
        assert_eq!(env.total_bytes(), 0);
    }

    #[test]
    fn raw_files_live_in_env_dir() {
        let env = StorageEnv::new("env-raw").unwrap();
        let f = env.create_raw_file("spill").unwrap();
        assert!(f.path().starts_with(env.dir_path()));
        env.close().unwrap();
    }

    #[test]
    fn open_at_recovers_and_resumes_numbering() {
        let host = TempDir::new("env-open-at").unwrap();
        let dir = host.path().join("db");
        let open = || {
            StorageEnv::open_at(
                &dir,
                16,
                CostModel::default(),
                Parallelism::default(),
                Recorder::disabled(),
                FaultPlan::none(),
            )
        };
        // First open: nothing to recover, no manifest.
        let (env, rec) = open().unwrap();
        assert_eq!(rec.manifest, None);
        assert!(rec.orphans_removed.is_empty());
        // Commit one file, leave another as an orphan (never committed).
        let fid = env.create_file("alpha").unwrap();
        let pid = env.pool().new_page(fid).unwrap();
        env.pool().with_page_mut(fid, pid, |p| p.put_u64(0, 42)).unwrap();
        env.pool().flush_all().unwrap();
        let entry = env.manifest_entry("alpha", fid).unwrap();
        env.commit_manifest(vec![entry.clone()]).unwrap();
        env.create_file("orphan").unwrap();
        drop(env);
        assert!(dir.exists(), "persistent dir survives drop");
        // Second open: orphan removed, manifest intact, numbering resumes.
        let (env, rec) = open().unwrap();
        assert_eq!(rec.orphans_removed.len(), 1);
        let man = rec.manifest.unwrap();
        assert_eq!(man.seq, 1);
        assert_eq!(man.entry("alpha"), Some(&entry));
        let fid = env.open_file("alpha").unwrap();
        let val = env.pool().with_page(fid, crate::page::PageId(0), |p| p.get_u64(0)).unwrap();
        assert_eq!(val, 42);
        assert!(env.open_file("missing").is_err());
        let fresh = env.create_file("beta").unwrap();
        let fresh_name = env.pool().file(fresh).unwrap().path().to_path_buf();
        assert!(
            !fresh_name.ends_with(entry.file.as_str()),
            "new files never collide with manifest-named ones"
        );
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_ids_never_resurrect_prior_frames() {
        // FileId values restart from zero in every environment, so after a
        // recovery the same numeric id names a *different* file. Frames must
        // follow the file, never the id: the first touch of a re-attached
        // component is a physical read, not a hit on anything the old id
        // cached.
        let host = TempDir::new("env-id-reuse").unwrap();
        let dir = host.path().join("db");
        let open = || {
            StorageEnv::open_at(
                &dir,
                16,
                CostModel::default(),
                Parallelism::default(),
                Recorder::disabled(),
                FaultPlan::none(),
            )
        };
        let first_id;
        {
            let (env, _) = open().unwrap();
            let fid = env.create_file("alpha").unwrap();
            first_id = fid;
            let pid = env.pool().new_page(fid).unwrap();
            env.pool().with_page_mut(fid, pid, |p| p.put_u64(0, 0xA11CE)).unwrap();
            env.pool().flush_all().unwrap();
            let entry = env.manifest_entry("alpha", fid).unwrap();
            env.commit_manifest(vec![entry]).unwrap();
        }
        let (env, _) = open().unwrap();
        // A brand-new file claims the same numeric id first.
        let beta = env.create_file("beta").unwrap();
        assert_eq!(beta, first_id, "the recovered pool hands out the same id");
        let bpid = env.pool().new_page(beta).unwrap();
        env.pool().with_page_mut(beta, bpid, |p| p.put_u64(0, 0xB07)).unwrap();
        // Re-attaching alpha under a different id reads its own bytes from
        // disk, never a frame keyed by the reused id.
        let alpha = env.open_file("alpha").unwrap();
        assert_ne!(alpha, beta);
        let before = env.snapshot();
        let v = env
            .pool()
            .with_page(alpha, crate::page::PageId(0), |p| p.get_u64(0))
            .unwrap();
        assert_eq!(v, 0xA11CE);
        let d = env.snapshot().since(&before);
        assert_eq!(d.buffer_hits, 0, "first touch after recovery must hit disk");
        assert_eq!(d.seq_reads + d.rand_reads, 1);
        env.pool().with_page(beta, bpid, |p| assert_eq!(p.get_u64(0), 0xB07)).unwrap();
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallelism_defaults_and_clamps() {
        assert_eq!(Parallelism::default().threads, 1);
        assert_eq!(Parallelism::new(0).threads, 1);
        assert_eq!(Parallelism::new(4).threads, 4);
        let env = StorageEnv::new("env-par").unwrap();
        assert_eq!(env.parallelism().threads, 1);
        let env = StorageEnv::with_config(
            "env-par",
            64,
            CostModel::default(),
            Parallelism::new(3),
            Recorder::disabled(),
            FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(env.parallelism().threads, 3);
    }

    #[test]
    fn phases_attribute_io_deltas() {
        let env = StorageEnv::with_config(
            "env-phase",
            16,
            CostModel::default(),
            Parallelism::default(),
            ct_obs::Recorder::enabled(),
            FaultPlan::none(),
        )
        .unwrap();
        {
            let load = env.phase("load");
            {
                let _pack = load.child("pack");
                let fid = env.create_file("t").unwrap();
                let pid = env.pool().new_page(fid).unwrap();
                env.pool().with_page_mut(fid, pid, |p| p.put_u64(0, 1)).unwrap();
                env.pool().flush_all().unwrap();
            }
        }
        let snap = env.recorder().snapshot();
        let load = &snap.spans["load"];
        let pack = &snap.spans["load/pack"];
        assert!(load.has_io && pack.has_io);
        assert_eq!(load.io, pack.io, "all I/O happened inside the child");
        assert_eq!(load.io.total_io(), 1, "one page flushed");
        assert_eq!(snap.root_io_total().total_io(), 1);
    }

    #[test]
    fn disabled_recorder_phases_are_inert() {
        let env = StorageEnv::new("env-phase-off").unwrap();
        assert!(!env.recorder().is_enabled());
        let p = env.phase("load");
        let _w = p.child_wall("tree0");
        drop(p);
        assert!(env.recorder().snapshot().spans.is_empty());
    }
}
