//! A clock (second-chance) buffer pool shared by all storage structures.
//!
//! The pool's job in this reproduction mirrors its role in the paper's
//! analysis (§2.4): the probability that the top levels of every index stay
//! resident determines search performance, and it is why SelectMapping's
//! *minimal* forest beats one-tree-per-view. Dirty frames are written back on
//! eviction and on [`BufferPool::flush_all`]; [`BufferPool::evict_all`] also
//! empties the pool for a cold start. Reads absorbed by the pool are
//! counted as buffer hits rather than physical I/O.
//!
//! The pool is safe to share across threads: one clock behind one mutex.
//! Page callbacks run under that lock (so they must not re-enter the pool).
//! Queries run one at a time, so the pool sees one access sequence whatever
//! the worker budget. Write-once files stay out of it: sort runs and packed
//! trees are written (and merge-pack's old tree read) straight through their
//! [`DiskFile`], so the parallel build and refresh jobs never interleave
//! evictions here.

use crate::io::IoStats;
use crate::page::{Page, PageId};
use crate::pager::{DiskFile, FileId};
use ct_common::{CtError, Result};
use ct_obs::Recorder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct Frame {
    key: (u32, u64),
    page: Page,
    dirty: bool,
    referenced: bool,
    occupied: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            key: (u32::MAX, u64::MAX),
            page: Page::zeroed(),
            dirty: false,
            referenced: false,
            occupied: false,
        }
    }
}

/// The frames, the page table and the clock hand.
struct Clock {
    frames: Vec<Frame>,
    map: HashMap<(u32, u64), usize>,
    hand: usize,
}

/// Fixed-capacity page cache with second-chance replacement.
///
/// Lock order: the file-table lock may be taken *under* the clock lock
/// (write-back during eviction) but never the other way around.
pub struct BufferPool {
    files: Mutex<Vec<Option<Arc<DiskFile>>>>,
    clock: Mutex<Clock>,
    capacity: usize,
    stats: Arc<IoStats>,
    recorder: Recorder,
    evictions: ct_obs::Counter,
    writebacks: ct_obs::Counter,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages, with metrics disabled.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, stats: Arc<IoStats>) -> Self {
        Self::with_recorder(capacity, stats, Recorder::disabled())
    }

    /// Like [`BufferPool::new`], reporting evictions and dirty write-backs
    /// to `recorder` (`storage.buffer.evictions`, `storage.buffer.writebacks`).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_recorder(capacity: usize, stats: Arc<IoStats>, recorder: Recorder) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let evictions = recorder.counter("storage.buffer.evictions");
        let writebacks = recorder.counter("storage.buffer.writebacks");
        BufferPool {
            files: Mutex::new(Vec::new()),
            clock: Mutex::new(Clock {
                frames: (0..capacity).map(|_| Frame::empty()).collect(),
                map: HashMap::new(),
                hand: 0,
            }),
            capacity,
            stats,
            recorder,
            evictions,
            writebacks,
        }
    }

    /// The recorder this pool reports to (disabled by default). Structures
    /// built over the pool (R-tree packing, merge-pack) reach their metrics
    /// through this handle rather than carrying their own plumbing.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The I/O counters this pool charges into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Registers a file with the pool, returning its handle.
    pub fn register(&self, file: Arc<DiskFile>) -> FileId {
        let mut files = self.files.lock();
        let id = FileId(files.len() as u32);
        files.push(Some(file));
        id
    }

    /// The registered file behind a handle, or an error if the handle is
    /// stale (file was removed) or unknown.
    pub fn file(&self, fid: FileId) -> Result<Arc<DiskFile>> {
        self.files
            .lock()
            .get(fid.0 as usize)
            .and_then(|f| f.clone())
            .ok_or_else(|| CtError::invalid("file was removed from the pool"))
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Runs `f` over an immutable view of page `(fid, pid)`, faulting it in
    /// if needed.
    pub fn with_page<R>(&self, fid: FileId, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let mut clock = self.clock.lock();
        let idx = self.fault_in(&mut clock, fid, pid)?;
        clock.frames[idx].referenced = true;
        Ok(f(&clock.frames[idx].page))
    }

    /// Runs `f` over a mutable view of page `(fid, pid)`, marking it dirty.
    pub fn with_page_mut<R>(
        &self,
        fid: FileId,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let mut clock = self.clock.lock();
        let idx = self.fault_in(&mut clock, fid, pid)?;
        let frame = &mut clock.frames[idx];
        frame.referenced = true;
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    /// Allocates a fresh page in `fid` and returns its id; the page is
    /// resident, zeroed and dirty (no disk read is charged for it).
    pub fn new_page(&self, fid: FileId) -> Result<PageId> {
        let file = self.file(fid)?;
        let pid = file.allocate();
        let mut clock = self.clock.lock();
        let idx = self.find_victim(&mut clock)?;
        let frame = &mut clock.frames[idx];
        frame.key = (fid.0, pid.0);
        frame.page.clear();
        frame.dirty = true;
        frame.referenced = true;
        frame.occupied = true;
        clock.map.insert((fid.0, pid.0), idx);
        Ok(pid)
    }

    /// Writes every dirty frame back to its file, in frame order.
    pub fn flush_all(&self) -> Result<()> {
        self.write_back_all(&mut self.clock.lock())
    }

    /// Writes every dirty frame back, then empties every frame and resets
    /// the clock hand, all under one lock: the next access to any page is a
    /// physical read, so what ran before leaves no trace in the pool (a
    /// cold start), and no concurrent write lands between the two steps.
    pub fn evict_all(&self) -> Result<()> {
        let mut clock = self.clock.lock();
        self.write_back_all(&mut clock)?;
        clock.frames.iter_mut().for_each(|f| f.occupied = false);
        clock.map.clear();
        clock.hand = 0;
        Ok(())
    }

    /// Discards all frames of `fid` (dirty or not) and deletes the file.
    ///
    /// If another component still holds an `Arc<DiskFile>` to it (a raw sort
    /// run mid-merge, a tree builder mid-pack, a pinned reader's generation),
    /// deletion is *deferred*: the file is doomed — every further read or
    /// write through any handle fails loudly — and the unlink happens when
    /// the last handle drops, instead of letting a stale handle silently
    /// write to an unlinked path.
    ///
    /// Ordering matters: the handle is taken out of the file table and
    /// doomed *before* the frame sweep. Every install path (demand fault,
    /// `new_page`) resolves the handle first, so once the slot is empty no
    /// new frame for this id can slip in behind the sweep — the stale-frame
    /// hazard where a later registration reusing the id would resurrect a
    /// dead file's cached pages.
    pub fn remove_file(&self, fid: FileId) -> Result<()> {
        let file = {
            let mut files = self.files.lock();
            files
                .get_mut(fid.0 as usize)
                .and_then(|f| f.take())
                .ok_or_else(|| CtError::invalid("file already removed"))?
        };
        // Doom before sweeping: a handle some caller already resolved now
        // fails every read and write instead of reviving the file.
        file.doom();
        let mut clock = self.clock.lock();
        for i in 0..clock.frames.len() {
            if clock.frames[i].occupied && clock.frames[i].key.0 == fid.0 {
                let key = clock.frames[i].key;
                clock.map.remove(&key);
                clock.frames[i].occupied = false;
                clock.frames[i].dirty = false;
            }
        }
        drop(clock);
        if Arc::strong_count(&file) > 1 {
            Ok(())
        } else {
            file.delete()
        }
    }

    /// Total allocated bytes across live files.
    pub fn total_bytes(&self) -> u64 {
        self.files.lock().iter().flatten().map(|f| f.size_bytes()).sum()
    }

    fn fault_in(&self, clock: &mut Clock, fid: FileId, pid: PageId) -> Result<usize> {
        if let Some(&idx) = clock.map.get(&(fid.0, pid.0)) {
            self.stats.record_buffer_hit();
            return Ok(idx);
        }
        let file = self.file(fid)?;
        let idx = self.find_victim(clock)?;
        // Read into the frame (the pager records the physical read).
        file.read_page(pid, &mut clock.frames[idx].page)?;
        let frame = &mut clock.frames[idx];
        frame.key = (fid.0, pid.0);
        frame.dirty = false;
        frame.referenced = true;
        frame.occupied = true;
        clock.map.insert((fid.0, pid.0), idx);
        Ok(idx)
    }

    /// Second-chance scan for a frame to reuse; writes back the victim if
    /// dirty.
    fn find_victim(&self, clock: &mut Clock) -> Result<usize> {
        let n = clock.frames.len();
        // Two full sweeps guarantee progress: the first clears referenced
        // bits, the second must find a victim.
        for _ in 0..(2 * n + 1) {
            let i = clock.hand;
            clock.hand = (clock.hand + 1) % n;
            if !clock.frames[i].occupied {
                return Ok(i);
            }
            if clock.frames[i].referenced {
                clock.frames[i].referenced = false;
                continue;
            }
            if clock.frames[i].dirty {
                self.write_back(clock, i)?;
            }
            let key = clock.frames[i].key;
            clock.map.remove(&key);
            clock.frames[i].occupied = false;
            self.evictions.inc();
            return Ok(i);
        }
        Err(CtError::invalid("buffer pool could not find a victim frame"))
    }

    fn write_back_all(&self, clock: &mut Clock) -> Result<()> {
        for i in 0..clock.frames.len() {
            if clock.frames[i].occupied && clock.frames[i].dirty {
                self.write_back(clock, i)?;
            }
        }
        Ok(())
    }

    fn write_back(&self, clock: &mut Clock, idx: usize) -> Result<()> {
        let (fid, pid) = clock.frames[idx].key;
        let file = self
            .file(FileId(fid))
            .map_err(|_| CtError::corrupt("dirty frame for removed file"))?;
        file.write_page(PageId(pid), &clock.frames[idx].page)?;
        clock.frames[idx].dirty = false;
        self.writebacks.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TempDir;

    fn pool(capacity: usize) -> (TempDir, Arc<IoStats>, BufferPool, FileId) {
        let dir = TempDir::new("buffer-test").unwrap();
        let stats = Arc::new(IoStats::new());
        let pool = BufferPool::new(capacity, stats.clone());
        let file = Arc::new(DiskFile::create(dir.path().join("t.db"), stats.clone()).unwrap());
        let fid = pool.register(file);
        (dir, stats, pool, fid)
    }

    #[test]
    fn new_pages_are_zeroed_and_cached() {
        let (_d, stats, pool, fid) = pool(8);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page(fid, pid, |p| assert_eq!(p.get_u64(0), 0)).unwrap();
        // No physical read should have happened.
        assert_eq!(stats.snapshot().seq_reads + stats.snapshot().rand_reads, 0);
        assert_eq!(stats.snapshot().buffer_hits, 1);
    }

    #[test]
    fn writes_survive_eviction() {
        let (_d, _s, pool, fid) = pool(2);
        let mut pids = Vec::new();
        for i in 0..10u64 {
            let pid = pool.new_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |p| p.put_u64(0, i * 100)).unwrap();
            pids.push(pid);
        }
        // Capacity 2 forced evictions; values must round-trip through disk.
        for (i, pid) in pids.iter().enumerate() {
            pool.with_page(fid, *pid, |p| assert_eq!(p.get_u64(0), i as u64 * 100)).unwrap();
        }
    }

    #[test]
    fn hits_avoid_physical_io() {
        let (_d, stats, pool, fid) = pool(8);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |p| p.put_u64(0, 1)).unwrap();
        pool.flush_all().unwrap();
        let before = stats.snapshot();
        for _ in 0..5 {
            pool.with_page(fid, pid, |p| assert_eq!(p.get_u64(0), 1)).unwrap();
        }
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.seq_reads + delta.rand_reads, 0);
        assert_eq!(delta.buffer_hits, 5);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let (_d, _s, pool, fid) = pool(4);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |p| p.put_u64(8, 42)).unwrap();
        pool.flush_all().unwrap();
        // Read directly from the file, bypassing the pool.
        let file = pool.file(fid).unwrap();
        let mut page = Page::zeroed();
        file.read_page(pid, &mut page).unwrap();
        assert_eq!(page.get_u64(8), 42);
    }

    #[test]
    fn evict_all_persists_dirty_pages_and_starts_cold() {
        let (_d, stats, pool, fid) = pool(4);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |p| p.put_u64(8, 42)).unwrap();
        pool.evict_all().unwrap();
        let before = stats.snapshot();
        assert_eq!(pool.with_page(fid, pid, |p| p.get_u64(8)).unwrap(), 42);
        let d = stats.snapshot().since(&before);
        assert_eq!((d.seq_reads + d.rand_reads, d.buffer_hits), (1, 0), "{d:?}");
        // A writer racing the evictions loses no write: every write puts a
        // fresh word, so a frame emptied while dirty drops one for good.
        let pids: Vec<PageId> = (0..8).map(|_| pool.new_page(fid).unwrap()).collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for &pid in &pids {
                    for k in 1..1024 {
                        pool.with_page_mut(fid, pid, |p| p.put_u64(8 * k, k as u64)).unwrap();
                    }
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                pool.evict_all().unwrap();
            }
        });
        pool.evict_all().unwrap();
        for &pid in &pids {
            let words: Vec<u64> =
                pool.with_page(fid, pid, |p| (1..1024).map(|k| p.get_u64(8 * k)).collect()).unwrap();
            assert_eq!(words, (1..1024).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn remove_file_discards_frames() {
        let (_d, _s, pool, fid) = pool(4);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |p| p.put_u64(0, 9)).unwrap();
        let path = pool.file(fid).unwrap().path().to_path_buf();
        pool.remove_file(fid).unwrap();
        assert!(!path.exists());
        assert!(pool.with_page(fid, pid, |_| ()).is_err());
        assert!(pool.file(fid).is_err(), "stale handle lookup errors");
    }

    #[test]
    fn remove_file_defers_while_handles_are_live() {
        let (_d, _s, pool, fid) = pool(4);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |p| p.put_u64(0, 9)).unwrap();
        pool.flush_all().unwrap();
        let held = pool.file(fid).unwrap();
        let path = held.path().to_path_buf();
        pool.remove_file(fid).unwrap();
        // The concurrently-held handle keeps the path alive but is doomed:
        // all I/O through it fails loudly instead of writing to a deleted
        // file.
        assert!(path.exists(), "deletion deferred until last handle drops");
        assert!(held.is_doomed());
        let page = Page::zeroed();
        assert!(held.write_page(pid, &page).is_err());
        let mut out = Page::zeroed();
        assert!(held.read_page(pid, &mut out).is_err());
        assert!(held.sync().is_err());
        drop(held);
        assert!(!path.exists(), "last handle drop unlinks the file");
    }

    #[test]
    fn many_files_interleaved() {
        let dir = TempDir::new("buffer-multi").unwrap();
        let stats = Arc::new(IoStats::new());
        let pool = BufferPool::new(3, stats.clone());
        let mut fids = Vec::new();
        for i in 0..4 {
            let f =
                Arc::new(DiskFile::create(dir.path().join(format!("f{i}.db")), stats.clone()).unwrap());
            fids.push(pool.register(f));
        }
        for (i, &fid) in fids.iter().enumerate() {
            let pid = pool.new_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |p| p.put_u64(0, i as u64)).unwrap();
        }
        for (i, &fid) in fids.iter().enumerate() {
            pool.with_page(fid, PageId(0), |p| assert_eq!(p.get_u64(0), i as u64)).unwrap();
        }
        assert_eq!(pool.total_bytes(), 4 * crate::page::PAGE_SIZE as u64);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::env::TempDir;

    #[test]
    fn capacity_one_pool_thrashes_correctly() {
        let dir = TempDir::new("buffer-cap1").unwrap();
        let stats = Arc::new(IoStats::new());
        let pool = BufferPool::new(1, stats.clone());
        let file = Arc::new(DiskFile::create(dir.path().join("t.db"), stats.clone()).unwrap());
        let fid = pool.register(file);
        let mut pids = Vec::new();
        for i in 0..20u64 {
            let pid = pool.new_page(fid).unwrap();
            pool.with_page_mut(fid, pid, |p| p.put_u64(0, i)).unwrap();
            pids.push(pid);
        }
        for (i, pid) in pids.iter().enumerate() {
            pool.with_page(fid, *pid, |p| assert_eq!(p.get_u64(0), i as u64)).unwrap();
        }
        // Every re-read after the first eviction wave is a physical read.
        assert!(stats.snapshot().seq_reads + stats.snapshot().rand_reads >= 19);
    }

    #[test]
    fn flush_is_idempotent() {
        let dir = TempDir::new("buffer-flush2").unwrap();
        let stats = Arc::new(IoStats::new());
        let pool = BufferPool::new(4, stats.clone());
        let file = Arc::new(DiskFile::create(dir.path().join("t.db"), stats.clone()).unwrap());
        let fid = pool.register(file);
        let pid = pool.new_page(fid).unwrap();
        pool.with_page_mut(fid, pid, |p| p.put_u64(0, 5)).unwrap();
        pool.flush_all().unwrap();
        let w1 = stats.snapshot().seq_writes + stats.snapshot().rand_writes;
        pool.flush_all().unwrap();
        let w2 = stats.snapshot().seq_writes + stats.snapshot().rand_writes;
        assert_eq!(w1, w2, "clean frames must not be rewritten");
    }

    #[test]
    fn concurrent_access_from_many_threads_is_safe() {
        let dir = TempDir::new("buffer-mt").unwrap();
        let stats = Arc::new(IoStats::new());
        let pool = Arc::new(BufferPool::new(8, stats.clone()));
        let mut fids = Vec::new();
        for i in 0..4 {
            let f = Arc::new(
                DiskFile::create(dir.path().join(format!("mt{i}.db")), stats.clone()).unwrap(),
            );
            fids.push(pool.register(f));
        }
        std::thread::scope(|s| {
            for (t, &fid) in fids.iter().enumerate() {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut pids = Vec::new();
                    for i in 0..50u64 {
                        let pid = pool.new_page(fid).unwrap();
                        pool.with_page_mut(fid, pid, |p| p.put_u64(0, t as u64 * 1000 + i))
                            .unwrap();
                        pids.push(pid);
                    }
                    for (i, pid) in pids.iter().enumerate() {
                        pool.with_page(fid, *pid, |p| {
                            assert_eq!(p.get_u64(0), t as u64 * 1000 + i as u64)
                        })
                        .unwrap();
                    }
                });
            }
        });
        pool.flush_all().unwrap();
        // 4 threads × 50 pages, all values must have survived the shared pool.
        assert_eq!(pool.total_bytes(), 4 * 50 * crate::page::PAGE_SIZE as u64);
    }

    #[test]
    fn stale_file_handles_error_cleanly() {
        let dir = TempDir::new("buffer-stale").unwrap();
        let stats = Arc::new(IoStats::new());
        let pool = BufferPool::new(4, stats.clone());
        let file = Arc::new(DiskFile::create(dir.path().join("t.db"), stats.clone()).unwrap());
        let fid = pool.register(file);
        let pid = pool.new_page(fid).unwrap();
        pool.remove_file(fid).unwrap();
        assert!(pool.with_page(fid, pid, |_| ()).is_err());
        assert!(pool.with_page_mut(fid, pid, |_| ()).is_err());
        assert!(pool.new_page(fid).is_err());
        assert!(pool.remove_file(fid).is_err(), "double remove");
    }
}

