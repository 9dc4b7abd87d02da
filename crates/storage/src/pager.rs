//! File-backed page I/O with sequential/random access classification.
//!
//! A [`DiskFile`] is one on-disk file addressed in [`PAGE_SIZE`] units. Every
//! read or write is classified against the previous access position of the
//! same kind on the same file: accessing page `p` right after page `p - 1`
//! (or re-touching `p`) counts as *sequential*; anything else counts as
//! *random* (a seek on the paper's 1998 disk). This is the instrumentation
//! behind the paper's central claim that Cubetree packing/merge-packing does
//! "only sequential writes to the disk" (§3.4) while relational view
//! maintenance is dominated by random I/O.

use crate::fault::FaultPlan;
use crate::io::IoStats;
use crate::page::{Page, PageId, PAGE_SIZE};
use ct_common::{CtError, Result};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to a file registered in a [`crate::buffer::BufferPool`] /
/// [`crate::env::StorageEnv`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

/// Sentinel meaning "no previous access".
const NO_PREV: u64 = u64::MAX;

/// One page-addressed file plus its access-pattern tracking state.
pub struct DiskFile {
    path: PathBuf,
    file: Mutex<File>,
    /// Number of allocated pages (the logical end of file).
    pages: AtomicU64,
    last_read: AtomicU64,
    last_write: AtomicU64,
    stats: Arc<IoStats>,
    faults: FaultPlan,
    /// Checksum of each page's last written (or first read) contents, for
    /// torn-write detection on subsequent reads. Indexed by page id; `None`
    /// means never observed.
    sums: Mutex<Vec<Option<u64>>>,
    /// Set by deferred removal: the file is logically deleted and will be
    /// unlinked when the last handle drops; all I/O on it fails loudly.
    doomed: AtomicBool,
}

impl DiskFile {
    /// Creates (truncating) a file at `path` with no fault plan.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::create_with(path, stats, FaultPlan::none())
    }

    /// Creates (truncating) a file at `path`, threading `faults` through
    /// every subsequent page write.
    pub fn create_with(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        faults: FaultPlan,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok(Self::from_parts(path, file, 0, stats, faults))
    }

    /// Opens an existing file without truncating; the page count is taken
    /// from the on-disk length. Used by recovery to re-attach the files a
    /// manifest names.
    pub fn open_existing(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        faults: FaultPlan,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(Self::from_parts(path, file, len.div_ceil(PAGE_SIZE as u64), stats, faults))
    }

    fn from_parts(
        path: PathBuf,
        file: File,
        pages: u64,
        stats: Arc<IoStats>,
        faults: FaultPlan,
    ) -> Self {
        DiskFile {
            path,
            file: Mutex::new(file),
            pages: AtomicU64::new(pages),
            last_read: AtomicU64::new(NO_PREV),
            last_write: AtomicU64::new(NO_PREV),
            stats,
            faults,
            sums: Mutex::new(Vec::new()),
            doomed: AtomicBool::new(false),
        }
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    /// Allocated size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// Reserves the next page id. The page contents are undefined until the
    /// first [`DiskFile::write_page`].
    pub fn allocate(&self) -> PageId {
        PageId(self.pages.fetch_add(1, Ordering::Relaxed))
    }

    fn check_live(&self, op: &str) -> Result<()> {
        if self.doomed.load(Ordering::Acquire) {
            return Err(CtError::invalid(format!(
                "{op} on removed file {} (deletion deferred to last handle)",
                self.path.display()
            )));
        }
        Ok(())
    }

    /// Reads page `pid` into `page`, recording a sequential or random read
    /// and verifying the page checksum when one is known. The first
    /// observation of a page (no prior write through this handle) records
    /// its checksum instead.
    pub fn read_page(&self, pid: PageId, page: &mut Page) -> Result<()> {
        self.check_live("read")?;
        if pid.0 >= self.page_count() {
            return Err(CtError::invalid(format!(
                "read past end of file: page {} of {}",
                pid.0,
                self.page_count()
            )));
        }
        let prev = self.last_read.swap(pid.0, Ordering::Relaxed);
        let sequential = prev != NO_PREV && (pid.0 == prev + 1 || pid.0 == prev);
        self.stats.record_read(sequential);
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(pid.byte_offset()))?;
            // The file may be sparse past the last physical write; treat short
            // reads of allocated-but-unwritten pages as zeroes.
            let n = read_up_to(&mut f, page.bytes_mut())?;
            page.bytes_mut()[n..].fill(0);
        }
        let got = page.checksum();
        let mut sums = self.sums.lock();
        if sums.len() <= pid.0 as usize {
            sums.resize(pid.0 as usize + 1, None);
        }
        match sums[pid.0 as usize] {
            Some(want) if want != got => Err(CtError::corrupt(format!(
                "page checksum mismatch on {} page {} (want {want:016x}, got {got:016x})",
                self.path.display(),
                pid.0
            ))),
            Some(_) => Ok(()),
            None => {
                sums[pid.0 as usize] = Some(got);
                Ok(())
            }
        }
    }

    /// Writes `page` at `pid`, recording a sequential or random write and
    /// the page's checksum for later read verification. An armed
    /// [`FaultPlan`] may fail the write before any byte reaches the file.
    pub fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        self.check_live("write")?;
        if pid.0 >= self.page_count() {
            return Err(CtError::invalid(format!(
                "write past end of file: page {} of {}",
                pid.0,
                self.page_count()
            )));
        }
        self.faults.before_write(&self.path)?;
        let prev = self.last_write.swap(pid.0, Ordering::Relaxed);
        let sequential = prev != NO_PREV && (pid.0 == prev + 1 || pid.0 == prev);
        self.stats.record_write(sequential);
        {
            let mut f = self.file.lock();
            f.seek(SeekFrom::Start(pid.byte_offset()))?;
            f.write_all(page.bytes())?;
        }
        let mut sums = self.sums.lock();
        if sums.len() <= pid.0 as usize {
            sums.resize(pid.0 as usize + 1, None);
        }
        sums[pid.0 as usize] = Some(page.checksum());
        Ok(())
    }

    /// Flushes OS buffers.
    pub fn sync(&self) -> Result<()> {
        self.check_live("sync")?;
        self.file.lock().sync_data()?;
        Ok(())
    }

    /// Deletes the underlying file. The handle must not be used afterwards.
    pub fn delete(&self) -> Result<()> {
        self.doomed.store(true, Ordering::Release);
        std::fs::remove_file(&self.path)?;
        Ok(())
    }

    /// Marks the file as logically deleted: every further read/write/sync
    /// through *any* clone of this handle fails, and the file is unlinked
    /// when the last `Arc<DiskFile>` drops. Used by the pool when a file is
    /// removed while other components still hold handles to it — which is
    /// also the reclamation half of generation MVCC: a replaced forest
    /// generation dooms its files, and readers still pinning that
    /// generation keep the bytes alive until their last handle drops.
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    /// True once [`DiskFile::doom`] or [`DiskFile::delete`] has been called.
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }
}

impl Drop for DiskFile {
    fn drop(&mut self) {
        if self.doomed.load(Ordering::Acquire) {
            // Deferred deletion: the unlink may already have happened (via
            // `delete`) or the whole directory may be gone; neither needs
            // reporting.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn read_up_to(f: &mut File, buf: &mut [u8]) -> Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match f.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TempDir;

    fn setup() -> (TempDir, Arc<IoStats>, DiskFile) {
        let dir = TempDir::new("pager-test").unwrap();
        let stats = Arc::new(IoStats::new());
        let f = DiskFile::create(dir.path().join("t.db"), stats.clone()).unwrap();
        (dir, stats, f)
    }

    #[test]
    fn roundtrip_pages() {
        let (_d, _s, f) = setup();
        let p0 = f.allocate();
        let p1 = f.allocate();
        let mut page = Page::zeroed();
        page.put_u64(0, 111);
        f.write_page(p0, &page).unwrap();
        page.put_u64(0, 222);
        f.write_page(p1, &page).unwrap();
        let mut out = Page::zeroed();
        f.read_page(p0, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 111);
        f.read_page(p1, &mut out).unwrap();
        assert_eq!(out.get_u64(0), 222);
        assert_eq!(f.page_count(), 2);
        assert_eq!(f.size_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn sequential_vs_random_classification() {
        let (_d, stats, f) = setup();
        let page = Page::zeroed();
        for _ in 0..5 {
            let pid = f.allocate();
            f.write_page(pid, &page).unwrap();
        }
        let snap = stats.snapshot();
        // First write is random (no previous position), the rest sequential.
        assert_eq!(snap.rand_writes, 1);
        assert_eq!(snap.seq_writes, 4);

        let mut out = Page::zeroed();
        f.read_page(PageId(0), &mut out).unwrap(); // random (first)
        f.read_page(PageId(1), &mut out).unwrap(); // sequential
        f.read_page(PageId(4), &mut out).unwrap(); // random (jump)
        f.read_page(PageId(4), &mut out).unwrap(); // sequential (same page)
        let snap = stats.snapshot();
        assert_eq!(snap.rand_reads, 2);
        assert_eq!(snap.seq_reads, 2);
    }

    #[test]
    fn allocated_but_unwritten_pages_read_as_zero() {
        let (_d, _s, f) = setup();
        let pid = f.allocate();
        let mut out = Page::zeroed();
        out.put_u64(64, 77);
        f.read_page(pid, &mut out).unwrap();
        assert_eq!(out.get_u64(64), 0);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let (_d, _s, f) = setup();
        let mut out = Page::zeroed();
        assert!(f.read_page(PageId(0), &mut out).is_err());
        assert!(f.write_page(PageId(0), &out).is_err());
    }

    #[test]
    fn delete_removes_file() {
        let (_d, _s, f) = setup();
        let path = f.path().to_path_buf();
        assert!(path.exists());
        f.delete().unwrap();
        assert!(!path.exists());
    }
}
