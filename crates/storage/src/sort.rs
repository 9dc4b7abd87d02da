//! External merge sort over fixed-width `u64` records.
//!
//! Sorting is the workhorse of the whole pipeline (paper Figure 11): the same
//! sort both computes the aggregate views (\[AAD+96\] sort-based cube
//! computation) and produces the streams the Cubetree packer consumes. Runs
//! are written and read strictly sequentially, so a sort's I/O is charged at
//! sequential rates — exactly the property the paper exploits ("this step can
//! be hardly considered as an overhead, since sorting is at the same time
//! used for computing the views", §3.2).
//!
//! A record is `width` consecutive `u64` words; records are ordered by
//! comparing the columns listed in `key_cols`, in order.
//!
//! A sorter is single-threaded and starts no thread: it sorts and spills
//! each budget-slice on the caller's thread and merges the runs there too.
//! Parallelism lives one level up, where independent sorts run side by side
//! (see `cubetree::views`). Each run file belongs to one sorter and is
//! written, then read, strictly sequentially, so a sort's output and its
//! per-file sequential/random I/O accounting do not depend on what other
//! sorts run beside it.

use crate::env::StorageEnv;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::DiskFile;
use ct_common::{CtError, Result};
use std::cmp::Ordering;
use std::sync::Arc;

/// Compares two records column-by-column in `key_cols` order.
#[inline]
pub fn cmp_records(a: &[u64], b: &[u64], key_cols: &[usize]) -> Ordering {
    for &c in key_cols {
        match a[c].cmp(&b[c]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Default in-memory budget: 2 MiB of record words per run, far below the
/// 32 MiB pool, forcing realistic spills at benchmark scale factors.
pub const DEFAULT_BUDGET_WORDS: usize = 256 * 1024;

/// An external merge sorter.
pub struct ExternalSorter<'a> {
    env: &'a StorageEnv,
    width: usize,
    key_cols: Vec<usize>,
    budget_records: usize,
    buf: Vec<u64>,
    runs: Vec<Run>,
    pushed: u64,
    /// Metrics (inert when the env's recorder is disabled): run count,
    /// spilled records, records-per-run distribution.
    runs_counter: ct_obs::Counter,
    spilled_counter: ct_obs::Counter,
    run_hist: ct_obs::HistogramHandle,
}

struct Run {
    file: Arc<DiskFile>,
    records: u64,
}

/// Sorts one budget-slice of records, returning the reordered copy.
fn sort_chunk(buf: &[u64], width: usize, key_cols: &[usize]) -> Vec<u64> {
    let n = buf.len() / width;
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        cmp_records(
            &buf[a as usize * width..a as usize * width + width],
            &buf[b as usize * width..b as usize * width + width],
            key_cols,
        )
    });
    let mut out = Vec::with_capacity(buf.len());
    for i in idx {
        let s = i as usize * width;
        out.extend_from_slice(&buf[s..s + width]);
    }
    out
}

/// Writes one sorted chunk to `file` as a sequential run.
fn write_run(sorted: &[u64], width: usize, file: Arc<DiskFile>) -> Result<()> {
    let mut writer = RunWriter::new(file, width);
    for rec in sorted.chunks_exact(width) {
        writer.push(rec)?;
    }
    writer.finish()
}

impl<'a> ExternalSorter<'a> {
    /// A sorter for `width`-word records ordered by `key_cols`, spilling runs
    /// into `env` when the default memory budget fills.
    ///
    /// # Panics
    /// Panics if `width` is zero, a key column is out of range, or the width
    /// exceeds one page.
    pub fn new(env: &'a StorageEnv, width: usize, key_cols: Vec<usize>) -> Self {
        Self::with_budget(env, width, key_cols, DEFAULT_BUDGET_WORDS)
    }

    /// Like [`ExternalSorter::new`] with an explicit budget in words.
    pub fn with_budget(
        env: &'a StorageEnv,
        width: usize,
        key_cols: Vec<usize>,
        budget_words: usize,
    ) -> Self {
        assert!(width > 0, "records must have at least one column");
        assert!(width * 8 <= PAGE_SIZE, "record wider than a page");
        assert!(key_cols.iter().all(|&c| c < width), "key column out of range");
        let budget_records = (budget_words / width).max(2);
        let recorder = env.recorder();
        ExternalSorter {
            env,
            width,
            key_cols,
            budget_records,
            buf: Vec::with_capacity(budget_records.min(1 << 16) * width),
            runs: Vec::new(),
            pushed: 0,
            runs_counter: recorder.counter("storage.sort.runs"),
            spilled_counter: recorder.counter("storage.sort.spilled_records"),
            run_hist: recorder.histogram("storage.sort.run_records"),
        }
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Adds one record.
    ///
    /// # Panics
    /// Panics if `record.len() != width`.
    pub fn push(&mut self, record: &[u64]) -> Result<()> {
        assert_eq!(record.len(), self.width, "record width mismatch");
        self.buf.extend_from_slice(record);
        self.pushed += 1;
        if self.buf.len() / self.width >= self.budget_records {
            self.spill()?;
        }
        Ok(())
    }

    /// Sorts the in-memory chunk and writes it out as a run file. Runs are
    /// numbered in push order, which is the merge's tie-break.
    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let records = (self.buf.len() / self.width) as u64;
        self.env.stats().add_tuples(records);
        self.runs_counter.inc();
        self.spilled_counter.add(records);
        self.run_hist.record(records);
        let file = self.env.create_raw_file("sort-run")?;
        self.runs.push(Run { file: file.clone(), records });
        // Wall-only span: sorts may run beside each other, so global-counter
        // deltas could not be attributed to this one.
        let _span = self.env.recorder().span("sort/spill_run");
        let sorted = sort_chunk(&self.buf, self.width, &self.key_cols);
        self.buf.clear();
        write_run(&sorted, self.width, file)
    }

    /// Sorts and drains the buffered chunk, charging CPU tuple costs.
    fn take_sorted_chunk(&mut self) -> Vec<u64> {
        let n = self.buf.len() / self.width;
        self.env.stats().add_tuples(n as u64);
        let out = sort_chunk(&self.buf, self.width, &self.key_cols);
        self.buf.clear();
        out
    }

    /// Finishes the sort and returns a stream of records in key order.
    pub fn finish(mut self) -> Result<SortedStream> {
        if self.runs.is_empty() {
            let chunk = self.take_sorted_chunk();
            return Ok(SortedStream::InMemory { data: chunk, width: self.width, pos: 0 });
        }
        self.spill()?;
        let mut readers = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            readers.push(RunReader::new(run.file.clone(), self.width, run.records)?);
        }
        let mut heads = Vec::with_capacity(readers.len());
        for (i, r) in readers.iter_mut().enumerate() {
            if r.next_record()?.is_some() {
                heads.push(i);
            }
        }
        let mut merge = Merge {
            readers,
            heads,
            returned: false,
            key_cols: self.key_cols,
            stats: self.env.stats().clone(),
            merged: self.env.recorder().counter("storage.sort.merged_records"),
        };
        for i in (0..merge.heads.len() / 2).rev() {
            merge.sift_down(i);
        }
        Ok(SortedStream::Merge(merge))
    }
}

/// The output of a finished sort. Use [`SortedStream::next_record`] to pull
/// records; each call returns a borrowed record slice valid until the next
/// call.
pub enum SortedStream {
    /// The whole input fit in the budget.
    InMemory {
        /// Sorted, width-strided words.
        data: Vec<u64>,
        /// Record width.
        width: usize,
        /// Cursor (record index).
        pos: usize,
    },
    /// K-way merge over spilled runs.
    Merge(Merge),
}

impl SortedStream {
    /// Pulls the next record in key order, or `None` at end of stream. The
    /// slice borrows a buffer the stream reuses, so a merged record costs no
    /// allocation.
    pub fn next_record(&mut self) -> Result<Option<&[u64]>> {
        match self {
            SortedStream::InMemory { data, width, pos } => {
                let s = *pos * *width;
                if s >= data.len() {
                    return Ok(None);
                }
                *pos += 1;
                Ok(Some(&data[s..s + *width]))
            }
            SortedStream::Merge(m) => m.next_record(),
        }
    }

    /// Drains the stream into a flat vector (tests / small inputs).
    pub fn collect_all(mut self) -> Result<Vec<Vec<u64>>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r.to_vec());
        }
        Ok(out)
    }
}

/// K-way merge state: one reader per run, each holding its current head
/// record, and a binary min-heap of the indices of runs that still have a
/// head. Heads order by [`cmp_records`] on the sort key, ties by run index,
/// so the output is deterministic.
pub struct Merge {
    readers: Vec<RunReader>,
    /// Heap of run indices; `heads[0]` is the run holding the smallest head.
    heads: Vec<usize>,
    /// The root run's head was handed out by the last `next_record` and must
    /// be advanced before the next one.
    returned: bool,
    key_cols: Vec<usize>,
    /// For CPU accounting of merge work.
    stats: Arc<crate::io::IoStats>,
    /// Metrics: records emitted by the k-way merge (inert when disabled).
    merged: ct_obs::Counter,
}

impl Merge {
    /// True if run `a`'s head sorts before run `b`'s.
    fn less(&self, a: usize, b: usize) -> bool {
        cmp_records(self.readers[a].current(), self.readers[b].current(), &self.key_cols)
            .then(a.cmp(&b))
            == Ordering::Less
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heads.len();
        loop {
            let mut min = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n && self.less(self.heads[child], self.heads[min]) {
                    min = child;
                }
            }
            if min == i {
                return;
            }
            self.heads.swap(i, min);
            i = min;
        }
    }

    fn next_record(&mut self) -> Result<Option<&[u64]>> {
        if std::mem::take(&mut self.returned) {
            // Replace the root by its run's next record, or drop the run.
            if self.readers[self.heads[0]].next_record()?.is_none() {
                self.heads.swap_remove(0);
            }
            self.sift_down(0);
        }
        let Some(&top) = self.heads.first() else { return Ok(None) };
        self.returned = true;
        self.stats.add_tuples(1);
        self.merged.inc();
        Ok(Some(self.readers[top].current()))
    }
}

/// Sequential page-granular writer for run files.
pub struct RunWriter {
    file: Arc<DiskFile>,
    width: usize,
    per_page: usize,
    page: Page,
    in_page: usize,
}

impl RunWriter {
    /// A writer appending `width`-word records to `file`.
    pub fn new(file: Arc<DiskFile>, width: usize) -> Self {
        let per_page = PAGE_SIZE / 8 / width;
        RunWriter { file, width, per_page, page: Page::zeroed(), in_page: 0 }
    }

    /// Appends one record.
    pub fn push(&mut self, record: &[u64]) -> Result<()> {
        debug_assert_eq!(record.len(), self.width);
        self.page.put_u64s(self.in_page * self.width * 8, record);
        self.in_page += 1;
        if self.in_page == self.per_page {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Flushes the trailing partial page.
    pub fn finish(mut self) -> Result<()> {
        if self.in_page > 0 {
            self.flush_page()?;
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<()> {
        let pid = self.file.allocate();
        self.file.write_page(pid, &self.page)?;
        self.page.clear();
        self.in_page = 0;
        Ok(())
    }
}

/// Sequential reader over a run file written by [`RunWriter`]. The current
/// record is decoded into a buffer the reader reuses.
pub struct RunReader {
    file: Arc<DiskFile>,
    next_pid: u64,
    page: Page,
    width: usize,
    per_page: usize,
    in_page: usize,
    remaining: u64,
    loaded: bool,
    record: Vec<u64>,
}

impl RunReader {
    /// A reader over `records` records of `width` words each.
    pub fn new(file: Arc<DiskFile>, width: usize, records: u64) -> Result<Self> {
        Ok(RunReader {
            file,
            next_pid: 0,
            page: Page::zeroed(),
            width,
            per_page: records_per_page(width)?,
            in_page: 0,
            remaining: records,
            loaded: false,
            record: vec![0; width],
        })
    }

    /// Advances to the next record and returns it, or `None` at end of run.
    pub fn next_record(&mut self) -> Result<Option<&[u64]>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if !self.loaded || self.in_page == self.per_page {
            self.file.read_page(PageId(self.next_pid), &mut self.page)?;
            self.next_pid += 1;
            self.in_page = 0;
            self.loaded = true;
        }
        self.page.get_u64s(self.in_page * self.width * 8, &mut self.record);
        self.in_page += 1;
        self.remaining -= 1;
        Ok(Some(&self.record))
    }

    /// The record the last [`RunReader::next_record`] returned.
    fn current(&self) -> &[u64] {
        &self.record
    }
}

fn records_per_page(width: usize) -> Result<usize> {
    (PAGE_SIZE / 8)
        .checked_div(width)
        .filter(|&n| n > 0)
        .ok_or_else(|| CtError::invalid("record width must be 1..=1024 words"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn env() -> StorageEnv {
        StorageEnv::new("sort-test").unwrap()
    }

    #[test]
    fn in_memory_sort_small_input() {
        let env = env();
        let mut s = ExternalSorter::new(&env, 2, vec![1, 0]);
        for rec in [[3u64, 1], [1, 1], [1, 3], [3, 3], [2, 1]] {
            s.push(&rec).unwrap();
        }
        assert_eq!(s.len(), 5);
        let out = s.finish().unwrap().collect_all().unwrap();
        // Sorted by col1 then col0 — the paper's Table 4 order.
        assert_eq!(out, vec![vec![1, 1], vec![2, 1], vec![3, 1], vec![1, 3], vec![3, 3]]);
    }

    #[test]
    fn spilled_sort_matches_std_sort() {
        let env = env();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 10_000usize;
        let width = 3;
        // Tiny budget to force many runs.
        let mut s = ExternalSorter::with_budget(&env, width, vec![2, 1, 0], width * 512);
        let mut expected: Vec<Vec<u64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let rec = vec![rng.gen_range(0..50u64), rng.gen_range(0..50), rng.gen_range(0..50)];
            s.push(&rec).unwrap();
            expected.push(rec);
        }
        expected.sort_by(|a, b| cmp_records(a, b, &[2, 1, 0]));
        let got = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(got.len(), n);
        // Keys must match exactly in order (duplicates may permute freely,
        // but whole-record multiset must be preserved).
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(
                [g[2], g[1], g[0]],
                [e[2], e[1], e[0]],
                "key order mismatch"
            );
        }
        let mut got_sorted = got.clone();
        got_sorted.sort();
        let mut exp_sorted = expected.clone();
        exp_sorted.sort();
        assert_eq!(got_sorted, exp_sorted, "records lost or duplicated");
    }

    #[test]
    fn run_io_is_sequential() {
        let env = env();
        let before = env.snapshot();
        // 2048-record runs of width 2 = 4 pages per run.
        let mut s = ExternalSorter::with_budget(&env, 2, vec![0], 2 * 2048);
        for i in 0..8192u64 {
            s.push(&[8192 - i, i]).unwrap();
        }
        let mut stream = s.finish().unwrap();
        while stream.next_record().unwrap().is_some() {}
        let d = env.snapshot().since(&before);
        assert!(d.seq_writes > 0, "expected spills");
        // First page of each run is a 'random' access (position reset), all
        // subsequent pages sequential: random accesses ≪ sequential ones.
        assert!(
            d.rand_writes + d.rand_reads <= d.seq_writes + d.seq_reads,
            "sort should be sequential-dominated: {d:?}"
        );
    }

    #[test]
    fn empty_sorter_yields_empty_stream() {
        let env = env();
        let s = ExternalSorter::new(&env, 4, vec![0]);
        assert!(s.is_empty());
        let out = s.finish().unwrap().collect_all().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn run_writer_reader_roundtrip_partial_page() {
        let env = env();
        let file = env.create_raw_file("rw").unwrap();
        let width = 5;
        let mut w = RunWriter::new(file.clone(), width);
        let n = 300u64; // not a multiple of records-per-page
        for i in 0..n {
            let rec: Vec<u64> = (0..width as u64).map(|c| i * 10 + c).collect();
            w.push(&rec).unwrap();
        }
        w.finish().unwrap();
        let mut r = RunReader::new(file, width, n).unwrap();
        let mut count = 0u64;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec[0], count * 10);
            assert_eq!(rec[4], count * 10 + 4);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn duplicate_keys_survive() {
        let env = env();
        let mut s = ExternalSorter::with_budget(&env, 2, vec![0], 2 * 8);
        for _ in 0..100 {
            s.push(&[7, 1]).unwrap();
        }
        let out = s.finish().unwrap().collect_all().unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|r| r == &vec![7, 1]));
    }
}
