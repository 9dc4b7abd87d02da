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
//! When the environment's [`crate::env::Parallelism`] budget allows more than
//! one worker, run generation is dispatched to background threads (each
//! sorting and spilling one budget-slice while the producer keeps pushing)
//! and the k-way merge reads every run through a prefetching reader that
//! overlaps run I/O with merge CPU. Run files are created on the producer
//! thread in push order and each run is written/read strictly sequentially by
//! exactly one thread, so the sorted output *and* the per-file
//! sequential/random I/O accounting are identical for every worker count.

use crate::env::StorageEnv;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::DiskFile;
use ct_common::{CtError, Result};
use std::cmp::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

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
    /// Worker budget for spill threads and merge prefetch (1 = sequential).
    threads: usize,
    /// In-flight spill workers, oldest first.
    workers: Vec<JoinHandle<Result<()>>>,
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

/// Sorts one budget-slice of records, returning the reordered copy. Shared
/// by the inline and threaded spill paths so both produce identical runs.
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

fn join_spill(handle: JoinHandle<Result<()>>) -> Result<()> {
    handle.join().map_err(|_| CtError::invalid("sort spill worker panicked"))?
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
            threads: env.parallelism().threads,
            workers: Vec::new(),
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

    /// Sorts the in-memory chunk and writes it out as a run file.
    ///
    /// The run file is created here, on the producer thread, so run order
    /// (and the merge's run-index tie-break) is the push order regardless of
    /// how many spill workers are running.
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
        // Wall-only span; a run spill may complete on a worker thread, where
        // global-counter deltas could not be attributed safely anyway.
        let span = self.env.recorder().span("sort/spill_run");
        if self.threads > 1 {
            // Bound in-flight workers by retiring the oldest first.
            if self.workers.len() + 1 >= self.threads {
                join_spill(self.workers.remove(0))?;
            }
            let cap = self.buf.capacity();
            let chunk = std::mem::replace(&mut self.buf, Vec::with_capacity(cap));
            let width = self.width;
            let key_cols = self.key_cols.clone();
            self.workers.push(std::thread::spawn(move || {
                let res = write_run(&sort_chunk(&chunk, width, &key_cols), width, file);
                drop(span);
                res
            }));
        } else {
            let sorted = sort_chunk(&self.buf, self.width, &self.key_cols);
            self.buf.clear();
            write_run(&sorted, self.width, file)?;
            drop(span);
        }
        Ok(())
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
        // All runs must be on disk before the merge starts reading them.
        for handle in self.workers.drain(..) {
            join_spill(handle)?;
        }
        let prefetch = self.threads > 1;
        let mut readers = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            let file = run.file.clone();
            readers.push(if prefetch {
                RunReader::prefetching(file, self.width, run.records)?
            } else {
                RunReader::new(file, self.width, run.records)?
            });
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
/// so the output is deterministic (and identical for every worker count).
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

/// How many pages a prefetching [`RunReader`] may read ahead of the
/// consumer.
const PREFETCH_DEPTH: usize = 4;

/// Where a [`RunReader`] gets its pages: read in the consumer's thread when
/// needed, or read ahead by a background thread. Both pull the run's pages
/// in identical sequential order, so the I/O accounting does not depend on
/// the variant.
enum PageSource {
    Direct { file: Arc<DiskFile>, next_pid: u64 },
    Prefetch(Receiver<Result<Page>>),
}

/// Sequential reader over a run file written by [`RunWriter`]. The current
/// record is decoded into a buffer the reader reuses.
pub struct RunReader {
    source: PageSource,
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
        Self::with_source(PageSource::Direct { file, next_pid: 0 }, width, records)
    }

    /// Like [`RunReader::new`], but the run's pages are read by a dedicated
    /// background thread through a bounded channel, overlapping run I/O
    /// with merge CPU (worker budget > 1). The thread reads in the same
    /// strictly sequential order, so per-file access classification is
    /// unchanged. If the reader is dropped before the run is drained the
    /// thread stops at the next send (at most `PREFETCH_DEPTH` pages past
    /// the consumed prefix).
    pub fn prefetching(file: Arc<DiskFile>, width: usize, records: u64) -> Result<Self> {
        let per_page = records_per_page(width)?;
        let pages = records.div_ceil(per_page as u64);
        let (tx, rx) = sync_channel::<Result<Page>>(PREFETCH_DEPTH);
        std::thread::spawn(move || {
            for pid in 0..pages {
                let mut page = Page::zeroed();
                let res = file.read_page(PageId(pid), &mut page).map(|_| page);
                let stop = res.is_err();
                if tx.send(res).is_err() || stop {
                    break;
                }
            }
        });
        Self::with_source(PageSource::Prefetch(rx), width, records)
    }

    fn with_source(source: PageSource, width: usize, records: u64) -> Result<Self> {
        Ok(RunReader {
            source,
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
            match &mut self.source {
                PageSource::Direct { file, next_pid } => {
                    file.read_page(PageId(*next_pid), &mut self.page)?;
                    *next_pid += 1;
                }
                PageSource::Prefetch(rx) => {
                    self.page = rx
                        .recv()
                        .map_err(|_| CtError::invalid("run prefetch thread exited early"))??;
                }
            }
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
    fn parallel_sort_matches_sequential_bytes_and_stats() {
        use crate::env::Parallelism;
        use ct_common::CostModel;
        let run = |threads: usize| {
            let env = StorageEnv::with_config_parallel(
                "sort-par",
                64,
                CostModel::default(),
                Parallelism::new(threads),
            )
            .unwrap();
            let before = env.snapshot();
            let mut s = ExternalSorter::with_budget(&env, 3, vec![2, 0], 3 * 700);
            let mut x = 88172645463325252u64;
            for _ in 0..9000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.push(&[x % 97, x % 11, x % 53]).unwrap();
            }
            let out = s.finish().unwrap().collect_all().unwrap();
            (out, env.snapshot().since(&before))
        };
        let (seq_out, seq_stats) = run(1);
        let (par_out, par_stats) = run(4);
        assert_eq!(seq_out, par_out, "record order must not depend on worker count");
        assert_eq!(seq_stats, par_stats, "I/O totals must not depend on worker count");
    }

    #[test]
    fn prefetch_reader_matches_direct_reader() {
        let env = env();
        let file = env.create_raw_file("pf").unwrap();
        let width = 3;
        let n = 2000u64;
        let mut w = RunWriter::new(file.clone(), width);
        for i in 0..n {
            w.push(&[i, i * 2, i * 3]).unwrap();
        }
        w.finish().unwrap();
        let mut direct = RunReader::new(file.clone(), width, n).unwrap();
        let mut prefetch = RunReader::prefetching(file, width, n).unwrap();
        loop {
            let a = direct.next_record().unwrap().map(<[u64]>::to_vec);
            let b = prefetch.next_record().unwrap().map(<[u64]>::to_vec);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn dropping_prefetch_reader_mid_run_is_clean() {
        let env = env();
        let file = env.create_raw_file("pf-drop").unwrap();
        let width = 2;
        let n = 5000u64;
        let mut w = RunWriter::new(file.clone(), width);
        for i in 0..n {
            w.push(&[i, i]).unwrap();
        }
        w.finish().unwrap();
        let mut r = RunReader::prefetching(file, width, n).unwrap();
        assert!(r.next_record().unwrap().is_some());
        drop(r); // the background thread must unblock and exit
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
