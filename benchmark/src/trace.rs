//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory while measuring and are written out once, at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ct_storage::IoSnapshot;

/// One timed call: `parent` names the rung (or window) that caused it and
/// `req` is the index of the request in its stream, shared by every span of
/// that request.
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub req: u64,
    pub start_us: f64,
    pub end_us: f64,
    /// Page-I/O delta of the call, for spans that bracket storage work.
    pub io: Option<IoSnapshot>,
}

/// An in-memory span log with a shared time origin.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Runs `f`, records a span around it and returns its result with the
    /// elapsed microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        let (start_us, end_us) = (start.as_secs_f64() * 1e6, end.as_secs_f64() * 1e6);
        self.spans.push(Span { name, parent, req, start_us, end_us, io: None });
        (out, end_us - start_us)
    }

    /// Attaches an I/O delta to the span recorded last.
    pub fn attach_io(&mut self, io: IoSnapshot) {
        if let Some(last) = self.spans.last_mut() {
            last.io = Some(io);
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"name\": \"{}\", \"parent\": \"{}\", \"req\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}",
                s.name, s.parent, s.req, s.start_us, s.end_us
            )?;
            if let Some(io) = s.io {
                write!(
                    out,
                    ", \"seq_reads\": {}, \"rand_reads\": {}, \"seq_writes\": {}, \"rand_writes\": {}, \"buffer_hits\": {}",
                    io.seq_reads, io.rand_reads, io.seq_writes, io.rand_writes, io.buffer_hits
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}
