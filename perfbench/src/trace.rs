//! In-memory span recording for the traced run.
//!
//! Each thread owns a [`SpanLog`] with preallocated room; a span is a
//! name, a start and end on the process clock ([`now_ns`]), the index of
//! its parent span in the same log and the request id its tree belongs
//! to. Nothing is written until the run ends ([`write_tsv`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// One thread's spans, in the order they were opened.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(n: usize) -> Self {
        Self { spans: Vec::with_capacity(n) }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span { name, start_ns: start, end_ns: end, parent, req });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set later by [`close`](Self::close), so
    /// its children can name it as their parent.
    pub fn open(&mut self, name: &'static str, req: u64, parent: u32, start: u64) -> u32 {
        self.record(name, req, parent, start, start)
    }

    pub fn close(&mut self, span: u32, end: u64) {
        self.spans[span as usize].end_ns = end;
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = now_ns();
        let r = f();
        self.record(name, req, parent, start, now_ns());
        r
    }
}

/// Per-name totals over a set of logs: span count, total duration and self
/// time (duration minus the part covered by direct children).
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStats {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregates spans by name. Children of one span never overlap (every
/// log is written by one sequential thread), so self time is exact.
pub fn by_name(logs: &[&SpanLog]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in log.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*kids);
        }
    }
    out
}

/// Writes every span as one tab-separated line:
/// `thread id parent req name start_ns end_ns` (parent `-` for roots).
pub fn write_tsv(path: &std::path::Path, logs: &[&SpanLog]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tid\tparent\treq\tname\tstart_ns\tend_ns")?;
    let mut n = 0;
    for (t, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "-".to_string() } else { s.parent.to_string() };
            writeln!(w, "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}", s.req, s.name, s.start_ns, s.end_ns)?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}
