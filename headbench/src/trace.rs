//! The traced run's span recorder.
//!
//! A span has a name (`<layer>.<operation>`), a start and an end on one
//! monotonic origin, the span that caused it (0 for none) and the
//! request it serves. Spans stay in memory until the run ends and are
//! then written as one tab-separated file.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; a parent always has a smaller id than its children.
    pub id: u32,
    /// The causing span's id, or 0.
    pub parent: u32,
    /// The request the span serves.
    pub req: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Bytes the call processed, where that means something.
    pub bytes: u64,
    /// Items the call handled (frames, chunks), where that means something.
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sums over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans.
    pub count: u64,
    /// Summed duration.
    pub ns: u64,
    /// Summed bytes.
    pub bytes: u64,
    /// Summed items.
    pub items: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = u32::try_from(self.spans.len() + 1).unwrap_or(u32::MAX);
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns, bytes: 0, items: 0 });
        id
    }

    /// Opens a span now, to be ended by [`Tracer::close`] once its
    /// children are recorded.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Ends span `id` at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.at(end);
        if let Some(span) = self.span_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }

    /// Sets the bytes and items of span `id`.
    pub fn annotate(&mut self, id: u32, bytes: usize, items: usize) {
        if let Some(span) = self.span_mut(id) {
            span.bytes = bytes as u64;
            span.items = items as u64;
        }
    }

    fn span_mut(&mut self, id: u32) -> Option<&mut Span> {
        let index = usize::try_from(id).ok()?.checked_sub(1)?;
        self.spans.get_mut(index)
    }

    /// Appends `other`'s spans, renumbered and moved onto this origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let shift = self.at(other.origin);
        for mut span in other.spans {
            span.id += base;
            if span.parent > 0 {
                span.parent += base;
            }
            span.start_ns += shift;
            span.end_ns += shift;
            self.spans.push(span);
        }
    }

    /// Every span, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Sums over the spans named `name`.
    pub fn totals(&self, name: &str) -> Totals {
        let mut totals = Totals::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            totals.count += 1;
            totals.ns += span.ns();
            totals.bytes += span.bytes;
            totals.items += span.items;
        }
        totals
    }

    /// Self time of every span: its duration less its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) =
                (span.parent as usize).checked_sub(1).and_then(|i| children.get_mut(i))
            {
                *slot += span.ns();
            }
        }
        self.spans.iter().zip(children).map(|(s, c)| s.ns().saturating_sub(c)).collect()
    }

    /// Self time summed over every span below a root span named `root`
    /// (the roots themselves excluded), and the part of that sum in spans
    /// whose name starts with `prefix`.
    pub fn path_ns(&self, root: &str, prefix: &str) -> (u64, u64) {
        let selfs = self.self_ns();
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        let (mut total, mut matched) = (0, 0);
        for (i, span) in self.spans.iter().enumerate() {
            let r = match (span.parent as usize).checked_sub(1) {
                Some(p) if p < i => root_of[p],
                _ => i,
            };
            root_of.push(r);
            if r != i && self.spans[r].name == root {
                total += selfs[i];
                if span.name.starts_with(prefix) {
                    matched += selfs[i];
                }
            }
        }
        (total, matched)
    }

    /// Writes every span to `path` as tab-separated values with a header.
    ///
    /// # Errors
    ///
    /// The I/O error of the write.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tbytes\titems")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.bytes, s.items
            )?;
        }
        out.flush()
    }
}
