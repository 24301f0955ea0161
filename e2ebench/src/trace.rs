//! In-memory spans around each call the benchmark makes into a layer's
//! public functions. Nothing is traced inside the program itself.
//! Spans are kept in memory during the run and written as JSON lines
//! when it ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// The span recorder. When off, [`Tracer::span`] records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records one span of `request` caused by span `parent` (0 for a
    /// root) and returns its id (0 when tracing is off).
    pub fn span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, request, name, start, end });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line, times in microseconds since
    /// the tracer was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.id,
                s.parent,
                s.request,
                s.name,
                at(s.start),
                at(s.end)
            )?;
        }
        out.flush()
    }
}
