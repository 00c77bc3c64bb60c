//! In-memory spans of one traced rep, recorded from the benchmark's own code
//! around each call into a layer. Spans nest by call structure on the one
//! driving thread; a layer's self time is its span minus the part its
//! children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mrmc_benchmark::route::{Spans, ROOT_SPAN};

use crate::alloc;

/// One recorded interval.
#[derive(Debug)]
pub struct Span {
    /// The public function (or harness phase) the span wraps.
    pub name: &'static str,
    /// Index of the enclosing span; `None` for the rep's root and for the
    /// probes that run after it.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Allocator calls made while the span was open (all threads).
    pub allocs: u64,
    /// The program's own public counts, attached where the work happened.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder of one traced rep.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
}

/// A span not yet closed, with the allocator reading at its start.
struct Open {
    index: usize,
    allocs: u64,
}

impl Spans for Tracer {
    fn begin(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().map(|o| o.index);
        self.open.push(Open {
            index,
            allocs: alloc::allocations(),
        });
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            allocs: 0,
            counts: Vec::new(),
        });
        index
    }

    fn end(&mut self, id: usize) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.open.pop().expect("end without begin");
        assert_eq!(open.index, id, "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = alloc::allocations() - open.allocs;
    }

    fn count(&mut self, key: &'static str, value: f64) {
        let open = self.open.last().expect("count outside a span");
        self.spans[open.index].counts.push((key.to_string(), value));
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Attach a count to a span already closed.
    pub fn annotate(&mut self, id: usize, key: String, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    /// A recorded span.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Index of the first span called `name`; the routes open one of each
    /// span the layer metrics read.
    pub fn find(&self, name: &str) -> usize {
        self.spans
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span called {name}"))
    }

    /// Self time of every span: its seconds minus its children's.
    fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// The share of the rep's root span that named child spans account for:
    /// everything but the root's own self time.
    pub fn coverage(&self) -> f64 {
        let root = self.find(ROOT_SPAN);
        1.0 - self.self_seconds()[root] / self.spans[root].seconds()
    }

    /// Write the rep as Chrome `trace_event` JSON, one complete event per
    /// span (load it in `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &Path, workload: &str, rep: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        let self_seconds = self.self_seconds();
        for (index, span) in self.spans.iter().enumerate() {
            let mut args = format!(
                "\"workload\": \"{workload}\", \"rep\": {rep}, \"span\": {index}, \
                 \"parent\": {}, \"self_us\": {:.3}, \"allocs\": {}",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                self_seconds[index] * 1e6,
                span.allocs,
            );
            for (key, value) in &span.counts {
                args.push_str(&format!(", \"{key}\": {value}"));
            }
            let comma = if index == 0 { "" } else { ",\n" };
            write!(
                out,
                "{comma}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{{args}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
