//! Spans around the calls the replay makes into each layer: name,
//! start, end, parent span and job id, kept in memory and written out
//! when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Which machine family / backend / cache tier the call served, when
    /// the layer splits its metric that way; empty otherwise.
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub job: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle on an open span. Disabled tracers hand out inert handles.
#[must_use]
pub struct Open(u32);

/// Records spans when enabled; with tracing off every call is a no-op
/// and reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    job: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_job(&mut self, job: usize) {
        self.job = job as u32;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            label: "",
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            job: self.job,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn close(&mut self, open: Open) {
        self.close_as(open, "");
    }

    /// Closes a span, labelling it with what the call turned out to do
    /// (a cache lookup's tier is known only once it returns).
    pub fn close_as(&mut self, open: Open, label: &'static str) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end;
        span.label = label;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's. Spans
    /// of one parent run one after another, so they never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = span.parent as usize;
                own[parent] = own[parent].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Writes every span as one tab-separated line under a header.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tlabel\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                span.job, span.name, span.label, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.open("outer");
        let inner = tracer.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(inner);
        tracer.close(outer);
        let own = tracer.self_ns();
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(own[0], spans[0].ns() - spans[1].ns());
        assert_eq!(own[1], spans[1].ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let span = tracer.open("x");
        tracer.close(span);
        assert!(tracer.spans().is_empty());
    }
}
