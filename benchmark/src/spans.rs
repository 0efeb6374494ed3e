//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside, around calls into each crate's public
//! functions; they are kept in memory and written out once, when the run
//! ends, so recording never touches the disk inside a timed region.

use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.  Spans of one op share `op_id`; `parent` is the index
/// of the enclosing span in the recorder.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        // Room for every span of a run up front: a buffer that grew while
        // an op's arenas were live would come to lie above them on the heap
        // and keep the allocator from returning them, which changes what
        // the next op's engine build costs (no page faults) — the recorder
        // would alter the thing it records.
        Recorder { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op_id: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op_id, parent, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn timed<T>(&mut self, name: &'static str, op_id: u32, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op_id, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Time one call as a child span of `parent`.
    pub fn call<T>(&mut self, name: &'static str, op_id: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        self.timed(name, op_id, Some(parent), f)
    }

    /// Time one call as a span of its own.
    pub fn call_root<T>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> T) -> T {
        self.timed(name, op_id, None, f)
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect()
    }

    /// A span's self time (µs): its duration minus what its children cover.
    pub fn self_us(&self, id: u32) -> f64 {
        let span = &self.spans[id as usize];
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_ns - s.start_ns).sum();
        (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e3
    }

    /// Ids of every span called `name`.
    pub fn ids(&self, name: &str) -> Vec<u32> {
        (0..self.spans.len() as u32).filter(|&i| self.spans[i as usize].name == name).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as a JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(out, "{}{comma}", serde_json::to_string(span).expect("span serialises"))?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new();
        let op = rec.open("op", 0, None);
        rec.call("child", 0, op, || std::thread::sleep(std::time::Duration::from_millis(2)));
        rec.call("child", 0, op, || ());
        rec.close(op);
        let total = rec.durations_us("op")[0];
        let children: f64 = rec.durations_us("child").iter().sum();
        assert!(children >= 2000.0);
        assert!((rec.self_us(op) - (total - children)).abs() < 1.0);
        assert_eq!(rec.ids("child").len(), 2);
    }
}
