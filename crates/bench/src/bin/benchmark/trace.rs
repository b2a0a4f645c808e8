//! Spans recorded around the benchmark's own calls into each layer, kept in
//! memory and written once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is 0 for a root span; `request` ties the
/// spans of one request together (0 outside requests).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// A per-thread span sink. Ids carry the owning sink in their top bits, so
/// sinks merge without renumbering.
pub struct Recorder {
    epoch: Instant,
    prefix: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, sink: u64) -> Recorder {
        Recorder {
            epoch,
            prefix: (sink + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserve an id, for a parent whose end is not known yet.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.prefix | self.next
    }

    /// Record a span under a reserved id.
    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Record a span and return its id.
    pub fn record(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.push(id, parent, request, name, start, end);
        id
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_us - s.start_us)
        .collect()
}

/// Per span name: `(count, total self time µs)`, where a span's self time
/// is its duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_default() += s.end_us - s.start_us;
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let own = s.end_us - s.start_us - child_us.get(&s.id).copied().unwrap_or(0.0);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Write the spans and their per-name self times as JSON.
pub fn write(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
    writeln!(w, "\"self_time\": [")?;
    let summary = self_times(spans);
    for (i, (name, (count, total))) in summary.iter().enumerate() {
        let sep = if i + 1 == summary.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\": \"{name}\", \"count\": {count}, \"total_us\": {total:.1}, \"mean_us\": {:.3}}}{sep}",
            total / *count as f64
        )?;
    }
    writeln!(w, "],\n\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}{sep}",
            s.id, s.parent, s.request, s.name, s.start_us, s.end_us
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_ids_do_not_collide() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let root = a.id();
        a.record(root, 7, "child", at(10), at(30));
        a.record(root, 7, "child", at(40), at(50));
        a.push(root, 0, 7, "root", at(0), at(100));
        let other = b.record(0, 8, "root", at(0), at(5));
        assert_ne!(root, other);
        let mut spans = a.spans;
        spans.extend(b.spans);
        let st = self_times(&spans);
        assert_eq!(st["root"].0, 2);
        assert!((st["root"].1 - 75.0).abs() < 1e-6);
        assert!((st["child"].1 - 30.0).abs() < 1e-6);
        assert_eq!(durations(&spans, "child"), vec![20.0, 10.0]);
    }
}
