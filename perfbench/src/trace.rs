//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; nothing inside the library crates is instrumented.
//! A span is `(name, start, end, parent, unit, lane)`: `unit` is the
//! batch (serve workloads) or table-cell (`paper-tables`) it belongs to,
//! `lane` the shard or worker thread that ran it. Spans of one unit are
//! collected together; when the unit closes, each span's self time — its
//! duration minus the part of its interval that its children cover — is
//! added to its layer's totals. Only the first `cap` spans are kept for
//! the trace file, so long runs stay small on disk; the layer totals
//! always cover every span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's base instant.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span within the same unit, or [`ROOT`].
    pub parent: u32,
    pub unit: u64,
    pub lane: u32,
}

/// Nanoseconds from `base` to now.
pub fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    base: Instant,
    cap: usize,
    open: Vec<Span>,
    kept: Vec<Span>,
    dropped: u64,
    layers: BTreeMap<&'static str, LayerTotals>,
}

impl Tracer {
    pub fn new(base: Instant, cap: usize) -> Self {
        Self {
            base,
            cap,
            open: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            layers: BTreeMap::new(),
        }
    }

    pub fn base(&self) -> Instant {
        self.base
    }

    pub fn now(&self) -> u64 {
        ns_since(self.base)
    }

    /// Records a finished span in the open unit; returns its index there.
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        unit: u64,
        lane: u32,
    ) -> u32 {
        self.open.push(Span {
            name,
            start,
            end,
            parent,
            unit,
            lane,
        });
        (self.open.len() - 1) as u32
    }

    /// Sets the end of a span opened with `push(.., start, 0, ..)`.
    pub fn set_end(&mut self, span: u32, end: u64) {
        self.open[span as usize].end = end;
    }

    /// Moves spans recorded elsewhere (another thread) into the open
    /// unit: their roots hang under `parent`, their inner parent indices
    /// are rebased.
    pub fn adopt(&mut self, spans: &[Span], parent: u32) {
        let base = self.open.len() as u32;
        self.open.extend(spans.iter().map(|s| Span {
            parent: if s.parent == ROOT {
                parent
            } else {
                base + s.parent
            },
            ..*s
        }));
    }

    /// Closes the open unit: accumulates every span's total and self time
    /// into its layer, and keeps the spans for the trace file while under
    /// the cap.
    pub fn finish_unit(&mut self) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.open.len()];
        for s in &self.open {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        for (s, kids) in self.open.iter().zip(children.iter_mut()) {
            let total = s.end.saturating_sub(s.start);
            let entry = self.layers.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(covered(kids, s.start, s.end));
        }
        if self.kept.len() + self.open.len() <= self.cap {
            let base = self.kept.len() as u32;
            self.kept.extend(self.open.iter().map(|s| Span {
                parent: if s.parent == ROOT {
                    ROOT
                } else {
                    base + s.parent
                },
                ..*s
            }));
        } else {
            self.dropped += self.open.len() as u64;
        }
        self.open.clear();
    }

    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.layer(name).total_ns as f64
    }

    /// Per-layer self times, for the summary printed after a traced run.
    pub fn self_table(&self) -> Vec<String> {
        let grand: u64 = self.layers.values().map(|l| l.self_ns).sum();
        let mut rows = vec![format!(
            "{:<22} {:>9} {:>12} {:>12} {:>7}",
            "layer", "spans", "total_ms", "self_ms", "self%"
        )];
        for (name, l) in &self.layers {
            rows.push(format!(
                "{:<22} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / grand.max(1) as f64
            ));
        }
        rows
    }

    /// Writes the trace file: the `header` object, one line per layer
    /// with its totals, then one line per kept span.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"kind\": \"header\", \"spans_kept\": {}, \"spans_dropped\": {}, \"run\": {header}}}",
            self.kept.len(),
            self.dropped
        )?;
        for (name, l) in &self.layers {
            writeln!(
                out,
                "{{\"kind\": \"layer\", \"name\": \"{name}\", \"spans\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                l.count, l.total_ns, l.self_ns
            )?;
        }
        for s in &self.kept {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"kind\": \"span\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"unit\": {}, \"lane\": {}}}",
                s.name, s.start, s.end, s.unit, s.lane
            )?;
        }
        out.flush()
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlapping_children() {
        let mut v = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(covered(&mut v, 0, 45), 25);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 10);
        let root = t.push("root", 0, 100, ROOT, 0, 0);
        t.push("child", 10, 40, root, 0, 0);
        t.push("child", 30, 60, root, 0, 1);
        t.finish_unit();
        assert_eq!(t.layer("root").self_ns, 50);
        assert_eq!(t.layer("child").total_ns, 60);
        assert_eq!(t.layer("child").self_ns, 60);
    }
}
