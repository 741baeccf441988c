//! The traced run's span recorder. Spans are opened and closed around calls
//! into the program's public functions from the benchmark's own code, kept in
//! memory, and written out when the run ends.

use crate::stats::json_string;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: name, start and end (nanoseconds since the tracer was
/// made), the span that caused it, and the image or request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Tracer::close`] and for use as
    /// a child's parent.
    pub fn open(&self, name: &str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Closes the span `index` at the current time.
    pub fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics holding the span list")[index]
            .end_ns = end_ns;
    }

    /// Records an already-measured interval as a closed span; returns its
    /// index.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let base = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        spans.push(Span {
            name: name.to_string(),
            start_ns: base(start),
            end_ns: base(end),
            parent,
            id,
        });
        spans.len() - 1
    }

    /// A copy of every span so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .clone()
    }

    /// Writes every span as one JSON array, each with its self time (its
    /// duration minus the time its child spans cover).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times_ns(&spans);
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            out.push_str(&format!(
                "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"self_ns\":{}}}{}\n",
                json_string(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.id,
                self_ns,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of the intervals its
/// direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let span = |start, end, parent| Span {
            name: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        };
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 20, 10]);
    }
}
