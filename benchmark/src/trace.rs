//! The traced pass's in-memory span buffer.
//!
//! A span is one call into a layer: name, start, end, the span that
//! caused it, and the round it belongs to. Spans stay in memory until the
//! last round has run and are then written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer. A span's id is its index.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, round: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            round,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`; returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.nanos()
    }

    /// Records `f` as one span; returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        round: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, round);
        let out = f();
        (out, self.close(id))
    }
}

/// Each span's self time: its duration minus the part of its interval its
/// child spans cover. Children may nest, touch or overlap; a child
/// recorded outside its parent's interval (a replay made after the
/// parent returned) covers none of it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.nanos() - covered
        })
        .collect()
}

/// Writes the spans (with their self times) and the per-round count
/// records as JSON lines, creating the directory if needed.
pub fn write_jsonl(path: &Path, spans: &[Span], round_counts: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let selfs = self_times(spans);
    for (id, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = span.parent.map_or("null".into(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{id},\"name\":\"{}\",\"parent\":{parent},\"round\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.name, span.round, span.start_ns, span.end_ns
        )?;
    }
    for line in round_counts {
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child with its own child
            span(Some(1), 20, 30),  // 2: grandchild
            span(Some(0), 40, 60),  // 3: adjacent to 1
            span(Some(0), 90, 100), // 4: touches the root's end
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_outside_ones_not_at_all() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),   // overlaps the previous child
            span(Some(0), 120, 150), // replayed after the parent returned
            span(Some(0), 95, 130),  // straddles the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 5);
    }

    #[test]
    fn tracer_records_parent_and_round() {
        let mut t = Tracer::new();
        let root = t.open("root", None, 3);
        let (value, _) = t.time("child", Some(root), 3, || 7);
        t.close(root);
        assert_eq!(value, 7);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].round, 3);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }
}
