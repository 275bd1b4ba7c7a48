//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the span that caused it and a request id shared by all spans of
//! one request. Spans are kept in memory and written out when the run ends.
//!
//! A layer's self time is its span's duration minus the time its child
//! spans cover, floored at zero; the signed difference is its remainder. Children recorded inside the parent's interval are
//! clipped to it, and overlapping ones are counted once. A child that
//! replays the same request's work in that layer after the fact (the
//! benchmark cannot see inside the program yet) lies outside the interval
//! and is counted by its own duration.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.embed`.
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start: u64,
    /// End, ns since the tracer epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or sample) id shared by the spans of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span store with a common epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self::with_epoch(Instant::now())
    }

    /// An empty tracer with the given epoch; spans must not start before it.
    pub fn with_epoch(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch of `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span between two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.push(span)
    }

    /// Records a prepared span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Signed remainder of every span, in ns, indexed in recording order:
    /// its duration minus the time its children cover. Negative when
    /// replayed children took longer than the span itself.
    pub fn remainders(&self) -> Vec<i64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| remainder(span, kids.iter().map(|&k| &self.spans[k])))
            .collect()
    }

    /// Writes the spans as tab-separated lines
    /// (`id name start_ns end_ns parent request self_ns remainder_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let remainders = self.remainders();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\tremainder_ns"
        )?;
        for (id, (span, rem)) in self.spans.iter().zip(remainders).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{rem}",
                span.name,
                span.start,
                span.end,
                span.request,
                rem.max(0)
            )?;
        }
        out.flush()
    }
}

/// Remainder of `span` given its children: its duration minus the time
/// its children cover. Children inside the parent's interval are clipped
/// to it and their union is taken; a child wholly outside it (a replay)
/// adds its own duration.
pub fn remainder<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> i64 {
    let mut replayed = 0u64;
    let mut nested: Vec<(u64, u64)> = Vec::new();
    for c in children {
        if c.end <= span.start || c.start >= span.end {
            replayed += c.duration();
        } else {
            nested.push((c.start.max(span.start), c.end.min(span.end)));
        }
    }
    nested.sort_unstable();
    let mut covered = replayed;
    let mut cursor = 0u64;
    for (start, end) in nested {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.duration() as i64 - covered as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    /// Self times: remainders floored at zero.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut t = Tracer::new();
        for s in spans {
            t.push(s.clone());
        }
        t.remainders()
            .into_iter()
            .map(|r| r.max(0) as u64)
            .collect()
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 10, 35, None)]), vec![25]);
    }

    #[test]
    fn nested_disjoint_children_are_subtracted() {
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 30, Some(0)),
            span("y", 50, 60, Some(0)),
            span("z", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)),
            // Starts before the parent: only the part inside counts.
            span("early", 90, 105, Some(0)),
        ];
        // Covered: [100,105) + [110,170) = 65.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn replayed_children_count_by_duration() {
        let spans = [
            span("roundtrip", 0, 1000, None),
            // Replays measured after the round trip ended.
            span("serve", 5000, 5600, Some(0)),
            span("codec", 7000, 7050, Some(0)),
            span("pca", 5600, 5700, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 1000 - 600 - 50);
        assert_eq!(t[1], 500);
        assert_eq!(t[2], 50);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let spans = [span("p", 0, 10, None), span("c", 20, 60, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
        let mut t = Tracer::new();
        for s in &spans {
            t.push(s.clone());
        }
        assert_eq!(t.remainders(), vec![-30, 40]);
    }
}
