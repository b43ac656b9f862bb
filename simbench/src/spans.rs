//! In-memory span recorder for the traced run. Spans are taken by the
//! benchmark around its calls into each crate (never per call in a hot
//! loop) and written out as a Chrome trace when the run ends.

use std::time::Instant;

use seesaw_trace::ChromeTrace;

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `tlb.lookup`.
    pub name: &'static str,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// The cell (request) every span of one replay shares.
    pub cell: u32,
    /// Start, nanoseconds after the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's origin.
    pub end_ns: u64,
    /// Work items the span covered (references, lookups, ...).
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, cell: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span, recording how many work items it covered.
    pub fn close(&mut self, id: SpanId, count: u64) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, cell);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Records an interval measured elsewhere (e.g. a runner journal
    /// entry), in microseconds after the recorder's origin.
    pub fn add_us(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        cell: u32,
        start_us: u64,
        dur_us: u64,
    ) {
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns: start_us * 1000,
            end_ns: (start_us + dur_us) * 1000,
            count: 1,
        });
    }

    /// Duration minus the part of it that child spans cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, span.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur_ns() - covered
    }

    /// Summed self time (ns) and summed counts of every span named `name`.
    pub fn by_name(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0, 0), |(ns, n), (i, s)| {
                (ns + self.self_ns(i), n + s.count)
            })
    }

    /// Chrome `trace_event` rendering: one track per cell.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut t = ChromeTrace::new();
        t.process_name(1, process);
        for s in &self.spans {
            let count = s.count.to_string();
            t.complete(
                s.name,
                "layer",
                1,
                u64::from(s.cell),
                s.start_ns / 1000,
                s.dur_ns() / 1000,
                &[("count", &count)],
            );
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::default();
        s.add_us("parent", None, 0, 0, 100);
        s.add_us("a", Some(0), 0, 10, 30); // 10..40
        s.add_us("b", Some(0), 0, 30, 20); // 30..50, overlaps a
        s.add_us("c", Some(0), 0, 90, 50); // clipped to 90..100
        assert_eq!(s.self_ns(0), (100 - 40 - 10) * 1000);
        assert_eq!(s.self_ns(1), 30_000);
        assert_eq!(s.by_name("a"), (30_000, 1));
    }

    #[test]
    fn open_close_records_counts() {
        let mut s = Spans::default();
        let id = s.open("x", None, 3);
        s.close(id, 42);
        assert_eq!(s.by_name("x").1, 42);
        assert!(s.chrome_trace("t").contains("\"x\""));
    }
}
