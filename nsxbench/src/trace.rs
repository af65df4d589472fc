//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, its parent and its wall-clock interval.
//! Self time is a span's duration minus the part covered by its direct
//! children. Spans are kept in memory and written out once, at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
}

impl SelfTime {
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns, self.count)
    }
}

/// A span recorder with an explicit open-span stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Record an already-timed leaf span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as CSV: `index,name,parent,start_ns,end_ns`.
    pub fn write_csv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "index,name,parent,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(out, "{i},{},{parent},{},{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children (children never outlive their parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("burst", None, 0, 100),
            span("tx", Some(0), 10, 40),
            span("rx", Some(0), 50, 90),
            span("inner", Some(2), 60, 70),
            span("burst", None, 200, 250),
        ];
        let t = self_times(&spans);
        // burst: (100 - 30 - 40) + 50.
        assert_eq!(
            t["burst"],
            SelfTime {
                count: 2,
                total_ns: 80
            }
        );
        assert_eq!(t["tx"].total_ns, 30);
        // rx loses only its direct child's 10 ns.
        assert_eq!(t["rx"].total_ns, 30);
        assert_eq!(t["inner"].total_ns, 10);
        assert_eq!(t["burst"].mean_ns(), 40.0);
    }

    #[test]
    fn tracer_nests_and_closes() {
        let mut tr = Tracer::new();
        tr.enter("outer");
        tr.enter("inner");
        tr.exit();
        let now = Instant::now();
        tr.record("leaf", now, now);
        tr.exit();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[1].end_ns);
        let mut csv = Vec::new();
        tr.write_csv(&mut csv).unwrap();
        assert_eq!(String::from_utf8(csv).unwrap().lines().count(), 4);
    }
}
