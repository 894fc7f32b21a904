//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`gen`, `compile`, `ir.parse`, …), a start and end in
//! nanoseconds since a shared epoch, the index of the span that encloses it
//! and the id of the job it belongs to. Spans stay in memory until the run
//! ends; a layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Job id given to spans recorded while the workload sets up.
pub const SETUP_JOB: u64 = u64::MAX;

/// The root span of every timed job.
pub const JOB: &str = "job";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

/// Span and counter recorder. When off, [`Tracer::span`] only calls its
/// closure and [`Tracer::count`] does nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per counter name: (sum, samples).
    counts: BTreeMap<&'static str, (f64, u64)>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            job: SETUP_JOB,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recorder for one job, sharing this one's epoch and mode.
    pub fn for_job(&self, job: u64) -> Self {
        let mut t = Tracer::new(self.on, self.epoch);
        t.job = job;
        t
    }

    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            job: self.job,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Closes every open span, e.g. after a job panicked inside one.
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Adds one sample to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            let c = self.counts.entry(name).or_insert((0.0, 0));
            c.0 += value;
            c.1 += 1;
        }
    }

    /// Moves another recorder's spans and counters into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, (sum, n)) in other.counts {
            let c = self.counts.entry(name).or_insert((0.0, 0));
            c.0 += sum;
            c.1 += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum and sample count of a counter.
    pub fn counter(&self, name: &str) -> (f64, u64) {
        self.counts.get(name).copied().unwrap_or((0.0, 0))
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            for k in &mut kids {
                k.0 = k.0.clamp(s.start_ns, s.end_ns);
                k.1 = k.1.clamp(s.start_ns, s.end_ns);
            }
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Calls and summed self time per span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.self_ns += own;
        e.total_ns += s.end_ns - s.start_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("job", 0, 100, None),
            // Two children overlapping on 20..30, a third disjoint one, and
            // one sticking out past the parent's end.
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 50, 60, Some(0)),
            span("d", 90, 120, Some(0)),
            // A grandchild does not reduce the root's self time a second time.
            span("e", 12, 18, Some(1)),
        ];
        let own = self_times(&spans);
        // Root: 100 - (10..40 = 30) - (50..60 = 10) - (90..100 = 10) = 50.
        assert_eq!(own, vec![50, 14, 20, 10, 30, 6]);
    }

    #[test]
    fn nested_recording_links_parents_and_merges() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_job(3);
        t.enter(JOB);
        t.span("gen", || ());
        t.span("run", || ());
        t.exit();
        t.count("run.events", 5.0);
        let mut all = Tracer::new(true, Instant::now());
        all.span("warmup", || ());
        all.absorb(t);
        let s = all.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].name, s[1].parent, s[1].job), (JOB, None, 3));
        assert_eq!((s[2].name, s[2].parent), ("gen", Some(1)));
        assert_eq!((s[3].name, s[3].parent), ("run", Some(1)));
        assert_eq!(all.counter("run.events"), (5.0, 1));
        let stats = by_name(s);
        assert_eq!(stats["gen"].calls, 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("gen", || 7), 7);
        t.count("gen.ops_out", 1.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("gen.ops_out"), (0.0, 0));
    }
}
