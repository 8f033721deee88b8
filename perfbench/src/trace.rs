//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, start, end and the span that was open when it
//! began. Spans stay in memory until the run ends and are then written out
//! as one CSV. Self time is a span's duration minus the part of its
//! interval that its children cover; children may nest or overlap, so the
//! covered part is the union of their intervals clipped to the parent.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from the benchmark's own thread. The calls it wraps may
/// fan out to worker threads internally; those stay inside the span.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed self time in seconds of every span called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    /// The spans as CSV: id, parent, name, start, end, self (ns).
    pub fn to_csv(&self) -> String {
        let spans = self.spans.borrow();
        let selfs = self_times_ns(&spans);
        let mut out = String::from("id,parent,name,start_ns,end_ns,self_ns\n");
        for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{id},{parent},{},{},{},{self_ns}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| s.duration_ns() - union_ns(&mut covered))
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(cs, ce)| ce - cs)
}

/// Fewest samples a reported tail percentile must leave above it.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The percentile actually reported for a tail of `wanted` over `n`
/// samples: `wanted` itself when at least [`MIN_BEYOND_TAIL`] samples lie
/// beyond it, else the highest percentile that leaves that many (never
/// below the median). A reported tail is thus never one or two outliers.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    let highest = 100.0 * n.saturating_sub(MIN_BEYOND_TAIL) as f64 / n.max(1) as f64;
    wanted.min(highest.floor()).max(50.0)
}

/// Tail percentile `wanted` of `samples`, lowered by [`supported_tail`]
/// when the sample is too small to support it.
pub fn tail(samples: &[f64], wanted: f64) -> f64 {
    percentile(samples, supported_tail(samples.len(), wanted))
}

/// Median of `samples`: the middle sample, or the mean of the two middle
/// ones.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples beyond nearest-rank percentile `p` of `n` samples.
    fn beyond(n: usize, p: f64) -> usize {
        n - ((p / 100.0) * n as f64).ceil().max(1.0) as usize
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 50, Some(0)),
            span("grandchild", 20, 30, Some(1)),
            span("child", 60, 70, Some(0)),
        ];
        // Root loses both children (40 + 10); the grandchild is charged to
        // its own parent, not again to the root.
        assert_eq!(self_times_ns(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_by_their_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 35, 45, Some(0)),
        ];
        // Union of [10,40) [30,60) [35,45) is [10,60): 50 ns.
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 300, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn tracer_records_parents_in_call_order() {
        let tracer = Tracer::new();
        tracer.span("outer", || {
            tracer.span("inner", || ());
            tracer.span("inner", || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(tracer.durations_ms("inner").len(), 2);
        assert!(tracer.to_csv().starts_with("id,parent,name,"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&samples, 89.0), 89.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn reported_tails_leave_ten_samples_beyond() {
        // The tails the benchmark names, at the sample counts it takes:
        // 96 warm campaign snapshots, 671 daily ticks, and at least 1000
        // timed calls for every p99.
        for (n, wanted) in [(96, 89.0), (671, 98.0), (1000, 99.0), (60_000, 99.0)] {
            assert_eq!(supported_tail(n, wanted), wanted, "n={n}");
            assert!(beyond(n, wanted) >= MIN_BEYOND_TAIL, "n={n} p{wanted}");
        }
        assert_eq!(beyond(96, 89.0), 10);
        assert_eq!(beyond(96, 90.0), 9);
        assert_eq!(beyond(999, 99.0), 9);
    }

    #[test]
    fn unsupported_tails_are_lowered() {
        // 48 warm snapshots (the study's 14-day campaign) support p79.
        let p = supported_tail(48, 89.0);
        assert_eq!(p, 79.0);
        assert!(beyond(48, p) >= MIN_BEYOND_TAIL);
        assert!(beyond(48, p + 1.0) < MIN_BEYOND_TAIL);
        // Tiny samples fall back to the median, never below it.
        assert_eq!(supported_tail(5, 99.0), 50.0);
        let samples: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(tail(&samples, 89.0), 38.0);
    }
}
