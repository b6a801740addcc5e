//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions (the program itself carries no tracing).
//! They stay in memory and are written out as JSONL once the run ends.
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover.

use sdo_harness::proto::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `harness.sim.run`.
    pub name: &'static str,
    /// Request the span served (spans of one request share it).
    pub request: u64,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder. Opening a span returns its id, which
/// children pass as their parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            request,
            start,
            end: start,
        });
        id
    }

    /// Closes span `id` at the current time.
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("tracer lock poisoned")[id].end = end;
    }

    /// Runs `f` inside a span named `name`, passing `f` the span's id so
    /// it can open children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its children's intervals (children of a parallel batch may
/// overlap each other; the union counts shared time once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            s.duration()
                .saturating_sub(covered(&mut kids, s.start, s.end))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Renders the spans as JSONL, one object per span, with self time.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let selves = self_times(spans);
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(selves) {
        let line = Json::Obj(vec![
            ("id".to_string(), Json::UInt(s.id as u64)),
            (
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
            ),
            ("name".to_string(), Json::Str(s.name.to_string())),
            ("request".to_string(), Json::UInt(s.request)),
            ("start_ns".to_string(), Json::UInt(s.start)),
            ("end_ns".to_string(), Json::UInt(s.end)),
            ("self_ns".to_string(), Json::UInt(self_ns)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_times_of_a_sequential_tree_sum_to_the_root() {
        // root [0,100): a [10,40) with child a1 [15,25); b [50,90) with
        // children b1 [50,60) and b2 [70,90).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
            span(4, Some(3), 50, 60),
            span(5, Some(3), 70, 90),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves, vec![30, 20, 10, 10, 10, 20]);
        assert_eq!(selves.iter().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel workers' jobs overlap inside one batch span.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 80),
            span(2, Some(0), 20, 95),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorded_spans_nest_and_render() {
        let t = Tracer::default();
        let v = t.span("root", None, 0, |root| {
            t.span("child", Some(root), 7, |_| 42)
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let text = to_jsonl(&spans);
        let second = text.lines().nth(1).expect("two lines");
        let parsed = sdo_harness::proto::parse_json(second).expect("valid JSON");
        assert_eq!(parsed.str_field("name"), Ok("child"));
        assert_eq!(parsed.u64_field("request"), Ok(7));
    }
}
