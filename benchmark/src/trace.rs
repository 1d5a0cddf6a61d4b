//! In-memory span recorder for the traced run.
//!
//! A span is one probe call-group: a chunk of a few hundred calls into one
//! layer, never a single packet. Spans nest; a layer's busy time is the
//! sum of the *self* times of its spans (duration minus the part covered
//! by child spans), so self times over a whole tree add up to the root's
//! duration. Everything stays in memory until [`Trace::to_json`].

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`crate.module`), or a harness-glue name for roots.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time; equals `start_ns` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// Handle returned by [`Trace::enter`]; pass it back to [`Trace::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The recorder. All spans of one trace share the workload identifier.
pub struct Trace {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Start an empty trace for `workload`.
    pub fn new(workload: &str) -> Trace {
        Trace {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `i`.
    pub fn duration_ns(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.duration_ns(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.duration_ns(i));
            }
        }
        own
    }

    /// Self time per span name over the subtree rooted at `root`
    /// (the root's own glue time included, under the root's name).
    pub fn busy_ns_under(&self, root: SpanId) -> BTreeMap<&'static str, u64> {
        let own = self.self_ns();
        let mut inside = vec![false; self.spans.len()];
        let mut busy = BTreeMap::new();
        // Parents always precede children, so one forward pass marks the
        // whole subtree.
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = i == root.0 || s.parent.is_some_and(|p| inside[p]);
            if inside[i] {
                *busy.entry(s.name).or_insert(0) += own[i];
            }
        }
        busy
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\":\"{}\",\"spans\":[\n", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}{}\n",
                s.name,
                self.workload,
                s.start_ns,
                s.end_ns,
                own[i],
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| std::hint::black_box(a ^ i.wrapping_mul(31)))
    }

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut t = Trace::new("unit");
        let root = t.enter("root");
        for _ in 0..3 {
            let pass = t.enter("pass");
            t.span("layer.a", || spin(20_000));
            t.span("layer.b", || {
                spin(5_000);
            });
            t.exit(pass);
        }
        t.exit(root);

        // Nesting: every child lies inside its parent, parents come first.
        for (i, s) in t.spans().iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let parent = &t.spans()[p];
                assert!(p < i);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            } else {
                assert_eq!(i, 0, "only the first span is a root");
            }
        }
        assert_eq!(t.spans().len(), 1 + 3 * 3);

        // Self times partition the root's duration exactly.
        let total: u64 = t.self_ns().iter().sum();
        assert_eq!(total, t.duration_ns(0));
        let busy = t.busy_ns_under(root);
        assert_eq!(busy.values().sum::<u64>(), t.duration_ns(0));
        assert!(busy["layer.a"] > 0 && busy["layer.b"] > 0);

        // A subtree only counts its own spans.
        let first_pass = SpanId(1);
        let sub = t.busy_ns_under(first_pass);
        assert_eq!(sub.values().sum::<u64>(), t.duration_ns(1));

        let json = t.to_json();
        assert_eq!(json.matches("\"name\":\"layer.a\"").count(), 3);
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Trace::new("unit");
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }
}
