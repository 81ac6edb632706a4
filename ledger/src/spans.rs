//! The ledger's own spans: recorded around calls into the crates' public
//! functions, kept in memory, written out once when the run ends. Only a
//! traced run records any.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent` indexes into the same list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The frame, cell or batch this span belongs to; spans of one
    /// request share it.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded recorder: nesting follows the call stack.
pub struct Spans {
    epoch: Instant,
    closed: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            closed: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `work` inside a span named `name`, child of whichever span is
    /// open on this recorder.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        work: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let index = self.closed.len();
        let start_ns = self.now_ns();
        self.closed.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = work(self);
        self.open.pop();
        self.closed[index].end_ns = self.now_ns();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.closed
    }

    /// Total time in spans called `name`, in nanoseconds, and how many.
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.closed
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// One JSON array of `{name, request, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.closed.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.closed.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{comma}",
                trace::json::escape(s.name),
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_gives_parents_and_totals() {
        let mut spans = Spans::new();
        spans.time("frame", 3, |s| {
            s.time("detect", 3, |_| std::hint::black_box(1 + 1));
            s.time("describe", 3, |_| ());
        });
        spans.time("frame", 4, |_| ());
        let all = spans.all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert_eq!(all[3].parent, None);
        assert!(all[0].start_ns <= all[1].start_ns && all[2].end_ns <= all[0].end_ns);
        assert_eq!(spans.total_ns("frame").1, 2);
        assert_eq!(
            spans.total_ns("frame").0,
            all[0].duration_ns() + all[3].duration_ns()
        );
    }

    #[test]
    fn json_round_trips_through_the_repo_parser() {
        let mut spans = Spans::new();
        spans.time("outer", 0, |s| s.time("inner", 0, |_| ()));
        let parsed = trace::json::Value::parse(&spans.to_json()).expect("valid JSON");
        let rows = parsed.as_array().expect("array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("name").and_then(|v| v.as_str()), Some("inner"));
        assert_eq!(rows[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(rows[0].get("parent"), Some(&trace::json::Value::Null));
        for key in ["start_ns", "end_ns", "request"] {
            assert!(rows[0].get(key).and_then(|v| v.as_f64()).is_some());
        }
    }
}
