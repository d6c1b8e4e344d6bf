//! In-memory span recorder for the traced run.
//!
//! A span has a name, start and end (process CPU nanoseconds from the
//! tracer's creation, see `clock`), the span open when it began (its parent) and a request id.
//! Spans stay in memory and are written out once, when the run ends. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per span boundary.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    t0: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: crate::clock::now_ns(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        crate::clock::now_ns() - self.t0
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in milliseconds: its duration minus the
    /// durations of its direct children. Children of one span run on one
    /// thread, one after another, so they never overlap.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Sum of the self times of spans named `name` whose nearest ancestor
    /// named `within` is span `root`.
    pub fn self_ms_under(&self, own: &[f64], root: usize, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.ancestor_is(i, root))
            .map(|i| own[i])
            .sum()
    }

    fn ancestor_is(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Indices of every span named `name`.
    pub fn named(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
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
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("step", 0, 100_000_000, None),
            span("layer", 10_000_000, 30_000_000, Some(0)),
            span("inner", 12_000_000, 20_000_000, Some(1)),
            span("layer", 40_000_000, 50_000_000, Some(0)),
        ];
        let own = t.self_ms();
        assert_eq!(own, vec![70.0, 12.0, 8.0, 10.0]);
        assert_eq!(t.self_ms_under(&own, 0, "layer"), 22.0);
        assert_eq!(t.self_ms_under(&own, 0, "inner"), 8.0);
        assert_eq!(t.self_ms_under(&own, 1, "layer"), 0.0);
    }

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.begin("a", 1);
        let b = t.begin("b", 1);
        t.end(b);
        t.end(a);
        t.span("c", 2, || ());
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, None);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.to_jsonl().lines().count(), 3);

        let mut off = Tracer::new(false);
        let a = off.begin("a", 1);
        off.end(a);
        assert!(off.spans().is_empty());
    }
}
