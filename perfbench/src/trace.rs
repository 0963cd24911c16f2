//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans; nothing inside the program is instrumented. A span records its
//! name, start, end, parent span, workload and iteration. Spans stay in
//! memory until the run ends; a child process hands its spans to the
//! parent process as text lines, which it imports under the span that
//! stands for that process.

use crate::util::nanos_since;
use std::time::Instant;

/// One timed interval, in nanoseconds since the trace's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.mc` or `bench.table2`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload the span's work belongs to.
    pub workload: String,
    /// The iteration (pass) of that workload.
    pub iteration: u32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
    iteration: u32,
}

impl Trace {
    /// An empty trace whose spans belong to `workload`, iteration 0.
    pub fn new(workload: &str) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: workload.to_string(),
            iteration: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Tags the spans recorded from now on with `workload` and `iteration`.
    pub fn set_context(&mut self, workload: &str, iteration: u32) {
        self.workload = workload.to_string();
        self.iteration = iteration;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start_ns = self.now_ns();
        let idx = self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            iteration: self.iteration,
        });
        self.open.push(idx);
        let value = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        value
    }

    /// Records a finished top-level span from `start_ns` to `end_ns` under
    /// the current workload and iteration.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) -> usize {
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: None,
            workload: self.workload.clone(),
            iteration: self.iteration,
        })
    }

    /// Appends a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in start order of opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span's duration minus the part of it its child spans cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let children = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| {
                (
                    s.start_ns.max(span.start_ns),
                    s.end_ns.min(span.end_ns).max(s.start_ns.max(span.start_ns)),
                )
            })
            .collect();
        span.duration_ns() - union_ns(children)
    }

    /// Length of the union of the spans `keep` accepts.
    pub fn covered_ns(&self, keep: impl Fn(&Span) -> bool) -> u64 {
        union_ns(
            self.spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
        )
    }

    /// The spans as text lines, for handing from a child process to the
    /// parent: `span <parent|-> <start> <end> <iteration> <workload> <name>`.
    pub fn encode(&self) -> Vec<String> {
        self.spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
                format!(
                    "span {parent} {} {} {} {} {}",
                    s.start_ns, s.end_ns, s.iteration, s.workload, s.name
                )
            })
            .collect()
    }

    /// Imports spans written by [`Trace::encode`] in another process,
    /// shifting them by `offset_ns` and hanging their roots under `parent`.
    pub fn import<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
        offset_ns: u64,
        parent: Option<usize>,
    ) -> Result<(), String> {
        let base = self.spans.len();
        for line in lines {
            let f: Vec<&str> = line.split(' ').collect();
            let [_, p, start, end, iteration, workload, name] = f[..] else {
                return Err(format!("bad span line `{line}`"));
            };
            let num = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("bad span line `{line}`"))
            };
            let own_parent = match p {
                "-" => parent,
                p => Some(base + usize::try_from(num(p)?).map_err(|e| e.to_string())?),
            };
            self.push(Span {
                name: name.to_string(),
                start_ns: num(start)? + offset_ns,
                end_ns: num(end)? + offset_ns,
                parent: own_parent,
                workload: workload.to_string(),
                iteration: u32::try_from(num(iteration)?).map_err(|e| e.to_string())?,
            });
        }
        Ok(())
    }
}

/// Length of the union of half-open intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            workload: "w".to_string(),
            iteration: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![(20, 25), (0, 10), (10, 12)]), 17);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let mut t = Trace::new("w");
        let root = t.push(span("root", 0, 100, None));
        let a = t.push(span("a", 10, 40, Some(root)));
        t.push(span("a.inner", 15, 35, Some(a)));
        t.push(span("b", 30, 60, Some(root)));
        // Children a and b cover [10, 60): 50 ns of root's 100.
        assert_eq!(t.self_ns(root), 50);
        assert_eq!(t.self_ns(a), 10);
        assert_eq!(t.self_ns(2), 20);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let mut t = Trace::new("w");
        let root = t.push(span("root", 100, 200, None));
        t.push(span("early", 50, 120, Some(root)));
        t.push(span("late", 190, 260, Some(root)));
        // Only [100, 120) and [190, 200) of the children fall inside root.
        assert_eq!(t.self_ns(root), 70);
    }

    #[test]
    fn nested_closure_spans_record_parents_and_context() {
        let mut t = Trace::new("explore");
        t.set_context("explore", 3);
        t.span("outer", |t| t.span("inner", |_| ()));
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].iteration, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn encoded_spans_import_under_a_parent_with_an_offset() {
        let mut child = Trace::new("lint");
        child.push(span("lint.cold", 0, 10, None));
        child.push(span("lint.inner", 2, 4, Some(0)));
        let lines = child.encode();
        let mut parent = Trace::new("lint");
        let proc_span = parent.push(span("proc.lint", 1000, 1020, None));
        parent
            .import(lines.iter().map(String::as_str), 1005, Some(proc_span))
            .expect("round trip");
        let s = parent.spans();
        assert_eq!(s[1].parent, Some(proc_span));
        assert_eq!((s[1].start_ns, s[1].end_ns), (1005, 1015));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(parent.self_ns(proc_span), 10);
    }
}
