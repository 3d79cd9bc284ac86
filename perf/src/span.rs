//! In-memory spans recorded by the traced run, written out when it ends.
//!
//! Spans are taken from the benchmark's own files around public calls into
//! each layer; nothing inside the engine is instrumented.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` is the index of the span that was open when
/// this one started; `rep` is the stepped repetition it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// The span recorder: a flat list plus the stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub rep: u32,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::object([
                        ("id", Json::from(i as u64)),
                        ("name", Json::from(s.name)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("self_ns", Json::from(self_time_ns(&self.spans, i))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                        ("rep", Json::from(u64::from(s.rep))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] > a [10,60] > b [20,30]; b is a's child, not root's.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 40);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children [10,50] and [30,70] overlap on [30,50]; [90,120] sticks
        // out past the parent's end and is clipped to [90,100].
        let spans = [
            span(0, 100, None),
            span(30, 70, Some(0)),
            span(10, 50, Some(0)),
            span(90, 120, Some(0)),
            span(40, 45, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn recorder_links_parents_and_reps() {
        let mut log = SpanLog::new();
        log.rep = 3;
        let outer = log.enter("probe.core");
        log.time("core.detect", || ());
        log.exit(outer);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(log.durations_s("core.detect").len(), 1);
    }
}
