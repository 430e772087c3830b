//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced run records one span per call into a layer — name, start,
//! end, the span that was open when it started, and the session it
//! belongs to — keeps them in memory, and writes them out once at exit.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover, so glue between calls is charged to
//! the enclosing span and never to a layer.
//!
//! The untraced run uses a disabled recorder: [`Recorder::time`] then
//! runs the closure and touches no clock, so end-to-end numbers carry
//! no tracing cost.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the recorder's span list) of the enclosing span.
    pub parent: Option<usize>,
    /// The session (one fresh `TestBed`) the span belongs to.
    pub session: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sessions: u32,
}

/// Span recorder for the single generator thread.
pub struct Recorder {
    state: Option<RefCell<State>>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn enabled() -> Self {
        Recorder {
            state: Some(RefCell::new(State {
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                sessions: 0,
            })),
        }
    }

    /// A recorder that records nothing and reads no clock.
    pub fn disabled() -> Self {
        Recorder { state: None }
    }

    /// A fresh session identifier (sessions of one round interleave, so
    /// every span names the session it belongs to).
    pub fn new_session(&self) -> u32 {
        match &self.state {
            Some(state) => {
                let mut s = state.borrow_mut();
                s.sessions += 1;
                s.sessions
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span of `session` called `name`, nested under
    /// whichever span is currently open.
    pub fn time<R>(&self, session: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.state else {
            return f();
        };
        let index = {
            let mut s = state.borrow_mut();
            let index = s.spans.len();
            let span = Span {
                name,
                start_ns: s.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: s.open.last().copied(),
                session,
            };
            s.spans.push(span);
            s.open.push(index);
            index
        };
        let out = f();
        let mut s = state.borrow_mut();
        s.spans[index].end_ns = s.epoch.elapsed().as_nanos() as u64;
        s.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.state {
            Some(state) => state.borrow().spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span, so a child that outlives
/// its parent cannot drive the result negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut horizon = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(horizon);
                if end > start {
                    covered += end - start;
                    horizon = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Total duration, in nanoseconds, of the spans called `name` in
/// `session`.
pub fn total_ns(spans: &[Span], session: u32, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.session == session && s.name == name)
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            session: 1,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = vec![
            span("report", 0, 100, None),
            span("finish", 10, 60, Some(0)),
            span("fold", 20, 50, Some(1)),
        ];
        // report loses finish's 50, not fold's 30 a second time.
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn sibling_spans_sum_and_overlaps_count_once() {
        let spans = vec![
            span("report", 0, 100, None),
            span("save", 10, 30, Some(0)),
            span("load", 30, 60, Some(0)),
            // Overlaps `load` by 10: only [60, 70) is new cover.
            span("analyze", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 30 - 10);
    }

    #[test]
    fn child_outliving_parent_is_clipped() {
        let spans = vec![span("a", 0, 10, None), span("b", 5, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_tags_sessions() {
        let rec = Recorder::enabled();
        let (s1, s2) = (rec.new_session(), rec.new_session());
        rec.time(s1, "outer", || {
            rec.time(s1, "inner", || {});
            rec.time(s1, "inner", || {});
        });
        rec.time(s2, "outer", || {});
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].session, spans[3].session), (s1, s2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(
            total_ns(&spans, s1, "inner"),
            spans[1].duration_ns() + spans[2].duration_ns()
        );
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_keeps_nothing() {
        let rec = Recorder::disabled();
        assert_eq!(rec.new_session(), 0);
        assert_eq!(rec.time(0, "x", || 7), 7);
        assert!(rec.spans().is_empty());
    }
}
