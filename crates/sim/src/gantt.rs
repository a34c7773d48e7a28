//! Gantt-chart span recording (the paper's Figure 2 data).

use anneal_graph::TaskId;
use anneal_topology::ProcId;

use crate::SimTime;

/// What a processor was doing during a span.
///
/// Figure 2 of the paper draws compute as full-height blocks, send and
/// receive as half-height blocks above/below the baseline and routing as
/// quarter-height blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Executing a task (possibly one of several segments if preempted).
    Compute,
    /// Paying the send overhead σ for an outgoing message.
    Send,
    /// Paying the receive overhead τ for an incoming message.
    Receive,
    /// Paying the routing overhead τ for a transit message.
    Route,
}

/// One busy interval on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The processor.
    pub proc: ProcId,
    /// Activity kind.
    pub kind: SpanKind,
    /// Start time (ns).
    pub start: SimTime,
    /// End time (ns), `end >= start`.
    pub end: SimTime,
    /// The task involved: the executing task for `Compute`, the
    /// *destination* task of the message for `Send`/`Receive`/`Route`.
    pub task: Option<TaskId>,
}

impl Span {
    /// Span duration (ns).
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// A complete execution trace: every busy span of every processor.
#[derive(Debug, Clone, Default)]
pub struct Gantt {
    /// All spans, in recording order (monotone non-decreasing start per
    /// processor).
    pub spans: Vec<Span>,
    /// Total simulated time (ns).
    pub makespan: SimTime,
}

impl Gantt {
    /// All spans of one processor, in chronological order.
    pub fn proc_spans(&self, p: ProcId) -> Vec<Span> {
        self.spans.iter().filter(|s| s.proc == p).copied().collect()
    }

    /// Compute segments of one task, in chronological order.
    pub fn task_segments(&self, t: TaskId) -> Vec<Span> {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Compute && s.task == Some(t))
            .copied()
            .collect()
    }

    /// Checks that no two spans of the same processor overlap (a
    /// processor does one thing at a time). Returns the first violating
    /// pair if any.
    pub fn find_overlap(&self) -> Option<(Span, Span)> {
        let mut per_proc: std::collections::BTreeMap<u32, Vec<Span>> = Default::default();
        for &s in &self.spans {
            per_proc.entry(s.proc.raw()).or_default().push(s);
        }
        for spans in per_proc.values_mut() {
            spans.sort_by_key(|s| (s.start, s.end));
            for w in spans.windows(2) {
                if w[0].end > w[1].start {
                    return Some((w[0], w[1]));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(p: usize, kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            proc: ProcId::from_index(p),
            kind,
            start,
            end,
            task: Some(TaskId::from_index(0)),
        }
    }

    #[test]
    fn duration_and_queries() {
        let g = Gantt {
            spans: vec![
                span(0, SpanKind::Compute, 0, 10),
                span(0, SpanKind::Send, 10, 17),
                span(1, SpanKind::Compute, 5, 25),
            ],
            makespan: 25,
        };
        assert_eq!(g.spans[0].duration(), 10);
        assert_eq!(g.proc_spans(ProcId::from_index(0)).len(), 2);
        assert_eq!(g.task_segments(TaskId::from_index(0)).len(), 2);
        assert!(g.find_overlap().is_none());
    }

    #[test]
    fn overlap_detection() {
        let g = Gantt {
            spans: vec![
                span(0, SpanKind::Compute, 0, 10),
                span(0, SpanKind::Receive, 9, 12),
            ],
            makespan: 12,
        };
        let (a, b) = g.find_overlap().unwrap();
        assert_eq!(a.end, 10);
        assert_eq!(b.start, 9);
    }

    #[test]
    fn zero_length_spans_do_not_overlap() {
        let g = Gantt {
            spans: vec![
                span(0, SpanKind::Compute, 0, 10),
                span(0, SpanKind::Send, 10, 10),
                span(0, SpanKind::Receive, 10, 13),
            ],
            makespan: 13,
        };
        assert!(g.find_overlap().is_none());
    }
}
