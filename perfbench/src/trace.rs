//! In-memory span recorder for traced runs.
//!
//! A span has a name, a start, an end, a parent and a cell id. Spans
//! are kept in memory while the run measures and written out once at
//! the end ([`Tracer::write_jsonl`]). A disabled tracer runs the same
//! code without reading a clock, which is how traced and untraced runs
//! share one implementation.

use std::collections::BTreeMap;
use std::time::Instant;

/// Cell id of a span that belongs to no single cell.
pub const NO_CELL: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer boundary the span covers, e.g. `arena.shard`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell (or shard) the span works for, [`NO_CELL`] if none.
    pub cell: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans around calls into the program's layers.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `cell`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        r
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Appends the spans as JSON lines, one per span, numbering them
    /// from `first_id` (so several tracers can share one file).
    pub fn write_jsonl(&self, out: &mut String, first_id: usize) {
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + first_id).to_string());
            let cell = if s.cell == NO_CELL {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"cell\":{}}}\n",
                i + first_id,
                s.name,
                s.start_ns,
                s.end_ns,
                own,
                parent,
                cell
            ));
        }
    }
}
