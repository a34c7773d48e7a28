//! Cost-trajectory recording (the paper's Figure 1).

/// One SA iteration's observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Iteration index within the packet.
    pub iter: u64,
    /// Temperature at this iteration.
    pub temp: f64,
    /// Raw load-balancing cost `F_b = −Σ n_i s(i)` (ns units).
    pub f_b_raw: f64,
    /// Raw communication cost `F_c` (ns units).
    pub f_c_raw: f64,
    /// Normalized weighted balance term `w_b·F_b/ΔF_b`.
    pub f_b_norm: f64,
    /// Normalized weighted communication term `w_c·F_c/ΔF_c`.
    pub f_c_norm: f64,
    /// Total cost `F = w_c·F_c/ΔF_c + w_b·F_b/ΔF_b`.
    pub f_total: f64,
    /// Whether the proposed move was accepted.
    pub accepted: bool,
}

impl TraceSample {
    /// The weighted raw cost `w_b·F_b + w_c·F_c` (ns units) — the
    /// un-normalized trajectory Figure 1 plots alongside the
    /// normalized total.
    pub fn weighted_raw(&self, wb: f64, wc: f64) -> f64 {
        wb * self.f_b_raw + wc * self.f_c_raw
    }
}

/// The trajectory of one annealing packet.
#[derive(Debug, Clone, Default)]
pub struct PacketTrace {
    /// Sequential packet index (0-based) within the run.
    pub packet: u64,
    /// Simulated time of the epoch (ns).
    pub epoch_time: u64,
    /// Ready-task candidates in the packet.
    pub candidates: usize,
    /// Idle processors in the packet.
    pub idle: usize,
    /// Per-iteration samples.
    pub samples: Vec<TraceSample>,
}

impl PacketTrace {
    /// Final total cost (0 if no samples).
    pub fn final_cost(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.f_total)
    }

    /// Fraction of accepted moves.
    pub fn acceptance_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.accepted() as f64 / self.samples.len() as f64
    }

    /// Number of accepted moves.
    pub fn accepted(&self) -> u64 {
        self.samples.iter().filter(|s| s.accepted).count() as u64
    }

    /// Writes every sample as one `"sa.trace.sample"` event line.
    ///
    /// Float fields render as JSON strings (see
    /// [`EventWriter::float`](anneal_obs::EventWriter::float)), so the
    /// file stays parseable by `anneal_obs::json` and metric lines can
    /// share it — [`MetricsRegistry::merge_jsonl`](anneal_obs::MetricsRegistry::merge_jsonl)
    /// skips trace events.
    pub fn export_jsonl(&self, sink: &mut anneal_obs::JsonlSink) {
        for s in &self.samples {
            sink.event("sa.trace.sample")
                .num("packet", self.packet)
                .num("epoch_time", self.epoch_time)
                .num("candidates", self.candidates as u64)
                .num("idle", self.idle as u64)
                .num("iter", s.iter)
                .float("temp", s.temp)
                .float("f_b_raw", s.f_b_raw)
                .float("f_c_raw", s.f_c_raw)
                .float("f_b_norm", s.f_b_norm)
                .float("f_c_norm", s.f_c_norm)
                .float("f_total", s.f_total)
                .num("accepted", u64::from(s.accepted))
                .finish();
        }
    }

    /// Accumulates this packet's shape into `r` (`sa.trace.*` keys).
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sa.trace.packets", 1);
        r.add("sa.trace.samples", self.samples.len() as u64);
        r.add("sa.trace.accepted", self.accepted());
        r.hwm("sa.trace.max_samples", self.samples.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iter: u64, f: f64, acc: bool) -> TraceSample {
        TraceSample {
            iter,
            temp: 1.0,
            f_b_raw: -f,
            f_c_raw: f,
            f_b_norm: -f,
            f_c_norm: f,
            f_total: f,
            accepted: acc,
        }
    }

    #[test]
    fn cost_endpoints() {
        let t = PacketTrace {
            packet: 0,
            epoch_time: 0,
            candidates: 3,
            idle: 1,
            samples: vec![
                sample(0, 5.0, true),
                sample(1, 2.0, false),
                sample(2, 1.0, true),
            ],
        };
        assert_eq!(t.final_cost(), 1.0);
        assert!((t.acceptance_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_raw_combines_terms() {
        let s = sample(0, 4.0, true);
        // f_b_raw = -4, f_c_raw = 4
        assert!((s.weighted_raw(0.75, 0.25) - (-3.0 + 1.0)).abs() < 1e-12);
        assert_eq!(s.weighted_raw(0.0, 1.0), 4.0);
    }

    #[test]
    fn exports_jsonl_and_records() {
        let t = PacketTrace {
            packet: 2,
            epoch_time: 100,
            candidates: 3,
            idle: 1,
            samples: vec![sample(0, 5.0, true), sample(1, 2.0, false)],
        };
        let mut sink = anneal_obs::JsonlSink::new();
        t.export_jsonl(&mut sink);
        let lines: Vec<&str> = sink.as_str().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\": \"sa.trace.sample\", \"packet\": 2"));
        assert!(lines[0].contains("\"accepted\": 1"));
        assert!(lines[1].contains("\"accepted\": 0"));
        // metric merge skips trace events entirely
        let mut reg = anneal_obs::MetricsRegistry::new();
        assert_eq!(reg.merge_jsonl(sink.as_str()).unwrap(), 0);
        t.record_into(&mut reg);
        assert_eq!(reg.counter("sa.trace.packets"), 1);
        assert_eq!(reg.counter("sa.trace.samples"), 2);
        assert_eq!(reg.counter("sa.trace.accepted"), 1);
        assert_eq!(reg.gauge("sa.trace.max_samples"), 2);
    }

    #[test]
    fn empty_trace() {
        let t = PacketTrace::default();
        assert_eq!(t.final_cost(), 0.0);
        assert_eq!(t.acceptance_rate(), 0.0);
    }
}
