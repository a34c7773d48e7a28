//! The communication-cost model of §4.2b.
//!
//! Two parameters characterize sending a message between processors:
//! `σ`, the time to forward one message, and `τ`, the time to receive or
//! route one message. They derive from context-switch (`S`), output-setup
//! (`O`) and header-control (`H`) times:
//!
//! ```text
//! σ = 2S + O
//! τ = 2S + H + O
//! ```
//!
//! For the paper's bit-serial linked hypercube, `O = 3 µs`,
//! `S = H = 2 µs`, giving `σ = 7 µs` and `τ = 9 µs`. Message transfer
//! time per link is `w_ij = L / BW` with `BW = 10 Mb/s` and 40 bits per
//! variable.
//!
//! The effective cost estimate of eq. 4,
//!
//! ```text
//! c_ij = w_ij·d_ij + (d_ij − 1 + δ) τ + (1 − δ) σ        (δ = 1 iff same proc)
//! ```
//!
//! is exposed as [`CommParams::eq4_cost`]; the simulator charges the same
//! σ/τ quantities as *events*, plus a receive τ on the destination
//! processor that eq. 4's estimate leaves out. §4.2b defines τ as the
//! time to receive *or* route a message, so the engine charges it on
//! every processor a message reaches, the last one included.

use anneal_graph::units::{us, Work};

/// Raw machine overheads from which σ and τ derive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overheads {
    /// Context-switch time `S` (ns): save and restore processor state.
    pub context_switch: Work,
    /// Output setup `O` (ns): prepare the I/O hardware.
    pub output_setup: Work,
    /// Header control `H` (ns): decide whether to route onward.
    pub header_control: Work,
}

/// Communication parameters of the host architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommParams {
    /// σ (ns): sender-side cost to forward one message.
    pub sigma: Work,
    /// τ (ns): cost to receive or route one message.
    pub tau: Work,
    /// Link bandwidth `BW` in bits per second.
    pub bandwidth_bps: u64,
}

impl CommParams {
    /// Derives σ and τ from raw overheads: `σ = 2S + O`, `τ = 2S + H + O`.
    pub fn from_overheads(o: Overheads, bandwidth_bps: u64) -> Self {
        CommParams {
            sigma: 2 * o.context_switch + o.output_setup,
            tau: 2 * o.context_switch + o.header_control + o.output_setup,
            bandwidth_bps,
        }
    }

    /// The paper's bit-serial hypercube parameters: `O = 3 µs`,
    /// `S = H = 2 µs` → σ = 7 µs, τ = 9 µs; 10 Mb/s links.
    pub fn paper() -> Self {
        Self::from_overheads(
            Overheads {
                context_switch: us(2.0),
                output_setup: us(3.0),
                header_control: us(2.0),
            },
            10_000_000,
        )
    }

    /// Free communication (the "w/o comm" columns of Table 2): zero
    /// overheads and effectively infinite bandwidth.
    pub fn zero() -> Self {
        CommParams {
            sigma: 0,
            tau: 0,
            bandwidth_bps: u64::MAX,
        }
    }

    /// `true` iff this parameter set makes all communication free.
    pub fn is_free(&self) -> bool {
        self.sigma == 0 && self.tau == 0 && self.bandwidth_bps == u64::MAX
    }

    /// Link transfer time for a message of `bits`: `w = L / BW` (ns).
    pub fn transfer_time(&self, bits: u64) -> Work {
        if self.bandwidth_bps == u64::MAX {
            0
        } else {
            anneal_graph::units::transfer_time_ns(bits, self.bandwidth_bps)
        }
    }

    /// The eq. 4 effective communication cost estimate for a message of
    /// link-occupancy weight `w` (ns) over `d` hops.
    ///
    /// `same_proc` is the Kronecker δ: when the communicating tasks share
    /// a processor the cost is zero (`d = 0`, δ = 1 ⇒ all three terms
    /// vanish).
    ///
    /// ```
    /// use anneal_topology::CommParams;
    /// let p = CommParams::paper();
    /// assert_eq!(p.eq4_cost(4_000, 0, true), 0);
    /// // neighbors: w + sigma
    /// assert_eq!(p.eq4_cost(4_000, 1, false), 4_000 + 7_000);
    /// // distance 2: 2w + tau + sigma
    /// assert_eq!(p.eq4_cost(4_000, 2, false), 8_000 + 9_000 + 7_000);
    /// ```
    pub fn eq4_cost(&self, w: Work, d: u32, same_proc: bool) -> Work {
        let delta = u64::from(same_proc);
        let d = d as u64;
        debug_assert!(
            !(same_proc && d != 0),
            "same processor implies distance zero"
        );
        let volume = w.saturating_mul(d);
        let routing = (d + delta - 1).saturating_mul(self.tau); // d-1+δ ≥ 0 always
        let setup = (1 - delta) * self.sigma;
        volume + routing + setup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let p = CommParams::paper();
        assert_eq!(p.sigma, 7_000);
        assert_eq!(p.tau, 9_000);
        assert_eq!(p.bandwidth_bps, 10_000_000);
        assert!(!p.is_free());
    }

    #[test]
    fn derivation_from_overheads() {
        let p = CommParams::from_overheads(
            Overheads {
                context_switch: 10,
                output_setup: 5,
                header_control: 3,
            },
            1_000,
        );
        assert_eq!(p.sigma, 25);
        assert_eq!(p.tau, 28);
    }

    #[test]
    fn zero_params_are_free() {
        let z = CommParams::zero();
        assert!(z.is_free());
        assert_eq!(z.transfer_time(1_000_000), 0);
        assert_eq!(z.eq4_cost(0, 3, false), 0);
    }

    #[test]
    fn transfer_time_matches_paper() {
        // one 40-bit variable over 10 Mb/s = 4 us
        assert_eq!(CommParams::paper().transfer_time(40), 4_000);
    }

    #[test]
    fn eq4_same_processor_is_zero() {
        let p = CommParams::paper();
        assert_eq!(p.eq4_cost(123_456, 0, true), 0);
    }

    #[test]
    fn eq4_distance_terms() {
        let p = CommParams::paper();
        let w = 4_000;
        // d=1: w + sigma
        assert_eq!(p.eq4_cost(w, 1, false), w + p.sigma);
        // d=3: 3w + 2tau + sigma
        assert_eq!(p.eq4_cost(w, 3, false), 3 * w + 2 * p.tau + p.sigma);
    }
}
