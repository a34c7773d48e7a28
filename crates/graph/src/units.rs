//! Time units.
//!
//! The whole workspace measures CPU load, communication weight and
//! simulated time in integer **nanoseconds** stored as `u64`. The paper
//! quotes microseconds (e.g. σ = 7 µs, τ = 9 µs, average NE task duration
//! 9.12 µs); those convert exactly at 1 µs = 1000 ns.

/// A quantity of work or time, in nanoseconds.
pub type Work = u64;

/// Nanoseconds per microsecond.
pub const NS_PER_US: u64 = 1_000;

/// Converts microseconds (possibly fractional) to nanoseconds, rounding to
/// the nearest nanosecond.
///
/// ```
/// use anneal_graph::units::us;
/// assert_eq!(us(9.12), 9_120);
/// assert_eq!(us(0.0005), 1); // rounds to nearest
/// ```
#[inline]
pub fn us(micros: f64) -> Work {
    debug_assert!(micros >= 0.0, "negative duration");
    (micros * NS_PER_US as f64).round() as Work
}

/// Converts nanoseconds back to (fractional) microseconds.
#[inline]
pub fn as_us(ns: Work) -> f64 {
    ns as f64 / NS_PER_US as f64
}

/// Message transfer time over one link: `w = L / BW` (paper §4.2b).
///
/// `bits` is the message length `L` in bits, `bandwidth_bps` the link
/// bandwidth `BW` in bits per second. Returns nanoseconds, rounded to the
/// nearest nanosecond.
///
/// The paper's configuration — 40-bit variables over 10 Mb/s links — gives
/// exactly 4 µs per variable:
///
/// ```
/// use anneal_graph::units::{transfer_time_ns, us};
/// assert_eq!(transfer_time_ns(40, 10_000_000), us(4.0));
/// ```
#[inline]
pub fn transfer_time_ns(bits: u64, bandwidth_bps: u64) -> Work {
    assert!(bandwidth_bps > 0, "zero bandwidth");
    // bits / (bits/s) = s; scale to ns with rounding.
    let num = bits as u128 * 1_000_000_000u128;
    let den = bandwidth_bps as u128;
    ((num + den / 2) / den) as Work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_conversions_are_exact_for_paper_values() {
        assert_eq!(us(7.0), 7_000); // sigma
        assert_eq!(us(9.0), 9_000); // tau
        assert_eq!(us(84.77), 84_770); // GJ average duration
        assert_eq!(as_us(9_120), 9.12);
    }

    #[test]
    fn transfer_time_examples() {
        // 40 bits over 10 Mb/s = 4 us.
        assert_eq!(transfer_time_ns(40, 10_000_000), 4_000);
        // 0 bits -> 0 time.
        assert_eq!(transfer_time_ns(0, 10_000_000), 0);
        // 1 bit over 1 Gb/s = 1 ns.
        assert_eq!(transfer_time_ns(1, 1_000_000_000), 1);
        // Rounding: 1 bit over 3 bps = 333_333_333.33 ns -> rounds down.
        assert_eq!(transfer_time_ns(1, 3), 333_333_333);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_panics() {
        transfer_time_ns(40, 0);
    }
}
