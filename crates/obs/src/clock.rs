//! The explicit [`Clock`] abstraction and [`Span`] timing scopes.
//!
//! This module is the library crates' **only** sanctioned home of
//! `std::time::Instant` (`clippy.toml` disallows it everywhere else but
//! the bench harnesses).
//! Library code never reads time directly: it takes a `&dyn Clock` and
//! the binary decides whether that is a [`WallClock`] (real timing, for
//! `time.*` metrics) or a [`NullClock`] (deterministic CI mode — every
//! duration is zero, so artifacts containing timings still compare
//! byte-for-byte).
#![expect(
    clippy::disallowed_types,
    reason = "WallClock is the library crates' one sanctioned reader of `Instant`"
)]

/// A monotonic nanosecond source.
pub trait Clock {
    /// Nanoseconds since this clock's origin. Monotonic per clock
    /// instance; origins of distinct clocks are unrelated.
    fn now_ns(&self) -> u64;
}

/// Real wall-clock time, anchored at construction.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        let d = self.origin.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

/// The deterministic clock: time stands still at zero. Used by CI and
/// by any run that must be byte-reproducible including its `time.*`
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullClock;

impl Clock for NullClock {
    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A lightweight timing scope: capture a start timestamp, ask for the
/// elapsed nanoseconds when the measured region ends. No `Drop` magic —
/// the caller decides where the measurement goes (usually
/// `recorder.observe("time.…", span.elapsed_ns())`).
#[derive(Clone, Copy)]
pub struct Span<'c> {
    clock: &'c dyn Clock,
    start: u64,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").field("start", &self.start).finish()
    }
}

impl<'c> Span<'c> {
    /// Starts a span now.
    pub fn begin(clock: &'c dyn Clock) -> Self {
        Span {
            clock,
            start: clock.now_ns(),
        }
    }

    /// Nanoseconds since [`begin`](Span::begin). Zero under
    /// [`NullClock`].
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_is_frozen() {
        let c = NullClock;
        let s = Span::begin(&c);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(s.elapsed_ns(), 0);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_ns();
        let s = Span::begin(&c);
        let b = c.now_ns();
        assert!(b >= a);
        let _ = s.elapsed_ns(); // just must not underflow/panic
    }
}
