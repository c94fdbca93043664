//! Virtual time.
//!
//! Every duration in the reproduction — Algorithm 1's per-CMDCL budget
//! `C_T`, the 24-hour trials, Table III's outage windows (68 s, 4 min, …)
//! and Figure 12's time axis — runs on this simulated clock, so a full
//! campaign completes in milliseconds of wall-clock time and is exactly
//! reproducible.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

/// A point in simulated time, measured in microseconds since clock start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The clock epoch.
    pub const ZERO: SimInstant = SimInstant(0);

    /// The instant `micros` microseconds after the epoch.
    pub fn from_micros(micros: u64) -> SimInstant {
        SimInstant(micros)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for plotting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`; saturates at zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimInstant) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// This instant advanced by `d`, saturating at the last instant: a
    /// deadline past the end of time means "no deadline", never one that
    /// wraps round to the past.
    #[must_use]
    pub fn plus(self, d: Duration) -> SimInstant {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        SimInstant(self.0.saturating_add(micros))
    }
}

impl std::fmt::Display for SimInstant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

/// A shared, monotically advancing virtual clock.
///
/// Cloning yields another handle onto the same clock. The handles share a
/// plain `Cell`, not an atomic: a clock belongs to one home, and a home is
/// built and run on one thread, so the clock is `!Send` by design.
///
/// ```
/// use std::time::Duration;
/// use zwave_radio::clock::SimClock;
///
/// let clock = SimClock::new();
/// let t0 = clock.now();
/// clock.advance(Duration::from_secs(68));
/// assert_eq!(clock.now().duration_since(t0), Duration::from_secs(68));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at `t = 0`.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        SimInstant(self.micros.get())
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.micros.set(self.micros.get().wrapping_add(d.as_micros() as u64));
    }

    /// Advances to `target` if it is in the future; no-op otherwise.
    pub fn advance_to(&self, target: SimInstant) {
        self.micros.set(self.micros.get().max(target.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimInstant::ZERO);
        c.advance(Duration::from_millis(1500));
        assert_eq!(c.now().as_micros(), 1_500_000);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.now().as_micros(), 1_000_000);
        b.advance(Duration::from_secs(2));
        assert_eq!(a.now().as_micros(), 3_000_000);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance(Duration::from_secs(10));
        c.advance_to(SimInstant(5_000_000));
        assert_eq!(c.now().as_micros(), 10_000_000);
        c.advance_to(SimInstant(20_000_000));
        assert_eq!(c.now().as_micros(), 20_000_000);
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimInstant(5);
        let late = SimInstant(10);
        assert_eq!(early.duration_since(late), Duration::ZERO);
        assert_eq!(late.duration_since(early), Duration::from_micros(5));
    }

    #[test]
    fn plus_saturates_at_the_last_instant() {
        let near_end = SimInstant(u64::MAX - 1);
        assert_eq!(near_end.plus(Duration::from_micros(1)), SimInstant(u64::MAX));
        assert_eq!(near_end.plus(Duration::from_micros(2)), SimInstant(u64::MAX));
        assert_eq!(near_end.plus(Duration::from_secs(3600)), SimInstant(u64::MAX));
        // A duration whose microseconds overflow u64 saturates too.
        assert_eq!(SimInstant::ZERO.plus(Duration::MAX), SimInstant(u64::MAX));
        assert_eq!(SimInstant(7).plus(Duration::from_micros(3)), SimInstant(10));
    }

    #[test]
    fn instant_arithmetic_and_display() {
        let t = SimInstant::ZERO.plus(Duration::from_millis(2500));
        assert_eq!(t.as_secs_f64(), 2.5);
        assert_eq!(t.to_string(), "t=2.500s");
    }
}
