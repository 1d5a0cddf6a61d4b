//! Virtual time for the discrete-event simulator.
//!
//! Times are nanoseconds since the scenario epoch (a wall-clock instant the
//! scenario chooses, e.g. 2023-01-12 00:00 UTC). Durations are nanosecond
//! counts. Both are plain `u64` newtypes: cheap, ordered, and deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (ns since the scenario epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The scenario epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncating) — the granularity of the
    /// collection pipeline's timestamps.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since the epoch as a float, for reporting.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub(crate) const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs * 1_000_000_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating doubling — used for exponential retransmission backoff.
    pub(crate) fn double(self) -> SimDuration {
        SimDuration(self.0.saturating_mul(2))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 10_500_000_000);
        assert_eq!(t.as_secs(), 10);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
    }

    #[test]
    fn quantization_truncates() {
        let t = SimTime(1_999_999_999);
        assert_eq!(t.as_secs(), 1);
    }

    #[test]
    fn backoff_doubles() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.double(), SimDuration::from_secs(2));
        assert_eq!(d.double().double(), SimDuration::from_secs(4));
    }
}
