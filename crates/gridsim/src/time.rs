//! Virtual experiment time.
//!
//! All NEESgrid components in this reproduction reckon time against a shared
//! [`SimClock`] rather than the wall clock. Actuator settle dynamics, DAQ
//! sampling, NTCP transaction timestamps, and network latency are all
//! expressed in [`SimTime`], which lets the full 1,500-step MOST experiment
//! (five hours of experiment time in the paper) replay in milliseconds while
//! preserving every time-derived quantity.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A point in (or span of) virtual time, with nanosecond resolution.
///
/// `SimTime` is used both as an instant (offset from experiment start) and as
/// a duration; earthquake-engineering time-steps (10 ms typical) and actuator
/// settle times (seconds) are both comfortably in range: the representable
/// span is ~584 years.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (experiment start) / zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            SimTime(0)
        } else {
            SimTime((s * 1e9).round() as u64)
        }
    }

    /// Nanoseconds since experiment start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: durations never go negative.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The larger of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A monotonically advancing shared virtual clock.
///
/// The clock only moves forward (`advance_to` uses an atomic `fetch_max`),
/// so components at different sites can each push it along without ever
/// observing it run backwards — mirroring how each lab's local processing
/// contributed to overall experiment elapsed time.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A new clock at `t = 0`, wrapped for sharing across components.
    pub fn new() -> Arc<Self> {
        Arc::new(SimClock {
            now_ns: AtomicU64::new(0),
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Acquire))
    }

    /// Advance the clock by `d`, returning the new time.
    pub fn advance(&self, d: SimTime) -> SimTime {
        let prev = self.now_ns.fetch_add(d.as_nanos(), Ordering::AcqRel);
        SimTime::from_nanos(prev + d.as_nanos())
    }

    /// Move the clock forward to at least `t` (no-op if already past).
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        self.now_ns.fetch_max(t.as_nanos(), Ordering::AcqRel);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(5).as_nanos(), 5_000_000_000);
        assert_eq!(SimTime::from_millis(10).as_secs_f64(), 0.01);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn negative_and_nonfinite_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let big = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!(big + SimTime::from_secs(10), SimTime::from_nanos(u64::MAX));
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(2), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs(1).saturating_sub(SimTime::from_secs(3)),
            SimTime::ZERO
        );
    }

    #[test]
    fn scalar_mul_div() {
        let step = SimTime::from_millis(10);
        assert_eq!(step * 1500, SimTime::from_secs(15));
        assert_eq!(SimTime::from_secs(15) / 1500, step);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_nanos(42).to_string(), "42ns");
    }

    #[test]
    fn clock_is_monotonic_under_advance_to() {
        let clock = SimClock::new();
        clock.advance_to(SimTime::from_secs(10));
        // Attempting to rewind is a no-op.
        clock.advance_to(SimTime::from_secs(5));
        assert_eq!(clock.now(), SimTime::from_secs(10));
        clock.advance(SimTime::from_secs(1));
        assert_eq!(clock.now(), SimTime::from_secs(11));
    }

    #[test]
    fn clock_concurrent_advance_accumulates() {
        let clock = SimClock::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.advance(SimTime::from_nanos(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(clock.now(), SimTime::from_nanos(4000));
    }

    #[test]
    fn max_of_instants() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }
}
