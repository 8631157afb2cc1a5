//! Simulated time as an integer microsecond counter.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in microseconds.
///
/// A single type serves both instants and durations, as with `u64`
/// timestamps in most event-driven simulators; the arithmetic impls below
/// are the ones meaningful under that reading.
///
/// # Examples
///
/// ```
/// use decluster_sim::SimTime;
///
/// let t = SimTime::from_ms(13) + SimTime::from_us(900);
/// assert_eq!(t.as_us(), 13_900);
/// assert!(t < SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from fractional milliseconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_ms_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "SimTime::from_ms_f64 requires a finite non-negative value, got {ms}"
        );
        SimTime((ms * 1_000.0).round() as u64)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "SimTime::from_secs_f64 requires a finite non-negative value, got {s}"
        );
        SimTime((s * 1_000_000.0).round() as u64)
    }

    /// This time as whole microseconds.
    pub const fn as_us(self) -> u64 {
        self.0
    }

    /// This time as fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_ms(2_000));
        assert_eq!(SimTime::from_ms(3), SimTime::from_us(3_000));
        assert_eq!(SimTime::from_ms_f64(1.5), SimTime::from_us(1_500));
        assert_eq!(SimTime::from_secs_f64(0.25), SimTime::from_ms(250));
    }

    #[test]
    fn round_trips() {
        let t = SimTime::from_us(1_234_567);
        assert!((t.as_secs_f64() - 1.234567).abs() < 1e-12);
        assert!((t.as_ms_f64() - 1234.567).abs() < 1e-9);
        assert_eq!(t.as_us(), 1_234_567);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(10);
        let b = SimTime::from_ms(4);
        assert_eq!(a + b, SimTime::from_ms(14));
        assert_eq!(a - b, SimTime::from_ms(6));
        assert_eq!(a * 3, SimTime::from_ms(30));
        assert_eq!(a / 2, SimTime::from_ms(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        c -= SimTime::from_ms(1);
        assert_eq!(c, SimTime::from_ms(13));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_us(1) < SimTime::from_us(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_ms).sum();
        assert_eq!(total, SimTime::from_ms(10));
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimTime::from_us(7).to_string(), "7us");
        assert_eq!(SimTime::from_us(1_500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_ms(2_500).to_string(), "2.500s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ms_panics() {
        let _ = SimTime::from_ms_f64(-1.0);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_us(1)), None);
        assert_eq!(
            SimTime::from_us(1).checked_add(SimTime::from_us(2)),
            Some(SimTime::from_us(3))
        );
    }
}
