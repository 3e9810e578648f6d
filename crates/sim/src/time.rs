//! Simulated time.
//!
//! All simulation components measure time in integer nanoseconds via the
//! [`Nanos`] newtype. Using an integer type keeps the simulation exactly
//! deterministic (no floating-point accumulation drift), and the newtype
//! keeps nanoseconds from being confused with counters or byte sizes
//! (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in simulated nanoseconds.
///
/// `Nanos` is both a point on the simulation clock and a span between two
/// points; the engine does not need separate `Instant`/`Duration` types
/// because simulated time starts at zero.
///
/// # Example
///
/// ```
/// use xc_sim::time::Nanos;
///
/// let syscall = Nanos::from_nanos(60);
/// let million = syscall * 1_000_000;
/// assert_eq!(million.as_millis_f64(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration / the simulation epoch.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time (used as an "infinitely far" deadline).
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a `Nanos` from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a `Nanos` from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a `Nanos` from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a `Nanos` from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns zero instead of wrapping when
    /// `other > self`.
    #[inline]
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Saturating addition, clamping at [`Nanos::MAX`].
    #[inline]
    pub fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Saturating multiplication by an integer factor, clamping at
    /// [`Nanos::MAX`] — exponential-backoff schedules double delays
    /// repeatedly and must cap instead of overflowing.
    #[inline]
    pub const fn saturating_mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }

    /// Multiplies by a floating-point factor, rounding to the nearest
    /// nanosecond. Useful for environment speed scaling.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN.
    #[inline]
    pub fn scale(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0 && factor.is_finite(), "invalid scale factor");
        Nanos((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    /// Whether this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    /// Formats with an adaptive unit: `ns`, `µs`, `ms`, or `s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}µs", self.as_micros_f64())
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_secs(3).as_nanos(), 3_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_nanos(100);
        let b = Nanos::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(Nanos::MAX.saturating_add(a), Nanos::MAX);
        assert_eq!(a.saturating_mul(4).as_nanos(), 400);
        assert_eq!(Nanos::MAX.saturating_mul(2), Nanos::MAX);
    }

    #[test]
    fn scaling() {
        assert_eq!(Nanos::from_nanos(100).scale(1.5).as_nanos(), 150);
        assert_eq!(Nanos::from_nanos(100).scale(0.0), Nanos::ZERO);
    }

    #[test]
    fn display_adaptive_units() {
        assert_eq!(Nanos::from_nanos(999).to_string(), "999ns");
        assert_eq!(Nanos::from_nanos(1_500).to_string(), "1.50µs");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.00ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_and_ordering() {
        let total: Nanos = [1u64, 2, 3].iter().map(|&n| Nanos::from_nanos(n)).sum();
        assert_eq!(total.as_nanos(), 6);
        assert!(Nanos::from_nanos(5) < Nanos::from_nanos(6));
        assert_eq!(Nanos::from_nanos(5).max(Nanos::from_nanos(6)).as_nanos(), 6);
        assert_eq!(Nanos::from_nanos(5).min(Nanos::from_nanos(6)).as_nanos(), 5);
    }
}
