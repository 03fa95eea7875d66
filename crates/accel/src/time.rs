//! Simulated time.
//!
//! The paper's evaluation ran on a 6-node V100 cluster; this reproduction runs
//! on whatever machine runs it.  To keep the *shape* of the results (who
//! wins, by what factor, where crossovers fall) independent of the host,
//! costs are priced in **simulated milliseconds** from explicit analytic cost
//! models.  Real computation (shortest-path distances, PageRank values, …)
//! still happens; only wall-clock attribution is modelled.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        debug_assert!(ms.is_finite() && ms >= 0.0, "invalid duration {ms}");
        Self(ms.max(0.0))
    }

    /// Creates a duration from seconds.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_millis(secs * 1e3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_millis(us / 1e3)
    }

    /// The duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// The duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1e3
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Returns `true` if this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        Self((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_secs(1.5);
        assert_eq!(d.as_millis(), 1500.0);
        assert_eq!(d.as_secs(), 1.5);
        assert_eq!(SimDuration::from_micros(2500.0).as_millis(), 2.5);
    }

    #[test]
    fn arithmetic_behaves_like_numbers() {
        let a = SimDuration::from_millis(10.0);
        let b = SimDuration::from_millis(4.0);
        assert_eq!((a + b).as_millis(), 14.0);
        assert_eq!((a - b).as_millis(), 6.0);
        // Saturating subtraction.
        assert_eq!((b - a).as_millis(), 0.0);
        assert_eq!((a * 3.0).as_millis(), 30.0);
        assert_eq!((a / 2.0).as_millis(), 5.0);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_millis(), 18.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }
}
