//! Virtual time.
//!
//! The simulated substrates (GPU runtime, frameworks, dataloaders) advance a
//! shared [`VirtualClock`] instead of reading wall-clock time, which makes
//! every experiment deterministic and lets device timelines be modelled
//! precisely. Wall-clock overhead measurements (Figure 6a/6b) are taken
//! separately with `std::time::Instant` around real profiler work.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point (or span) in virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(pub u64);

impl TimeNs {
    /// Zero time.
    pub const ZERO: TimeNs = TimeNs(0);

    /// Constructs from microseconds.
    pub fn from_us(us: u64) -> Self {
        TimeNs(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub fn from_ms(ms: u64) -> Self {
        TimeNs(ms * 1_000_000)
    }

    /// Constructs from seconds (fractional allowed).
    pub fn from_secs_f64(secs: f64) -> Self {
        TimeNs((secs * 1e9).round().max(0.0) as u64)
    }

    /// Nanoseconds as `u64`.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_sub(other.0))
    }
}

impl Add for TimeNs {
    type Output = TimeNs;

    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;

    fn sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A monotonically advancing shared virtual clock.
///
/// Cloneable handle (internally `Arc`), safe to advance from multiple
/// simulated threads.
///
/// # Examples
///
/// ```
/// use deepcontext_core::{TimeNs, VirtualClock};
///
/// let clock = VirtualClock::new();
/// clock.advance(TimeNs::from_us(5));
/// assert_eq!(clock.now(), TimeNs::from_us(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeNs {
        TimeNs(self.now.load(Ordering::SeqCst))
    }

    /// Advances the clock by `span`, returning the new time.
    pub fn advance(&self, span: TimeNs) -> TimeNs {
        TimeNs(self.now.fetch_add(span.0, Ordering::SeqCst) + span.0)
    }

    /// Moves the clock forward to at least `t`, returning the resulting
    /// time (no-op if the clock is already past `t`).
    pub fn advance_to(&self, t: TimeNs) -> TimeNs {
        let mut cur = self.now.load(Ordering::SeqCst);
        while cur < t.0 {
            match self
                .now
                .compare_exchange(cur, t.0, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        TimeNs(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(TimeNs::from_us(3).as_nanos(), 3_000);
        assert_eq!(TimeNs::from_ms(2).as_nanos(), 2_000_000);
        assert_eq!(TimeNs::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(TimeNs::from_secs_f64(1.5).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic_and_scale() {
        let a = TimeNs(100);
        let b = TimeNs(40);
        assert_eq!(a + b, TimeNs(140));
        assert_eq!(a - b, TimeNs(60));
        assert_eq!(b.saturating_sub(a), TimeNs::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(TimeNs(12).to_string(), "12ns");
        assert_eq!(TimeNs(1_500).to_string(), "1.500us");
        assert_eq!(TimeNs(2_500_000).to_string(), "2.500ms");
        assert_eq!(TimeNs(3_200_000_000).to_string(), "3.200s");
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), TimeNs::ZERO);
        c.advance(TimeNs(10));
        c.advance(TimeNs(5));
        assert_eq!(c.now(), TimeNs(15));
        c.advance_to(TimeNs(12)); // behind: no-op
        assert_eq!(c.now(), TimeNs(15));
        c.advance_to(TimeNs(20));
        assert_eq!(c.now(), TimeNs(20));
    }

    #[test]
    fn clock_handles_are_shared() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        c.advance(TimeNs(7));
        assert_eq!(c2.now(), TimeNs(7));
    }

    #[test]
    fn concurrent_advances_accumulate() {
        let c = VirtualClock::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(TimeNs(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), TimeNs(4000));
    }
}
