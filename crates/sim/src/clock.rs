//! The simulation clock.
//!
//! The whole stack advances in fixed-size ticks. A [`Clock`] owns the
//! current instant and the tick length; components receive the clock's
//! `now()` when they need timestamps and the tick length when they need
//! to convert per-tick quantities into rates.

use crate::time::{SimDuration, SimTime};

/// A fixed-step simulation clock.
///
/// # Example
///
/// ```
/// use tmo_sim::{Clock, SimDuration};
///
/// let mut clock = Clock::new(SimDuration::from_millis(100));
/// for _ in 0..10 {
///     clock.tick();
/// }
/// assert_eq!(clock.now().as_secs(), 1);
/// assert_eq!(clock.ticks(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Clock {
    now: SimTime,
    tick: SimDuration,
    ticks: u64,
}

impl Clock {
    /// Creates a clock at time zero with the given tick length.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    pub fn new(tick: SimDuration) -> Self {
        assert!(!tick.is_zero(), "tick length must be non-zero");
        Clock {
            now: SimTime::ZERO,
            tick,
            ticks: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The tick length.
    pub fn tick_len(&self) -> SimDuration {
        self.tick
    }

    /// Number of ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Advances the clock by one tick and returns the new instant.
    pub fn tick(&mut self) -> SimTime {
        self.now += self.tick;
        self.ticks += 1;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_accumulate() {
        let mut c = Clock::new(SimDuration::from_secs(1));
        assert_eq!(c.tick(), SimTime::from_secs(1));
        assert_eq!(c.tick(), SimTime::from_secs(2));
        assert_eq!(c.ticks(), 2);
    }

    #[test]
    #[should_panic(expected = "tick length must be non-zero")]
    fn zero_tick_panics() {
        let _ = Clock::new(SimDuration::ZERO);
    }
}
