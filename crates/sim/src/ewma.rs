//! Exponentially weighted moving averages over irregular sampling
//! periods.
//!
//! PSI's avg10/avg60/avg300 (§3.2), the per-cgroup refault, swap-in
//! and swap-out rates that balance reclaim (§3.4), the SSD queues'
//! arrival rates and the SSD write rate behind endurance regulation
//! (§4.5) all fold a sample observed over a period `dt` the same way:
//!
//! ```text
//! decay = exp(-dt / window)
//! value = value * decay + sample * (1 - decay)
//! ```
//!
//! which reduces to the kernel's fixed-point PSI update when `dt` is its
//! 2 s sampling period. [`Ewma`] is that fold; [`RateCounter`] counts
//! events between folds and feeds their per-second rate through one.

use crate::time::SimDuration;

/// One exponentially decayed running average.
///
/// Simulation ticks are almost always fixed-length, so the decay factor
/// is cached per sampling period: the `exp` runs once per change of
/// `dt`, not once per update, and the cached factor is the very `f64`
/// that recomputing it would give, so every value is unchanged.
///
/// # Example
///
/// ```
/// use tmo_sim::{Ewma, SimDuration};
///
/// let mut avg = Ewma::new(SimDuration::from_secs(10));
/// for _ in 0..100 {
///     avg.update(0.5, SimDuration::from_secs(2));
/// }
/// assert!((avg.value() - 0.5).abs() < 1e-6); // converges to the input
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    window_secs: f64,
    value: f64,
    /// Sampling period `cached_decay` was computed for.
    cached_dt_secs: f64,
    cached_decay: f64,
}

impl Ewma {
    /// Creates a zeroed average over the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "averaging window must be non-zero");
        Ewma {
            window_secs: window.as_secs_f64(),
            value: 0.0,
            cached_dt_secs: 0.0,
            cached_decay: 1.0,
        }
    }

    /// The current average.
    #[inline]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Folds in `sample`, observed over `dt`. A zero `dt` is a no-op.
    #[inline]
    pub fn update(&mut self, sample: f64, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let dt_secs = dt.as_secs_f64();
        if dt_secs != self.cached_dt_secs {
            self.cached_dt_secs = dt_secs;
            self.cached_decay = (-dt_secs / self.window_secs).exp();
        }
        let decay = self.cached_decay;
        self.value = self.value * decay + sample * (1.0 - decay);
    }
}

/// A decaying event-rate estimate (events/second): events counted with
/// [`RateCounter::add`] are folded into an [`Ewma`] as one rate per
/// [`RateCounter::tick`].
///
/// # Example
///
/// ```
/// use tmo_sim::{RateCounter, SimDuration};
///
/// let mut r = RateCounter::new(SimDuration::from_secs(30));
/// for _ in 0..120 {
///     r.add(10);
///     r.tick(SimDuration::from_secs(1)); // 10 events/s sustained
/// }
/// assert!((r.rate() - 10.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCounter {
    /// Events since the last non-zero tick.
    pending: u64,
    total: u64,
    rate: Ewma,
}

impl RateCounter {
    /// Creates a counter with the given averaging window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        RateCounter {
            pending: 0,
            total: 0,
            rate: Ewma::new(window),
        }
    }

    /// Records `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
        self.total += n;
    }

    /// Folds the pending events into the rate as `pending / dt`; call
    /// once per tick. A zero `dt` folds nothing and keeps the events
    /// pending for the next tick.
    #[inline]
    pub fn tick(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        self.rate.update(self.pending as f64 / dt.as_secs_f64(), dt);
        self.pending = 0;
    }

    /// Smoothed events/second.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate.value()
    }

    /// Cumulative event count (monotonic, like a `memory.stat` counter).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: SimDuration = SimDuration::from_secs(10);

    #[test]
    fn converges_to_constant_input() {
        let mut avg = Ewma::new(WINDOW);
        for _ in 0..200 {
            avg.update(0.3, SimDuration::from_secs(2));
        }
        assert!((avg.value() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn decays_toward_zero_after_input_stops() {
        let mut avg = Ewma::new(WINDOW);
        avg.update(1.0, SimDuration::from_secs(10));
        let peak = avg.value();
        for _ in 0..50 {
            avg.update(0.0, SimDuration::from_secs(2));
        }
        assert!(avg.value() < peak * 0.01);
    }

    #[test]
    fn zero_dt_is_noop() {
        let mut avg = Ewma::new(WINDOW);
        avg.update(1.0, SimDuration::ZERO);
        assert_eq!(avg.value(), 0.0);
    }

    #[test]
    fn single_large_dt_jumps_close_to_input() {
        let mut avg = Ewma::new(WINDOW);
        avg.update(0.8, SimDuration::from_secs(100)); // 10 windows
        assert!((avg.value() - 0.8).abs() < 1e-4);
    }

    #[test]
    fn cached_decay_matches_recomputing_exp_bit_for_bit() {
        // The period changes mid-stream, returns to an earlier value and
        // passes through zero: the cache must refresh on every change.
        let dts_ms = [
            100, 100, 100, 250, 250, 100, 0, 100, 2_000, 2_000, 7, 100, 100,
        ];
        let mut avg = Ewma::new(WINDOW);
        let mut reference = 0.0f64;
        for (step, &ms) in dts_ms.iter().enumerate() {
            let sample = (step as f64 * 0.37).sin().abs();
            let dt = SimDuration::from_millis(ms);
            avg.update(sample, dt);
            if ms != 0 {
                let decay = (-dt.as_secs_f64() / WINDOW.as_secs_f64()).exp();
                reference = reference * decay + sample * (1.0 - decay);
            }
            assert_eq!(
                avg.value().to_bits(),
                reference.to_bits(),
                "step {step}: dt {ms} ms"
            );
        }
    }

    #[test]
    #[should_panic(expected = "averaging window must be non-zero")]
    fn zero_window_panics() {
        let _ = Ewma::new(SimDuration::ZERO);
    }

    #[test]
    fn rate_counter_converges_and_decays() {
        let mut r = RateCounter::new(WINDOW);
        for _ in 0..100 {
            r.add(5);
            r.tick(SimDuration::from_secs(1));
        }
        assert!((r.rate() - 5.0).abs() < 0.1, "rate {}", r.rate());
        for _ in 0..100 {
            r.tick(SimDuration::from_secs(1));
        }
        assert!(r.rate() < 0.01);
        assert_eq!(r.total(), 500);
    }

    #[test]
    fn rate_counter_keeps_events_across_a_zero_dt_tick() {
        let mut r = RateCounter::new(WINDOW);
        r.add(3);
        r.tick(SimDuration::ZERO);
        assert_eq!(r.rate(), 0.0);
        assert_eq!(r.total(), 3);
        // The next real tick folds all five events, the three from
        // before the zero tick included.
        r.add(2);
        r.tick(SimDuration::from_secs(1));
        let mut want = Ewma::new(WINDOW);
        want.update(5.0, SimDuration::from_secs(1));
        assert_eq!(r.rate().to_bits(), want.value().to_bits());
        assert_eq!(r.total(), 5);
    }

    #[test]
    #[should_panic(expected = "averaging window must be non-zero")]
    fn rate_counter_zero_window_panics() {
        let _ = RateCounter::new(SimDuration::ZERO);
    }
}
