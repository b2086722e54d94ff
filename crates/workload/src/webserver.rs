//! The Web request-serving model (§4.2).
//!
//! The paper's Web application self-regulates: "The performance metric
//! is requests per second (RPS) with a predefined target tail latency.
//! Each server automatically throttles its RPS in order to meet the tail
//! latency", and additionally throttles as the host approaches its
//! memory limit to avoid running out of memory. This module models that
//! controller: AIMD admission against a tail-latency estimate plus a
//! free-memory watermark.

use tmo_sim::SimDuration;

/// Per-request service time excluding fault stalls.
const BASE_LATENCY: SimDuration = SimDuration::from_millis(60);
/// Tail-latency target the server throttles to.
const TARGET_LATENCY: SimDuration = SimDuration::from_millis(70);
const _: () = assert!(
    TARGET_LATENCY.as_nanos() > BASE_LATENCY.as_nanos(),
    "target latency must exceed base service time"
);
/// Pages touched per request: the factor that turns the host's mean
/// per-access fault stall into a per-request stall.
pub const PAGES_PER_REQUEST: u32 = 64;
/// Multiplier mapping mean per-request stall to estimated tail stall
/// (burstiness).
const TAIL_FACTOR: f64 = 6.0;
/// Free-memory fraction below which the server throttles to avoid OOM.
const MEMORY_WATERMARK: f64 = 0.04;
/// Additive increase per tick as a fraction of `max_rps`.
const RAMP_FRACTION: f64 = 0.02;

/// Static parameters of the Web serving model.
#[derive(Debug, Clone, PartialEq)]
pub struct WebServerConfig {
    /// Peak RPS the host can serve when unconstrained.
    pub max_rps: f64,
}

impl Default for WebServerConfig {
    fn default() -> Self {
        WebServerConfig { max_rps: 700.0 }
    }
}

/// A diurnal load pattern: the fraction of peak demand offered at a
/// given time of (simulated) day, following the classic interactive
/// traffic curve — a daytime peak and a nighttime trough. The paper's
/// pressure spikes come from "overlapping peaks in a system's main
/// workload and a system maintenance process" (§3.2.4); this modifier
/// produces those peaks.
///
/// # Example
///
/// ```
/// use tmo_sim::SimTime;
/// use tmo_workload::webserver::DiurnalPattern;
///
/// let day = DiurnalPattern::new(0.4); // trough at 40% of peak
/// // Peak (midday) vs trough (midnight) demand:
/// let noon = day.demand_fraction(SimTime::from_secs(12 * 3600));
/// let midnight = day.demand_fraction(SimTime::ZERO);
/// assert!((noon - 1.0).abs() < 1e-9);
/// assert!((midnight - 0.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalPattern {
    trough: f64,
    period_secs: f64,
}

impl DiurnalPattern {
    /// Seconds in one simulated day.
    pub const DAY_SECS: f64 = 24.0 * 3600.0;

    /// Creates a pattern whose nighttime trough is `trough` of peak
    /// demand, over a real 24 h period.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < trough <= 1`.
    pub fn new(trough: f64) -> Self {
        DiurnalPattern::with_period(trough, Self::DAY_SECS)
    }

    /// Creates a pattern over a custom period (time-compressed "days"
    /// for simulations that cannot afford 24 simulated hours).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < trough <= 1` and `period_secs > 0`.
    pub fn with_period(trough: f64, period_secs: f64) -> Self {
        assert!(
            trough > 0.0 && trough <= 1.0,
            "trough {trough} out of (0, 1]"
        );
        assert!(
            period_secs > 0.0 && period_secs.is_finite(),
            "invalid period {period_secs}"
        );
        DiurnalPattern {
            trough,
            period_secs,
        }
    }

    /// Demand as a fraction of peak at simulated time `now` (midnight at
    /// t = 0, peak at half-period, sinusoidal in between).
    pub fn demand_fraction(&self, now: tmo_sim::SimTime) -> f64 {
        let day_phase = (now.as_secs_f64() % self.period_secs) / self.period_secs;
        // cos is 1 at midnight, -1 at noon; map to [trough, 1].
        let wave = (1.0 - (day_phase * std::f64::consts::TAU).cos()) / 2.0;
        self.trough + (1.0 - self.trough) * wave
    }
}

/// The Web admission controller.
///
/// # Example
///
/// ```
/// use tmo_sim::SimDuration;
/// use tmo_workload::{WebServerConfig, WebServerModel};
///
/// let mut web = WebServerModel::new(WebServerConfig::default());
/// // Healthy host: RPS ramps toward max.
/// for _ in 0..200 {
///     web.observe(SimDuration::ZERO, 0.5);
/// }
/// assert!(web.rps() > 650.0);
/// ```
#[derive(Debug, Clone)]
pub struct WebServerModel {
    config: WebServerConfig,
    rps: f64,
}

impl WebServerModel {
    /// Creates a server starting at half throttle.
    ///
    /// # Panics
    ///
    /// Panics if the config's `max_rps` is not positive.
    pub fn new(config: WebServerConfig) -> Self {
        assert!(config.max_rps > 0.0, "max_rps must be positive");
        WebServerModel {
            rps: config.max_rps / 2.0,
            config,
        }
    }

    /// The config.
    pub fn config(&self) -> &WebServerConfig {
        &self.config
    }

    /// Current admitted request rate.
    pub fn rps(&self) -> f64 {
        self.rps
    }

    /// Requests to admit in a tick of `dt`.
    pub fn admitted(&self, dt: SimDuration) -> f64 {
        self.rps * dt.as_secs_f64()
    }

    /// Estimated tail latency for a given mean per-request fault stall.
    fn estimated_tail(mean_request_stall: SimDuration) -> SimDuration {
        BASE_LATENCY + mean_request_stall.mul_f64(TAIL_FACTOR)
    }

    /// Feeds back one tick's observation: the mean fault stall added to
    /// each request, and the host's free-memory fraction. Adjusts the
    /// admitted RPS (AIMD on latency, proportional throttle on memory).
    pub fn observe(&mut self, mean_request_stall: SimDuration, free_fraction: f64) {
        let tail = Self::estimated_tail(mean_request_stall);
        if tail > TARGET_LATENCY {
            // Multiplicative decrease, harder the further over target.
            let over = tail.as_secs_f64() / TARGET_LATENCY.as_secs_f64();
            let factor = (1.0 / over).max(0.7);
            self.rps *= factor;
        } else {
            self.rps += self.config.max_rps * RAMP_FRACTION;
        }
        // Memory self-regulation: approaching the limit caps RPS
        // proportionally (the Figure 11 baseline decay).
        if free_fraction < MEMORY_WATERMARK {
            // The server sheds load but keeps serving: production Web
            // degrades by tens of percent, it does not stop (Fig. 11).
            let cap = self.config.max_rps * (free_fraction / MEMORY_WATERMARK).clamp(0.6, 1.0);
            self.rps = self.rps.min(cap);
        }
        self.rps = self
            .rps
            .clamp(self.config.max_rps * 0.02, self.config.max_rps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WebServerModel {
        WebServerModel::new(WebServerConfig::default())
    }

    #[test]
    fn ramps_to_max_when_healthy() {
        let mut web = model();
        for _ in 0..300 {
            web.observe(SimDuration::ZERO, 0.5);
        }
        assert!((web.rps() - 700.0).abs() < 1.0);
    }

    #[test]
    fn throttles_under_fault_stall() {
        let mut web = model();
        for _ in 0..300 {
            web.observe(SimDuration::ZERO, 0.5);
        }
        // 30 ms of mean stall → tail estimate 60+180=240ms > 70ms target.
        for _ in 0..50 {
            web.observe(SimDuration::from_millis(30), 0.5);
        }
        assert!(web.rps() < 500.0, "rps {}", web.rps());
    }

    #[test]
    fn recovers_after_stall_clears() {
        let mut web = model();
        for _ in 0..50 {
            web.observe(SimDuration::from_millis(50), 0.5);
        }
        let low = web.rps();
        for _ in 0..300 {
            web.observe(SimDuration::ZERO, 0.5);
        }
        assert!(web.rps() > low * 2.0);
    }

    #[test]
    fn memory_pressure_caps_rps() {
        let mut web = model();
        for _ in 0..300 {
            web.observe(SimDuration::ZERO, 0.5);
        }
        // 1% free against a 4% watermark hits the 60%-of-max floor.
        for _ in 0..50 {
            web.observe(SimDuration::ZERO, 0.01);
        }
        assert!(web.rps() <= 700.0 * 0.6 + 1.0, "rps {}", web.rps());
        assert!(web.rps() >= 700.0 * 0.6 - 1.0, "rps {}", web.rps());
    }

    #[test]
    fn never_drops_to_zero() {
        let mut web = model();
        for _ in 0..500 {
            web.observe(SimDuration::from_secs(1), 0.0);
        }
        assert!(web.rps() >= 700.0 * 0.02 - 1e-9);
    }

    #[test]
    fn admitted_scales_with_dt() {
        let web = model();
        let one = web.admitted(SimDuration::from_secs(1));
        let half = web.admitted(SimDuration::from_millis(500));
        assert!((one - 2.0 * half).abs() < 1e-9);
    }

    #[test]
    fn diurnal_pattern_cycles_daily() {
        let day = DiurnalPattern::new(0.3);
        let at = |h: u64| day.demand_fraction(tmo_sim::SimTime::from_secs(h * 3600));
        assert!((at(0) - 0.3).abs() < 1e-9);
        assert!((at(12) - 1.0).abs() < 1e-9);
        assert!((at(24) - 0.3).abs() < 1e-9); // wraps
        assert!(at(6) > at(3)); // morning ramp
        assert!((at(6) - at(18)).abs() < 1e-9); // symmetric shoulders
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn diurnal_rejects_zero_trough() {
        let _ = DiurnalPattern::new(0.0);
    }
}
