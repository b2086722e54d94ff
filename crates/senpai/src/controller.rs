//! The Senpai control law.

use std::collections::BTreeMap;

use tmo_sim::{ByteSize, SimTime};

use crate::config::SenpaiConfig;

/// Everything Senpai reads about one container before deciding how much
/// to reclaim — the userspace view assembled from `memory.current`,
/// `memory.pressure`, `io.pressure`, and device counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerSignal {
    /// `memory.current` of the container.
    pub current_mem: ByteSize,
    /// `some` avg10 from `memory.pressure` (ratio in `[0, 1]`).
    pub mem_some_avg10: f64,
    /// `some` avg10 from `io.pressure`.
    pub io_some_avg10: f64,
    /// Recent write rate of the swap device in MB/s (0 when no swap).
    pub swap_write_mbps: f64,
    /// Whether the last reclaim hit swap-space exhaustion.
    pub swap_full: bool,
    /// Strict-SLA container: never reclaimed proactively.
    pub protected: bool,
    /// Relaxed-SLA container (memory tax): tolerate higher pressure.
    pub relaxed: bool,
    /// The pressure sample is stale (telemetry stall); reclaiming on a
    /// stale reading risks shrinking a container whose pressure already
    /// spiked, so Senpai holds off conservatively.
    pub stale: bool,
}

impl Default for ContainerSignal {
    fn default() -> Self {
        ContainerSignal {
            current_mem: ByteSize::ZERO,
            mem_some_avg10: 0.0,
            io_some_avg10: 0.0,
            swap_write_mbps: 0.0,
            swap_full: false,
            protected: false,
            relaxed: false,
            stale: false,
        }
    }
}

/// What bounded a reclaim decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Memory pressure at or above threshold — no reclaim.
    MemPressure,
    /// IO pressure gate reduced or zeroed the step.
    IoPressure,
    /// Write-endurance regulation reduced or zeroed the step.
    WriteRate,
    /// The per-period step cap bound.
    MaxStep,
    /// The container is protected.
    Protected,
    /// The pressure sample was stale or missing — conservative
    /// hold-off until fresh telemetry returns.
    StaleSignal,
    /// Recent reclaim attempts failed; exponential backoff reduced or
    /// zeroed the step.
    Backoff,
}

/// One reclaim decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimDecision {
    /// Bytes to reclaim this period (possibly zero).
    pub reclaim: ByteSize,
    /// The strongest factor that limited the step, if any.
    pub limited_by: Option<Limiter>,
}

impl ReclaimDecision {
    fn zero(limiter: Limiter) -> Self {
        ReclaimDecision {
            reclaim: ByteSize::ZERO,
            limited_by: Some(limiter),
        }
    }
}

/// Multiplier applied to both pressure thresholds for relaxed-SLA
/// (tax) containers, letting them run at higher pressure.
const RELAXED_MULTIPLIER: f64 = 4.0;

/// Exponent cap for reclaim-failure backoff (factor `2^-10` ≈ 0.1%).
const MAX_BACKOFF_EXP: u32 = 10;

/// The Senpai controller. Stateless between periods except for its
/// schedule and per-container reclaim-failure backoff; see the
/// [crate docs](crate) for the control law.
#[derive(Debug, Clone)]
pub struct Senpai {
    config: SenpaiConfig,
    next_run: SimTime,
    /// Consecutive failed reclaims per container, for exponential
    /// backoff. Cleared by the first successful reclaim.
    failures: BTreeMap<usize, u32>,
}

impl Senpai {
    /// Creates a controller that first runs one interval after start.
    pub fn new(config: SenpaiConfig) -> Self {
        let next_run = SimTime::ZERO + config.interval;
        Senpai {
            config,
            next_run,
            failures: BTreeMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SenpaiConfig {
        &self.config
    }

    /// Whether a reclaim period is due; advances the schedule when so.
    /// Call once per simulation tick.
    pub fn due(&mut self, now: SimTime) -> bool {
        if now >= self.next_run {
            self.next_run = now + self.config.interval;
            true
        } else {
            false
        }
    }

    /// Time of the next scheduled period.
    pub fn next_run(&self) -> SimTime {
        self.next_run
    }

    /// Applies the control law to one container.
    pub fn decide(&self, signal: &ContainerSignal) -> ReclaimDecision {
        if signal.protected {
            return ReclaimDecision::zero(Limiter::Protected);
        }
        // A stale pressure reading could hide a spike that started
        // after the last fresh sample; shrinking on it risks real harm,
        // so hold off until telemetry recovers (chaos hardening).
        if signal.stale {
            return ReclaimDecision::zero(Limiter::StaleSignal);
        }
        let slack = if signal.relaxed {
            RELAXED_MULTIPLIER
        } else {
            1.0
        };

        // The paper's core law: back off linearly as pressure
        // approaches the threshold.
        let mem_threshold = self.config.psi_threshold * slack;
        let mem_term = (1.0 - signal.mem_some_avg10 / mem_threshold).max(0.0);
        if mem_term == 0.0 {
            return ReclaimDecision::zero(Limiter::MemPressure);
        }

        // IO-pressure gate (§3.3: "the memory PSI metrics alone are
        // insufficient" — Senpai also monitors IO pressure).
        let io_threshold = self.config.io_threshold * slack;
        let io_term = (1.0 - signal.io_some_avg10 / io_threshold).max(0.0);
        if io_term == 0.0 {
            return ReclaimDecision::zero(Limiter::IoPressure);
        }

        let mut limited = None;
        let mut term = mem_term;
        if io_term < mem_term {
            term = io_term;
            limited = Some(Limiter::IoPressure);
        }

        let mut reclaim = signal.current_mem.mul_f64(self.config.reclaim_ratio * term);

        // §4.5 write-endurance regulation: scale the step down as the
        // device write rate approaches the limit.
        if let Some(limit) = self.config.write_limit_mbps {
            let factor = (1.0 - signal.swap_write_mbps / limit).max(0.0);
            if factor < 1.0 {
                reclaim = reclaim.mul_f64(factor);
                limited = Some(Limiter::WriteRate);
            }
            if factor == 0.0 {
                return ReclaimDecision::zero(Limiter::WriteRate);
            }
        }

        // Per-period step cap ("The maximum is 1% of the total workload
        // size in each reclaim period").
        let cap = signal.current_mem.mul_f64(self.config.max_step_fraction);
        if reclaim > cap {
            reclaim = cap;
            limited = Some(Limiter::MaxStep);
        }

        ReclaimDecision {
            reclaim,
            limited_by: limited,
        }
    }

    /// Applies the control law for a specific container, including its
    /// reclaim-failure backoff: after `n` consecutive failed reclaims
    /// the step is scaled by `2^-n` until one succeeds.
    pub fn decide_for(&self, container: usize, signal: &ContainerSignal) -> ReclaimDecision {
        let mut decision = self.decide(signal);
        let failures = self.failures.get(&container).copied().unwrap_or(0);
        if failures > 0 && !decision.reclaim.is_zero() {
            let factor = 0.5f64.powi(failures.min(MAX_BACKOFF_EXP) as i32);
            decision.reclaim = decision.reclaim.mul_f64(factor);
            decision.limited_by = Some(Limiter::Backoff);
        }
        decision
    }

    /// Records whether the last reclaim attempt for `container` freed
    /// anything; failures grow the backoff, the first success clears it.
    pub fn note_outcome(&mut self, container: usize, ok: bool) {
        if ok {
            self.failures.remove(&container);
        } else {
            let n = self.failures.entry(container).or_insert(0);
            *n = (*n + 1).min(MAX_BACKOFF_EXP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gib() -> ByteSize {
        ByteSize::from_gib(1)
    }

    fn calm() -> ContainerSignal {
        ContainerSignal {
            current_mem: gib(),
            ..ContainerSignal::default()
        }
    }

    fn senpai() -> Senpai {
        Senpai::new(SenpaiConfig {
            write_limit_mbps: None,
            ..SenpaiConfig::production()
        })
    }

    #[test]
    fn zero_pressure_reclaims_full_ratio() {
        let d = senpai().decide(&calm());
        assert_eq!(d.reclaim, gib().mul_f64(0.0005));
        assert_eq!(d.limited_by, None);
    }

    #[test]
    fn reclaim_shrinks_linearly_with_pressure() {
        let s = senpai();
        let half = s.decide(&ContainerSignal {
            mem_some_avg10: 0.0005, // half the 0.1% threshold
            ..calm()
        });
        assert_eq!(half.reclaim, gib().mul_f64(0.0005 * 0.5));
    }

    #[test]
    fn at_threshold_no_reclaim() {
        let s = senpai();
        let d = s.decide(&ContainerSignal {
            mem_some_avg10: 0.001,
            ..calm()
        });
        assert_eq!(d.reclaim, ByteSize::ZERO);
        assert_eq!(d.limited_by, Some(Limiter::MemPressure));
        // And above threshold too.
        let d = s.decide(&ContainerSignal {
            mem_some_avg10: 0.05,
            ..calm()
        });
        assert_eq!(d.reclaim, ByteSize::ZERO);
    }

    #[test]
    fn io_pressure_gates_even_when_memory_calm() {
        let s = senpai();
        let d = s.decide(&ContainerSignal {
            io_some_avg10: 0.01, // way over the 0.1% IO threshold
            ..calm()
        });
        assert_eq!(d.reclaim, ByteSize::ZERO);
        assert_eq!(d.limited_by, Some(Limiter::IoPressure));
    }

    #[test]
    fn io_pressure_scales_step_when_binding() {
        let s = senpai();
        let d = s.decide(&ContainerSignal {
            io_some_avg10: 0.0008, // 80% of threshold → term 0.2
            ..calm()
        });
        assert_eq!(d.limited_by, Some(Limiter::IoPressure));
        let expected = gib().mul_f64(0.0005 * 0.2);
        let diff = d.reclaim.as_u64().abs_diff(expected.as_u64());
        assert!(diff <= 1, "{} vs {}", d.reclaim, expected);
    }

    #[test]
    fn protected_containers_are_never_touched() {
        let d = senpai().decide(&ContainerSignal {
            protected: true,
            ..calm()
        });
        assert_eq!(d.reclaim, ByteSize::ZERO);
        assert_eq!(d.limited_by, Some(Limiter::Protected));
    }

    #[test]
    fn relaxed_containers_tolerate_more_pressure() {
        let s = senpai();
        let signal = ContainerSignal {
            mem_some_avg10: 0.002, // 2x the normal threshold
            ..calm()
        };
        assert_eq!(s.decide(&signal).reclaim, ByteSize::ZERO);
        let relaxed = ContainerSignal {
            relaxed: true,
            ..signal
        };
        assert!(s.decide(&relaxed).reclaim > ByteSize::ZERO);
    }

    #[test]
    fn write_regulation_modulates_to_limit() {
        let s = Senpai::new(SenpaiConfig::production()); // 1 MB/s limit
        let half = s.decide(&ContainerSignal {
            swap_write_mbps: 0.5,
            ..calm()
        });
        assert_eq!(half.limited_by, Some(Limiter::WriteRate));
        assert_eq!(half.reclaim, gib().mul_f64(0.0005 * 0.5));
        let over = s.decide(&ContainerSignal {
            swap_write_mbps: 1.5,
            ..calm()
        });
        assert_eq!(over.reclaim, ByteSize::ZERO);
        assert_eq!(over.limited_by, Some(Limiter::WriteRate));
    }

    #[test]
    fn unregulated_config_ignores_write_rate() {
        let d = senpai().decide(&ContainerSignal {
            swap_write_mbps: 100.0,
            ..calm()
        });
        assert!(d.reclaim > ByteSize::ZERO);
    }

    #[test]
    fn step_cap_binds_for_aggressive_configs() {
        let s = Senpai::new(SenpaiConfig {
            reclaim_ratio: 0.5, // absurd ratio
            write_limit_mbps: None,
            ..SenpaiConfig::production()
        });
        let d = s.decide(&calm());
        assert_eq!(d.reclaim, gib().mul_f64(0.01));
        assert_eq!(d.limited_by, Some(Limiter::MaxStep));
    }

    #[test]
    fn stale_signal_holds_off_reclaim() {
        let d = senpai().decide(&ContainerSignal {
            stale: true,
            ..calm()
        });
        assert_eq!(d.reclaim, ByteSize::ZERO);
        assert_eq!(d.limited_by, Some(Limiter::StaleSignal));
    }

    #[test]
    fn failed_reclaims_back_off_exponentially_until_success() {
        let mut s = senpai();
        let base = s.decide_for(0, &calm()).reclaim;
        assert!(base > ByteSize::ZERO);
        s.note_outcome(0, false);
        let once = s.decide_for(0, &calm());
        assert_eq!(once.limited_by, Some(Limiter::Backoff));
        assert_eq!(once.reclaim, base.mul_f64(0.5));
        s.note_outcome(0, false);
        assert_eq!(s.decide_for(0, &calm()).reclaim, base.mul_f64(0.25));
        // Another container is unaffected.
        assert_eq!(s.decide_for(1, &calm()).reclaim, base);
        // One success clears the backoff entirely.
        s.note_outcome(0, true);
        assert_eq!(s.decide_for(0, &calm()).reclaim, base);
    }

    #[test]
    fn backoff_exponent_is_capped() {
        let mut s = senpai();
        for _ in 0..50 {
            s.note_outcome(0, false);
        }
        let d = s.decide_for(0, &calm());
        assert!(d.reclaim > ByteSize::ZERO || d.reclaim.is_zero());
        // 2^-10 of the base step, not zero forever.
        let base = s.decide_for(1, &calm()).reclaim;
        assert_eq!(d.reclaim, base.mul_f64(0.5f64.powi(10)));
    }

    #[test]
    fn schedule_fires_once_per_interval() {
        let mut s = senpai();
        assert!(!s.due(SimTime::from_secs(3)));
        assert!(s.due(SimTime::from_secs(6)));
        assert!(!s.due(SimTime::from_secs(7)));
        assert!(s.due(SimTime::from_secs(12)));
    }
}
