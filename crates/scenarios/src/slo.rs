//! Per-container SLO tracking and degradation scoring.
//!
//! A scenario run is judged the way a capacity engineer would judge a
//! production incident: how much of the wall clock the container spent
//! stalled on memory (against a stall *budget*), how many times it was
//! killed, and how long it took memory pressure to come back down after
//! each scripted event ended (*time to recover*). The three feed one
//! scalar degradation score so scenarios and controller configs can be
//! ranked on a single axis.

use tmo_sim::{SimDuration, SimTime};

use crate::scenario::Scenario;

/// What "acceptable" means for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Budgeted fraction of wall time a container may stall on memory
    /// before its SLO counts as violated.
    pub stall_budget: f64,
    /// Memory `some` avg10 (as a fraction) below which a container
    /// counts as recovered after an event.
    pub recovered_psi: f64,
    /// Score points charged per kill.
    pub kill_weight: f64,
    /// Score points charged per second of worst-case recovery time.
    pub recovery_weight: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            stall_budget: 0.05,
            recovered_psi: 0.10,
            kill_weight: 25.0,
            recovery_weight: 0.5,
        }
    }
}

/// One container's verdict for one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Container index (machine insertion order).
    pub container: usize,
    /// Container name.
    pub name: String,
    /// Run length in seconds.
    pub wall_secs: f64,
    /// Total memory-stall seconds.
    pub stall_secs: f64,
    /// `stall_secs / wall_secs`.
    pub stall_fraction: f64,
    /// Times the container was killed (oomd, crash churn, or storm).
    pub kills: u64,
    /// Worst time-to-recover across the scenario's event windows,
    /// seconds (0 when the scenario has no events for this container).
    pub worst_recovery_secs: f64,
    /// Whether the stall budget was blown or the container was killed.
    pub violated: bool,
    /// Scalar degradation: `100 · stall_fraction / stall_budget +
    /// kill_weight · kills + recovery_weight · worst_recovery_secs`.
    /// 100 means "exactly at budget with no kills and instant
    /// recovery"; lower is better.
    pub degradation: f64,
}

/// Streaming per-tick SLO samples for every container on one host.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    names: Vec<String>,
    wall: SimDuration,
    stall: Vec<SimDuration>,
    /// Memory-PSI samples per container, in tick order.
    psi: Vec<Vec<(SimTime, f64)>>,
}

impl SloTracker {
    /// A tracker for `names.len()` containers.
    pub fn new(cfg: SloConfig, names: Vec<String>) -> Self {
        let n = names.len();
        SloTracker {
            cfg,
            names,
            wall: SimDuration::ZERO,
            stall: vec![SimDuration::ZERO; n],
            psi: vec![Vec::new(); n],
        }
    }

    /// Records one tick: per-container memory stall accrued during the
    /// tick and the memory `some` avg10 (fraction) at its end.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths disagree with the container count.
    pub fn observe(&mut self, now: SimTime, dt: SimDuration, stalls: &[SimDuration], psis: &[f64]) {
        assert_eq!(stalls.len(), self.stall.len(), "stall sample width");
        assert_eq!(psis.len(), self.psi.len(), "psi sample width");
        self.wall += dt;
        for (i, &s) in stalls.iter().enumerate() {
            self.stall[i] += s;
            self.psi[i].push((now, psis[i]));
        }
    }

    /// Scores the run. `kills[i]` is how often container `i` was killed
    /// (read it with `Machine::kill_count`, which counts the container's
    /// `{name}.killed` series, so oomd kills, crash churn, and storm
    /// kills all count).
    pub fn finish(&self, scenario: &Scenario, kills: &[u64]) -> Vec<SloReport> {
        assert_eq!(kills.len(), self.stall.len(), "kill sample width");
        let wall_secs = self.wall.as_secs_f64();
        let run_end = SimTime::ZERO.saturating_add(self.wall);
        (0..self.names.len())
            .map(|ci| {
                let stall_secs = self.stall[ci].as_secs_f64();
                let stall_fraction = if wall_secs > 0.0 {
                    stall_secs / wall_secs
                } else {
                    0.0
                };
                let worst_recovery_secs = self.worst_recovery(scenario, ci, run_end);
                let violated = stall_fraction > self.cfg.stall_budget || kills[ci] > 0;
                let degradation = 100.0 * stall_fraction / self.cfg.stall_budget
                    + self.cfg.kill_weight * kills[ci] as f64
                    + self.cfg.recovery_weight * worst_recovery_secs;
                SloReport {
                    container: ci,
                    name: self.names[ci].clone(),
                    wall_secs,
                    stall_secs,
                    stall_fraction,
                    kills: kills[ci],
                    worst_recovery_secs,
                    violated,
                    degradation,
                }
            })
            .collect()
    }

    /// Worst time-to-recover for container `ci`: for every scripted
    /// event that hits it and ends inside the run, the delay from the
    /// window's end to the first PSI sample back under the recovery
    /// threshold. An event the container never recovers from charges
    /// the remainder of the run.
    fn worst_recovery(&self, scenario: &Scenario, ci: usize, run_end: SimTime) -> f64 {
        let mut worst = 0.0f64;
        for event in &scenario.events {
            if event.window.is_empty() || !event.target.hits(ci) {
                continue;
            }
            let end = event.window.end();
            if end >= run_end {
                // The event outlives the run; there is no post-event
                // period to measure.
                continue;
            }
            let recovered_at = self.psi[ci]
                .iter()
                .find(|(t, p)| *t >= end && *p < self.cfg.recovered_psi)
                .map(|(t, _)| *t);
            let ttr = match recovered_at {
                Some(t) => t.saturating_since(end).as_secs_f64(),
                None => run_end.saturating_since(end).as_secs_f64(),
            };
            worst = worst.max(ttr);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Target, Window};

    fn tick() -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn tracked(psi_after_event: &[f64]) -> (SloTracker, Scenario) {
        // One container; a flash crowd over [2s, 4s); 10 one-second ticks.
        let scenario = Scenario::new("t", "t").with_event(
            Target::Container(0),
            Window::new(SimTime::from_secs(2), SimDuration::from_secs(2)),
            EventKind::FlashCrowd { magnitude: 2.0 },
        );
        let mut tracker = SloTracker::new(SloConfig::default(), vec!["c0".to_string()]);
        for (i, &p) in psi_after_event.iter().enumerate() {
            let now = SimTime::from_secs(i as u64 + 1);
            tracker.observe(now, tick(), &[SimDuration::from_millis(10)], &[p]);
        }
        (tracker, scenario)
    }

    #[test]
    fn recovery_is_first_sample_under_threshold_after_window_end() {
        // Pressure stays high until t = 7s, recovers at t = 8s.
        let psi = [0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.05, 0.05, 0.05];
        let (tracker, scenario) = tracked(&psi);
        let r = &tracker.finish(&scenario, &[0])[0];
        // Window ends at 4s; first recovered sample at 8s.
        assert_eq!(r.worst_recovery_secs, 4.0);
        assert!(!r.violated, "stall 1% of budget, no kills: {r:?}");
    }

    #[test]
    fn unrecovered_event_charges_the_rest_of_the_run() {
        let psi = [0.5; 10];
        let (tracker, scenario) = tracked(&psi);
        let r = &tracker.finish(&scenario, &[0])[0];
        assert_eq!(r.worst_recovery_secs, 6.0, "run ends at 10s, window at 4s");
    }

    #[test]
    fn kills_violate_and_raise_the_score() {
        let psi = [0.0; 10];
        let (tracker, scenario) = tracked(&psi);
        let clean = tracker.finish(&scenario, &[0])[0].clone();
        let killed = tracker.finish(&scenario, &[2])[0].clone();
        assert!(!clean.violated);
        assert!(killed.violated);
        assert_eq!(killed.degradation - clean.degradation, 50.0);
    }
}
