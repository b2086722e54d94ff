//! Scenario scripts and the shipped adversarial catalog.

use tmo_faults::FaultConfig;
use tmo_sim::{ByteSize, SimDuration, SimTime};

use crate::event::{EventKind, ScenarioEvent, Target, Window};

/// A named, self-contained adversarial script: a list of events plus an
/// optional infrastructure fault profile to stack underneath them.
///
/// Scenarios are pure data — no RNG state, no time source — so the same
/// scenario replayed against the same host seed is bit-identical, and a
/// scenario can be shared between both tiers of an A/B run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short machine-friendly name (used in report tables and goldens).
    pub name: String,
    /// One-line human description.
    pub summary: String,
    /// The scripted events.
    pub events: Vec<ScenarioEvent>,
    /// Infrastructure faults to run underneath the traffic script.
    pub faults: Option<FaultConfig>,
}

impl Scenario {
    /// An empty scenario with a name and summary.
    pub fn new(name: impl Into<String>, summary: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            summary: summary.into(),
            events: Vec::new(),
            faults: None,
        }
    }

    /// Adds an event (builder style).
    pub fn with_event(mut self, target: Target, window: Window, kind: EventKind) -> Self {
        self.events.push(ScenarioEvent::new(target, window, kind));
        self
    }

    /// Sets the infrastructure fault profile (builder style).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The last instant any event is still active (run start if the
    /// scenario is empty). Useful for sizing recovery measurements.
    pub fn horizon(&self) -> SimTime {
        self.events
            .iter()
            .filter(|e| !e.window.is_empty())
            .map(|e| e.window.end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// The shipped adversarial catalog, parametrised by run length and the
/// host's DRAM size so event magnitudes stay meaningful at any
/// experiment scale.
pub mod catalog {
    use super::*;

    /// Event windows as fractions of the run, rounded to whole seconds.
    fn at(run: SimDuration, fraction: f64) -> SimTime {
        SimTime::from_secs((run.as_secs_f64() * fraction) as u64)
    }

    fn span(run: SimDuration, fraction: f64) -> SimDuration {
        SimDuration::from_secs((run.as_secs_f64() * fraction) as u64)
    }

    /// Control scenario: no events at all. Every other scenario's
    /// degradation is read against this baseline.
    pub fn steady(_run: SimDuration, _dram: ByteSize) -> Scenario {
        Scenario::new("steady", "no adversarial events; the scoring baseline")
    }

    /// A full diurnal cycle over the run: demand bottoms out at 30%.
    pub fn diurnal(run: SimDuration, _dram: ByteSize) -> Scenario {
        Scenario::new("diurnal", "day/night traffic wave, trough at 30%").with_event(
            Target::All,
            Window::new(SimTime::ZERO, run),
            EventKind::Diurnal {
                trough: 0.3,
                period: span(run, 0.5),
            },
        )
    }

    /// A 3x flash crowd hits container 0 for the middle fifth of the
    /// run — the sharpest demand edge in the catalog, sized to stress
    /// Senpai's backoff without guaranteeing kills.
    pub fn flash_crowd(run: SimDuration, _dram: ByteSize) -> Scenario {
        Scenario::new("flash_crowd", "3x demand spike on the primary workload").with_event(
            Target::Container(0),
            Window::new(at(run, 0.4), span(run, 0.2)),
            EventKind::FlashCrowd { magnitude: 3.0 },
        )
    }

    /// Container 0 leaks ~8% of DRAM per minute starting 30% in and
    /// never stops — the classic slow leak that only oomd can end.
    pub fn slow_leak(run: SimDuration, dram: ByteSize) -> Scenario {
        let rate = ByteSize::new((dram.as_u64() as f64 * 0.08 / 60.0) as u64);
        Scenario::new("slow_leak", "unbounded anon leak on the primary workload").with_event(
            Target::Container(0),
            Window::new(at(run, 0.3), span(run, 0.7)),
            EventKind::MemoryLeak { rate },
        )
    }

    /// The sidecar (container 1) starts churning write-once file cache
    /// at ~5% of DRAM per minute for the middle third of the run — the
    /// §5.1 self-extracting-binary anecdote as a scripted spike.
    pub fn sidecar_spike(run: SimDuration, dram: ByteSize) -> Scenario {
        let churn = ByteSize::new((dram.as_u64() as f64 * 0.05 / 60.0) as u64);
        Scenario::new(
            "sidecar_spike",
            "file-cache churn burst from the sidecar tax",
        )
        .with_event(
            Target::Container(1),
            Window::new(at(run, 0.33), span(run, 0.34)),
            EventKind::SidecarSpike { churn },
        )
    }

    /// A deployment storm: every container is crash-restarted at ~4
    /// crashes/min for the middle fifth of the run.
    pub fn churn_storm(run: SimDuration, _dram: ByteSize) -> Scenario {
        Scenario::new("churn_storm", "kill/restart storm across all containers").with_event(
            Target::All,
            Window::new(at(run, 0.4), span(run, 0.2)),
            EventKind::ChurnStorm {
                crashes_per_min: 4.0,
            },
        )
    }

    /// Everything at once: a diurnal wave, a flash crowd riding its
    /// peak, a slow leak, a sidecar spike, and a late churn storm, all
    /// on top of a half-intensity infrastructure chaos profile.
    pub fn composite(run: SimDuration, dram: ByteSize) -> Scenario {
        let leak = ByteSize::new((dram.as_u64() as f64 * 0.05 / 60.0) as u64);
        let churn = ByteSize::new((dram.as_u64() as f64 * 0.04 / 60.0) as u64);
        Scenario::new(
            "composite",
            "overlapping wave + crowd + leak + spike + storm",
        )
        .with_event(
            Target::All,
            Window::new(SimTime::ZERO, run),
            EventKind::Diurnal {
                trough: 0.4,
                period: span(run, 0.5),
            },
        )
        .with_event(
            Target::Container(0),
            Window::new(at(run, 0.35), span(run, 0.25)),
            EventKind::FlashCrowd { magnitude: 2.5 },
        )
        .with_event(
            Target::Container(0),
            Window::new(at(run, 0.25), span(run, 0.75)),
            EventKind::MemoryLeak { rate: leak },
        )
        .with_event(
            Target::Container(1),
            Window::new(at(run, 0.4), span(run, 0.3)),
            EventKind::SidecarSpike { churn },
        )
        .with_event(
            Target::All,
            Window::new(at(run, 0.7), span(run, 0.15)),
            EventKind::ChurnStorm {
                crashes_per_min: 3.0,
            },
        )
        .with_faults(FaultConfig::chaos(0.5))
    }

    /// The whole catalog in report order.
    ///
    /// This list is pinned by goldens, and every [`EventKind`] must
    /// appear in it (a unit test checks both).
    pub fn all(run: SimDuration, dram: ByteSize) -> Vec<Scenario> {
        vec![
            steady(run, dram),
            diurnal(run, dram),
            flash_crowd(run, dram),
            slow_leak(run, dram),
            sidecar_spike(run, dram),
            churn_storm(run, dram),
            composite(run, dram),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_stable() {
        let run = SimDuration::from_mins(10);
        let dram = ByteSize::from_mib(1024);
        let names: Vec<String> = catalog::all(run, dram)
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            [
                "steady",
                "diurnal",
                "flash_crowd",
                "slow_leak",
                "sidecar_spike",
                "churn_storm",
                "composite"
            ]
        );
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(dedup, names);

        // Every event kind ships in `all`, so none is reachable only
        // from tests. The match has no wildcard: a new variant does not
        // compile here until it is listed.
        let slot = |kind: &EventKind| match kind {
            EventKind::FlashCrowd { .. } => 0,
            EventKind::Diurnal { .. } => 1,
            EventKind::MemoryLeak { .. } => 2,
            EventKind::SidecarSpike { .. } => 3,
            EventKind::ChurnStorm { .. } => 4,
        };
        let mut shipped = [false; 5];
        for scenario in catalog::all(run, dram) {
            for event in &scenario.events {
                shipped[slot(&event.kind)] = true;
            }
        }
        assert_eq!(
            shipped, [true; 5],
            "an event kind is missing from catalog::all"
        );
    }

    #[test]
    fn horizon_ignores_empty_windows() {
        let s = Scenario::new("t", "t")
            .with_event(
                Target::All,
                Window::new(SimTime::from_secs(100), SimDuration::ZERO),
                EventKind::FlashCrowd { magnitude: 2.0 },
            )
            .with_event(
                Target::All,
                Window::new(SimTime::from_secs(10), SimDuration::from_secs(5)),
                EventKind::FlashCrowd { magnitude: 2.0 },
            );
        assert_eq!(s.horizon(), SimTime::from_secs(15));
        assert_eq!(Scenario::new("e", "e").horizon(), SimTime::ZERO);
    }

    #[test]
    fn composite_stacks_faults() {
        let s = catalog::composite(SimDuration::from_mins(10), ByteSize::from_mib(512));
        let f = s.faults.expect("composite carries a fault profile");
        assert!(!f.is_off());
        assert_eq!(s.events.len(), 5);
    }
}
