//! The TMO control loop: a machine plus a controller.

use tmo_gswap::{GswapConfig, GswapController};
use tmo_sim::{ByteSize, SimDuration};

use tmo_senpai::{OomdConfig, OomdMonitor, Senpai, SenpaiConfig};

use crate::container::ContainerId;
use crate::machine::Machine;

/// Which controller closes the offloading loop.
#[derive(Debug)]
enum ControllerKind {
    /// No proactive offloading (the experiments' baseline tier).
    None,
    /// TMO's Senpai with one global config.
    Senpai(Senpai),
    /// The g-swap promotion-rate baseline.
    Gswap(GswapController),
}

/// A machine under a controller's management.
///
/// Each simulation tick advances the machine; whenever the controller's
/// period elapses it reads every container's signals and issues
/// `memory.reclaim` requests.
///
/// # Example
///
/// See the [crate-level quickstart](crate).
#[derive(Debug)]
pub struct TmoRuntime {
    machine: Machine,
    controller: ControllerKind,
    oomd: Option<OomdMonitor>,
}

impl TmoRuntime {
    /// Wraps a machine with no controller.
    pub fn without_controller(machine: Machine) -> Self {
        TmoRuntime {
            machine,
            controller: ControllerKind::None,
            oomd: None,
        }
    }

    /// Wraps a machine under Senpai.
    pub fn with_senpai(machine: Machine, config: SenpaiConfig) -> Self {
        TmoRuntime {
            machine,
            controller: ControllerKind::Senpai(Senpai::new(config)),
            oomd: None,
        }
    }

    /// Wraps a machine under the g-swap baseline.
    pub fn with_gswap(machine: Machine, config: GswapConfig) -> Self {
        TmoRuntime {
            machine,
            controller: ControllerKind::Gswap(GswapController::new(config)),
            oomd: None,
        }
    }

    /// Adds a pressure-based userspace OOM killer (§3.2.4): containers
    /// whose `full` memory pressure stays above the policy's threshold
    /// for its sustain window are killed.
    pub fn with_oomd(mut self, config: OomdConfig) -> Self {
        self.oomd = Some(OomdMonitor::new(config));
        self
    }

    /// The oomd monitor, if attached.
    pub fn oomd(&self) -> Option<&OomdMonitor> {
        self.oomd.as_ref()
    }

    /// The managed machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Consumes the runtime, returning the machine (for phase changes
    /// that swap controllers).
    pub fn into_machine(self) -> Machine {
        self.machine
    }

    /// One tick: machine first, then oomd, then the controller if due.
    pub fn tick(&mut self) {
        self.machine.tick();
        let now = self.machine.now();
        // Index loop instead of collecting ids: ticking must not
        // allocate in steady state, and the count is re-read where new
        // containers may have appeared mid-loop.
        let count = self.machine.container_count();
        if let Some(oomd) = &mut self.oomd {
            let dt = self.machine.config().tick;
            for id in (0..count).map(ContainerId) {
                if !self.machine.is_alive(id) {
                    continue;
                }
                let signal = self.machine.oomd_signal(id);
                if oomd.observe_signal(id.as_usize(), signal, dt).is_some() {
                    self.machine.kill_container(id);
                }
            }
        }
        match &mut self.controller {
            ControllerKind::None => {}
            ControllerKind::Senpai(senpai) => {
                if senpai.due(now) {
                    for id in (0..count).map(ContainerId) {
                        if !self.machine.is_alive(id) {
                            continue;
                        }
                        // One guarded reclaim step: read the (possibly
                        // faulted) signal, decide with the per-container
                        // backoff applied, act, and report the outcome
                        // back so the backoff adapts. A dropped signal
                        // read is a conservative hold-off — no reclaim
                        // on missing data.
                        let Some(signal) = self.machine.senpai_signal_guarded(id) else {
                            continue;
                        };
                        let decision = senpai.decide_for(id.as_usize(), &signal);
                        if decision.reclaim > ByteSize::ZERO {
                            let outcome = self.machine.reclaim(id, decision.reclaim);
                            senpai.note_outcome(id.as_usize(), !outcome.reclaimed().is_zero());
                        }
                    }
                }
            }
            ControllerKind::Gswap(gswap) => {
                if gswap.due(now) {
                    for id in (0..count).map(ContainerId) {
                        if !self.machine.is_alive(id) {
                            continue;
                        }
                        let signal = self.machine.promotion_signal(id);
                        let reclaim = gswap.decide(&signal);
                        if reclaim > ByteSize::ZERO {
                            self.machine.reclaim(id, reclaim);
                        }
                    }
                }
            }
        }
    }

    /// Runs for `duration` of simulated time.
    pub fn run(&mut self, duration: SimDuration) {
        let deadline = self.machine.now() + duration;
        while self.machine.now() < deadline {
            self.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, SwapKind};
    use tmo_backends::{SsdModel, ZswapAllocator};
    use tmo_psi::Resource;
    use tmo_sim::ByteSize;
    use tmo_workload::apps;

    fn base_machine(swap: SwapKind) -> Machine {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap,
            ..MachineConfig::default()
        });
        m.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(128)));
        m
    }

    #[test]
    fn senpai_offloads_cold_memory_without_hurting_pressure() {
        let machine = base_machine(SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        });
        let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(20.0));
        rt.run(SimDuration::from_mins(5));
        let saved = rt.machine().savings_fraction(ContainerId(0));
        // Feed is 30% cold; Senpai should find a solid share of it.
        assert!(saved > 0.05, "saved {saved}");
        assert!(saved < 0.5, "saved {saved}");
        // And pressure stays near the threshold, not far above it.
        let psi = rt
            .machine()
            .container(ContainerId(0))
            .psi()
            .some_avg10(Resource::Memory);
        assert!(psi < 0.05, "pressure {psi}");
    }

    #[test]
    fn no_controller_means_no_offloading() {
        let machine = base_machine(SwapKind::Ssd(SsdModel::C));
        let mut rt = TmoRuntime::without_controller(machine);
        rt.run(SimDuration::from_mins(1));
        assert_eq!(rt.machine().savings_fraction(ContainerId(0)), 0.0);
    }

    #[test]
    fn gswap_offloads_while_under_promotion_target() {
        let machine = base_machine(SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        });
        let mut rt = TmoRuntime::with_gswap(
            machine,
            tmo_gswap::GswapConfig {
                reclaim_ratio: 0.01,
                ..tmo_gswap::GswapConfig::default()
            },
        );
        rt.run(SimDuration::from_mins(3));
        let saved = rt.machine().savings_fraction(ContainerId(0));
        assert!(saved > 0.05, "saved {saved}");
    }

    #[test]
    fn protected_containers_are_skipped_by_senpai() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Ssd(SsdModel::C),
            ..MachineConfig::default()
        });
        m.add_container_with(
            &apps::feed().with_mem_total(ByteSize::from_mib(64)),
            crate::container::ContainerConfig {
                protected: true,
                ..Default::default()
            },
        );
        let mut rt = TmoRuntime::with_senpai(m, SenpaiConfig::accelerated(20.0));
        rt.run(SimDuration::from_mins(2));
        assert_eq!(rt.machine().savings_fraction(ContainerId(0)), 0.0);
    }

    #[test]
    fn senpai_survives_telemetry_faults_and_still_offloads() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            faults: Some(tmo_faults::FaultConfig {
                intensity: 1.0,
                stale_signal_rate: 0.2,
                dropped_signal_rate: 0.1,
                ..tmo_faults::FaultConfig::off()
            }),
            ..MachineConfig::default()
        });
        m.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(128)));
        let mut rt = TmoRuntime::with_senpai(m, SenpaiConfig::accelerated(20.0));
        rt.run(SimDuration::from_mins(5));
        // A third of the telemetry reads are bad; the hold-off must slow
        // Senpai down, not stop it.
        let saved = rt.machine().savings_fraction(ContainerId(0));
        assert!(saved > 0.03, "saved {saved}");
    }

    #[test]
    fn into_machine_supports_phase_changes() {
        let machine = base_machine(SwapKind::None);
        let mut rt = TmoRuntime::without_controller(machine);
        rt.run(SimDuration::from_secs(10));
        let machine = rt.into_machine();
        let t = machine.now();
        let mut rt2 = TmoRuntime::with_senpai(machine, SenpaiConfig::production());
        rt2.run(SimDuration::from_secs(10));
        assert!(rt2.machine().now() > t);
    }
}
