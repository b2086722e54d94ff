//! Extension experiment: the §5.2 tiered backend hierarchy.
//!
//! The paper's future-work section proposes letting the kernel manage a
//! *hierarchy* of offload backends — zswap for warmer pages, SSD for
//! colder or less-compressible ones — instead of manually assigning one
//! backend per application. This experiment runs a mixed host (a
//! compressible workload plus a quantized-model workload) on zswap-only,
//! SSD-only, and the tiered hierarchy, and compares net DRAM savings and
//! pressure. Pool DRAM is exactly the expensive resource offloading is
//! trying to save, so the figure of merit is *net savings per pool
//! byte*: the hierarchy demotes idle compressed pages to the SSD and
//! recycles its pool, where zswap-only parks them in DRAM forever.

use tmo::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// Measured outcome of one backend architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredResult {
    /// Architecture label.
    pub label: String,
    /// Net DRAM freed (offload minus pool cost) as a fraction of the
    /// two containers' combined footprint.
    pub net_savings: f64,
    /// DRAM consumed by the compressed pool at the end.
    pub pool_mib: f64,
    /// Mean memory pressure (%) over the steady tail, worst container.
    pub mem_pressure: f64,
}

/// Runs the mixed host on one backend architecture.
pub fn run_backend(label: &str, swap: SwapKind, scale: Scale) -> TieredResult {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap,
        seed: 113,
        ..MachineConfig::default()
    });
    let feed = machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.35)));
    let ml = machine.add_container(&apps::ml().with_mem_total(dram.mul_f64(0.35)));
    let mut rt = tmo::TmoRuntime::with_senpai(
        machine,
        SenpaiConfig {
            write_limit_mbps: None,
            ..SenpaiConfig::accelerated(scale.speedup())
        },
    );
    rt.run(SimDuration::from_mins(scale.minutes()));
    let m = rt.machine();
    let footprint = dram.mul_f64(0.70);
    let saved = m.net_savings_bytes(feed) + m.net_savings_bytes(ml);
    let worst_psi = [feed, ml]
        .iter()
        .map(|&id| m.container(id).psi().some_avg10(Resource::Memory))
        .fold(0.0, f64::max);
    TieredResult {
        label: label.to_string(),
        net_savings: saved / footprint,
        pool_mib: m.mm().global_stat().zswap_pool_bytes.as_mib(),
        mem_pressure: worst_psi * 100.0,
    }
}

/// Runs all three architectures, one worker per backend.
pub fn simulate(runner: &tmo::runner::FleetRunner, scale: Scale) -> Vec<TieredResult> {
    let backends: [(&str, SwapKind); 3] = [
        (
            "zswap only",
            SwapKind::Zswap {
                capacity_fraction: 0.06,
                allocator: ZswapAllocator::Zsmalloc,
            },
        ),
        ("ssd only", SwapKind::Ssd(SsdModel::C)),
        (
            "tiered (zswap over ssd)",
            SwapKind::Tiered {
                zswap_fraction: 0.06,
                allocator: ZswapAllocator::Zsmalloc,
                ssd: SsdModel::C,
                demote_after: SimDuration::from_secs(30),
                min_compress_ratio: 2.0,
            },
        ),
    ];
    runner.run(backends.len(), |i| {
        let (label, swap) = backends[i].clone();
        run_backend(label, swap, scale)
    })
}

/// Regenerates the extension comparison on the given runner.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-tiered",
        "§5.2 tiered backend hierarchy on a mixed host (Feed 3.0x + ML 1.3x)",
    );
    let results = simulate(runner, scale);
    out.line(format!(
        "{:<26} {:>12} {:>12} {:>12}",
        "Backend", "net savings", "pool DRAM", "mem-PSI"
    ));
    for r in &results {
        out.line(format!(
            "{:<26} {:>12} {:>9.1}MiB {:>11.2}%",
            r.label,
            pct(r.net_savings),
            r.pool_mib,
            r.mem_pressure,
        ));
    }
    out.line(String::new());
    let eff = |r: &TieredResult| {
        if r.pool_mib > 0.0 {
            r.net_savings * 100.0 / r.pool_mib
        } else {
            f64::INFINITY
        }
    };
    out.line(format!(
        "savings per pool MiB: zswap-only {:.1}%/MiB, tiered {:.1}%/MiB",
        eff(&results[0]),
        eff(&results[2])
    ));
    out.line("the hierarchy routes incompressible ML pages straight to SSD, demotes".to_string());
    out.line("idle compressed pages, and recycles its pool: it beats SSD-only on".to_string());
    out.line("savings and zswap-only on pool efficiency — the §5.2 trade".to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiered_trades_where_the_paper_says_it_should() {
        let results = simulate(&crate::FleetRunner::default(), Scale::Quick);
        let (zswap, ssd, tiered) = (&results[0], &results[1], &results[2]);
        // The hierarchy matches or beats SSD-only on savings (within
        // run-to-run noise): its warm tier absorbs the compressible
        // pages at 40 µs fault cost.
        assert!(
            tiered.net_savings >= ssd.net_savings * 0.93,
            "tiered {} vs ssd {}",
            tiered.net_savings,
            ssd.net_savings
        );
        // It stays within reach of zswap-only on savings...
        assert!(
            tiered.net_savings > zswap.net_savings * 0.6,
            "tiered {} vs zswap {}",
            tiered.net_savings,
            zswap.net_savings
        );
        // ...while spending a fraction of the pool DRAM (demotion keeps
        // recycling it) — the §5.2 figure of merit.
        assert!(
            tiered.pool_mib < zswap.pool_mib * 0.5,
            "tiered pool {} vs zswap pool {}",
            tiered.pool_mib,
            zswap.pool_mib
        );
        let eff_tiered = tiered.net_savings / tiered.pool_mib.max(0.01);
        let eff_zswap = zswap.net_savings / zswap.pool_mib.max(0.01);
        assert!(
            eff_tiered > eff_zswap * 2.0,
            "pool efficiency: tiered {eff_tiered} vs zswap {eff_zswap}"
        );
        // And pressure stays in the controller's operating regime.
        assert!(tiered.mem_pressure < 2.0);
    }

    #[test]
    fn incompressible_pages_bypass_the_pool() {
        // On the tiered backend, an ML-only host should grow almost no
        // pool DRAM: its 1.3x pages route straight to SSD.
        let dram = ByteSize::from_mib(Scale::Quick.dram_mib());
        let mut machine = Machine::new(MachineConfig {
            dram,
            swap: SwapKind::Tiered {
                zswap_fraction: 0.25,
                allocator: ZswapAllocator::Zsmalloc,
                ssd: SsdModel::C,
                demote_after: SimDuration::from_secs(60),
                min_compress_ratio: 2.0,
            },
            seed: 127,
            ..MachineConfig::default()
        });
        let id = machine.add_container(&apps::ml().with_mem_total(dram.mul_f64(0.4)));
        let mut rt = tmo::TmoRuntime::with_senpai(
            machine,
            SenpaiConfig::accelerated(Scale::Quick.speedup()),
        );
        rt.run(SimDuration::from_mins(2));
        let m = rt.machine();
        assert!(m.savings_fraction(id) > 0.03, "no offload happened");
        assert_eq!(
            m.mm().global_stat().zswap_pool_bytes,
            ByteSize::ZERO,
            "incompressible pages must not consume pool DRAM"
        );
    }
}
