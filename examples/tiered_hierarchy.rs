//! Tiered hierarchy + pressure-based OOM killing: the §5.2 future-work
//! backend and the §3.2.4 oomd policy, together on one host.
//!
//! ```text
//! cargo run --release --example tiered_hierarchy
//! ```

use tmo::prelude::*;
use tmo_repro::{tmo, tmo_senpai};
use tmo_senpai::{OomdConfig, OomdMonitor};

fn main() {
    let dram = ByteSize::from_mib(512);
    let mut machine = Machine::new(MachineConfig {
        dram,
        // The §5.2 hierarchy: a small zswap pool over an SSD, with idle
        // compressed pages demoted after 45 s.
        swap: SwapKind::Tiered {
            zswap_fraction: 0.08,
            allocator: ZswapAllocator::Zsmalloc,
            ssd: SsdModel::E,
            demote_after: SimDuration::from_secs(45),
        },
        seed: 9,
        ..MachineConfig::default()
    });
    // A compressible workload and a quantized-model workload share the
    // host; the hierarchy routes their pages to the right tier
    // automatically.
    let feed = machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.35)));
    let ml = machine.add_container(&apps::ml().with_mem_total(dram.mul_f64(0.35)));

    let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(25.0));
    let mut oomd = OomdMonitor::new(OomdConfig::default());

    println!("mixed host under the tiered hierarchy (6 simulated minutes):\n");
    for minute in 1..=6u64 {
        rt.run(SimDuration::from_mins(1));
        // oomd watches `full` pressure alongside Senpai's `some` loop.
        let m = rt.machine();
        for (i, id) in [feed, ml].into_iter().enumerate() {
            let full = m.container(id).psi().full_avg10(Resource::Memory);
            if let Some(kill) = oomd.observe(i, full, SimDuration::from_mins(1)) {
                println!("  !! oomd would kill container {i}: {kill:?}");
            }
        }
        let g = m.mm().global_stat();
        println!(
            "t+{minute}min  feed saved {:4.1}%  ml saved {:4.1}%  pool {:4.1} MiB  free {:5.1} MiB",
            m.savings_fraction(feed) * 100.0,
            m.savings_fraction(ml) * 100.0,
            g.zswap_pool_bytes.as_mib(),
            g.free_bytes.as_mib(),
        );
    }

    let m = rt.machine();
    let swap = m.mm().swap_stats().expect("tiered backend");
    println!(
        "\nbackend: {} pages held, {:.1} MiB written to SSD (incl. demotions), \
         pool {:.1} MiB of DRAM",
        swap.pages_stored,
        swap.bytes_written.as_mib(),
        m.mm().global_stat().zswap_pool_bytes.as_mib(),
    );
    println!(
        "no oomd kills: {} — Senpai held both containers at mild `some` pressure,\n\
         far away from the sustained `full` stalls the kill policy watches for",
        oomd.kills().is_empty()
    );
}
