//! Differential test: the shard-chunked runner against the committed
//! ext_chaos golden transcript.
//!
//! `scripts/golden/ext_chaos_quick.txt` was recorded under the original
//! one-task-per-host execution path. The shard-chunked path — per-worker
//! arenas, recycled [`MachineScratch`] buffers, shard-order merge — must
//! reproduce it byte for byte, for every worker count. CI re-checks the
//! same contract end-to-end through the `repro` binary; this test pins
//! it in `cargo test` where a failure names the first differing byte.

use tmo::runner::FleetRunner;
use tmo_experiments::{ext_chaos, Scale};

/// The golden transcript as `repro --experiment ext_chaos --quick`
/// writes it: the rendered report plus `println!`'s final newline.
const GOLDEN: &str = include_str!("../../../scripts/golden/ext_chaos_quick.txt");

fn rendered(runner: &FleetRunner) -> String {
    format!("{}\n", ext_chaos::run(runner, Scale::Quick).render())
}

#[test]
fn sharded_sweep_reproduces_the_per_host_golden() {
    // exact() bypasses the machine clamp: 4 real workers, real merge.
    for runner in [FleetRunner::sequential(), FleetRunner::exact(4)] {
        let got = rendered(&runner);
        if got != GOLDEN {
            let at = got
                .bytes()
                .zip(GOLDEN.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(GOLDEN.len()));
            panic!(
                "jobs={} output drifted from scripts/golden/ext_chaos_quick.txt \
                 at byte {at}:\n--- golden\n{GOLDEN}\n--- got\n{got}",
                runner.jobs(),
            );
        }
    }
}

#[test]
fn clamped_cli_runner_matches_the_golden_too() {
    // What `repro --jobs 4` actually constructs (clamped to the
    // machine); on any core count this must still match.
    assert_eq!(rendered(&FleetRunner::new(4)), GOLDEN);
}
