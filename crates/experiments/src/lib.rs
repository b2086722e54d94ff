//! Reproductions of the TMO paper's evaluation figures.
//!
//! Each `figNN` module regenerates one figure/table of the paper:
//! the same rows or time series, produced by the simulated stack. The
//! [`report`] module renders them as text tables and CSV; the `repro`
//! binary is the command-line entry point:
//!
//! ```text
//! repro --figure 9          # one figure
//! repro --all               # everything
//! repro --all --quick       # reduced scale (used by tests/benches)
//! repro --figure 12 --csv out/   # export raw series
//! ```
//!
//! | Module | Paper figure | What it shows |
//! |---|---|---|
//! | [`fig01`] | Figure 1 | hardware cost model across generations |
//! | [`fig02`] | Figure 2 | application memory coldness |
//! | [`fig03`] | Figure 3 | datacenter / microservice memory tax |
//! | [`fig04`] | Figure 4 | anonymous vs file-backed breakdown |
//! | [`fig05`] | Figure 5 | fleet SSD characteristics |
//! | [`fig06`] | Figure 6 | architecture overview (live walkthrough) |
//! | [`fig07`] | Figure 7 | PSI some/full worked example |
//! | [`fig08`] | Figure 8 | Senpai pressure tracking & reclaim tuning |
//! | [`fig09`] | Figure 9 | per-application memory savings |
//! | [`fig10`] | Figure 10 | memory-tax savings |
//! | [`fig11`] | Figure 11 | Web on memory-bound hosts (3 phases) |
//! | [`fig12`] | Figure 12 | PSI vs promotion rate, fast vs slow SSD |
//! | [`fig13`] | Figure 13 | Senpai config A vs config B tuning |
//! | [`fig14`] | Figure 14 | swap write regulation |
//! | [`ablate`] | §3.3/§3.4 | design-choice ablations |
//! | [`ext_tiered`] | §5.2 | tiered backend hierarchy extension |
//! | [`ext_sweep`] | §4.4 | Senpai tuning sweep (savings/RPS frontier) |
//! | [`ext_chaos`] | §4.5/§5.2 | fault-injection degradation curves |
//! | [`ext_adversarial`] | §2.2/§4.4 | adversarial scenario replay, SLO scoring, blame |
//! | [`ext_blame_validation`] | §6 | blame ground truth: causal vs pro-rata attribution |
//! | [`ext_paper_scale`] | §4 (fleet scale) | shard-chunked harness scaling laws |
//! | [`headline`] | abstract | fleet-wide 20-32% savings rollup |

pub mod ablate;
pub mod ext_adversarial;
pub mod ext_blame_validation;
pub mod ext_chaos;
pub mod ext_paper_scale;
pub mod ext_sweep;
pub mod ext_tiered;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod headline;
pub mod report;

pub use report::{ExperimentOutput, Scale};
pub use tmo::runner::{FleetError, FleetRunner, FleetStats, HostCtx};

/// How an experiment is addressed on the `repro` command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key<'a> {
    /// A paper figure, `--figure N`.
    Figure(u32),
    /// A named experiment, `--experiment NAME`.
    Named(&'a str),
}

/// Which bulk `repro` flag runs an experiment. Every suite except
/// [`Suite::OnDemand`] also runs under `--all`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The paper's figures (`--all`).
    Figures,
    /// The design-choice ablations (`--ablations`).
    Ablations,
    /// The future-work extensions and the headline rollup
    /// (`--extensions`).
    Extensions,
    /// Only when named explicitly: `ext_paper_scale` is wall-clock
    /// bound (it measures the harness itself, sweeping its own worker
    /// counts).
    OnDemand,
}

/// One reproducible experiment: a row of [`EXPERIMENTS`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Figure number or name.
    pub key: Key<'static>,
    /// One-line description, for `repro --list`.
    pub description: &'static str,
    /// The bulk flag that runs it.
    pub suite: Suite,
    /// Runs the experiment. Multi-host experiments shard across the
    /// runner's workers; single-machine ones ignore it.
    pub run: fn(&FleetRunner, Scale) -> ExperimentOutput,
}

const fn figure(
    number: u32,
    description: &'static str,
    run: fn(&FleetRunner, Scale) -> ExperimentOutput,
) -> Experiment {
    Experiment {
        key: Key::Figure(number),
        description,
        suite: Suite::Figures,
        run,
    }
}

const fn named(
    name: &'static str,
    description: &'static str,
    suite: Suite,
    run: fn(&FleetRunner, Scale) -> ExperimentOutput,
) -> Experiment {
    Experiment {
        key: Key::Named(name),
        description,
        suite,
        run,
    }
}

/// Every experiment, in the order `repro --all` runs them. Figure 6 is
/// the architecture diagram, reproduced as a live walkthrough.
pub const EXPERIMENTS: &[Experiment] = &[
    figure(
        1,
        "hardware cost model across server generations",
        |_, _| fig01::run(),
    ),
    figure(2, "application memory coldness CDF", fig02::run),
    figure(3, "datacenter / microservice memory tax", |_, scale| {
        fig03::run(scale)
    }),
    figure(
        4,
        "anonymous vs file-backed memory breakdown",
        |_, scale| fig04::run(scale),
    ),
    figure(5, "fleet SSD latency/bandwidth characteristics", |_, _| {
        fig05::run()
    }),
    figure(
        6,
        "architecture overview as a live walkthrough",
        |_, scale| fig06::run(scale),
    ),
    figure(7, "PSI some/full pressure worked example", |_, _| {
        fig07::run()
    }),
    figure(
        8,
        "Senpai pressure tracking and reclaim tuning",
        |_, scale| fig08::run(scale),
    ),
    figure(9, "per-application memory savings", fig09::run),
    figure(
        10,
        "memory-tax savings from offloading sidecars",
        |_, scale| fig10::run(scale),
    ),
    figure(
        11,
        "Web on memory-bound hosts, three deployment phases",
        fig11::run,
    ),
    figure(
        12,
        "PSI vs promotion rate on fast vs slow SSDs",
        |_, scale| fig12::run(scale),
    ),
    figure(
        13,
        "Senpai config A vs config B RPS/savings tradeoff",
        fig13::run,
    ),
    figure(
        14,
        "swap write regulation under endurance limits",
        fig14::run,
    ),
    named(
        "ablate",
        "design-choice ablations (PSI flavors, policies, backends)",
        Suite::Ablations,
        ablate::run,
    ),
    named(
        "ext_tiered",
        "tiered zswap+SSD backend hierarchy extension",
        Suite::Extensions,
        ext_tiered::run,
    ),
    named(
        "ext_sweep",
        "Senpai tuning sweep: savings vs RPS frontier",
        Suite::Extensions,
        ext_sweep::run,
    ),
    named(
        "ext_chaos",
        "fault-injection degradation curves over chaos intensity",
        Suite::Extensions,
        ext_chaos::run,
    ),
    named(
        "ext_adversarial",
        "adversarial scenario replay: SLO scores, blame, A/B harness",
        Suite::Extensions,
        ext_adversarial::run,
    ),
    named(
        "ext_blame_validation",
        "blame ground truth: causal vs pro-rata attribution precision",
        Suite::Extensions,
        ext_blame_validation::run,
    ),
    named(
        "headline",
        "fleet-wide 20-32% savings headline rollup",
        Suite::Extensions,
        headline::run,
    ),
    named(
        "ext_paper_scale",
        "shard-chunked fleet-runner scaling laws (wall-clock bound)",
        Suite::OnDemand,
        // Sweeps its own worker counts; the CLI runner is unused.
        |_, scale| ext_paper_scale::run(scale),
    ),
];

/// The registry row for `key`, if any.
pub fn find(key: Key<'_>) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.key == key)
}

/// Resolves `repro`'s selection flags to registry rows, in run order:
/// the figures (every figure under `all`, then `figures` as given), then
/// `names`, then the ablations (`all` or `ablations`), then the
/// extensions (`all` or `extensions`). A row selected more than once
/// runs once, at its first position. Fails on the first figure number
/// or name the registry does not know, even under `all`.
pub fn select(
    figures: &[u32],
    names: &[String],
    all: bool,
    ablations: bool,
    extensions: bool,
) -> Result<Vec<&'static Experiment>, String> {
    let suite = |suite: Suite| EXPERIMENTS.iter().filter(move |e| e.suite == suite);
    let mut requested: Vec<&'static Experiment> = Vec::new();
    if all {
        requested.extend(suite(Suite::Figures));
    }
    for &number in figures {
        requested.push(
            find(Key::Figure(number))
                .ok_or_else(|| format!("figure {number} is not part of the paper"))?,
        );
    }
    for name in names {
        requested.push(find(Key::Named(name)).ok_or_else(|| {
            let known: Vec<&str> = EXPERIMENTS
                .iter()
                .filter_map(|e| match e.key {
                    Key::Named(name) => Some(name),
                    Key::Figure(_) => None,
                })
                .collect();
            format!("unknown experiment {name}; known: {}", known.join(", "))
        })?);
    }
    if all || ablations {
        requested.extend(suite(Suite::Ablations));
    }
    if all || extensions {
        requested.extend(suite(Suite::Extensions));
    }
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for row in requested {
        if !selected.iter().any(|e| e.key == row.key) {
            selected.push(row);
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(rows: &[&Experiment]) -> Vec<Key<'static>> {
        rows.iter().map(|e| e.key).collect()
    }

    #[test]
    fn all_runs_every_row_but_ext_paper_scale() {
        let all = select(&[], &[], true, false, false).expect("flags resolve");
        let expected: Vec<Key<'static>> = EXPERIMENTS
            .iter()
            .map(|e| e.key)
            .filter(|&k| k != Key::Named("ext_paper_scale"))
            .collect();
        assert_eq!(keys(&all), expected);
        assert!(keys(&all).contains(&Key::Named("ext_blame_validation")));
    }

    #[test]
    fn bulk_flags_partition_the_all_selection() {
        let ablations = select(&[], &[], false, true, false).expect("flags resolve");
        assert_eq!(keys(&ablations), [Key::Named("ablate")]);
        let extensions = select(&[], &[], false, false, true).expect("flags resolve");
        assert!(extensions.iter().all(|e| e.suite == Suite::Extensions));
        let figures = EXPERIMENTS
            .iter()
            .filter(|e| e.suite == Suite::Figures)
            .count();
        let all = select(&[], &[], true, false, false).expect("flags resolve");
        assert_eq!(all.len(), figures + ablations.len() + extensions.len());
    }

    #[test]
    fn keys_are_unique_and_figures_are_numbered_in_order() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|b| b.key != a.key),
                "duplicate key {:?}",
                a.key
            );
        }
        let numbers: Vec<u32> = EXPERIMENTS
            .iter()
            .filter_map(|e| match e.key {
                Key::Figure(n) => Some(n),
                Key::Named(_) => None,
            })
            .collect();
        assert_eq!(numbers, (1..=14).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_selection_resolves_in_flag_order_and_rejects_unknowns() {
        let names = ["ext_paper_scale".to_string()];
        let picked = select(&[9, 2], &names, false, false, false).expect("known keys");
        assert_eq!(
            keys(&picked),
            [
                Key::Figure(9),
                Key::Figure(2),
                Key::Named("ext_paper_scale")
            ]
        );
        assert!(select(&[15], &[], false, false, false).is_err());
        assert!(select(&[99], &[], true, false, false).is_err());
        // A row named twice runs once, at its first position.
        let twice = select(&[3, 3], &[], false, false, false).expect("known keys");
        assert_eq!(keys(&twice), [Key::Figure(3)]);
        let chaos = ["ext_chaos".to_string()];
        let picked = select(&[], &chaos, false, false, true).expect("known keys");
        let extensions = select(&[], &[], false, false, true).expect("known keys");
        assert_eq!(picked.len(), extensions.len());
        assert_eq!(picked[0].key, Key::Named("ext_chaos"));
        let all = select(&[], &[], true, false, false).expect("flags resolve");
        let all_again = select(&[3], &[], true, false, false).expect("known keys");
        assert_eq!(keys(&all_again), keys(&all));
        let err = select(&[], &["nope".to_string()], false, false, false).unwrap_err();
        assert!(err.contains("ext_blame_validation"), "{err}");
    }
}
