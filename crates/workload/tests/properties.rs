//! Property-based tests of the workload generators.

use proptest::prelude::*;
use tmo_sim::{DetRng, SimDuration};
use tmo_workload::temperature::coldness_classes;
use tmo_workload::{AccessPlanner, TemperatureClass, WebServerConfig, WebServerModel};

proptest! {
    #[test]
    fn planner_assigns_every_page_exactly_once(
        fracs in prop::collection::vec(0.01f64..1.0, 1..6),
        total in 1u64..100_000,
    ) {
        let sum: f64 = fracs.iter().sum();
        let classes: Vec<TemperatureClass> = fracs
            .iter()
            .map(|f| TemperatureClass::new(f / sum, SimDuration::from_secs(10)))
            .collect();
        let planner = AccessPlanner::new(classes, total);
        prop_assert_eq!(planner.total_pages(), total);
    }

    #[test]
    fn plan_counts_track_expected_rate(
        reaccess_secs in 1u64..600,
        pages in 1_000u64..100_000,
        seed in any::<u64>(),
    ) {
        let planner = AccessPlanner::new(
            vec![TemperatureClass::new(1.0, SimDuration::from_secs(reaccess_secs))],
            pages,
        );
        let mut rng = DetRng::seed_from_u64(seed);
        let dt = SimDuration::from_secs(1);
        let n = 100;
        let total: u64 = (0..n).map(|_| planner.plan(dt, &mut rng)[0]).sum();
        let expected = planner.expected_rate() * n as f64;
        // Poisson mean over 100 samples: within 6 sigma.
        let sigma = expected.sqrt().max(1.0);
        prop_assert!(
            (total as f64 - expected).abs() < 6.0 * sigma + 1.0,
            "total {total} vs expected {expected}"
        );
    }

    #[test]
    fn coldness_fractions_round_trip(
        a in 0.05f64..0.7,
        b in 0.0f64..0.2,
        c in 0.0f64..0.2,
    ) {
        let cold = 1.0 - a - b - c;
        prop_assume!(cold > 0.01);
        let classes = coldness_classes(a, b, c, cold);
        let sum: f64 = classes.iter().map(|cl| cl.fraction).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        // The cold class never looks hot within five minutes.
        let five = SimDuration::from_mins(5);
        let coldest = classes.last().expect("has classes");
        prop_assert!(coldest.touch_probability(five) < 0.05);
    }

    #[test]
    fn web_rps_always_within_bounds(
        stalls in prop::collection::vec(0u64..200, 1..300),
        free in 0.0f64..1.0,
    ) {
        let mut web = WebServerModel::new(WebServerConfig::default());
        let max = web.config().max_rps;
        for ms in stalls {
            web.observe(SimDuration::from_millis(ms), free);
            prop_assert!(web.rps() > 0.0);
            prop_assert!(web.rps() <= max + 1e-9);
        }
    }

    #[test]
    fn web_is_deterministic_given_the_same_inputs(
        stalls in prop::collection::vec(0u64..100, 1..100),
    ) {
        let run = || {
            let mut web = WebServerModel::new(WebServerConfig::default());
            for ms in &stalls {
                web.observe(SimDuration::from_millis(*ms), 0.5);
            }
            web.rps()
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #[test]
    fn planner_conserves_pages_per_class(
        fracs in prop::collection::vec(0.01f64..1.0, 1..8),
        total in 0u64..1_000_000,
    ) {
        // Every page lands in exactly one class: per-class counts sum
        // to the requested total (the remainder rule tops up the last
        // class), and no class exceeds the total.
        let sum: f64 = fracs.iter().sum();
        let classes: Vec<TemperatureClass> = fracs
            .iter()
            .map(|f| TemperatureClass::new(f / sum, SimDuration::from_secs(60)))
            .collect();
        let planner = AccessPlanner::new(classes, total);
        let per_class = planner.pages_per_class();
        prop_assert_eq!(per_class.iter().sum::<u64>(), total);
        prop_assert_eq!(planner.total_pages(), total);
        for &pages in per_class {
            prop_assert!(pages <= total);
        }
    }

    #[test]
    fn sample_batch_draws_like_a_scalar_below_loop(
        len in 1usize..200,
        count in 0u64..300,
        seed in any::<u64>(),
    ) {
        // sample_batch_into hoists the rejection threshold but must
        // keep the draw sequence of one `rng.below` per sample.
        let items: Vec<u64> = (0..len as u64).collect();
        let mut rng_batch = DetRng::seed_from_u64(seed);
        let mut out = Vec::new();
        AccessPlanner::sample_batch_into(&items, count, &mut rng_batch, &mut out);

        let mut rng_scalar = DetRng::seed_from_u64(seed);
        let scalar: Vec<u64> = (0..count)
            .map(|_| items[rng_scalar.below(items.len() as u64) as usize])
            .collect();
        prop_assert_eq!(&out, &scalar);
        prop_assert_eq!(rng_batch.next_u64(), rng_scalar.next_u64());
    }
}
