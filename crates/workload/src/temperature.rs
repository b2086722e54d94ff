//! Page temperature classes and access planning.
//!
//! A workload's footprint is partitioned into classes, each a fraction
//! of its pages with a mean re-access interval. A page in a class with
//! `reaccess = 10 s` is touched on average every 10 seconds (Poisson
//! arrivals), so over a 1-minute window it is touched with probability
//! `1 - exp(-6) ≈ 1`: the class is "hot at 1 min". Cold classes have
//! intervals of hours. This reproduces the Figure 2 coldness histograms
//! without scripting accesses page-by-page.

use tmo_sim::{DetRng, SimDuration};

/// One temperature class of a workload's memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureClass {
    /// Fraction of the workload's pages in this class, in `(0, 1]`.
    pub fraction: f64,
    /// Mean re-access interval of a page in this class.
    pub reaccess: SimDuration,
}

impl TemperatureClass {
    /// Creates a class.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` or `reaccess` is zero.
    pub fn new(fraction: f64, reaccess: SimDuration) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction {fraction} out of (0, 1]"
        );
        assert!(!reaccess.is_zero(), "re-access interval must be non-zero");
        TemperatureClass { fraction, reaccess }
    }

    /// Probability that a page of this class is touched at least once
    /// within `window`.
    pub fn touch_probability(&self, window: SimDuration) -> f64 {
        1.0 - (-(window.as_secs_f64() / self.reaccess.as_secs_f64())).exp()
    }
}

/// Plans page accesses per tick from a set of temperature classes.
///
/// # Example
///
/// ```
/// use tmo_sim::{DetRng, SimDuration};
/// use tmo_workload::{AccessPlanner, TemperatureClass};
///
/// let planner = AccessPlanner::new(vec![
///     TemperatureClass::new(0.5, SimDuration::from_secs(10)),   // hot half
///     TemperatureClass::new(0.5, SimDuration::from_hours(24)),  // cold half
/// ], 10_000);
/// let mut rng = DetRng::seed_from_u64(1);
/// let plan = planner.plan(SimDuration::from_secs(1), &mut rng);
/// // The hot class (5000 pages, one touch per 10 s) expects ~500
/// // touches in a 1 s tick; the cold class nearly none.
/// assert!(plan[0] > 300 && plan[0] < 700);
/// assert!(plan[1] < 10);
/// ```
#[derive(Debug, Clone)]
pub struct AccessPlanner {
    classes: Vec<TemperatureClass>,
    pages_per_class: Vec<u64>,
}

impl AccessPlanner {
    /// Builds a planner over `total_pages` split across `classes` by
    /// their fractions (remainder pages go to the last class).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or fractions sum to more than 1 + ε.
    pub fn new(classes: Vec<TemperatureClass>, total_pages: u64) -> Self {
        assert!(!classes.is_empty(), "at least one temperature class");
        let sum: f64 = classes.iter().map(|c| c.fraction).sum();
        assert!(sum <= 1.0 + 1e-6, "class fractions sum to {sum} > 1");
        let mut pages_per_class: Vec<u64> = classes
            .iter()
            .map(|c| (total_pages as f64 * c.fraction) as u64)
            .collect();
        let assigned: u64 = pages_per_class.iter().sum();
        if let Some(last) = pages_per_class.last_mut() {
            *last += total_pages.saturating_sub(assigned);
        }
        AccessPlanner {
            classes,
            pages_per_class,
        }
    }

    /// The classes.
    pub fn classes(&self) -> &[TemperatureClass] {
        &self.classes
    }

    /// Page counts per class.
    pub fn pages_per_class(&self) -> &[u64] {
        &self.pages_per_class
    }

    /// Total pages.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_class.iter().sum()
    }

    /// Number of page touches per class for a tick of length `dt`
    /// (Poisson-sampled around the class rate).
    pub fn plan(&self, dt: SimDuration, rng: &mut DetRng) -> Vec<u64> {
        let mut out = Vec::new();
        self.plan_into(dt, rng, &mut out);
        out
    }

    /// Buffer-reusing form of [`AccessPlanner::plan`]: clears `out` and
    /// fills it with this tick's per-class touch counts. Draws exactly
    /// one `rng.poisson` per class, in class order.
    pub fn plan_into(&self, dt: SimDuration, rng: &mut DetRng, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.classes.len());
        for (class, &pages) in self.classes.iter().zip(&self.pages_per_class) {
            let mean = pages as f64 * dt.as_secs_f64() / class.reaccess.as_secs_f64();
            out.push(rng.poisson(mean));
        }
    }

    /// Uniformly samples `count` elements of `items` (with replacement)
    /// into `out`, clearing it first. Draws exactly one `rng.below` per
    /// sample, in plan order, so handing the batch to
    /// `MemoryManager::access_batch` consumes the RNG stream
    /// identically to a one-at-a-time access loop.
    pub fn sample_batch_into<T: Copy>(items: &[T], count: u64, rng: &mut DetRng, out: &mut Vec<T>) {
        out.clear();
        if items.is_empty() {
            return;
        }
        out.reserve(count as usize);
        let len = items.len() as u64;
        // Every draw shares the bound, so the rejection threshold (the
        // one divide in a draw) hoists out of the loop; `below_with`
        // consumes the generator exactly like `below`.
        let threshold = DetRng::below_threshold(len);
        for _ in 0..count {
            let idx = rng.below_with(len, threshold) as usize;
            out.push(items[idx]);
        }
    }

    /// Expected aggregate access rate (touches/second).
    pub fn expected_rate(&self) -> f64 {
        self.classes
            .iter()
            .zip(&self.pages_per_class)
            .map(|(c, &p)| p as f64 / c.reaccess.as_secs_f64())
            .sum()
    }
}

/// Builds the four-class planner that matches a Figure 2 coldness row:
/// fractions touched in the last 1 min / extra at 2 min / extra at 5 min
/// / cold beyond 5 min. Re-access intervals are chosen so each bucket's
/// pages are (with high probability) touched within its window but not
/// much earlier: 12 s for the 1-min bucket, 90 s for the 2-min bucket,
/// 220 s for the 5-min bucket, and 12 h for cold pages.
///
/// # Panics
///
/// Panics unless the four fractions are non-negative and sum to 1 ± 1e-6.
pub fn coldness_classes(
    used_1min: f64,
    used_2min: f64,
    used_5min: f64,
    cold: f64,
) -> Vec<TemperatureClass> {
    let sum = used_1min + used_2min + used_5min + cold;
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "coldness fractions sum to {sum}, expected 1"
    );
    let mut classes = Vec::new();
    for (fraction, reaccess) in [
        (used_1min, SimDuration::from_secs(12)),
        (used_2min, SimDuration::from_secs(90)),
        (used_5min, SimDuration::from_secs(220)),
        (cold, SimDuration::from_hours(12)),
    ] {
        if fraction > 0.0 {
            classes.push(TemperatureClass::new(fraction, reaccess));
        }
    }
    classes
}

/// Builds temperature classes from a Zipf popularity law: the footprint
/// is split into `n_classes` equal-size groups of pages ranked by
/// popularity; group `k`'s aggregate access share follows rank weights
/// `1/(k+1)^s`, and its per-page re-access interval follows from that
/// share and the workload's `total_rate` (touches/second).
///
/// This gives a smooth popularity continuum (the classic cache-workload
/// model) as an alternative to the discrete hot/warm/cold buckets of
/// [`coldness_classes`].
///
/// # Panics
///
/// Panics if `n_classes` is zero, `s` is negative/non-finite, or
/// `total_rate` is not positive.
///
/// # Example
///
/// ```
/// use tmo_workload::temperature::zipf_classes;
///
/// let classes = zipf_classes(8, 1.2, 1000.0);
/// assert_eq!(classes.len(), 8);
/// // Popularity decays with rank: re-access intervals grow.
/// assert!(classes[0].reaccess < classes[7].reaccess);
/// ```
pub fn zipf_classes(n_classes: usize, s: f64, total_rate: f64) -> Vec<TemperatureClass> {
    assert!(n_classes > 0, "at least one class");
    assert!(s >= 0.0 && s.is_finite(), "invalid zipf skew {s}");
    assert!(
        total_rate > 0.0 && total_rate.is_finite(),
        "invalid total rate {total_rate}"
    );
    let weights: Vec<f64> = (0..n_classes)
        .map(|k| 1.0 / ((k + 1) as f64).powf(s))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let fraction = 1.0 / n_classes as f64;
    weights
        .iter()
        .map(|w| {
            // The class receives `w/total_weight` of all touches spread
            // over `fraction` of the pages; a page's touch rate is the
            // class rate divided by its page share (per unit page).
            let class_rate = total_rate * w / total_weight;
            // Re-access interval per page = pages_in_class / class_rate;
            // expressed per unit of footprint so the planner's absolute
            // page count scales it out.
            let per_page_rate = class_rate / fraction;
            TemperatureClass::new(fraction, SimDuration::from_secs_f64(1.0 / per_page_rate))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_probability_saturates() {
        let hot = TemperatureClass::new(1.0, SimDuration::from_secs(10));
        assert!(hot.touch_probability(SimDuration::from_mins(1)) > 0.99);
        let cold = TemperatureClass::new(1.0, SimDuration::from_hours(12));
        assert!(cold.touch_probability(SimDuration::from_mins(5)) < 0.01);
    }

    #[test]
    fn planner_distributes_pages_with_remainder() {
        let planner = AccessPlanner::new(
            vec![
                TemperatureClass::new(0.33, SimDuration::from_secs(10)),
                TemperatureClass::new(0.67, SimDuration::from_secs(10)),
            ],
            100,
        );
        assert_eq!(planner.total_pages(), 100);
        assert_eq!(planner.pages_per_class()[0], 33);
        assert_eq!(planner.pages_per_class()[1], 67);
    }

    #[test]
    fn plan_matches_expected_rate() {
        let planner = AccessPlanner::new(
            vec![TemperatureClass::new(1.0, SimDuration::from_secs(10))],
            10_000,
        );
        let mut rng = DetRng::seed_from_u64(2);
        let dt = SimDuration::from_secs(1);
        let total: u64 = (0..200).map(|_| planner.plan(dt, &mut rng)[0]).sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 1000.0).abs() < 30.0, "mean {mean}");
        assert!((planner.expected_rate() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn coldness_classes_reproduce_feed_row() {
        // Feed (Figure 2): 50% @1min, +8% @2min, +12% @5min, 30% cold.
        let classes = coldness_classes(0.50, 0.08, 0.12, 0.30);
        assert_eq!(classes.len(), 4);
        let one_min = SimDuration::from_mins(1);
        let five_min = SimDuration::from_mins(5);
        assert!(classes[0].touch_probability(one_min) > 0.99);
        assert!(classes[1].touch_probability(one_min) < 0.55);
        assert!(classes[1].touch_probability(SimDuration::from_mins(2)) > 0.7);
        assert!(classes[3].touch_probability(five_min) < 0.01);
    }

    #[test]
    fn coldness_classes_drop_zero_buckets() {
        let classes = coldness_classes(0.5, 0.0, 0.0, 0.5);
        assert_eq!(classes.len(), 2);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn coldness_fractions_must_sum_to_one() {
        let _ = coldness_classes(0.5, 0.5, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn zero_fraction_class_panics() {
        let _ = TemperatureClass::new(0.0, SimDuration::from_secs(1));
    }

    #[test]
    fn zipf_classes_preserve_the_total_rate() {
        let total_rate = 500.0;
        let classes = zipf_classes(10, 1.0, total_rate);
        // Expected aggregate rate for a planner over N pages equals
        // total_rate scaled by N (rates here are per unit footprint).
        let planner = AccessPlanner::new(classes, 1);
        // With one "unit" of footprint the expected rate is the
        // configured total (within rounding of page assignment).
        let rate = planner.expected_rate();
        // One page can't be split across ten classes; just verify the
        // full-footprint case instead.
        let planner = AccessPlanner::new(zipf_classes(10, 1.0, total_rate), 10_000);
        let rate_full = planner.expected_rate() / 10_000.0;
        assert!(
            (rate_full - total_rate).abs() / total_rate < 0.01,
            "rate {rate_full}"
        );
        let _ = rate;
    }

    #[test]
    fn zipf_skew_controls_concentration() {
        let flat = zipf_classes(10, 0.0, 100.0);
        let skewed = zipf_classes(10, 2.0, 100.0);
        // With no skew all classes re-access at the same interval.
        assert_eq!(flat[0].reaccess, flat[9].reaccess);
        // With skew the head is much hotter than the tail.
        let ratio = skewed[9].reaccess.as_secs_f64() / skewed[0].reaccess.as_secs_f64();
        assert!(ratio > 50.0, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "invalid total rate")]
    fn zipf_rejects_zero_rate() {
        let _ = zipf_classes(4, 1.0, 0.0);
    }
}
