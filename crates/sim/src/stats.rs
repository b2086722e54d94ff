//! Streaming statistics.
//!
//! Experiments track latency percentiles over long runs; storing every
//! sample is wasteful. [`P2Quantile`] implements the P² algorithm (Jain
//! & Chlamtac, 1985): a constant-space estimator that maintains five
//! markers and adjusts them with piecewise-parabolic interpolation.

/// Streaming quantile estimator (the P² algorithm).
///
/// # Example
///
/// ```
/// use tmo_sim::stats::P2Quantile;
///
/// let mut p90 = P2Quantile::new(0.9);
/// for i in 1..=1000 {
///     p90.observe(i as f64);
/// }
/// let est = p90.value();
/// assert!((est - 900.0).abs() < 20.0, "estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Samples seen so far.
    count: u64,
    /// Initial buffer until five samples arrive.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile {q} out of (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// The targeted quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one sample.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
                for (h, v) in self.heights.iter_mut().zip(&self.initial) {
                    *h = *v;
                }
            }
            return;
        }

        // Find the cell k containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for position in self.positions.iter_mut().skip(k + 1) {
            *position += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(&self.increments) {
            *d += inc;
        }

        // Adjust the three middle markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let candidate = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + sign / (np - nm)
            * ((n - nm + sign) * (hp - h) / (np - n) + (np - n - sign) * (h - hm) / (n - nm))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate. Before five samples arrive this is
    /// the nearest-rank quantile of what has been seen (0.0 when empty).
    pub fn value(&self) -> f64 {
        if self.initial.len() < 5 {
            if self.initial.is_empty() {
                return 0.0;
            }
            let mut sorted = self.initial.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            let idx = ((sorted.len() - 1) as f64 * self.q).round() as usize;
            return sorted[idx];
        }
        self.heights[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn p2_tracks_uniform_quantiles() {
        let mut rng = DetRng::seed_from_u64(1);
        for q in [0.5, 0.9, 0.99] {
            let mut est = P2Quantile::new(q);
            for _ in 0..50_000 {
                est.observe(rng.uniform());
            }
            let v = est.value();
            assert!((v - q).abs() < 0.02, "q={q} estimate {v}");
        }
    }

    #[test]
    fn p2_tracks_heavy_tailed_p90() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut est = P2Quantile::new(0.9);
        let mut all: Vec<f64> = Vec::new();
        for _ in 0..50_000 {
            let x = rng.log_normal(1.0, 0.6);
            est.observe(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let exact = all[(all.len() as f64 * 0.9) as usize];
        let rel = (est.value() - exact).abs() / exact;
        assert!(rel < 0.05, "estimate {} vs exact {exact}", est.value());
    }

    #[test]
    fn p2_small_sample_fallback() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.value(), 0.0);
        est.observe(3.0);
        est.observe(1.0);
        est.observe(2.0);
        assert_eq!(est.value(), 2.0);
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn p2_constant_stream() {
        let mut est = P2Quantile::new(0.9);
        for _ in 0..1000 {
            est.observe(7.0);
        }
        assert_eq!(est.value(), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1)")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}
