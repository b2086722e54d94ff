//! Stall blame attribution: who caused whose pressure?
//!
//! Memory pressure is a host-level externality — the container paying
//! the stall is often not the one that caused it (the paper's memory
//! tax argument in §2.2). [`BlameLedger`] is the one victim×offender
//! matrix of stalled seconds, with two ways to fill it:
//!
//! * [`BlameLedger::observe`] — the growth-pro-rata heuristic: every
//!   stalled second goes to the containers whose resident footprint
//!   *grew* during the same tick, pro-rata by growth, the best
//!   tick-local proxy for "who pushed whom out". A container growing
//!   while it stalls charges (part of) its own bill to itself; a victim
//!   stalling while only its neighbour grows charges the neighbour.
//! * [`BlameLedger::charge`] — causal charges drained from the core's
//!   reclaim-pressure provenance (see [`crate::provenance`]), each
//!   naming the cgroup whose allocation evicted the page the victim
//!   then stalled on.

use tmo_sim::SimDuration;

/// The biggest cross-container charge in a ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameAttribution {
    /// Container that paid the stall.
    pub victim: usize,
    /// Container it was charged to (by growth or by provenance).
    pub offender: usize,
    /// Seconds of the victim's stall charged to the offender.
    pub stall_secs: f64,
    /// Fraction of the victim's total stall this charge represents.
    pub share: f64,
}

/// A victim-major matrix of stall charges, filled tick by tick from
/// growth coincidence ([`observe`](Self::observe)) or drained
/// provenance ([`charge`](Self::charge)).
#[derive(Debug, Clone, PartialEq)]
pub struct BlameLedger {
    n: usize,
    /// `charged[victim * n + offender]`, in seconds.
    charged: Vec<f64>,
}

impl BlameLedger {
    /// An empty ledger over `n` containers.
    pub fn new(n: usize) -> Self {
        BlameLedger {
            n,
            charged: vec![0.0; n * n],
        }
    }

    /// Containers tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the ledger tracks no containers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Records one tick: `stalls[i]` is container `i`'s memory stall
    /// during the tick, `growth[i]` its resident-page delta over the
    /// tick (negative deltas mean it shrank and take no blame). Each
    /// victim's stall is split across the positive growers pro-rata;
    /// with no grower anywhere the victim keeps its own bill — stalling
    /// under a static footprint is self-inflicted thrashing.
    pub fn observe(&mut self, stalls: &[SimDuration], growth: &[f64]) {
        assert_eq!(stalls.len(), self.n, "stall sample width");
        assert_eq!(growth.len(), self.n, "growth sample width");
        let total_growth: f64 = growth.iter().map(|g| g.max(0.0)).sum();
        for (victim, stall) in stalls.iter().enumerate() {
            let secs = stall.as_secs_f64();
            if secs <= 0.0 {
                continue;
            }
            if total_growth > 0.0 {
                for (offender, g) in growth.iter().enumerate() {
                    let g = g.max(0.0);
                    if g > 0.0 {
                        self.charged[victim * self.n + offender] += secs * g / total_growth;
                    }
                }
            } else {
                self.charged[victim * self.n + victim] += secs;
            }
        }
    }

    /// Adds one drained charge: `victim` stalled for `stall` because of
    /// `offender`'s allocations.
    pub fn charge(&mut self, victim: usize, offender: usize, stall: SimDuration) {
        self.charged[victim * self.n + offender] += stall.as_secs_f64();
    }

    /// Seconds of `victim`'s stall charged to `offender`.
    pub fn charged(&self, victim: usize, offender: usize) -> f64 {
        self.charged[victim * self.n + offender]
    }

    /// `victim`'s total attributed stall, seconds.
    pub fn total(&self, victim: usize) -> f64 {
        self.charged[victim * self.n..(victim + 1) * self.n]
            .iter()
            .sum()
    }

    /// The offender with the largest *cross-container* charge summed
    /// over every victim but itself — the host-level "who is the
    /// antagonist" answer. Self-charges (Senpai shrinking a container
    /// for its own good, thrash under a static footprint) are excluded;
    /// ties go to the smallest index.
    pub fn top_cross_offender(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for offender in 0..self.n {
            let total: f64 = (0..self.n)
                .filter(|&v| v != offender)
                .map(|v| self.charged(v, offender))
                .sum();
            if total > 0.0 && best.is_none_or(|(_, b)| total > b) {
                best = Some((offender, total));
            }
        }
        best
    }

    /// The single largest *cross-container* charge in the ledger — the
    /// headline "X cost Y `n` seconds" edge. `None` when every
    /// charge is self-inflicted (or zero).
    pub fn top_edge(&self) -> Option<BlameAttribution> {
        let mut best: Option<BlameAttribution> = None;
        for victim in 0..self.n {
            let row_total = self.total(victim);
            for offender in 0..self.n {
                if offender == victim {
                    continue;
                }
                let secs = self.charged(victim, offender);
                if secs > 0.0 && best.as_ref().is_none_or(|b| secs > b.stall_secs) {
                    best = Some(BlameAttribution {
                        victim,
                        offender,
                        stall_secs: secs,
                        share: if row_total > 0.0 {
                            secs / row_total
                        } else {
                            0.0
                        },
                    });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn growth_splits_the_bill_pro_rata() {
        let mut ledger = BlameLedger::new(3);
        // Container 0 stalls 1 s while 1 grew 300 pages and 2 grew 100.
        ledger.observe(&[secs(1.0), secs(0.0), secs(0.0)], &[0.0, 300.0, 100.0]);
        assert_eq!(ledger.charged(0, 1), 0.75);
        assert_eq!(ledger.charged(0, 2), 0.25);
        assert_eq!(ledger.charged(0, 0), 0.0);
        let edge = ledger.top_edge().expect("cross-container edge");
        assert_eq!((edge.victim, edge.offender), (0, 1));
        assert_eq!(edge.share, 0.75);
    }

    #[test]
    fn shrinking_neighbours_take_no_blame() {
        let mut ledger = BlameLedger::new(2);
        ledger.observe(&[secs(2.0), secs(0.0)], &[-50.0, 10.0]);
        assert_eq!(ledger.charged(0, 0), 0.0);
        assert_eq!(ledger.charged(0, 1), 2.0);
    }

    #[test]
    fn no_growth_anywhere_means_self_blame() {
        let mut ledger = BlameLedger::new(2);
        ledger.observe(&[secs(1.5), secs(0.0)], &[0.0, -10.0]);
        assert_eq!(ledger.charged(0, 0), 1.5);
        assert_eq!(ledger.top_edge(), None, "self-charges are not edges");
    }

    #[test]
    fn self_growth_keeps_part_of_the_bill() {
        let mut ledger = BlameLedger::new(2);
        ledger.observe(&[secs(1.0), secs(0.0)], &[100.0, 100.0]);
        assert_eq!(ledger.charged(0, 0), 0.5);
        assert_eq!(ledger.charged(0, 1), 0.5);
    }

    #[test]
    fn charges_accumulate_per_edge() {
        let mut ledger = BlameLedger::new(3);
        ledger.charge(0, 1, secs(1.0));
        ledger.charge(0, 1, secs(0.5));
        ledger.charge(0, 0, secs(2.0));
        assert_eq!(ledger.charged(0, 1), 1.5);
        assert_eq!(ledger.charged(0, 0), 2.0);
        assert_eq!(ledger.total(0), 3.5);
        // The cross view skips the larger self-charge.
        assert_eq!(ledger.top_cross_offender(), Some((1, 1.5)));
        let edge = ledger.top_edge().expect("cross edge");
        assert_eq!((edge.victim, edge.offender), (0, 1));
        assert!((edge.share - 1.5 / 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_has_no_offenders() {
        let ledger = BlameLedger::new(2);
        assert_eq!(ledger.top_cross_offender(), None);
        assert_eq!(ledger.top_edge(), None);
        assert!(BlameLedger::new(0).is_empty());
    }

    #[test]
    fn cross_offender_ties_go_to_the_smallest_index() {
        let mut ledger = BlameLedger::new(3);
        ledger.charge(0, 1, secs(1.0));
        ledger.charge(0, 2, secs(1.0));
        assert_eq!(ledger.top_cross_offender(), Some((1, 1.0)));
    }
}
