//! A fixed reference kernel that tracks the machine's current speed.
//!
//! On a shared machine the simulator's wall-clock throughput swings by a
//! third or more for tens of seconds at a time as neighbours come and
//! go, and a swing can cover a whole run, which no estimator inside the
//! run can remove. Each repetition is therefore bracketed by a short
//! kernel that never changes with the code under test: random
//! read-modify-writes over a 4 MiB table (cache latency) and sorts of
//! small arrays (branchy integer work), the two kinds of work a
//! simulated tick does. The kernel's time against
//! [`KERNEL_REFERENCE_S`] gives the machine's speed during the
//! repetition, and reported timings are scaled by it, which cancels the
//! machine's speed and nothing else.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in seconds, on the machine the bounds in
/// `BENCHMARK.json` were measured on when it was not slowed by
/// neighbours. Scaled timings read as if taken at that speed.
pub const KERNEL_REFERENCE_S: f64 = 0.012;

/// Table size of the memory half, in words (4 MiB).
const TABLE_WORDS: usize = 1 << 19;
/// Random read-modify-writes in the memory half.
const TABLE_TOUCHES: usize = 1_000_000;
/// Small sorts in the integer half, and the length of each.
const SORTS: u64 = 2_000;
const SORT_LEN: usize = 256;

/// Times the reference kernel.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    keys: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator whose table is already faulted in, so no timing
    /// includes page faults.
    pub fn new() -> Calibrator {
        let mut calibrator = Calibrator {
            table: vec![0; TABLE_WORDS],
            keys: Vec::with_capacity(SORT_LEN),
        };
        calibrator.kernel_s();
        calibrator
    }

    /// The machine's current speed relative to the reference: 1.0 at
    /// reference speed, 0.5 when the kernel takes twice as long.
    pub fn speed(&mut self) -> f64 {
        KERNEL_REFERENCE_S / self.kernel_s()
    }

    /// Runs the kernel once; returns its wall time in seconds.
    fn kernel_s(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..TABLE_TOUCHES {
            x = xorshift(x);
            let i = (x as usize) & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        let mut acc = 0u64;
        for round in 0..SORTS {
            self.keys.clear();
            let mut y = round.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            for _ in 0..SORT_LEN {
                y = xorshift(y);
                self.keys.push(y as u32);
            }
            self.keys.sort_unstable();
            acc = acc.wrapping_add(u64::from(self.keys[SORT_LEN / 2]));
        }
        black_box(acc);
        black_box(&self.table);
        start.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_finite() {
        let speed = Calibrator::new().speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }
}
