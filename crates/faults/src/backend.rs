//! A fault-injecting wrapper around any offload backend.

use tmo_backends::{BackendKind, BackendStats, DeviceFault, IoKind, OffloadBackend, StoreOutcome};
use tmo_sim::{ByteSize, DetRng, SimDuration};

use crate::config::FaultConfig;
use crate::plan::{salt, FaultPlan};

/// Latency multiplier while a spike window is open.
const SPIKE_FACTOR: f64 = 10.0;

/// Wraps an [`OffloadBackend`] and injects faults on a deterministic
/// schedule.
///
/// Three fault classes, in increasing severity:
///
/// * **Latency spikes** — tick-scheduled windows during which every
///   access is multiplied by ten (device congestion, firmware GC
///   pauses).
/// * **Transient I/O errors** — per-operation; each is resolved by a
///   bounded retry with exponential backoff, so the caller only pays
///   latency (counted in `io_errors` / `retries`), never loses data.
/// * **Permanent faults** — tick-scheduled [`DeviceFault`]s injected
///   into the wrapped device: death, write-endurance wear-out, pool
///   exhaustion. Graceful degradation is the *caller's* job (tiered
///   failover, no-offload fallback, `lost_loads` accounting).
///
/// Per-operation decisions hash an operation counter rather than RNG
/// state; a host simulation is single-threaded, so the counter sequence
/// — and therefore the fault schedule — is identical for every fleet
/// worker count.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Box<dyn OffloadBackend>,
    plan: FaultPlan,
    config: FaultConfig,
    name: String,
    ticks: u64,
    ops: u64,
    spike_until: u64,
    io_errors: u64,
    retries: u64,
}

impl FaultyBackend {
    /// Wraps `inner` with the fault schedule of `plan` at the rates of
    /// `config`.
    pub fn new(inner: Box<dyn OffloadBackend>, plan: FaultPlan, config: FaultConfig) -> Self {
        let name = format!("faulty({})", inner.name());
        FaultyBackend {
            inner,
            plan,
            config,
            name,
            ticks: 0,
            ops: 0,
            spike_until: 0,
            io_errors: 0,
            retries: 0,
        }
    }

    /// Advances the operation counter and rolls the operation's
    /// transient error, counting it and its retries. Returns the retry
    /// backoff in access times: zero when the first attempt succeeds.
    fn next_op(&mut self) -> f64 {
        let op = self.ops;
        self.ops += 1;
        let p = self.config.per_op(self.config.transient_io_rate);
        if !self.plan.chance(op, salt::TRANSIENT_IO, p) {
            return 0.0;
        }
        // 1–3 retries; attempt i repeats the access after a backoff of
        // 2^(i-1) access times, i.e. total ≈ base · (2^k+1 − 2).
        let k = 1 + self.plan.pick(op, salt::RETRIES, 3).unwrap_or(0);
        self.io_errors += 1;
        self.retries += k;
        (1u64 << (k + 1)) as f64 - 2.0
    }

    /// Applies spike amplification and transient-error retry cost to
    /// one operation's base latency, advancing the operation counter.
    fn op_latency(&mut self, base: SimDuration) -> SimDuration {
        let backoff = self.next_op();
        let mut secs = base.as_secs_f64();
        if self.ticks < self.spike_until {
            secs *= SPIKE_FACTOR;
        }
        if backoff > 0.0 {
            secs += base.as_secs_f64() * backoff;
        }
        SimDuration::from_secs_f64(secs)
    }
}

impl OffloadBackend for FaultyBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn access(&mut self, kind: IoKind, bytes: ByteSize, rng: &mut DetRng) -> SimDuration {
        let base = self.inner.access(kind, bytes, rng);
        self.op_latency(base)
    }

    fn store(
        &mut self,
        page_bytes: ByteSize,
        compress_ratio: f64,
        rng: &mut DetRng,
    ) -> Option<StoreOutcome> {
        let out = self.inner.store(page_bytes, compress_ratio, rng)?;
        // A store has no latency to amplify, but it is still an
        // operation: it takes its turn in the fault schedule and can
        // fail transiently and retry.
        self.next_op();
        Some(out)
    }

    fn load(&mut self, token: u64, rng: &mut DetRng) -> Option<SimDuration> {
        let base = self.inner.load(token, rng)?;
        Some(self.op_latency(base))
    }

    fn discard(&mut self, token: u64) -> bool {
        self.inner.discard(token)
    }

    fn stats(&self) -> BackendStats {
        let mut stats = self.inner.stats();
        stats.io_errors += self.io_errors;
        stats.retries += self.retries;
        stats
    }

    fn capacity(&self) -> ByteSize {
        self.inner.capacity()
    }

    fn available(&self) -> ByteSize {
        self.inner.available()
    }

    fn tick(&mut self, dt: SimDuration) {
        self.ticks += 1;
        let tick = self.ticks;
        let spike_p = self.config.per_tick(self.config.spike_per_min, dt);
        if self.plan.chance(tick, salt::LATENCY_SPIKE, spike_p) {
            let len = 1 + self.plan.pick(tick, salt::SPIKE_LEN, 10).unwrap_or(0);
            self.spike_until = tick + len;
        }
        let death_p = self.config.per_tick(self.config.device_death_per_min, dt);
        if !self.inner.is_dead() && self.plan.chance(tick, salt::DEVICE_DEATH, death_p) {
            self.inner.inject(DeviceFault::Die);
        }
        let wear_p = self.config.per_tick(self.config.wear_out_per_min, dt);
        if self.plan.chance(tick, salt::WEAR_OUT, wear_p) {
            self.inner.inject(DeviceFault::WearOut);
        }
        let exhaust_p = self.config.per_tick(self.config.pool_exhaust_per_min, dt);
        if self.plan.chance(tick, salt::POOL_EXHAUST, exhaust_p) {
            self.inner.inject(DeviceFault::ExhaustPool);
        }
        self.inner.tick(dt);
    }

    fn write_rate_mbps(&self) -> f64 {
        self.inner.write_rate_mbps()
    }

    fn inject(&mut self, fault: DeviceFault) {
        self.inner.inject(fault);
    }

    fn is_dead(&self) -> bool {
        self.inner.is_dead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmo_backends::{ZswapAllocator, ZswapPool};

    fn pool() -> Box<dyn OffloadBackend> {
        Box::new(ZswapPool::new(
            ByteSize::from_mib(16),
            ZswapAllocator::Zsmalloc,
        ))
    }

    #[test]
    fn off_config_is_transparent() {
        let mut plain = pool();
        let mut faulty = FaultyBackend::new(pool(), FaultPlan::new(1, 0), FaultConfig::off());
        let mut rng_a = DetRng::seed_from_u64(9);
        let mut rng_b = DetRng::seed_from_u64(9);
        for _ in 0..200 {
            let a = plain
                .store(ByteSize::from_kib(4), 3.0, &mut rng_a)
                .expect("fits");
            let b = faulty
                .store(ByteSize::from_kib(4), 3.0, &mut rng_b)
                .expect("fits");
            assert_eq!(a, b);
            assert_eq!(
                plain.load(a.token, &mut rng_a),
                faulty.load(b.token, &mut rng_b)
            );
        }
        assert_eq!(faulty.stats().io_errors, 0);
        assert_eq!(faulty.stats().faults_injected, 0);
    }

    #[test]
    fn chaos_eventually_kills_the_device_and_stores_degrade_gracefully() {
        let mut faulty = FaultyBackend::new(pool(), FaultPlan::new(7, 0), FaultConfig::chaos(1.0));
        let mut rng = DetRng::seed_from_u64(1);
        let dt = SimDuration::from_secs(6);
        let mut died_at = None;
        for t in 0..2000 {
            faulty.tick(dt);
            if faulty.is_dead() {
                died_at = Some(t);
                break;
            }
        }
        let died_at = died_at.expect("death hazard fires within 200 sim-minutes");
        assert!(faulty.stats().faults_injected >= 1, "{died_at}");
        // Dead device: stores return None (no-offload degradation), no panic.
        assert!(faulty.store(ByteSize::from_kib(4), 3.0, &mut rng).is_none());
        assert!(faulty.load(0, &mut rng).is_none());
    }

    #[test]
    fn transient_errors_cost_latency_not_data() {
        let mut config = FaultConfig::chaos(1.0);
        config.transient_io_rate = 0.5; // force frequent transients
        config.device_death_per_min = 0.0;
        config.wear_out_per_min = 0.0;
        config.pool_exhaust_per_min = 0.0;
        let mut faulty = FaultyBackend::new(pool(), FaultPlan::new(3, 0), config);
        let mut rng = DetRng::seed_from_u64(2);
        let mut tokens = Vec::new();
        for _ in 0..200 {
            tokens.push(
                faulty
                    .store(ByteSize::from_kib(4), 3.0, &mut rng)
                    .expect("stores succeed despite transient errors")
                    .token,
            );
        }
        for token in tokens {
            assert!(faulty.load(token, &mut rng).is_some(), "no data loss");
        }
        let stats = faulty.stats();
        assert!(stats.io_errors > 0);
        assert!(stats.retries >= stats.io_errors);
    }

    #[test]
    fn identical_plan_and_config_produce_identical_behaviour() {
        let run = || {
            let mut faulty =
                FaultyBackend::new(pool(), FaultPlan::new(11, 5), FaultConfig::chaos(0.7));
            let mut rng = DetRng::seed_from_u64(4);
            let mut trace = Vec::new();
            for _ in 0..300 {
                faulty.tick(SimDuration::from_secs(6));
                if let Some(out) = faulty.store(ByteSize::from_kib(4), 2.5, &mut rng) {
                    trace.push(faulty.stats().retries);
                    if let Some(lat) = faulty.load(out.token, &mut rng) {
                        trace.push(lat.as_nanos());
                    }
                }
            }
            let stats = faulty.stats();
            (trace, stats.io_errors, stats.retries, stats.faults_injected)
        };
        assert_eq!(run(), run());
    }
}
