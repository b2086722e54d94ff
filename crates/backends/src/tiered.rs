//! Tiered offload backend — the §5.2 future-work architecture.
//!
//! The paper's limitation section sketches the next step beyond manually
//! choosing zswap *or* SSD per application: "a more fundamental solution
//! is for the kernel to manage a hierarchy of offload backends, e.g.,
//! automatically using zswap for warmer pages and using SSD for colder
//! or less-compressible pages". [`TieredBackend`] implements that
//! hierarchy:
//!
//! * pages whose data compresses poorly (below 2×) go straight to the
//!   SSD tier — compressing them would waste pool DRAM;
//! * everything else lands in the zswap tier first;
//! * zswap-resident pages not reloaded within `demote_after` are
//!   *demoted* to the SSD tier in the background, freeing pool DRAM for
//!   warmer candidates. Demotion pays the SSD write (endurance) like any
//!   other swap-out.

use std::collections::BTreeMap;

use tmo_sim::{ByteSize, DetRng, SimDuration};

use crate::ssd::SsdDevice;
use crate::traits::{BackendKind, BackendStats, DeviceFault, IoKind, OffloadBackend, StoreOutcome};
use crate::zswap::ZswapPool;

/// Compression ratio below which pages bypass the warm tier: below it a
/// page frees less than half its DRAM in the pool, and the SSD, which
/// frees all of it, is the better home.
const MIN_COMPRESS_RATIO: f64 = 2.0;

/// Which tier currently holds a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Warm,
    Cold,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tier: Tier,
    inner_token: u64,
    /// Original (uncompressed) page size, needed to restage on demotion.
    page_bytes: ByteSize,
    compress_ratio: f64,
    /// Tier-local age, reset on (re)store into the warm tier.
    stored_at: SimDuration,
}

/// A two-tier offload hierarchy: a zswap pool over an SSD.
///
/// # Example
///
/// ```
/// use tmo_backends::{catalog, OffloadBackend, TieredBackend, ZswapAllocator, ZswapPool};
/// use tmo_sim::{ByteSize, DetRng, SimDuration};
///
/// let warm = ZswapPool::new(ByteSize::from_mib(16), ZswapAllocator::Zsmalloc);
/// let cold = catalog::fleet_device(catalog::SsdModel::C);
/// let mut tiered = TieredBackend::new(warm, cold, SimDuration::from_secs(60));
/// let mut rng = DetRng::seed_from_u64(1);
///
/// // Compressible page → warm tier (small stored size).
/// let warm_page = tiered.store(ByteSize::from_kib(4), 4.0, &mut rng).expect("fits");
/// assert!(warm_page.stored_bytes < ByteSize::from_kib(2));
/// // Quantized ML page (1.3x) → SSD directly (full size, no pool cost).
/// let cold_page = tiered.store(ByteSize::from_kib(4), 1.3, &mut rng).expect("fits");
/// assert_eq!(cold_page.stored_bytes, ByteSize::from_kib(4));
/// ```
#[derive(Debug)]
pub struct TieredBackend {
    warm: ZswapPool,
    cold: SsdDevice,
    demote_after: SimDuration,
    entries: BTreeMap<u64, Entry>,
    next_token: u64,
    clock: SimDuration,
    /// Cumulative pages demoted warm → cold.
    demotions: u64,
    /// Stores redirected to the SSD because the zswap tier died.
    failovers: u64,
    rng: DetRng,
}

impl TieredBackend {
    /// Creates the hierarchy.
    ///
    /// Pages with a compression ratio below 2 bypass the warm tier;
    /// warm pages idle for `demote_after` are demoted on the next
    /// [`OffloadBackend::tick`].
    ///
    /// # Panics
    ///
    /// Panics if `demote_after` is zero.
    pub fn new(warm: ZswapPool, cold: SsdDevice, demote_after: SimDuration) -> Self {
        assert!(!demote_after.is_zero(), "demotion age must be non-zero");
        TieredBackend {
            warm,
            cold,
            demote_after,
            entries: BTreeMap::new(),
            next_token: 0,
            clock: SimDuration::ZERO,
            demotions: 0,
            failovers: 0,
            rng: DetRng::seed_from_u64(0x7EE7),
        }
    }

    /// Pages currently in the warm (zswap) tier.
    pub fn warm_pages(&self) -> u64 {
        self.entries
            .values()
            .filter(|e| e.tier == Tier::Warm)
            .count() as u64
    }

    /// Pages currently in the cold (SSD) tier.
    pub fn cold_pages(&self) -> u64 {
        self.entries
            .values()
            .filter(|e| e.tier == Tier::Cold)
            .count() as u64
    }

    /// Cumulative warm → cold demotions.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    fn demote_expired(&mut self) {
        // BTreeMap keeps this scan in token order, so the sequence of
        // SSD stores (and the rng draws they consume) is identical on
        // every run — hash order here would silently vary per process.
        let expired: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| {
                e.tier == Tier::Warm && self.clock.saturating_sub(e.stored_at) >= self.demote_after
            })
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let entry = self.entries[&token];
            // Stage into the SSD first; if it is full, keep the page
            // warm rather than dropping it.
            let Some(cold_out) =
                self.cold
                    .store(entry.page_bytes, entry.compress_ratio, &mut self.rng)
            else {
                continue;
            };
            self.warm.discard(entry.inner_token);
            let e = self.entries.get_mut(&token).expect("entry exists");
            e.tier = Tier::Cold;
            e.inner_token = cold_out.token;
            self.demotions += 1;
        }
    }
}

impl OffloadBackend for TieredBackend {
    fn name(&self) -> &str {
        "tiered(zswap+ssd)"
    }

    fn kind(&self) -> BackendKind {
        // The DRAM-cost-relevant tier is the zswap pool; the machine
        // layer uses the kind to account pool bytes against DRAM.
        BackendKind::Zswap
    }

    fn access(&mut self, kind: IoKind, bytes: ByteSize, rng: &mut DetRng) -> SimDuration {
        // Raw accesses (not token-routed) hit the warm tier.
        self.warm.access(kind, bytes, rng)
    }

    fn store(
        &mut self,
        page_bytes: ByteSize,
        compress_ratio: f64,
        rng: &mut DetRng,
    ) -> Option<StoreOutcome> {
        let (tier, out) = if compress_ratio >= MIN_COMPRESS_RATIO {
            if self.warm.is_dead() {
                // Warm tier died: fail over to the SSD (§5.2 hierarchy
                // degrades zswap → SSD → no-offload). Only a store the
                // SSD accepts counts as redirected.
                let out = self.cold.store(page_bytes, compress_ratio, rng)?;
                self.failovers += 1;
                (Tier::Cold, out)
            } else {
                match self.warm.store(page_bytes, compress_ratio, rng) {
                    Some(out) => (Tier::Warm, out),
                    // Warm tier full: overflow to the SSD.
                    None => (
                        Tier::Cold,
                        self.cold.store(page_bytes, compress_ratio, rng)?,
                    ),
                }
            }
        } else {
            (
                Tier::Cold,
                self.cold.store(page_bytes, compress_ratio, rng)?,
            )
        };
        let token = self.next_token;
        self.next_token += 1;
        self.entries.insert(
            token,
            Entry {
                tier,
                inner_token: out.token,
                page_bytes,
                compress_ratio,
                stored_at: self.clock,
            },
        );
        Some(StoreOutcome {
            token,
            stored_bytes: out.stored_bytes,
        })
    }

    fn load(&mut self, token: u64, rng: &mut DetRng) -> Option<SimDuration> {
        let entry = self.entries.remove(&token)?;
        match entry.tier {
            Tier::Warm => self.warm.load(entry.inner_token, rng),
            Tier::Cold => self.cold.load(entry.inner_token, rng),
        }
    }

    fn discard(&mut self, token: u64) -> bool {
        match self.entries.remove(&token) {
            Some(entry) => match entry.tier {
                Tier::Warm => self.warm.discard(entry.inner_token),
                Tier::Cold => self.cold.discard(entry.inner_token),
            },
            None => false,
        }
    }

    fn stats(&self) -> BackendStats {
        let w = self.warm.stats();
        let c = self.cold.stats();
        BackendStats {
            reads: w.reads + c.reads,
            writes: w.writes + c.writes,
            bytes_read: w.bytes_read + c.bytes_read,
            bytes_written: w.bytes_written + c.bytes_written,
            pages_stored: w.pages_stored + c.pages_stored,
            // Capacity-relevant stored bytes: the DRAM pool only — the
            // machine charges `bytes_stored` of a Zswap-kind backend
            // against DRAM, and SSD bytes must not count there.
            bytes_stored: w.bytes_stored,
            io_errors: w.io_errors + c.io_errors,
            retries: w.retries + c.retries,
            failovers: w.failovers + c.failovers + self.failovers,
            faults_injected: w.faults_injected + c.faults_injected,
        }
    }

    fn capacity(&self) -> ByteSize {
        self.warm.capacity() + self.cold.capacity()
    }

    fn available(&self) -> ByteSize {
        let w = self
            .warm
            .capacity()
            .saturating_sub(self.warm.stats().bytes_stored);
        let c = self
            .cold
            .capacity()
            .saturating_sub(self.cold.stats().bytes_stored);
        w + c
    }

    fn tick(&mut self, dt: SimDuration) {
        self.clock += dt;
        self.warm.tick(dt);
        self.cold.tick(dt);
        self.demote_expired();
    }

    fn write_rate_mbps(&self) -> f64 {
        self.cold.write_rate_mbps()
    }

    fn inject(&mut self, fault: DeviceFault) {
        match fault {
            // Death takes out the zswap tier first; a second death kills
            // the SSD as well, after which the whole hierarchy is dead
            // and the caller degrades to no-offload.
            DeviceFault::Die => {
                if self.warm.is_dead() {
                    self.entries.retain(|_, e| e.tier != Tier::Cold);
                    self.cold.inject(fault);
                } else {
                    self.entries.retain(|_, e| e.tier != Tier::Warm);
                    self.warm.inject(fault);
                }
            }
            // Endurance wear-out is an SSD concern.
            DeviceFault::WearOut => self.cold.inject(fault),
            // Pool exhaustion is a zswap concern.
            DeviceFault::ExhaustPool => self.warm.inject(fault),
        }
    }

    fn is_dead(&self) -> bool {
        self.warm.is_dead() && self.cold.is_dead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{fleet_device, SsdModel};
    use crate::zswap::ZswapAllocator;

    const PAGE: ByteSize = ByteSize::from_kib(4);

    fn tiered(pool_kib: u64, demote_secs: u64) -> TieredBackend {
        TieredBackend::new(
            ZswapPool::new(ByteSize::from_kib(pool_kib), ZswapAllocator::Zsmalloc),
            fleet_device(SsdModel::C),
            SimDuration::from_secs(demote_secs),
        )
    }

    #[test]
    fn compressible_pages_go_warm_incompressible_cold() {
        let mut t = tiered(64, 60);
        let mut rng = DetRng::seed_from_u64(1);
        t.store(PAGE, 4.0, &mut rng).expect("warm fits");
        t.store(PAGE, 1.3, &mut rng).expect("cold fits");
        assert_eq!(t.warm_pages(), 1);
        assert_eq!(t.cold_pages(), 1);
    }

    #[test]
    fn warm_loads_are_much_faster_than_cold() {
        let mut t = tiered(1024, 60);
        let mut rng = DetRng::seed_from_u64(2);
        let n = 2000;
        let mut warm_total = 0.0;
        let mut cold_total = 0.0;
        for _ in 0..n {
            let w = t.store(PAGE, 4.0, &mut rng).expect("fits");
            warm_total += t.load(w.token, &mut rng).expect("warm").as_secs_f64();
            let c = t.store(PAGE, 1.0, &mut rng).expect("fits");
            cold_total += t.load(c.token, &mut rng).expect("cold").as_secs_f64();
        }
        assert!(
            cold_total / warm_total > 4.0,
            "cold {cold_total} vs warm {warm_total}"
        );
    }

    #[test]
    fn idle_warm_pages_demote_to_ssd() {
        let mut t = tiered(1024, 30);
        let mut rng = DetRng::seed_from_u64(3);
        let out = t.store(PAGE, 4.0, &mut rng).expect("fits");
        assert_eq!(t.warm_pages(), 1);
        // Not old enough yet.
        t.tick(SimDuration::from_secs(29));
        assert_eq!(t.warm_pages(), 1);
        // Past the demotion age.
        t.tick(SimDuration::from_secs(2));
        assert_eq!(t.warm_pages(), 0);
        assert_eq!(t.cold_pages(), 1);
        assert_eq!(t.demotions(), 1);
        // The pool DRAM is free again, and the page still loads (from
        // the SSD now, so with block-device latency).
        assert_eq!(t.stats().bytes_stored, ByteSize::ZERO);
        let lat = t.load(out.token, &mut rng).expect("still stored");
        assert!(lat > SimDuration::from_micros(100));
    }

    #[test]
    fn warm_overflow_spills_to_cold() {
        let mut t = tiered(4, 600); // tiny 4 KiB pool
        let mut rng = DetRng::seed_from_u64(4);
        // ~1.1 KiB stored per page: three fit, the fourth spills.
        for _ in 0..3 {
            t.store(PAGE, 4.0, &mut rng).expect("fits warm");
        }
        t.store(PAGE, 4.0, &mut rng).expect("spills cold");
        assert_eq!(t.warm_pages(), 3);
        assert_eq!(t.cold_pages(), 1);
    }

    #[test]
    fn stats_bytes_stored_counts_only_pool_dram() {
        let mut t = tiered(64, 600);
        let mut rng = DetRng::seed_from_u64(5);
        t.store(PAGE, 4.0, &mut rng).expect("warm");
        t.store(PAGE, 1.0, &mut rng).expect("cold");
        // Only the compressed warm page counts against DRAM.
        assert!(t.stats().bytes_stored < ByteSize::from_kib(2));
        assert_eq!(t.stats().pages_stored, 2);
    }

    #[test]
    fn demotion_pays_ssd_writes() {
        let mut t = tiered(1024, 10);
        let mut rng = DetRng::seed_from_u64(6);
        for _ in 0..10 {
            t.store(PAGE, 4.0, &mut rng).expect("fits");
        }
        let before = t.cold.stats().bytes_written;
        t.tick(SimDuration::from_secs(11));
        let after = t.cold.stats().bytes_written;
        assert_eq!(after - before, PAGE * 10);
    }

    #[test]
    fn discard_routes_to_owning_tier() {
        let mut t = tiered(64, 600);
        let mut rng = DetRng::seed_from_u64(7);
        let warm = t.store(PAGE, 4.0, &mut rng).expect("warm");
        let cold = t.store(PAGE, 1.0, &mut rng).expect("cold");
        assert!(t.discard(warm.token));
        assert!(t.discard(cold.token));
        assert!(!t.discard(warm.token));
        assert_eq!(t.stats().pages_stored, 0);
    }

    #[test]
    fn failover_counts_only_stores_the_ssd_accepts() {
        let mut rng = DetRng::seed_from_u64(8);
        // Warm tier dead, SSD alive: the store is redirected.
        let mut t = tiered(64, 600);
        t.inject(DeviceFault::Die);
        t.store(PAGE, 4.0, &mut rng).expect("fails over to the SSD");
        assert_eq!(t.stats().failovers, 1);
        // Both tiers dead: the store fails and nothing was redirected.
        let mut t = tiered(64, 600);
        t.inject(DeviceFault::Die);
        t.inject(DeviceFault::Die);
        assert!(t.store(PAGE, 4.0, &mut rng).is_none());
        assert_eq!(t.stats().failovers, 0);
    }

    #[test]
    #[should_panic(expected = "demotion age must be non-zero")]
    fn zero_demotion_age_panics() {
        let _ = TieredBackend::new(
            ZswapPool::new(PAGE, ZswapAllocator::Zsmalloc),
            fleet_device(SsdModel::C),
            SimDuration::ZERO,
        );
    }
}
