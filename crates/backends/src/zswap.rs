//! The zswap compressed-memory pool.
//!
//! zswap (§3.4.1) stores anonymous pages compressed in DRAM instead of
//! writing them to a swap partition. A fault on a zswapped page incurs
//! only a decompression (~tens of microseconds) rather than a block I/O.
//! The per-page saving depends on the data's compressibility and on the
//! pool allocator's packing efficiency — the paper's production
//! deployment settled on zstd + zsmalloc after comparing lzo/lz4/zstd
//! and z3fold/zbud/zsmalloc (§5.1).

use tmo_sim::{ByteSize, DetRng, SimDuration};

use crate::slab::TokenSlab;
use crate::traits::{BackendKind, BackendStats, DeviceFault, IoKind, OffloadBackend, StoreOutcome};

/// The zswap pool allocator models the paper compared in §5.1.
///
/// The allocator bounds how densely compressed objects pack into
/// physical pages:
///
/// * `Zbud` stores at most 2 compressed objects per page — effective
///   compression is capped at 2:1 regardless of the data.
/// * `Z3fold` stores at most 3 objects per page — capped at 3:1.
/// * `Zsmalloc` packs objects at byte granularity with a small metadata
///   overhead — "the most efficient memory pool and ... the biggest
///   memory savings", hence the production choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ZswapAllocator {
    /// Two objects per page.
    Zbud,
    /// Three objects per page.
    Z3fold,
    /// Byte-granular packing (production choice).
    #[default]
    Zsmalloc,
}

impl ZswapAllocator {
    /// All allocators.
    pub const ALL: [ZswapAllocator; 3] = [
        ZswapAllocator::Zbud,
        ZswapAllocator::Z3fold,
        ZswapAllocator::Zsmalloc,
    ];

    /// Allocator name as used in the kernel.
    pub fn as_str(self) -> &'static str {
        match self {
            ZswapAllocator::Zbud => "zbud",
            ZswapAllocator::Z3fold => "z3fold",
            ZswapAllocator::Zsmalloc => "zsmalloc",
        }
    }

    /// The bytes a page of `page_bytes` consumes in the pool when its
    /// contents compress by `ratio`.
    pub fn stored_size(self, page_bytes: ByteSize, ratio: f64) -> ByteSize {
        let ratio = ratio.max(1.0);
        let effective = match self {
            // Object-per-page allocators cap the effective ratio.
            ZswapAllocator::Zbud => ratio.min(2.0),
            ZswapAllocator::Z3fold => ratio.min(3.0),
            // zsmalloc packs at byte granularity with ~6% metadata and
            // fragmentation overhead.
            ZswapAllocator::Zsmalloc => ratio / 1.06,
        };
        // A page never costs more than its uncompressed size: zswap
        // rejects incompressible pages rather than inflating them.
        page_bytes.mul_f64((1.0 / effective).min(1.0))
    }
}

impl std::fmt::Display for ZswapAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A zswap compressed-memory pool.
///
/// # Example
///
/// ```
/// use tmo_backends::{OffloadBackend, ZswapAllocator, ZswapPool};
/// use tmo_sim::{ByteSize, DetRng};
///
/// let mut pool = ZswapPool::new(ByteSize::from_mib(64), ZswapAllocator::Zsmalloc);
/// let mut rng = DetRng::seed_from_u64(5);
/// // A 4:1-compressible page consumes roughly a quarter of its size.
/// let out = pool.store(ByteSize::from_kib(4), 4.0, &mut rng).expect("fits");
/// assert!(out.stored_bytes < ByteSize::from_kib(2));
/// ```
#[derive(Debug, Clone)]
pub struct ZswapPool {
    name: String,
    capacity: ByteSize,
    allocator: ZswapAllocator,
    stored: TokenSlab,
    /// Everything but the stored-page counts, which `stored` holds.
    stats: BackendStats,
    /// Median decompression-side fault latency.
    read_median: SimDuration,
    /// Median compression-side write latency.
    write_median: SimDuration,
    latency_sigma: f64,
    /// Permanent death: pool contents lost, all stores/loads fail.
    dead: bool,
    /// Pool exhaustion injected: stores fail, loads still work.
    store_failed: bool,
}

/// z-score of the 90th percentile of a standard normal.
const Z90: f64 = 1.2816;

impl ZswapPool {
    /// Default pool: p90 reads of 40 µs (§2.5) and ~15 µs median
    /// compression on the store path (zstd on a 4 KiB page).
    pub fn new(capacity: ByteSize, allocator: ZswapAllocator) -> Self {
        let sigma = 0.35f64;
        // p90 = median * exp(Z90 * sigma)  =>  median = p90 / exp(...)
        let read_median = SimDuration::from_secs_f64(40e-6 / (Z90 * sigma).exp());
        ZswapPool {
            name: format!("zswap-{allocator}"),
            capacity,
            allocator,
            stored: TokenSlab::new(),
            stats: BackendStats::default(),
            read_median,
            write_median: SimDuration::from_micros(15),
            latency_sigma: sigma,
            dead: false,
            store_failed: false,
        }
    }

    /// The pool allocator.
    pub fn allocator(&self) -> ZswapAllocator {
        self.allocator
    }

    fn draw_latency(&self, median: SimDuration, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.log_normal(median.as_secs_f64(), self.latency_sigma))
    }
}

impl OffloadBackend for ZswapPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Zswap
    }

    fn access(&mut self, kind: IoKind, bytes: ByteSize, rng: &mut DetRng) -> SimDuration {
        match kind {
            IoKind::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += bytes;
                self.draw_latency(self.read_median, rng)
            }
            IoKind::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += bytes;
                self.draw_latency(self.write_median, rng)
            }
        }
    }

    fn store(
        &mut self,
        page_bytes: ByteSize,
        compress_ratio: f64,
        rng: &mut DetRng,
    ) -> Option<StoreOutcome> {
        if self.dead || self.store_failed {
            return None;
        }
        let stored_bytes = self.allocator.stored_size(page_bytes, compress_ratio);
        if self.available() < stored_bytes {
            return None;
        }
        // The store counts as a write. Its compression latency is not
        // charged to the reclaimer, so it is never computed; the draw it
        // would take is still consumed, keeping every later draw where
        // it was.
        self.stats.writes += 1;
        self.stats.bytes_written += stored_bytes;
        rng.skip_log_normal(self.write_median.as_secs_f64());
        let token = self.stored.insert(stored_bytes);
        Some(StoreOutcome {
            token,
            stored_bytes,
        })
    }

    fn load(&mut self, token: u64, rng: &mut DetRng) -> Option<SimDuration> {
        if self.dead {
            return None;
        }
        let bytes = self.stored.remove(token)?;
        Some(self.access(IoKind::Read, bytes, rng))
    }

    fn discard(&mut self, token: u64) -> bool {
        self.stored.remove(token).is_some()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            pages_stored: self.stored.len() as u64,
            bytes_stored: self.stored.bytes(),
            ..self.stats
        }
    }

    fn capacity(&self) -> ByteSize {
        self.capacity
    }

    fn tick(&mut self, _dt: SimDuration) {
        // DRAM has no congestion or endurance model.
    }

    fn inject(&mut self, fault: DeviceFault) {
        match fault {
            DeviceFault::Die => {
                // Pool contents are DRAM; death loses them all.
                self.dead = true;
                self.stored.clear();
            }
            // Wear-out does not apply to DRAM, but the observable
            // consequence (no further stores) is the same as exhaustion.
            DeviceFault::WearOut | DeviceFault::ExhaustPool => self.store_failed = true,
        }
        self.stats.faults_injected += 1;
    }

    fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: ByteSize = ByteSize::from_kib(4);

    #[test]
    fn zsmalloc_packs_best() {
        let ratio = 4.0;
        let zs = ZswapAllocator::Zsmalloc.stored_size(PAGE, ratio);
        let z3 = ZswapAllocator::Z3fold.stored_size(PAGE, ratio);
        let zb = ZswapAllocator::Zbud.stored_size(PAGE, ratio);
        assert!(zs < z3, "zsmalloc {zs} vs z3fold {z3}");
        assert!(z3 < zb, "z3fold {z3} vs zbud {zb}");
    }

    #[test]
    fn zbud_caps_effective_ratio_at_two() {
        let stored = ZswapAllocator::Zbud.stored_size(PAGE, 10.0);
        assert_eq!(stored, PAGE.mul_f64(0.5));
    }

    #[test]
    fn incompressible_pages_never_inflate() {
        for alloc in ZswapAllocator::ALL {
            let stored = alloc.stored_size(PAGE, 1.0);
            assert!(stored <= PAGE, "{alloc} inflated to {stored}");
        }
        // Ratios below 1 are clamped.
        let stored = ZswapAllocator::Zsmalloc.stored_size(PAGE, 0.5);
        assert!(stored <= PAGE);
    }

    #[test]
    fn store_load_round_trip_with_compression() {
        let mut pool = ZswapPool::new(ByteSize::from_mib(1), ZswapAllocator::Zsmalloc);
        let mut rng = DetRng::seed_from_u64(6);
        let out = pool.store(PAGE, 4.0, &mut rng).expect("fits");
        assert!(out.stored_bytes < PAGE.mul_f64(0.3));
        assert_eq!(pool.stats().bytes_stored, out.stored_bytes);
        let lat = pool.load(out.token, &mut rng).expect("present");
        assert!(lat > SimDuration::ZERO);
        assert_eq!(pool.stats().bytes_stored, ByteSize::ZERO);
    }

    #[test]
    fn store_consumes_the_draws_of_a_write_access() {
        let mut pool = ZswapPool::new(ByteSize::from_mib(1), ZswapAllocator::Zsmalloc);
        let mut accessed = pool.clone();
        let mut rng_store = DetRng::seed_from_u64(10);
        let mut rng_access = rng_store.clone();
        for _ in 0..50 {
            let out = pool.store(PAGE, 3.0, &mut rng_store).expect("fits");
            accessed.access(IoKind::Write, out.stored_bytes, &mut rng_access);
            assert_eq!(rng_store, rng_access);
        }
        let (s, a) = (pool.stats(), accessed.stats());
        assert_eq!((s.writes, s.bytes_written), (a.writes, a.bytes_written));
    }

    #[test]
    fn read_p90_is_about_40us() {
        let mut pool = ZswapPool::new(ByteSize::from_mib(1), ZswapAllocator::Zsmalloc);
        let mut rng = DetRng::seed_from_u64(7);
        let mut lats: Vec<f64> = (0..20_000)
            .map(|_| pool.access(IoKind::Read, PAGE, &mut rng).as_secs_f64())
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p90 = lats[(lats.len() as f64 * 0.90) as usize];
        assert!((p90 - 40e-6).abs() / 40e-6 < 0.1, "p90 {p90}");
    }

    #[test]
    fn capacity_enforced_on_compressed_size() {
        let mut pool = ZswapPool::new(ByteSize::from_kib(4), ZswapAllocator::Zsmalloc);
        let mut rng = DetRng::seed_from_u64(8);
        // A 4:1 page stores ~1085 B (4096 * 1.06 / 4), so three fit in
        // 4 KiB but a fourth does not.
        assert!(pool.store(PAGE, 4.0, &mut rng).is_some());
        assert!(pool.store(PAGE, 4.0, &mut rng).is_some());
        assert!(pool.store(PAGE, 4.0, &mut rng).is_some());
        assert!(pool.store(PAGE, 4.0, &mut rng).is_none());
    }

    #[test]
    fn discard_releases_pool_bytes() {
        let mut pool = ZswapPool::new(ByteSize::from_mib(1), ZswapAllocator::Zbud);
        let mut rng = DetRng::seed_from_u64(9);
        let out = pool.store(PAGE, 3.0, &mut rng).expect("fits");
        assert!(pool.discard(out.token));
        assert_eq!(pool.stats().bytes_stored, ByteSize::ZERO);
        assert!(!pool.discard(out.token));
    }
}
