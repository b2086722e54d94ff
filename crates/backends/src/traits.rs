//! The backend interface the rest of the stack programs against.

use std::fmt;

use tmo_sim::{ByteSize, DetRng, SimDuration};

/// Direction of a device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// A read (page-in / refault / swap-in).
    Read,
    /// A write (page-out / swap-out / writeback).
    Write,
}

/// The class of an offload backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// NVMe SSD swap device.
    Ssd,
    /// Compressed-memory pool in DRAM.
    Zswap,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Ssd => "ssd",
            BackendKind::Zswap => "zswap",
        })
    }
}

/// Result of storing one page into a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// Opaque handle to the stored page, used to load or drop it later.
    pub token: u64,
    /// Bytes of backend capacity the page actually consumes (compressed
    /// size for zswap, page size for SSD swap).
    pub stored_bytes: ByteSize,
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Total reads served.
    pub reads: u64,
    /// Total writes served.
    pub writes: u64,
    /// Total bytes read.
    pub bytes_read: ByteSize,
    /// Total bytes written (endurance-relevant for SSDs).
    pub bytes_written: ByteSize,
    /// Pages currently stored.
    pub pages_stored: u64,
    /// Backend capacity currently consumed.
    pub bytes_stored: ByteSize,
    /// Transient I/O errors encountered (each resolved by retry).
    pub io_errors: u64,
    /// Retry attempts spent recovering from transient errors.
    pub retries: u64,
    /// Stores redirected around a dead tier (tiered failover).
    pub failovers: u64,
    /// Permanent faults injected into the device (death / wear-out /
    /// pool exhaustion).
    pub faults_injected: u64,
}

/// A permanent fault injected into a backend device.
///
/// Devices honour these via [`OffloadBackend::inject`]; the default
/// trait implementation ignores them, so fault injection is strictly
/// opt-in per backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFault {
    /// Permanent device death: stored data is lost, every subsequent
    /// store and load fails.
    Die,
    /// Write-endurance exhaustion (§4.5): the device refuses further
    /// writes but still serves reads of already-stored pages.
    WearOut,
    /// Pool/capacity exhaustion (e.g. a zswap pool whose DRAM budget
    /// was revoked): no further stores, existing pages still load.
    ExhaustPool,
}

/// A slow-memory tier that holds offloaded pages.
///
/// Implementations model latency (including congestion), capacity, and —
/// for SSDs — endurance. The trait is object-safe so a machine can hold
/// heterogeneous backends behind `Box<dyn OffloadBackend>`, and `Send`
/// so whole machines can run on worker threads in fleet experiments.
pub trait OffloadBackend: fmt::Debug + Send {
    /// Human-readable device name (e.g. `"ssd-C"`).
    fn name(&self) -> &str;

    /// The backend class.
    fn kind(&self) -> BackendKind;

    /// Models one device access of `bytes` and returns its latency.
    /// Updates congestion and cumulative statistics.
    fn access(&mut self, kind: IoKind, bytes: ByteSize, rng: &mut DetRng) -> SimDuration;

    /// Stores one page of `page_bytes` whose contents compress by
    /// `compress_ratio` (e.g. 4.0 means 4:1) and returns a token that
    /// names it until it is loaded or discarded. Returns `None` when the
    /// backend is out of capacity.
    ///
    /// The store counts as a device write (statistics, write rate,
    /// endurance) but returns no latency: a swap-out is not charged to
    /// the reclaimer. It still consumes the random draws a write access
    /// would, so later draws do not depend on whether a write was a
    /// store or an [`OffloadBackend::access`].
    fn store(
        &mut self,
        page_bytes: ByteSize,
        compress_ratio: f64,
        rng: &mut DetRng,
    ) -> Option<StoreOutcome>;

    /// Loads (and removes) a stored page, returning the fault latency
    /// the requesting task observes. Returns `None` for a token that
    /// names no stored page: never issued, already loaded or
    /// discarded, or lost with the device.
    fn load(&mut self, token: u64, rng: &mut DetRng) -> Option<SimDuration>;

    /// Drops a stored page without loading it (e.g. the owner exited).
    /// Returns whether the token named a stored page; a stale or
    /// never-issued token returns `false` and changes nothing.
    fn discard(&mut self, token: u64) -> bool;

    /// Cumulative statistics.
    fn stats(&self) -> BackendStats;

    /// Total capacity of the backend.
    fn capacity(&self) -> ByteSize;

    /// Capacity still available.
    fn available(&self) -> ByteSize {
        self.capacity().saturating_sub(self.stats().bytes_stored)
    }

    /// Advances the device's internal clock by one tick so rate-based
    /// models (congestion EWMA, write-rate windows) decay.
    fn tick(&mut self, dt: SimDuration);

    /// Recent write rate in MB/s (decimal), for endurance regulation.
    /// Zero for backends without an endurance concern.
    fn write_rate_mbps(&self) -> f64 {
        0.0
    }

    /// Injects a permanent fault. The default implementation ignores
    /// it — only devices that model the fault opt in.
    fn inject(&mut self, fault: DeviceFault) {
        let _ = fault;
    }

    /// Whether the device has permanently died ([`DeviceFault::Die`]).
    /// Dead devices fail every store and load; callers are expected to
    /// fail over or degrade to no-offload rather than panic.
    fn is_dead(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_display() {
        assert_eq!(BackendKind::Ssd.to_string(), "ssd");
        assert_eq!(BackendKind::Zswap.to_string(), "zswap");
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = BackendStats::default();
        assert_eq!(s.reads, 0);
        assert_eq!(s.bytes_stored, ByteSize::ZERO);
    }
}
