//! Machine configuration: the Table II machine of the paper.
//!
//! The paper evaluates one machine: out-of-order 2 GHz cores, 4-wide
//! issue, 64 KB 8-way L1s, a 512 KB 8-way shared L2, an ADR memory
//! controller with 32-entry read / 64-entry write queues, and NVMM with
//! 150 ns read / 300 ns write latency. Its sensitivity studies vary the
//! L2 size (Fig. 15a), the NVMM latencies (Fig. 14a), the thread count
//! (Fig. 14b) and the cleaner interval (Fig. 11). Those, the L1 size and
//! the NVMM image capacity are the fields of [`MachineConfig`]; every
//! other Table II parameter the model reads is a constant of this
//! module.
//!
//! Table II's 196-entry ROB has no constant: no ROB is modelled (see
//! [`crate::core`] for why).

use crate::cleaner::CleanerConfig;

/// Core clock in GHz. Latencies in nanoseconds are converted to cycles
/// at this frequency.
pub const FREQ_GHZ: f64 = 2.0;

/// Issue/retire width of each core (instructions per cycle for the
/// compute model).
pub const ISSUE_WIDTH: u64 = 4;

/// Store-queue capacity (stores and cache-line flushes occupy entries
/// until their writeback completes).
pub const STORE_QUEUE: usize = 48;

/// Per-core miss-status-holding registers (outstanding L1 misses).
pub const MSHRS: usize = 16;

/// Modelled memory-level parallelism: an out-of-order core overlaps this
/// many outstanding load misses, so a load miss charges only `1/MLP` of
/// its NVMM residency to the issuing core. Store and flush *completions*
/// (what `sfence` waits for) are never scaled.
pub const MLP: u64 = 4;

/// L1 associativity.
pub const L1_ASSOC: usize = 8;

/// L1 hit latency in cycles.
pub const L1_LATENCY: u64 = 2;

/// L2 associativity.
pub const L2_ASSOC: usize = 8;

/// L2 hit latency in cycles.
pub const L2_LATENCY: u64 = 11;

/// Memory-controller read queue entries.
pub const MC_READ_QUEUE: usize = 32;

/// Memory-controller write queue entries (in the ADR non-volatile
/// domain: a write accepted into this queue is durable).
pub const MC_WRITE_QUEUE: usize = 64;

/// Minimum cycles between successive NVMM read commands (bandwidth).
pub const MC_READ_GAP: u64 = 8;

/// Minimum cycles between successive NVMM write commands (bandwidth).
pub const MC_WRITE_GAP: u64 = 64;

/// Configuration of a simulated machine: what the paper's experiments
/// vary.
///
/// Construct with [`MachineConfig::default`] (Table II values) and adjust
/// fields via the `with_*` builder methods.
///
/// # Examples
///
/// ```
/// use lp_sim::config::MachineConfig;
/// let cfg = MachineConfig::default()
///     .with_cores(4)
///     .with_l2_bytes(1024 * 1024)
///     .with_nvmm_latency_ns(60, 150);
/// assert_eq!(cfg.cores, 4);
/// assert_eq!(cfg.nvmm_read_cycles(), 120); // 60 ns at 2 GHz
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of simulated cores (worker threads). Paper default: 8 workers
    /// (plus one master that performs no kernel work, which we omit).
    pub cores: usize,
    /// Per-core L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// Shared L2 size in bytes.
    pub l2_bytes: usize,
    /// NVMM read latency in nanoseconds (Table II default: 150 ns).
    pub nvmm_read_ns: u64,
    /// NVMM write latency in nanoseconds (Table II default: 300 ns).
    pub nvmm_write_ns: u64,
    /// Size of the simulated NVMM image in bytes.
    pub nvmm_bytes: usize,
    /// Optional periodic hardware cache cleaner (Section III-E1 / VI-A).
    pub cleaner: Option<CleanerConfig>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 8,
            l1_bytes: 64 * 1024,
            l2_bytes: 512 * 1024,
            nvmm_read_ns: 150,
            nvmm_write_ns: 300,
            nvmm_bytes: 256 * 1024 * 1024,
            cleaner: None,
        }
    }
}

impl MachineConfig {
    /// Set the number of cores.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!((1..=64).contains(&cores), "cores must be in 1..=64");
        self.cores = cores;
        self
    }

    /// Set the shared L2 capacity in bytes.
    pub fn with_l2_bytes(mut self, bytes: usize) -> Self {
        self.l2_bytes = bytes;
        self
    }

    /// Set per-core L1 capacity in bytes.
    pub fn with_l1_bytes(mut self, bytes: usize) -> Self {
        self.l1_bytes = bytes;
        self
    }

    /// Set NVMM read and write latencies in nanoseconds. The write-queue
    /// forward latency follows the read latency (see
    /// [`MachineConfig::mc_forward_latency`]).
    pub fn with_nvmm_latency_ns(mut self, read_ns: u64, write_ns: u64) -> Self {
        self.nvmm_read_ns = read_ns;
        self.nvmm_write_ns = write_ns;
        self
    }

    /// Set the NVMM image capacity in bytes.
    pub fn with_nvmm_bytes(mut self, bytes: usize) -> Self {
        self.nvmm_bytes = bytes;
        self
    }

    /// Enable the periodic hardware cache cleaner.
    pub fn with_cleaner(mut self, cleaner: CleanerConfig) -> Self {
        self.cleaner = Some(cleaner);
        self
    }

    /// Convert nanoseconds to core cycles at [`FREQ_GHZ`].
    #[inline]
    pub fn ns_to_cycles(&self, ns: u64) -> u64 {
        (ns as f64 * FREQ_GHZ).round() as u64
    }

    /// NVMM read latency in cycles.
    #[inline]
    pub fn nvmm_read_cycles(&self) -> u64 {
        self.ns_to_cycles(self.nvmm_read_ns)
    }

    /// NVMM write latency in cycles.
    #[inline]
    pub fn nvmm_write_cycles(&self) -> u64 {
        self.ns_to_cycles(self.nvmm_write_ns)
    }

    /// Latency of a read serviced by forwarding from a pending entry in
    /// the memory controller's write queue (no media access): a 25th of
    /// the NVMM read latency, at least 6 cycles, since the controller's
    /// front end is part of the media round trip. 12 cycles at Table II.
    #[inline]
    pub fn mc_forward_latency(&self) -> u64 {
        (self.nvmm_read_cycles() / 25).max(6)
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (at least
    /// one core; each cache size a multiple of its associativity times
    /// the line size, with a power-of-two set count).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be >= 1".into());
        }
        for (name, bytes, assoc) in [
            ("L1", self.l1_bytes, L1_ASSOC),
            ("L2", self.l2_bytes, L2_ASSOC),
        ] {
            let line = crate::addr::LINE_BYTES;
            if bytes % (assoc * line) != 0 {
                return Err(format!("{name} size must be a multiple of assoc * 64"));
            }
            let sets = bytes / (assoc * line);
            if !sets.is_power_of_two() {
                return Err(format!("{name} set count {sets} must be a power of two"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = MachineConfig::default();
        assert_eq!(c.l1_bytes, 64 * 1024);
        assert_eq!(c.l2_bytes, 512 * 1024);
        assert_eq!(L1_LATENCY, 2);
        assert_eq!(L2_LATENCY, 11);
        assert_eq!(c.nvmm_read_ns, 150);
        assert_eq!(c.nvmm_write_ns, 300);
        assert_eq!(STORE_QUEUE, 48);
        assert_eq!(MC_READ_QUEUE, 32);
        assert_eq!(MC_WRITE_QUEUE, 64);
        assert_eq!(c.mc_forward_latency(), 12);
        c.validate().unwrap();
    }

    #[test]
    fn ns_conversion_at_2ghz() {
        let c = MachineConfig::default();
        assert_eq!(c.nvmm_read_cycles(), 300);
        assert_eq!(c.nvmm_write_cycles(), 600);
        assert_eq!(c.ns_to_cycles(1), 2);
    }

    #[test]
    fn builder_chain() {
        let c = MachineConfig::default()
            .with_cores(16)
            .with_l1_bytes(32 * 1024)
            .with_l2_bytes(1024 * 1024)
            .with_nvmm_latency_ns(100, 200)
            .with_nvmm_bytes(64 * 1024 * 1024);
        assert_eq!(c.cores, 16);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 1024 * 1024);
        assert_eq!(c.nvmm_read_cycles(), 200);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        // 100 bytes: not a multiple of assoc*line.
        let c = MachineConfig {
            l2_bytes: 100,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());

        // 3 sets: not a power of two.
        let c = MachineConfig {
            l2_bytes: 3 * 8 * 64,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "cores must be in 1..=64")]
    fn with_cores_rejects_zero() {
        let _ = MachineConfig::default().with_cores(0);
    }
}
