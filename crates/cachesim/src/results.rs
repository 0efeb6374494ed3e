//! Simulation results and derived metrics.

use crate::config::SimConfig;
use serde::{Deserialize, Serialize};

/// Counters and derived metrics of one cache simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimResult {
    /// The configuration that produced this result.
    pub config: SimConfig,
    /// Processor references fed to the caches.
    pub refs: u64,
    pub reads: u64,
    pub writes: u64,
    /// Misses.
    pub read_misses: u64,
    pub write_misses: u64,
    /// Words of data moved over the bus (line fetches, write-throughs,
    /// write-backs, update broadcasts).
    pub bus_words: u64,
    /// Bus transactions (each data transfer or control broadcast counts one).
    pub bus_transactions: u64,
    /// Invalidation broadcasts sent.
    pub invalidations: u64,
    /// Remote copies actually invalidated.
    pub copies_invalidated: u64,
    /// Word-update broadcasts sent (update-based protocols).
    pub updates: u64,
    /// Dirty lines written back on eviction or intervention.
    pub write_backs: u64,
    /// Line fetches from memory (or a remote cache).
    pub line_fetches: u64,
    /// Words written through to memory.
    pub write_through_words: u64,
}

impl SimResult {
    /// Create an empty result for a configuration.
    pub(crate) fn new(config: SimConfig) -> Self {
        SimResult {
            config,
            refs: 0,
            reads: 0,
            writes: 0,
            read_misses: 0,
            write_misses: 0,
            bus_words: 0,
            bus_transactions: 0,
            invalidations: 0,
            copies_invalidated: 0,
            updates: 0,
            write_backs: 0,
            line_fetches: 0,
            write_through_words: 0,
        }
    }

    /// Traffic ratio: bus words per processor-referenced word.  This is the
    /// quantity plotted in Figure 4 of the paper.
    pub fn traffic_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.bus_words as f64 / self.refs as f64
        }
    }

    /// Overall miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / self.refs as f64
        }
    }

    /// Fraction of processor traffic captured by the caches (does not appear
    /// on the bus); the paper quotes >70% for 128-word broadcast caches.
    pub fn capture_ratio(&self) -> f64 {
        1.0 - self.traffic_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, Protocol};

    fn cfg() -> SimConfig {
        SimConfig { cache: CacheConfig::default(), protocol: Protocol::WriteInBroadcast, num_pes: 2 }
    }

    #[test]
    fn ratios() {
        let mut r = SimResult::new(cfg());
        r.refs = 1000;
        r.reads = 700;
        r.writes = 300;
        r.read_misses = 70;
        r.write_misses = 30;
        r.bus_words = 250;
        assert!((r.traffic_ratio() - 0.25).abs() < 1e-12);
        assert!((r.miss_ratio() - 0.1).abs() < 1e-12);
        assert!((r.capture_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_result_is_all_zero() {
        let r = SimResult::new(cfg());
        assert_eq!(r.traffic_ratio(), 0.0);
        assert_eq!(r.miss_ratio(), 0.0);
    }
}
