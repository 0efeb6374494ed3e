//! Simulation configuration: cache geometry and coherency protocol.

use serde::{Deserialize, Serialize};

/// Geometry and allocation policy of one PE's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in words.
    pub size_words: u32,
    /// Line (block) size in words; the paper uses 4-word lines throughout.
    pub line_words: u32,
    /// `true` = write-allocate (a write miss fetches the block),
    /// `false` = no-write-allocate (a write miss goes straight to memory).
    pub write_allocate: bool,
}

impl CacheConfig {
    /// Number of lines the cache can hold.
    pub(crate) fn capacity_lines(&self) -> u32 {
        (self.size_words / self.line_words).max(1)
    }

    /// The allocation policy the paper found best for each size:
    /// no-write-allocate below 512 words, write-allocate at 512 words and
    /// above (hybrid caches keep no-write-allocate at 512).
    pub fn paper_policy(size_words: u32, protocol: Protocol) -> CacheConfig {
        let write_allocate = match protocol {
            Protocol::Hybrid => size_words > 512,
            _ => size_words >= 512,
        };
        CacheConfig { size_words, line_words: 4, write_allocate }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { size_words: 1024, line_words: 4, write_allocate: true }
    }
}

/// Cache-coherency protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Conventional write-through with invalidation of remote copies.
    WriteThrough,
    /// Write-back broadcast cache, invalidation-based ("write-in").
    WriteInBroadcast,
    /// Broadcast cache that updates remote copies (and memory) on writes to
    /// shared blocks.
    WriteThroughBroadcast,
    /// The paper's hybrid scheme: global-tagged data written through,
    /// local-tagged data copied back.
    Hybrid,
}

impl Protocol {
    /// All protocols, in the order the paper discusses them.
    pub const ALL: [Protocol; 4] = [
        Protocol::WriteInBroadcast,
        Protocol::WriteThroughBroadcast,
        Protocol::Hybrid,
        Protocol::WriteThrough,
    ];

    /// Short name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::WriteThrough => "write-thru",
            Protocol::WriteInBroadcast => "broadcast",
            Protocol::WriteThroughBroadcast => "wt-broadcast",
            Protocol::Hybrid => "hybrid",
        }
    }
}

/// One complete simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimConfig {
    pub cache: CacheConfig,
    pub protocol: Protocol,
    /// Number of PEs (the trace may mention fewer; referencing PE ids must be
    /// smaller than this).
    pub num_pes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_in_lines() {
        let c = CacheConfig { size_words: 1024, line_words: 4, write_allocate: true };
        assert_eq!(c.capacity_lines(), 256);
        let tiny = CacheConfig { size_words: 2, line_words: 4, write_allocate: false };
        assert_eq!(tiny.capacity_lines(), 1);
    }

    #[test]
    fn paper_policy_matches_section_3_2() {
        // "no-write-allocate is best for small caches"; 512/1024 used
        // write-allocate except hybrid at 512.
        assert!(!CacheConfig::paper_policy(256, Protocol::WriteInBroadcast).write_allocate);
        assert!(CacheConfig::paper_policy(512, Protocol::WriteInBroadcast).write_allocate);
        assert!(!CacheConfig::paper_policy(512, Protocol::Hybrid).write_allocate);
        assert!(CacheConfig::paper_policy(1024, Protocol::Hybrid).write_allocate);
        assert_eq!(CacheConfig::paper_policy(64, Protocol::WriteThrough).line_words, 4);
    }

    #[test]
    fn protocol_names_are_distinct() {
        let names: std::collections::HashSet<_> = Protocol::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Protocol::ALL.len());
    }
}
