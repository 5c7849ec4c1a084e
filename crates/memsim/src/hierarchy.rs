//! Multi-level cache hierarchy simulation.
//!
//! Composes up to three [`Cache`] levels in the "mostly inclusive" style of
//! the study's superscalar platforms: an access walks L1 → L2 → L3 → memory,
//! filling every level it missed on the way back. Statistics per level plus
//! memory-traffic accounting let callers convert an address trace into the
//! *effective* bytes-from-DRAM count, which is what bounds performance on the
//! Power and Itanium systems.

use crate::cache::{Cache, CacheConfig};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelHit {
    /// Serviced by the level-1 data cache.
    L1,
    /// Serviced by the level-2 cache.
    L2,
    /// Serviced by the level-3 cache.
    L3,
    /// Went all the way to main memory.
    Memory,
}

/// Configuration for a whole hierarchy. Levels beyond `levels.len()` simply
/// don't exist (the Power3 has no L3; the vector machines have none at all —
/// they use [`crate::banks`] instead).
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Inner-to-outer cache level geometries (max 3 levels).
    pub levels: Vec<CacheConfig>,
}

impl HierarchyConfig {
    /// Two-level hierarchy (e.g. Power3: 64 KB L1 + 8 MB L2).
    pub fn two_level(l1: CacheConfig, l2: CacheConfig) -> Self {
        Self {
            levels: vec![l1, l2],
        }
    }

    /// Three-level hierarchy (e.g. Power4, Altix).
    pub fn three_level(l1: CacheConfig, l2: CacheConfig, l3: CacheConfig) -> Self {
        Self {
            levels: vec![l1, l2, l3],
        }
    }
}

/// A simulated cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    levels: Vec<Cache>,
    line_bytes: usize,
    /// Bytes fetched from DRAM (outermost misses x line size).
    pub memory_bytes: u64,
    /// Total accesses.
    pub accesses: u64,
}

impl CacheHierarchy {
    /// Build an empty hierarchy.
    pub fn new(config: &HierarchyConfig) -> Self {
        assert!(!config.levels.is_empty() && config.levels.len() <= 3);
        let line_bytes = config.levels[0].line_bytes;
        Self {
            levels: config.levels.iter().map(|&c| Cache::new(c)).collect(),
            line_bytes,
            memory_bytes: 0,
            accesses: 0,
        }
    }

    /// Access a byte address; returns the level that serviced it and fills
    /// all inner levels.
    pub fn access(&mut self, addr: u64) -> LevelHit {
        self.accesses += 1;
        let mut hit_level = None;
        for (i, cache) in self.levels.iter_mut().enumerate() {
            if cache.access(addr).is_hit() {
                hit_level = Some(i);
                break;
            }
        }
        match hit_level {
            Some(0) => LevelHit::L1,
            Some(1) => LevelHit::L2,
            Some(2) => LevelHit::L3,
            Some(_) => unreachable!(),
            None => {
                self.memory_bytes += self.line_bytes as u64;
                LevelHit::Memory
            }
        }
    }

    /// Run a whole trace, returning the fraction of accesses serviced by any
    /// cache level (i.e. not requiring a DRAM fetch).
    pub fn run_trace<I: IntoIterator<Item = u64>>(&mut self, trace: I) -> f64 {
        let before_acc = self.accesses;
        let before_mem = self.memory_bytes;
        for a in trace {
            self.access(a);
        }
        let n = self.accesses - before_acc;
        if n == 0 {
            return 1.0;
        }
        let dram_lines = (self.memory_bytes - before_mem) / self.line_bytes as u64;
        1.0 - dram_lines as f64 / n as f64
    }

    /// Reset contents and statistics.
    pub fn reset(&mut self) {
        for c in &mut self.levels {
            c.reset();
        }
        self.memory_bytes = 0;
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    fn power3_like() -> CacheHierarchy {
        // Scaled-down Power3: 4 KB L1 (128-way in reality; use 8), 64 KB L2.
        CacheHierarchy::new(&HierarchyConfig::two_level(
            CacheConfig::new(4 * 1024, 128, 8),
            CacheConfig::new(64 * 1024, 128, 4),
        ))
    }

    #[test]
    fn inner_fill_on_outer_hit() {
        let mut h = power3_like();
        // First touch: memory. Evict from L1 by streaming, keep in L2.
        assert_eq!(h.access(0), LevelHit::Memory);
        // Stream 8 KB to push line 0 out of the 4 KB L1 but not the 64 KB L2.
        for i in 1..64u64 {
            h.access(i * 128);
        }
        assert_eq!(h.access(0), LevelHit::L2);
        // Now it has been refilled into L1.
        assert_eq!(h.access(0), LevelHit::L1);
    }

    #[test]
    fn streaming_counts_memory_bytes() {
        let mut h = power3_like();
        let n_lines = 1024u64; // 128 KB, exceeds both levels
        for i in 0..n_lines {
            h.access(i * 128);
        }
        assert_eq!(h.memory_bytes, n_lines * 128);
        assert_eq!(h.accesses, n_lines, "every access went to DRAM");
    }

    #[test]
    fn small_working_set_hits_l1() {
        let mut h = power3_like();
        let ws = trace::unit_stride(0, 16, 8); // 16 doubles = 2 lines
        h.run_trace(ws.clone());
        let rate = h.run_trace(ws);
        assert!(rate > 0.99, "resident working set must hit, got {rate}");
        assert_eq!(h.access(0), LevelHit::L1);
    }

    #[test]
    fn blocked_reuse_beats_streaming() {
        // The cache-blocking optimization from the paper's LBMHD/Cactus ports:
        // process a 32 KB array in 2 KB blocks touched 4x each vs 4 full sweeps.
        let total = 256 * 1024 / 8; // 32768 doubles, exceeds L1 and L2
        let mut blocked = power3_like();
        let mut streamed = power3_like();
        // Streaming: 4 sweeps over the full array.
        for _ in 0..4 {
            streamed.run_trace(trace::unit_stride(0, total, 8));
        }
        // Blocked: each 2 KB block swept 4 times before moving on.
        let block = 2 * 1024 / 8;
        for b in 0..(total / block) {
            for _ in 0..4 {
                blocked.run_trace(trace::unit_stride((b * block * 8) as u64, block, 8));
            }
        }
        assert!(
            blocked.memory_bytes < streamed.memory_bytes,
            "blocking must reduce DRAM traffic: {} vs {}",
            blocked.memory_bytes,
            streamed.memory_bytes
        );
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut h = power3_like();
        h.access(0);
        h.reset();
        assert_eq!(h.accesses, 0);
        assert_eq!(h.access(0), LevelHit::Memory);
    }
}
