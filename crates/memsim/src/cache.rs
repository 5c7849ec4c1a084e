//! Single-level set-associative cache simulator with true-LRU replacement.
//!
//! The simulator is tag-only (no data payload): it answers "would this access
//! hit?" and maintains hit/miss/eviction statistics. Tag-only simulation is
//! exactly what is needed to estimate the *effective computational intensity*
//! of the superscalar platforms in the study — the quantity that decides
//! whether the Power3/Power4/Altix run a kernel compute-bound or
//! bandwidth-bound.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (e.g. `8 * 1024 * 1024` for the Power3 L2).
    pub size_bytes: usize,
    /// Cache-line size in bytes (all platforms in the study use 128-byte
    /// L2/L3 lines; we default to 128 elsewhere).
    pub line_bytes: usize,
    /// Set associativity; `1` means direct-mapped. A fully associative cache
    /// is expressed by `associativity == size_bytes / line_bytes`.
    pub associativity: usize,
}

impl CacheConfig {
    /// Create a config, panicking on degenerate geometry.
    pub fn new(size_bytes: usize, line_bytes: usize, associativity: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes),
            "size must be a multiple of line size"
        );
        let lines = size_bytes / line_bytes;
        assert!(
            associativity >= 1 && associativity <= lines,
            "bad associativity"
        );
        assert!(
            lines.is_multiple_of(associativity),
            "lines must divide evenly into sets"
        );
        Self {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    /// Number of sets in the cache.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / self.line_bytes / self.associativity
    }
}

/// Outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident.
    Hit,
    /// The line was not resident; `evicted` reports whether fetching it
    /// displaced a valid line.
    Miss { evicted: bool },
}

impl AccessResult {
    /// `true` when the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// Running statistics for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Report these statistics into a [`Recorder`](pvs_obs::Recorder)
    /// under the `memsim.cache.*` names. The invariant `hits + misses == accesses`
    /// holds for the recorded counters by construction.
    pub fn record_to(&self, r: &dyn pvs_obs::Recorder) {
        r.add("memsim.cache.accesses", self.accesses);
        r.add("memsim.cache.hits", self.hits);
        r.add("memsim.cache.misses", self.misses());
        r.add("memsim.cache.evictions", self.evictions);
    }

    /// Misses observed (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]`; defined as 1.0 for an untouched cache so that
    /// "no traffic" never looks like pathological thrashing.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, true-LRU, tag-only cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `associativity` tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(
            num_sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        Self {
            sets: vec![Vec::with_capacity(config.associativity); num_sets],
            stats: CacheStats::default(),
            set_mask: (num_sets - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            config,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access a byte address, updating LRU state and statistics.
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = ways.remove(pos);
            ways.push(t);
            self.stats.hits += 1;
            return AccessResult::Hit;
        }
        let evicted = if ways.len() == self.config.associativity {
            ways.remove(0); // LRU is at the front.
            self.stats.evictions += 1;
            true
        } else {
            false
        };
        ways.push(tag);
        AccessResult::Miss { evicted }
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no statistics update).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        self.sets[set].contains(&tag)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate all contents and reset statistics.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn recorded_hits_plus_misses_equal_issued_accesses() {
        let mut c = small();
        let mut issued = 0u64;
        for i in 0..257u64 {
            c.access(i * 64);
            issued += 1;
        }
        for i in 0..97u64 {
            c.access(i * 128);
            issued += 1;
        }
        let reg = pvs_obs::Registry::new();
        c.stats().record_to(&reg);
        assert_eq!(reg.counter("memsim.cache.accesses"), issued);
        assert_eq!(
            reg.counter("memsim.cache.hits") + reg.counter("memsim.cache.misses"),
            issued
        );
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000).is_hit());
        assert!(c.access(0x1000).is_hit());
        assert!(c.access(0x1010).is_hit(), "same line, different offset");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three distinct lines mapping to the same set (stride = num_sets * line).
        let stride = 4 * 64;
        c.access(0);
        c.access(stride as u64);
        // Touch line 0 again so line `stride` becomes LRU.
        c.access(0);
        // Third line evicts the LRU (line `stride`).
        let r = c.access(2 * stride as u64);
        assert_eq!(r, AccessResult::Miss { evicted: true });
        assert!(c.probe(0), "MRU line must survive");
        assert!(!c.probe(stride as u64), "LRU line must be evicted");
    }

    #[test]
    fn working_set_fits() {
        let mut c = small();
        // Working set exactly equal to capacity: 8 lines, touched twice.
        for pass in 0..2 {
            for i in 0..8u64 {
                let r = c.access(i * 64);
                if pass == 1 {
                    assert!(r.is_hit(), "second pass over resident set must hit");
                }
            }
        }
        assert_eq!(c.stats().misses(), 8);
    }

    #[test]
    fn thrashing_working_set() {
        let mut c = small();
        // 16 lines in a 8-line cache, streamed repeatedly: ~0% hits (LRU streaming).
        for _ in 0..4 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(
            c.stats().hits,
            0,
            "LRU streaming over 2x capacity never hits"
        );
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(CacheConfig::new(256, 64, 1)); // 4 sets, 1 way
        let stride = 4 * 64;
        for _ in 0..4 {
            c.access(0);
            c.access(stride as u64);
        }
        assert_eq!(
            c.stats().hits,
            0,
            "two lines in one direct-mapped set ping-pong"
        );
    }

    #[test]
    fn fully_associative() {
        let mut c = Cache::new(CacheConfig::new(512, 64, 8)); // one set, 8 ways
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert!(c.access(i * 64).is_hit());
        }
    }

    #[test]
    fn reset_clears() {
        let mut c = small();
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0).is_hit());
    }

    #[test]
    #[should_panic]
    fn rejects_bad_geometry() {
        CacheConfig::new(100, 64, 1);
    }
}
