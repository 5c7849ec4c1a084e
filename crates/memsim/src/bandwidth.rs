//! Analytic effective-bandwidth model.
//!
//! The performance engine in `pvs-core` needs, for every kernel phase, the
//! *sustained* memory bandwidth a platform delivers for that phase's access
//! pattern and working set. This module provides a closed-form model whose
//! ingredients are each validated against the trace-driven simulators in
//! this crate:
//!
//! * **cache capture** — if the per-processor working set fits in a cache
//!   level, traffic is served at that level's (higher) bandwidth;
//! * **line utilization** — strided/indirect patterns waste the unused part
//!   of each fetched line (cache machines) or memory word group;
//! * **prefetch engagement** — DRAM streams without engaged prefetch run at
//!   latency-limited, not bandwidth-limited, speed (the Cactus-on-Power
//!   pathology);
//! * **bank conflicts** — vector machines lose throughput to conflicting
//!   strides (delegated to [`crate::banks`]).

use crate::hierarchy::HierarchyConfig;

/// Memory access pattern of a kernel phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Contiguous unit-stride streams (LBMHD collision, Cactus interior).
    UnitStride,
    /// Constant stride of `stride_elems` elements of `elem_bytes` each
    /// (stream-step copies, transposed accesses).
    Strided {
        stride_elems: usize,
        elem_bytes: usize,
    },
    /// Data-dependent gather/scatter (GTC deposition/gather); `reuse` in
    /// `[0,1]` is the fraction of accesses that re-touch a recently used
    /// line (spatially clustered particles have high reuse).
    Indirect { elem_bytes: usize, reuse: f64 },
    /// Unit-stride runs of `interior_elems` elements interrupted by
    /// ghost-zone skips (Cactus stencil sweeps), with `streams` distinct
    /// arrays swept concurrently (each needs its own prefetch tracker).
    GhostZoneSweep {
        interior_elems: usize,
        elem_bytes: usize,
        streams: usize,
    },
}

/// Relative bandwidth multipliers for cache levels vs DRAM. These are
/// conventional superscalar ratios (L1 runs near core bandwidth).
const LEVEL_BW_MULTIPLIER_DEFAULT: [f64; 3] = [8.0, 4.0, 2.0];

/// Default sustained fraction of *peak DRAM* bandwidth achievable by pure
/// streaming with prefetch fully engaged (STREAM-like efficiency).
pub const DEFAULT_STREAM_EFFICIENCY: f64 = 0.75;

/// Fraction of peak achievable when prefetch is disengaged and every line
/// fetch exposes full memory latency.
const LATENCY_BOUND_FRACTION: f64 = 0.15;

/// Analytic bandwidth model for one (superscalar) platform.
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    /// Peak DRAM bandwidth per processor, GB/s (Table 1 "Memory BW").
    pub peak_dram_gbs: f64,
    /// Cache geometry (empty for cacheless vector machines).
    pub hierarchy: Option<HierarchyConfig>,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Bandwidth multiplier for each cache level relative to DRAM.
    pub level_multiplier: [f64; 3],
    /// Whether a hardware stream prefetcher exists (IBM Power machines; the
    /// Itanium2 relies on software prefetch which we treat as engaged).
    pub has_stream_prefetch: bool,
    /// Sustained fraction of peak achievable by perfect streaming (a
    /// STREAM-benchmark-like machine constant; Power4 and Itanium2 sustain
    /// less of their nominal bandwidth than the Power3 does).
    pub stream_efficiency: f64,
    /// Hardware prefetch engine geometry (tracker count matters: a stencil
    /// sweeping more arrays than there are trackers thrashes the engine —
    /// the paper's Cactus-on-Power3 pathology).
    pub prefetch: crate::prefetch::PrefetchConfig,
}

impl BandwidthModel {
    /// Model for a cache-based machine.
    pub fn cached(
        peak_dram_gbs: f64,
        hierarchy: HierarchyConfig,
        line_bytes: usize,
        has_stream_prefetch: bool,
    ) -> Self {
        Self {
            peak_dram_gbs,
            hierarchy: Some(hierarchy),
            line_bytes,
            level_multiplier: LEVEL_BW_MULTIPLIER_DEFAULT,
            has_stream_prefetch,
            stream_efficiency: DEFAULT_STREAM_EFFICIENCY,
            prefetch: crate::prefetch::PrefetchConfig::default(),
        }
    }

    /// Model for a cacheless (vector) machine: bandwidth is pattern-dependent
    /// only through bank behaviour, which the vector execution model applies
    /// separately.
    pub fn cacheless(peak_dram_gbs: f64) -> Self {
        Self {
            peak_dram_gbs,
            hierarchy: None,
            line_bytes: 8,
            level_multiplier: [1.0; 3],
            has_stream_prefetch: false,
            stream_efficiency: DEFAULT_STREAM_EFFICIENCY,
            prefetch: crate::prefetch::PrefetchConfig::default(),
        }
    }

    /// Innermost cache level (0-based) whose capacity holds `working_set`
    /// bytes, if any.
    pub fn capturing_level(&self, working_set_bytes: usize) -> Option<usize> {
        let h = self.hierarchy.as_ref()?;
        h.levels
            .iter()
            .position(|l| working_set_bytes <= l.size_bytes)
    }

    /// Fraction of each fetched line actually consumed by the pattern.
    pub fn line_utilization(&self, pattern: AccessPattern) -> f64 {
        match pattern {
            AccessPattern::UnitStride => 1.0,
            AccessPattern::GhostZoneSweep { .. } => 1.0,
            AccessPattern::Strided {
                stride_elems,
                elem_bytes,
            } => {
                let span = stride_elems * elem_bytes;
                if span <= self.line_bytes {
                    1.0
                } else {
                    elem_bytes as f64 / self.line_bytes as f64
                }
            }
            AccessPattern::Indirect { elem_bytes, reuse } => {
                let base = elem_bytes as f64 / self.line_bytes as f64;
                // Reused lines amortize their fetch across several accesses.
                (base + reuse * (1.0 - base)).clamp(0.0, 1.0)
            }
        }
    }

    /// Whether the pattern keeps a hardware stream prefetcher engaged.
    pub fn prefetch_engaged(&self, pattern: AccessPattern) -> f64 {
        if self.hierarchy.is_none() {
            return 1.0; // vector loads are pipelined, not prefetched
        }
        if !self.has_stream_prefetch {
            return 1.0; // treat software-prefetch machines as engaged
        }
        match pattern {
            AccessPattern::UnitStride => 1.0,
            AccessPattern::Strided {
                stride_elems,
                elem_bytes,
            } => {
                if stride_elems * elem_bytes <= self.line_bytes {
                    1.0
                } else {
                    0.0 // strided line-skipping defeats the engines
                }
            }
            AccessPattern::Indirect { .. } => 0.0,
            AccessPattern::GhostZoneSweep {
                interior_elems,
                elem_bytes,
                streams,
            } => {
                if streams > self.prefetch.num_streams {
                    // More concurrent array sweeps than trackers: the
                    // engine thrashes and almost nothing is covered.
                    0.05
                } else {
                    crate::prefetch::ghost_zone_coverage(interior_elems, elem_bytes, &self.prefetch)
                }
            }
        }
    }

    /// Sustained bandwidth in GB/s for a phase touching `working_set_bytes`
    /// per processor with the given pattern.
    pub fn sustained_gbs(&self, working_set_bytes: usize, pattern: AccessPattern) -> f64 {
        // Cache capture: served at the capturing level's bandwidth.
        if let Some(level) = self.capturing_level(working_set_bytes) {
            return self.peak_dram_gbs
                * self.level_multiplier[level.min(2)]
                * self.line_utilization(pattern).max(0.25);
        }
        // DRAM-bound.
        let engaged = self.prefetch_engaged(pattern);
        let base = self.stream_efficiency * engaged + LATENCY_BOUND_FRACTION * (1.0 - engaged);
        let mut util = self.line_utilization(pattern);
        if let AccessPattern::GhostZoneSweep { streams, .. } = pattern {
            if self.has_stream_prefetch && streams > self.prefetch.num_streams {
                // Thrashing: the interleaved sweeps evict each other's
                // lines before they are fully consumed, on top of the
                // disengaged prefetch (§5.2: "stalled on memory requests
                // even though only a fraction of the available memory
                // bandwidth is utilized").
                util *= 0.25;
            }
        }
        self.peak_dram_gbs * base * util
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn power3_model() -> BandwidthModel {
        BandwidthModel::cached(
            0.7,
            HierarchyConfig::two_level(
                CacheConfig::new(128 * 1024, 128, 128),
                CacheConfig::new(8 * 1024 * 1024, 128, 4),
            ),
            128,
            true,
        )
    }

    #[test]
    fn cache_resident_beats_dram() {
        let m = power3_model();
        let small = m.sustained_gbs(64 * 1024, AccessPattern::UnitStride);
        let large = m.sustained_gbs(64 * 1024 * 1024, AccessPattern::UnitStride);
        assert!(small > 2.0 * large, "{small} vs {large}");
    }

    #[test]
    fn level_ordering_monotonic() {
        let m = power3_model();
        let l1 = m.sustained_gbs(32 * 1024, AccessPattern::UnitStride);
        let l2 = m.sustained_gbs(4 * 1024 * 1024, AccessPattern::UnitStride);
        let dram = m.sustained_gbs(1 << 30, AccessPattern::UnitStride);
        assert!(l1 > l2 && l2 > dram);
    }

    #[test]
    fn indirect_is_slowest_dram_pattern() {
        let m = power3_model();
        let ws = 1 << 30;
        let unit = m.sustained_gbs(ws, AccessPattern::UnitStride);
        let ind = m.sustained_gbs(
            ws,
            AccessPattern::Indirect {
                elem_bytes: 8,
                reuse: 0.0,
            },
        );
        assert!(ind < unit / 5.0, "{ind} vs {unit}");
    }

    #[test]
    fn reuse_improves_indirect() {
        let m = power3_model();
        let ws = 1 << 30;
        let cold = m.sustained_gbs(
            ws,
            AccessPattern::Indirect {
                elem_bytes: 8,
                reuse: 0.0,
            },
        );
        let warm = m.sustained_gbs(
            ws,
            AccessPattern::Indirect {
                elem_bytes: 8,
                reuse: 0.9,
            },
        );
        assert!(warm > 2.0 * cold);
    }

    #[test]
    fn large_stride_wastes_lines() {
        let m = power3_model();
        let ws = 1 << 30;
        let unit = m.sustained_gbs(ws, AccessPattern::UnitStride);
        let strided = m.sustained_gbs(
            ws,
            AccessPattern::Strided {
                stride_elems: 64,
                elem_bytes: 8,
            },
        );
        assert!(strided < unit / 4.0);
    }

    #[test]
    fn small_stride_within_line_is_fine() {
        let m = power3_model();
        let ws = 1 << 30;
        let s = m.sustained_gbs(
            ws,
            AccessPattern::Strided {
                stride_elems: 2,
                elem_bytes: 8,
            },
        );
        let u = m.sustained_gbs(ws, AccessPattern::UnitStride);
        assert!((s - u).abs() < 1e-12);
    }

    #[test]
    fn ghost_zone_sweep_degrades_with_short_rows() {
        let m = power3_model();
        let ws = 1 << 30;
        let long = m.sustained_gbs(
            ws,
            AccessPattern::GhostZoneSweep {
                interior_elems: 4096,
                elem_bytes: 8,
                streams: 2,
            },
        );
        let short = m.sustained_gbs(
            ws,
            AccessPattern::GhostZoneSweep {
                interior_elems: 64,
                elem_bytes: 8,
                streams: 2,
            },
        );
        assert!(short < long, "{short} vs {long}");
    }

    #[test]
    fn bandwidth_monotonic_in_working_set() {
        // Deterministic sweep: growing the working set never increases
        // sustained bandwidth (cache capture only ever helps), for every
        // access pattern, across sizes straddling both cache capacities.
        let m = power3_model();
        let patterns = [
            AccessPattern::UnitStride,
            AccessPattern::Strided {
                stride_elems: 4,
                elem_bytes: 8,
            },
            AccessPattern::Strided {
                stride_elems: 64,
                elem_bytes: 8,
            },
            AccessPattern::Indirect {
                elem_bytes: 8,
                reuse: 0.5,
            },
            AccessPattern::GhostZoneSweep {
                interior_elems: 512,
                elem_bytes: 8,
                streams: 2,
            },
        ];
        for pattern in patterns {
            let mut prev = f64::INFINITY;
            for shift in 10..31 {
                let ws = 1usize << shift;
                let bw = m.sustained_gbs(ws, pattern);
                assert!(
                    bw <= prev * (1.0 + 1e-12),
                    "ws={ws} pattern={pattern:?}: {bw} > {prev}"
                );
                prev = bw;
            }
        }
    }

    #[test]
    fn line_utilization_bounded_and_reuse_monotone() {
        // Utilization stays in (0, 1] over a stride sweep, and indirect
        // utilization never decreases with reuse.
        let m = power3_model();
        for stride in [1usize, 2, 3, 8, 15, 16, 17, 64, 255] {
            let u = m.line_utilization(AccessPattern::Strided {
                stride_elems: stride,
                elem_bytes: 8,
            });
            assert!(u > 0.0 && u <= 1.0, "stride={stride}: {u}");
        }
        let mut prev = 0.0;
        for i in 0..=10 {
            let reuse = i as f64 / 10.0;
            let u = m.line_utilization(AccessPattern::Indirect {
                elem_bytes: 8,
                reuse,
            });
            assert!(u >= prev - 1e-12, "reuse={reuse}");
            prev = u;
        }
    }

    #[test]
    fn cacheless_model_is_pattern_insensitive_here() {
        let m = BandwidthModel::cacheless(32.0);
        let a = m.sustained_gbs(1 << 30, AccessPattern::UnitStride);
        assert!((a - 32.0 * 0.75).abs() < 1e-9 || a > 0.0);
        assert!(m.capturing_level(1).is_none());
    }
}
