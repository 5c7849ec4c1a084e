//! Execution timing of loop nests on a vector unit.
//!
//! The model charges, per strip of a vectorized loop, one chained startup
//! plus `chunk / pipes` cycles per vector instruction in the body, and
//! bounds the result by sustained memory bandwidth (vector machines overlap
//! pipelined memory fetches with computation, so the bound is a `max`, not
//! a sum). Scalar loops run on the scalar core; on an X1 MSP only one of
//! the four SSP scalar cores does useful work in a serialized region.

use crate::config::VectorUnitConfig;
use crate::metrics::VectorMetrics;

/// How the compiler classified a loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopClass {
    /// Vectorized; `multistreamable` says whether the X1 compiler could also
    /// distribute iterations across the MSP's four SSPs (irrelevant on the
    /// ES, whose unit has `ssp_count == 1`).
    Vectorizable {
        /// Whether MSP multistreaming applies.
        multistreamable: bool,
    },
    /// Left on the scalar unit (dependences, nested ifs, …).
    Scalar,
}

/// One loop nest to execute.
#[derive(Debug, Clone, Copy)]
pub struct VectorLoop {
    /// Trip count of the (innermost, vectorized) loop.
    pub trips: usize,
    /// How many times the inner loop runs (product of outer loop trip
    /// counts); 1 for a flat loop.
    pub outer_iters: usize,
    /// Floating-point operations per inner iteration.
    pub flops_per_iter: f64,
    /// Memory traffic (loads + stores) in bytes per inner iteration.
    pub bytes_per_iter: f64,
    /// Fraction of the loop's vector instructions that are gather/scatter
    /// (indexed) memory operations. Gathers cannot use the replicated
    /// pipes: they issue roughly one element per cycle, which is why PIC
    /// deposition runs far below peak even when fully vectorized (§6).
    pub gather_fraction: f64,
    /// Vector-register temporaries the loop body keeps live; a body needing
    /// more than the hardware provides spills, inflating the instruction
    /// count (the Cactus BSSN kernel's "large number of variables" hits the
    /// X1's 32 registers per SSP much harder than the ES's 72).
    pub live_vector_temps: usize,
    /// Compiler classification.
    pub class: LoopClass,
}

impl VectorLoop {
    /// Total floating-point operations in the nest.
    pub fn total_flops(&self) -> f64 {
        self.flops_per_iter * self.trips as f64 * self.outer_iters as f64
    }

    /// Total memory traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_per_iter * self.trips as f64 * self.outer_iters as f64
    }

    /// Computational intensity (flops per byte).
    pub fn intensity(&self) -> f64 {
        if self.bytes_per_iter == 0.0 {
            f64::INFINITY
        } else {
            self.flops_per_iter / self.bytes_per_iter
        }
    }
}

/// Memory environment the unit executes in.
#[derive(Debug, Clone, Copy)]
pub struct MemoryEnv {
    /// Sustained memory bandwidth available to this unit, bytes per cycle
    /// (e.g. ES: 32 GB/s at 500 MHz = 64 B/cycle).
    pub bytes_per_cycle: f64,
    /// Derating in `(0, 1]` from bank conflicts / gather-scatter, computed
    /// by the caller (e.g. from `pvs-memsim::banks`).
    pub access_efficiency: f64,
}

impl MemoryEnv {
    /// Conflict-free environment with the given bandwidth.
    pub fn clean(bytes_per_cycle: f64) -> Self {
        Self {
            bytes_per_cycle,
            access_efficiency: 1.0,
        }
    }
}

/// Result of executing one loop nest.
#[derive(Debug, Clone, Copy)]
pub struct ExecResult {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Hardware-counter style metrics.
    pub metrics: VectorMetrics,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Strip-mine loop bodies executed (strips per stream × outer
    /// iterations × streams); 0 for a scalar loop. Cross-checks AVL:
    /// `element_ops / instructions` must equal the average strip length.
    pub strips: u64,
    /// Strip-length distribution as `(length, strips)` pairs: slot 0 the
    /// full-VL strips, slot 1 the remainder strips (zero-count slots are
    /// padding — a strip-mined loop has at most two distinct lengths).
    /// Fixed-size so the result stays `Copy`; counts sum to `strips`.
    pub strip_lens: [(u64, u64); 2],
}

impl ExecResult {
    /// Achieved Gflop/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.flops / 1e9 / self.seconds
        }
    }
}

/// A vector processing unit bound to a configuration.
#[derive(Debug, Clone, Copy)]
pub struct VectorUnit {
    config: VectorUnitConfig,
}

impl VectorUnit {
    /// Wrap a configuration.
    pub fn new(config: VectorUnitConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &VectorUnitConfig {
        &self.config
    }

    /// Execute a loop nest, returning time and counter metrics.
    pub fn execute(&self, l: &VectorLoop, mem: &MemoryEnv) -> ExecResult {
        match l.class {
            LoopClass::Scalar => self.execute_scalar(l),
            LoopClass::Vectorizable { multistreamable } => {
                self.execute_vector(l, mem, multistreamable)
            }
        }
    }

    fn execute_scalar(&self, l: &VectorLoop) -> ExecResult {
        let flops = l.total_flops();
        let seconds =
            flops / (self.config.scalar_peak_gflops * 1e9 * self.config.scalar_efficiency());
        let mut metrics = VectorMetrics::default();
        // Operations, not flops: normalize by the 2-flop MADD convention so
        // scalar and vector operation counts are commensurable in VOR.
        metrics.record_scalar((flops / 2.0) as u64);
        ExecResult {
            seconds,
            metrics,
            flops,
            strips: 0,
            strip_lens: [(0, 0); 2],
        }
    }

    fn execute_vector(&self, l: &VectorLoop, mem: &MemoryEnv, multistreamable: bool) -> ExecResult {
        let cfg = &self.config;
        // How many SSPs participate, and what trip count each one sees.
        let streams = if multistreamable { cfg.ssp_count } else { 1 };
        let trips_per_stream = l.trips.div_ceil(streams);

        // Arithmetic vector instructions per iteration (one MADD retires two
        // flops). Memory instructions chain with arithmetic and overlap with
        // the pipelined fetches, so their cost is carried entirely by the
        // bandwidth bound below rather than by issue slots. Register
        // pressure beyond the architected vector registers forces spill
        // loads/stores, inflating the instruction count proportionally.
        let spill_factor = (l.live_vector_temps as f64 / cfg.vector_registers as f64).max(1.0);
        let vinsn_per_iter = (l.flops_per_iter / 2.0).max(1.0) * spill_factor;

        let gf = l.gather_fraction.clamp(0.0, 1.0);
        // Gather throughput is set by the banked DRAM, not the core clock:
        // ~one element per GATHER_REFERENCE_NS per processor, shared by all
        // SSPs of an MSP, degraded by bank conflicts.
        let gather_elem_cycles =
            cfg.clock_mhz / 500.0 * streams as f64 / mem.access_efficiency.sqrt().max(0.05);
        let strip_cycles = |c: usize| {
            // Each vector instruction pays its issue/startup latency plus
            // its execution slots; short chunks cannot amortize the startup,
            // which is exactly why AVL matters. Gather/scatter elements
            // retire roughly one per cycle for the whole unit (all SSPs of
            // an MSP contend for the indexed memory ports), further slowed
            // by bank conflicts (`access_efficiency`).
            let arith = cfg.startup_cycles + c as f64 / cfg.pipes as f64;
            let gather = cfg.startup_cycles + c as f64 * gather_elem_cycles;
            vinsn_per_iter * ((1.0 - gf) * arith + gf * gather)
        };
        // Strips are summed in walk order — every full-VL strip, then the
        // remainder — one rounded add each, as a per-strip loop would.
        let full = trips_per_stream / cfg.max_vl;
        let rem = trips_per_stream % cfg.max_vl;
        let stream_strips = full + usize::from(rem > 0);
        let mut cycles_per_outer = repeat_add(0.0, strip_cycles(cfg.max_vl), full as u64);
        if rem > 0 {
            cycles_per_outer += strip_cycles(rem);
        }
        let compute_cycles = cycles_per_outer * l.outer_iters as f64;

        // Memory bound over the whole nest: bytes are global and the
        // bandwidth is a property of the whole unit, shared by all streams.
        let memory_cycles =
            l.total_bytes() / (mem.bytes_per_cycle * mem.access_efficiency).max(f64::MIN_POSITIVE);
        let total_cycles = compute_cycles.max(memory_cycles);

        let seconds = total_cycles / (cfg.clock_mhz * 1e6);

        // Counter accounting: each vector instruction processes `chunk`
        // element slots, so element ops = instructions-weighted chunk sums —
        // this makes AVL come out as the average strip length, exactly what
        // the hardware counters report.
        let flops = l.total_flops();
        let instructions = (stream_strips as f64 * vinsn_per_iter).ceil() as u64
            * l.outer_iters as u64
            * streams as u64;
        let element_ops = (vinsn_per_iter * trips_per_stream as f64).ceil() as u64
            * l.outer_iters as u64
            * streams as u64;
        let mut metrics = VectorMetrics::default();
        metrics.record_vector(element_ops, instructions.max(1));
        // Strip-length distribution: every stream × outer iteration walks
        // the same chunk sequence — full-VL strips plus at most one
        // remainder — so the whole nest has at most two distinct lengths.
        let repeats = l.outer_iters as u64 * streams as u64;
        let strip_lens = [
            (cfg.max_vl as u64, full as u64 * repeats),
            (rem as u64, if rem > 0 { repeats } else { 0 }),
        ];
        ExecResult {
            seconds,
            metrics,
            flops,
            strips: stream_strips as u64 * repeats,
            strip_lens,
        }
    }
}

/// Below this many terms the plain loop is faster than the binade walk,
/// which pays a few mispredicted branches and a division per binade.
/// Median `execute` ns on the ES unit, 2-core host, plain vs walk: 16
/// strips (the benchmark's loop) 20.5 vs 47.6, 160 strips 71.9 vs 78.4,
/// 192 strips 94.7 vs 95.1, 224 strips 126.5 vs 100.6.
const SHORT_SUM: u64 = 192;

/// `s0` with `x` added `n` times, one rounded `+=` at a time: the bits of
/// [`plain_add`], in time logarithmic rather than linear in `n` once `n`
/// reaches [`SHORT_SUM`] (see [`binade_add`]).
fn repeat_add(s0: f64, x: f64, n: u64) -> f64 {
    if n < SHORT_SUM {
        return plain_add(s0, x, n);
    }
    binade_add(s0, x, n)
}

/// The definition [`repeat_add`] keeps: `n` rounded adds, in order.
fn plain_add(s0: f64, x: f64, n: u64) -> f64 {
    let mut s = s0;
    for _ in 0..n {
        s += x;
    }
    s
}

/// [`repeat_add`] by binades, for `s0 >= 0` and finite `x > 0` (anything
/// else takes [`plain_add`]).
///
/// Inside one binade `[2^e, 2^(e+1))` every double is a multiple of the
/// binade's ulp `u`, so a step that stays in the binade adds a multiple
/// `d` of `u`. `d` depends on the running sum only through ties: when `x`
/// is an odd multiple of `u/2`, ties-to-even picks the neighbour with the
/// even significand. Such a step therefore leaves an even significand,
/// and every later step from an even significand breaks the tie the same
/// way. So once two consecutive steps have stayed inside one binade, the
/// second one's `d` repeats for as long as `s + d` stays below the
/// binade's top, and those steps are one exact `s + k·d`. A positive
/// binade is a run of consecutive bit patterns, so `d` and the jump are
/// integer arithmetic on bits. Steps near a binade's edge are taken one
/// at a time.
fn binade_add(s0: f64, x: f64, n: u64) -> f64 {
    if !(s0 >= 0.0 && x > 0.0 && x.is_finite()) {
        return plain_add(s0, x, n);
    }
    let mut s = s0;
    let mut left = n;
    // Consecutive steps that began and ended in the current binade.
    let mut settled = 0;
    while left > 0 {
        let t = s + x;
        left -= 1;
        let (sb, tb) = (s.to_bits(), t.to_bits());
        if tb == sb {
            // `x` is under half an ulp of `s`: every later step is this one.
            return t;
        }
        s = t;
        if sb >> 52 != tb >> 52 {
            settled = 0;
            continue;
        }
        settled += 1;
        if settled >= 2 {
            let d = tb - sb;
            let top = ((tb >> 52) + 1) << 52;
            let k = ((top - tb - 1) / d).min(left);
            s = f64::from_bits(tb + k * d);
            left -= k;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{es_processor, x1_msp};

    /// SplitMix64: a seeded stream of test inputs without a dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A positive double with a random significand and a binary
        /// exponent in `[lo, hi]`.
        fn double(&mut self, lo: i64, hi: i64) -> f64 {
            let e = lo + self.below((hi - lo + 1) as u64) as i64;
            f64::from_bits((((e + 1023) as u64) << 52) | (self.next() >> 12))
        }
    }

    /// The ulp of the binade `s` lies in.
    fn ulp(s: f64) -> f64 {
        f64::from_bits(s.to_bits() + 1) - s
    }

    fn assert_sums_match(s0: f64, x: f64, n: u64) {
        let want = plain_add(s0, x, n).to_bits();
        assert_eq!(
            binade_add(s0, x, n).to_bits(),
            want,
            "binade_add({s0:e}, {x:e}, {n})"
        );
        assert_eq!(
            repeat_add(s0, x, n).to_bits(),
            want,
            "repeat_add({s0:e}, {x:e}, {n})"
        );
    }

    #[test]
    fn repeat_add_matches_the_plain_loop_bit_for_bit() {
        let mut rng = Mix(26);
        for i in 0..20_000 {
            let n = rng.below(3_000);
            let s0 = if i % 8 == 0 { 0.0 } else { rng.double(-20, 40) };
            let e = if s0 == 0.0 {
                0
            } else {
                (s0.to_bits() >> 52) as i64 - 1023
            };
            let u = if s0 == 0.0 { 1.0 } else { ulp(s0) };
            let x = match i % 4 {
                // Anywhere from far below half an ulp to far above `s0`.
                0 | 1 => rng.double(e - 60, e + 10),
                // Ties: an odd multiple of half an ulp.
                2 => (rng.below(1_000) as f64 + 0.5) * u,
                // Straddling half an ulp.
                _ => {
                    let half = (u / 2.0).to_bits();
                    f64::from_bits([half - 1, half, half + 1][rng.below(3) as usize])
                }
            };
            assert_sums_match(s0, x, n);
        }
        for (s0, x, n) in [
            (0.0, 1.0, 10_000_000),
            (0.0, 520.0, 10_000_000),
            (0.0, 0.1, 10_000_000),
            (0.0, 341.25, 3_125_000),
            (1e6, 2.5 * ulp(1e6), 1_000_000),
            (0.0, f64::from_bits(3), 5_000),
            (1e308, 1e306, 300),
            (f64::INFINITY, 1.0, 100),
        ] {
            assert_sums_match(s0, x, n);
        }
        // Outside the binade walk's domain the plain loop answers.
        for (s0, x) in [(-3.5, 0.25), (2.0, -0.25), (2.0, 0.0), (1.0, f64::NAN)] {
            assert_eq!(
                repeat_add(s0, x, 1_000).to_bits(),
                plain_add(s0, x, 1_000).to_bits()
            );
        }
    }

    /// ES memory: 32 GB/s at 500 MHz = 64 bytes/cycle.
    fn es_mem() -> MemoryEnv {
        MemoryEnv::clean(64.0)
    }

    fn compute_heavy(trips: usize) -> VectorLoop {
        VectorLoop {
            trips,
            outer_iters: 100,
            flops_per_iter: 64.0,
            bytes_per_iter: 16.0, // intensity 4: compute-bound on the ES
            gather_fraction: 0.0,
            live_vector_temps: 8,
            class: LoopClass::Vectorizable {
                multistreamable: true,
            },
        }
    }

    #[test]
    fn long_vectors_approach_peak() {
        let unit = VectorUnit::new(es_processor());
        let r = unit.execute(&compute_heavy(4096), &es_mem());
        let frac = r.gflops() / unit.config().vector_peak_gflops();
        assert!(
            frac > 0.55,
            "long compute-bound loop should exceed 55% of peak, got {frac}"
        );
        assert!((r.metrics.avl() - 256.0).abs() < 1.0);
        assert_eq!(r.metrics.vor(), 1.0);
    }

    #[test]
    fn strip_length_distribution_sums_to_strips() {
        let unit = VectorUnit::new(es_processor());
        // 300 trips at VL 256: one full strip + a 44-element remainder
        // per stream per outer iteration.
        let r = unit.execute(&compute_heavy(300), &es_mem());
        let total: u64 = r.strip_lens.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, r.strips);
        assert_eq!(r.strip_lens[0].0, 256);
        assert_eq!(r.strip_lens[1].0, 44);
        assert_eq!(r.strip_lens[0].1, r.strip_lens[1].1);
        let weighted: u64 = r.strip_lens.iter().map(|&(l, n)| l * n).sum();
        assert_eq!(weighted, 300 * 100); // trips x outer_iters

        // Exact multiple: no remainder slot.
        let exact = unit.execute(&compute_heavy(512), &es_mem());
        assert_eq!(exact.strip_lens[1].1, 0);
        assert_eq!(exact.strip_lens[0].1, exact.strips);

        // Scalar loops have no strips at all.
        let mut sloop = compute_heavy(512);
        sloop.class = LoopClass::Scalar;
        let s = unit.execute(&sloop, &es_mem());
        assert_eq!(s.strip_lens, [(0, 0); 2]);
    }

    #[test]
    fn short_vectors_lose_to_startup() {
        let unit = VectorUnit::new(es_processor());
        let long = unit.execute(&compute_heavy(4096), &es_mem());
        let short = unit.execute(&compute_heavy(16), &es_mem());
        assert!(
            short.gflops() < long.gflops() * 0.7,
            "short {} vs long {}",
            short.gflops(),
            long.gflops()
        );
        assert!(short.metrics.avl() <= 16.0);
    }

    #[test]
    fn low_intensity_is_bandwidth_bound() {
        let unit = VectorUnit::new(es_processor());
        // LBMHD-like: 1.5 flops per 8-byte word = 0.1875 flops/byte.
        let l = VectorLoop {
            trips: 4096,
            outer_iters: 100,
            flops_per_iter: 12.0,
            bytes_per_iter: 64.0,
            gather_fraction: 0.0,
            live_vector_temps: 8,
            class: LoopClass::Vectorizable {
                multistreamable: true,
            },
        };
        let r = unit.execute(&l, &es_mem());
        // Bandwidth bound: 64 B/cycle * 0.1875 flop/B = 12 flops/cycle
        // = 6 Gflop/s at 500 MHz (75% of peak) upper bound.
        assert!(r.gflops() <= 6.0 + 1e-6, "{}", r.gflops());
        assert!(r.gflops() > 3.0, "{}", r.gflops());
    }

    #[test]
    fn bank_conflicts_slow_memory_bound_loops() {
        let unit = VectorUnit::new(es_processor());
        let l = VectorLoop {
            trips: 4096,
            outer_iters: 10,
            flops_per_iter: 4.0,
            bytes_per_iter: 64.0,
            gather_fraction: 0.0,
            live_vector_temps: 8,
            class: LoopClass::Vectorizable {
                multistreamable: true,
            },
        };
        let clean = unit.execute(&l, &es_mem());
        let conflicted = unit.execute(
            &l,
            &MemoryEnv {
                bytes_per_cycle: 64.0,
                access_efficiency: 0.25,
            },
        );
        assert!(conflicted.seconds > 3.0 * clean.seconds);
    }

    #[test]
    fn msp_multistreaming_quadruples_throughput() {
        let unit = VectorUnit::new(x1_msp());
        let mem = MemoryEnv::clean(42.6); // 34.1 GB/s at 800 MHz
        let streamed = VectorLoop {
            trips: 4096,
            outer_iters: 100,
            flops_per_iter: 64.0,
            bytes_per_iter: 16.0,
            gather_fraction: 0.0,
            live_vector_temps: 8,
            class: LoopClass::Vectorizable {
                multistreamable: true,
            },
        };
        let unstreamed = VectorLoop {
            class: LoopClass::Vectorizable {
                multistreamable: false,
            },
            ..streamed
        };
        let rs = unit.execute(&streamed, &mem);
        let ru = unit.execute(&unstreamed, &mem);
        let ratio = rs.gflops() / ru.gflops();
        assert!((3.0..=4.5).contains(&ratio), "multistream speedup {ratio}");
    }

    #[test]
    fn serialized_loop_pays_32x_on_msp_8x_on_es() {
        let es = VectorUnit::new(es_processor());
        let x1 = VectorUnit::new(x1_msp());
        let vl = compute_heavy(4096);
        let sl = VectorLoop {
            class: LoopClass::Scalar,
            ..vl
        };

        let es_pen = es.execute(&vl, &es_mem()).gflops() / es.execute(&sl, &es_mem()).gflops();
        let mem = MemoryEnv::clean(42.6);
        let x1_pen = x1.execute(&vl, &mem).gflops() / x1.execute(&sl, &mem).gflops();
        assert!(
            x1_pen > 2.5 * es_pen,
            "X1 serialization penalty ({x1_pen:.1}x) must far exceed ES ({es_pen:.1}x)"
        );
    }

    #[test]
    fn x1_avl_capped_at_64() {
        let unit = VectorUnit::new(x1_msp());
        let r = unit.execute(&compute_heavy(4096), &MemoryEnv::clean(42.6));
        assert!(r.metrics.avl() <= 64.0 + 1e-9);
        assert!(r.metrics.avl() > 60.0);
    }

    #[test]
    fn scalar_run_has_zero_vor() {
        let unit = VectorUnit::new(es_processor());
        let l = VectorLoop {
            trips: 100,
            outer_iters: 1,
            flops_per_iter: 10.0,
            bytes_per_iter: 8.0,
            gather_fraction: 0.0,
            live_vector_temps: 8,
            class: LoopClass::Scalar,
        };
        let r = unit.execute(&l, &es_mem());
        assert_eq!(r.metrics.vor(), 0.0);
    }

    #[test]
    fn strip_counts_cross_check_avl() {
        let unit = VectorUnit::new(es_processor());
        let r = unit.execute(&compute_heavy(4096), &es_mem());
        // 4096 trips / 256 max VL = 16 strips per outer iteration.
        assert_eq!(r.strips, 16 * 100);
        // AVL is elements per vector instruction; independently, total
        // trips / strips gives the average strip length. The two must
        // agree — that is the strip-mine/AVL cross-check.
        let avg_strip = (4096.0 * 100.0) / r.strips as f64;
        assert!(
            (avg_strip - r.metrics.avl()).abs() < 1.0,
            "avg strip {avg_strip} vs AVL {}",
            r.metrics.avl()
        );
        assert!((r.metrics.avl() - 256.0).abs() < 1.0);
    }

    #[test]
    fn scalar_loops_have_no_strips() {
        let unit = VectorUnit::new(es_processor());
        let sl = VectorLoop {
            class: LoopClass::Scalar,
            ..compute_heavy(4096)
        };
        assert_eq!(unit.execute(&sl, &es_mem()).strips, 0);
    }

    #[test]
    fn flop_accounting_is_exact() {
        let unit = VectorUnit::new(es_processor());
        let l = compute_heavy(1000);
        let r = unit.execute(&l, &es_mem());
        assert!((r.flops - 64.0 * 1000.0 * 100.0).abs() < 1.0);
    }
}
