//! Independent oracle for the vector-loop timing path.
//!
//! `VectorUnit::execute` prices a vector loop without walking its strips:
//! the full-strip term is computed once and added ⌊N/VL⌋ times by an exact
//! repeated-add, then the remainder strip's term is added. This file keeps
//! the straightforward spelling — one `+=` per strip, every term
//! recomputed — as a private reference, and requires the crate to agree
//! with it **bit for bit** on every `ExecResult` field, on the ES and X1
//! units, over trip counts from 0 to 5·10⁷, and over the strip-mining
//! boundary grid (`VL | n`, `n < VL`, `n = VL ± 1`, awkward VLs).

use pvs_vectorsim::{
    average_vector_length, es_processor, x1_msp, ExecResult, LoopClass, MemoryEnv, VectorLoop,
    VectorMetrics, VectorUnit, VectorUnitConfig,
};

/// The vector path as it was written before the closed form: per strip,
/// recompute the strip's startup + execution cost and add it.
fn reference(cfg: &VectorUnitConfig, l: &VectorLoop, mem: &MemoryEnv) -> ExecResult {
    let LoopClass::Vectorizable { multistreamable } = l.class else {
        unreachable!("the oracle covers the vector path");
    };
    let streams = if multistreamable { cfg.ssp_count } else { 1 };
    let trips_per_stream = l.trips.div_ceil(streams);
    let spill_factor = (l.live_vector_temps as f64 / cfg.vector_registers as f64).max(1.0);
    let vinsn_per_iter = (l.flops_per_iter / 2.0).max(1.0) * spill_factor;

    let gf = l.gather_fraction.clamp(0.0, 1.0);
    let num_strips = trips_per_stream.div_ceil(cfg.max_vl);
    let mut cycles_per_outer = 0.0;
    for s in 0..num_strips {
        let c = if s + 1 < num_strips || trips_per_stream % cfg.max_vl == 0 {
            cfg.max_vl
        } else {
            trips_per_stream % cfg.max_vl
        };
        let arith = cfg.startup_cycles + c as f64 / cfg.pipes as f64;
        let gather_elem_cycles =
            cfg.clock_mhz / 500.0 * streams as f64 / mem.access_efficiency.sqrt().max(0.05);
        let gather = cfg.startup_cycles + c as f64 * gather_elem_cycles;
        cycles_per_outer += vinsn_per_iter * ((1.0 - gf) * arith + gf * gather);
    }
    let compute_cycles = cycles_per_outer * l.outer_iters as f64;
    let memory_cycles =
        l.total_bytes() / (mem.bytes_per_cycle * mem.access_efficiency).max(f64::MIN_POSITIVE);
    let seconds = compute_cycles.max(memory_cycles) / (cfg.clock_mhz * 1e6);

    let instructions =
        (num_strips as f64 * vinsn_per_iter).ceil() as u64 * l.outer_iters as u64 * streams as u64;
    let element_ops = (vinsn_per_iter * trips_per_stream as f64).ceil() as u64
        * l.outer_iters as u64
        * streams as u64;
    let mut metrics = VectorMetrics::default();
    metrics.record_vector(element_ops, instructions.max(1));
    let repeats = l.outer_iters as u64 * streams as u64;
    let rem = (trips_per_stream % cfg.max_vl) as u64;
    ExecResult {
        seconds,
        metrics,
        flops: l.total_flops(),
        strips: num_strips as u64 * repeats,
        strip_lens: [
            (
                cfg.max_vl as u64,
                (trips_per_stream / cfg.max_vl) as u64 * repeats,
            ),
            (rem, if rem > 0 { repeats } else { 0 }),
        ],
    }
}

fn assert_bit_equal(cfg: &VectorUnitConfig, l: &VectorLoop, mem: &MemoryEnv) {
    let got = VectorUnit::new(*cfg).execute(l, mem);
    let want = reference(cfg, l, mem);
    let at = format!(
        "vl={} ssp={} trips={} {:?} gf={} eff={} temps={}",
        cfg.max_vl,
        cfg.ssp_count,
        l.trips,
        l.class,
        l.gather_fraction,
        mem.access_efficiency,
        l.live_vector_temps
    );
    assert_eq!(
        got.seconds.to_bits(),
        want.seconds.to_bits(),
        "{at}: seconds {} vs {}",
        got.seconds,
        want.seconds
    );
    assert_eq!(got.metrics, want.metrics, "{at}: metrics");
    assert_eq!(got.flops.to_bits(), want.flops.to_bits(), "{at}: flops");
    assert_eq!(got.strips, want.strips, "{at}: strips");
    assert_eq!(got.strip_lens, want.strip_lens, "{at}: strip_lens");
}

/// A loop whose per-strip term has a long significand (`vinsn` 6.5 times
/// a spill factor), so summation order shows in the last bits; no bytes,
/// so the compute cycles alone decide `seconds`.
fn vloop(trips: usize, multistreamable: bool, gf: f64, temps: usize) -> VectorLoop {
    VectorLoop {
        trips,
        outer_iters: 3,
        flops_per_iter: 13.0,
        bytes_per_iter: 0.0,
        gather_fraction: gf,
        live_vector_temps: temps,
        class: LoopClass::Vectorizable { multistreamable },
    }
}

#[test]
fn closed_form_strip_timing_matches_the_per_strip_walk() {
    for cfg in [es_processor(), x1_msp()] {
        let vl = cfg.max_vl;
        for trips in [
            0,
            1,
            vl - 1,
            vl,
            vl + 1,
            250,
            4_096,
            31_250,
            3_125_000,
            50_000_000,
        ] {
            for multistreamable in [true, false] {
                for gf in [0.0, 0.1, 0.5] {
                    for eff in [1.0, 0.37, 0.01] {
                        for temps in [8, 90] {
                            let mem = MemoryEnv {
                                bytes_per_cycle: 64.0,
                                access_efficiency: eff,
                            };
                            assert_bit_equal(&cfg, &vloop(trips, multistreamable, gf, temps), &mem);
                        }
                    }
                }
            }
        }
    }
}

// The strip-mining boundary grid: vl | n, n < vl, n = vl ± 1, n = 0,
// prime/awkward values, and the hardware vector lengths (64, 256).
const NS: [usize; 16] = [
    0, 1, 2, 3, 10, 63, 64, 65, 100, 250, 255, 256, 257, 999, 4096, 9999,
];
const VLS: [usize; 9] = [1, 2, 3, 7, 63, 64, 256, 500, 511];

#[test]
fn strip_boundaries_match_the_per_strip_walk() {
    for base in [es_processor(), x1_msp()] {
        for max_vl in VLS {
            let cfg = VectorUnitConfig { max_vl, ..base };
            for n in NS {
                for multistreamable in [true, false] {
                    let mem = MemoryEnv {
                        bytes_per_cycle: 64.0,
                        access_efficiency: 0.37,
                    };
                    assert_bit_equal(&cfg, &vloop(n, multistreamable, 0.1, 90), &mem);
                }
            }
        }
    }
}

#[test]
fn strip_lengths_cover_the_trips_and_stay_within_vl() {
    for max_vl in VLS {
        let cfg = VectorUnitConfig {
            max_vl,
            ..es_processor()
        };
        for n in NS {
            let r = VectorUnit::new(cfg).execute(&vloop(n, true, 0.0, 8), &MemoryEnv::clean(64.0));
            let covered: u64 = r.strip_lens.iter().map(|&(len, k)| len * k).sum();
            assert_eq!(covered, 3 * n as u64, "n={n} vl={max_vl}");
            assert_eq!(r.strip_lens.iter().map(|&(_, k)| k).sum::<u64>(), r.strips);
            for (len, k) in r.strip_lens {
                assert!(
                    k == 0 || (1..=max_vl as u64).contains(&len),
                    "n={n} vl={max_vl}"
                );
            }
            if n > 0 {
                let avl = average_vector_length(n, max_vl);
                assert!(
                    avl > 0.0 && avl <= max_vl as f64,
                    "n={n} vl={max_vl} avl={avl}"
                );
            }
        }
    }
}
