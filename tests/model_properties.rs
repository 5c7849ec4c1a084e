//! Property tests on the performance model itself: directional sanity
//! (more bandwidth never hurts, overheads never help, scalar never beats
//! vector on a vector machine) across deterministic workload grids.
//!
//! These were proptest properties; they are now exhaustive sweeps over
//! fixed parameter grids chosen to straddle the model's regime boundaries
//! (vector-length breaks, bandwidth vs. compute bound crossovers), so
//! every `cargo test` exercises the full grid with no external crates.

use pvs::core::engine::Engine;
use pvs::core::phase::{Phase, VectorizationInfo};
use pvs::core::platforms;
use pvs::memsim::bandwidth::AccessPattern;

fn loop_phase(trips: usize, flops: f64, bytes: f64, v: VectorizationInfo) -> Phase {
    Phase::loop_nest("p", trips.max(1), 50)
        .flops_per_iter(flops.max(0.5))
        .bytes_per_iter(bytes.max(1.0))
        .pattern(AccessPattern::UnitStride)
        .working_set(usize::MAX / 2)
        .vector(v)
}

const TRIPS: [usize; 5] = [64, 255, 1024, 4097, 8191];
const FLOPS: [f64; 4] = [1.0, 3.5, 16.0, 63.0];
const BYTES: [f64; 4] = [8.0, 24.0, 96.0, 255.0];

#[test]
fn more_memory_bandwidth_never_hurts() {
    for trips in TRIPS {
        for flops in FLOPS {
            for bytes in BYTES {
                let phases = [loop_phase(trips, flops, bytes, VectorizationInfo::full())];
                let base = platforms::earth_simulator();
                let mut fat = base.clone();
                fat.mem_bw_gbs *= 2.0;
                let t_base = Engine::new(base).run(&phases, 4).time_s;
                let t_fat = Engine::new(fat).run(&phases, 4).time_s;
                assert!(
                    t_fat <= t_base * (1.0 + 1e-12),
                    "trips={trips} flops={flops} bytes={bytes}"
                );
            }
        }
    }
}

#[test]
fn vector_op_overhead_never_helps() {
    for trips in TRIPS {
        for flops in FLOPS {
            for overhead in [1.0f64, 1.5, 2.25, 3.9] {
                let clean = [loop_phase(trips, flops, 16.0, VectorizationInfo::full())];
                let mut v = VectorizationInfo::full();
                v.vector_op_overhead = overhead;
                let dirty = [loop_phase(trips, flops, 16.0, v)];
                let engine = Engine::new(platforms::x1());
                let t_clean = engine.run(&clean, 4).time_s;
                let t_dirty = engine.run(&dirty, 4).time_s;
                assert!(
                    t_dirty >= t_clean * (1.0 - 1e-12),
                    "trips={trips} flops={flops} overhead={overhead}"
                );
            }
        }
    }
}

#[test]
fn scalar_never_beats_vectorized_on_vector_machines() {
    for trips in [256usize, 1023, 4096, 8191] {
        for flops in [2.0f64, 9.5, 33.0, 63.0] {
            for machine in [platforms::earth_simulator(), platforms::x1()] {
                let vec = [loop_phase(trips, flops, 16.0, VectorizationInfo::full())];
                let sca = [loop_phase(trips, flops, 16.0, VectorizationInfo::scalar())];
                let engine = Engine::new(machine);
                let t_vec = engine.run(&vec, 4).time_s;
                let t_sca = engine.run(&sca, 4).time_s;
                assert!(
                    t_sca >= t_vec,
                    "trips={trips} flops={flops}: scalar {t_sca} vs vector {t_vec}"
                );
            }
        }
    }
}

#[test]
fn longer_vectors_never_run_slower_per_element() {
    // Same total elements, organized as short or long inner loops.
    for short in [8usize, 17, 33, 63] {
        for factor in [2usize, 5, 9, 15] {
            for flops in [2.0f64, 16.0, 63.0] {
                let long = short * factor;
                let total = long * 64;
                let mk = |trips: usize| {
                    Phase::loop_nest("p", trips, total / trips)
                        .flops_per_iter(flops)
                        .bytes_per_iter(8.0)
                        .working_set(usize::MAX / 2)
                        .vector(VectorizationInfo::full())
                };
                let engine = Engine::new(platforms::earth_simulator());
                let t_short = engine.run(&[mk(short)], 1).time_s;
                let t_long = engine.run(&[mk(long)], 1).time_s;
                assert!(
                    t_long <= t_short * (1.0 + 1e-9),
                    "short={short} factor={factor} flops={flops}: long {t_long} vs short {t_short}"
                );
            }
        }
    }
}

#[test]
fn register_spilling_never_helps() {
    for temps in [8usize, 31, 64, 100, 199] {
        for flops in [2.0f64, 16.0, 63.0] {
            let mut pressured = VectorizationInfo::full();
            pressured.live_vector_temps = temps;
            let base = [loop_phase(2048, flops, 16.0, VectorizationInfo::full())];
            let spilled = [loop_phase(2048, flops, 16.0, pressured)];
            let engine = Engine::new(platforms::x1());
            let t_base = engine.run(&base, 4).time_s;
            let t_spilled = engine.run(&spilled, 4).time_s;
            assert!(
                t_spilled >= t_base * (1.0 - 1e-12),
                "temps={temps} flops={flops}"
            );
        }
    }
}

#[test]
fn avl_never_exceeds_the_hardware_vector_length() {
    for trips in [1usize, 2, 63, 64, 65, 255, 256, 257, 1000, 9999] {
        for flops in [1.0f64, 16.0, 63.0] {
            let phases = [loop_phase(trips, flops, 16.0, VectorizationInfo::full())];
            let es = Engine::new(platforms::earth_simulator()).run(&phases, 1);
            let x1 = Engine::new(platforms::x1()).run(&phases, 1);
            assert!(es.avl().expect("vector") <= 256.0 + 1e-9, "trips={trips}");
            assert!(x1.avl().expect("vector") <= 64.0 + 1e-9, "trips={trips}");
        }
    }
}

#[test]
fn gflops_never_exceed_peak() {
    for trips in TRIPS {
        for flops in [1.0f64, 16.0, 127.0] {
            for bytes in [1.0f64, 8.0, 63.0] {
                for machine in platforms::all() {
                    let peak = machine.peak_gflops;
                    let phases = [loop_phase(trips, flops, bytes, VectorizationInfo::full())];
                    let r = Engine::new(machine).run(&phases, 1);
                    assert!(
                        r.gflops_per_p <= peak * (1.0 + 1e-9),
                        "trips={trips} flops={flops} bytes={bytes}: {} > peak {peak}",
                        r.gflops_per_p
                    );
                }
            }
        }
    }
}

#[test]
fn gtc_bank_replays_do_not_depend_on_the_processor_count() {
    // The engine keeps one bank replay per (bank geometry, `duplicate`,
    // hot words) for the whole process; that is exact only if the
    // counters a GTC cell books never depend on P. On the ES each cell
    // replays its deposition (8 hot words) and its push (4096).
    use pvs::core::machine::CpuClass;
    use pvs::gtc::perf::{GtcVariant, GtcWorkload};
    use pvs::memsim::banks::BankedMemory;
    use pvs::memsim::trace::scrambled_stream;
    use pvs::obs::{Histogram, Registry};
    use std::sync::Arc;

    let machine = platforms::earth_simulator();
    let CpuClass::Vector { banks, .. } = machine.cpu else {
        panic!("the ES is a vector machine");
    };
    let variant = GtcVariant::for_machine(machine.name);
    let booked = |procs: usize| {
        let reg = Arc::new(Registry::new());
        let phases = GtcWorkload::new(100, procs).phases(variant);
        Engine::new(machine.clone())
            .with_recorder(reg.clone())
            .run(&phases, procs);
        (
            reg.counter("memsim.bank.accesses"),
            reg.counter("memsim.bank.stall_cycles"),
            reg.hist("memsim.hist.bank_queue_depth"),
        )
    };
    let (mut accesses, mut stalls, mut depths) = (0, 0, Histogram::new());
    for hot in [8, 4096] {
        let mut mem = BankedMemory::new(banks);
        mem.duplicate(32);
        mem.gather(0, scrambled_stream(4096, hot));
        accesses += mem.accesses;
        stalls += mem.stall_cycles;
        for (depth, n) in mem.queue_depths() {
            depths.record_n(depth, n);
        }
    }
    let want = (accesses, stalls, Some(depths));
    assert!(variant.duplicated);
    assert_eq!(booked(16), want, "P=16");
    assert_eq!(booked(1024), want, "P=1024");
}
