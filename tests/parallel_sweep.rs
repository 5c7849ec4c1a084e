//! End-to-end guarantees for the parallel sweep executor: the rendered
//! tables are byte-identical at any worker count, and on hosts with
//! enough cores the parallel path actually goes faster.

use pvs::core::engine::{run_sweep_threads, SweepJob};
use pvs::core::phase::{Phase, VectorizationInfo};
use pvs::core::platforms;
use std::time::Instant;

#[test]
fn table_renders_identical_serial_vs_parallel() {
    let serial = pvs_bench::table3_model(1).render();
    for threads in [2, 4, 7] {
        let parallel = pvs_bench::table3_model(threads).render();
        assert_eq!(serial, parallel, "threads={threads} diverged from serial");
    }
}

#[test]
fn table7_and_fig9_render_identical_serial_vs_parallel() {
    assert_eq!(
        pvs_bench::table7_model(1).render(),
        pvs_bench::table7_model(4).render()
    );
    assert_eq!(
        pvs_bench::fig9_model(1).render(),
        pvs_bench::fig9_model(4).render()
    );
}

#[test]
fn all_tables_render_identical_serial_vs_parallel() {
    assert_eq!(
        pvs_bench::table4_model(1).render(),
        pvs_bench::table4_model(3).render()
    );
    assert_eq!(
        pvs_bench::table5_model(1).render(),
        pvs_bench::table5_model(3).render()
    );
    assert_eq!(
        pvs_bench::table6_model(1).render(),
        pvs_bench::table6_model(3).render()
    );
}

fn heavy_jobs(n: usize) -> Vec<SweepJob> {
    (0..n)
        .map(|i| SweepJob {
            machine: platforms::earth_simulator(),
            phases: vec![Phase::loop_nest("work", 4096 + i, 64)
                .flops_per_iter(8.0)
                .bytes_per_iter(16.0)
                .vector(VectorizationInfo::full())],
            procs: 64,
        })
        .collect()
}

#[test]
fn sweep_results_match_at_every_thread_count() {
    // The last two sweeps have fewer cells than threads.
    for (jobs, threads) in [(24, 2), (24, 3), (24, 8), (1, 8), (3, 8)] {
        let reference = run_sweep_threads(heavy_jobs(jobs), 1);
        let parallel = run_sweep_threads(heavy_jobs(jobs), threads);
        assert_eq!(reference.len(), jobs);
        assert_eq!(parallel.len(), jobs);
        for (a, b) in reference.iter().zip(&parallel) {
            assert_eq!(
                a.time_s.to_bits(),
                b.time_s.to_bits(),
                "jobs={jobs} threads={threads}"
            );
            assert_eq!(
                a.gflops_per_p.to_bits(),
                b.gflops_per_p.to_bits(),
                "jobs={jobs} threads={threads}"
            );
        }
    }
}

#[test]
fn parallel_sweep_is_faster_on_multicore_hosts() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup check: only {cores} core(s) available");
        return;
    }
    // Enough repetitions of the whole table grid to dominate thread setup.
    let reps = 40;
    let t1 = Instant::now();
    for _ in 0..reps {
        run_sweep_threads(heavy_jobs(16), 1);
    }
    let serial = t1.elapsed();
    let t4 = Instant::now();
    for _ in 0..reps {
        run_sweep_threads(heavy_jobs(16), 4);
    }
    let parallel = t4.elapsed();
    assert!(
        parallel.as_secs_f64() < serial.as_secs_f64() / 1.5,
        "expected speedup on {cores} cores: serial {serial:?} vs 4-thread {parallel:?}"
    );
}
