//! The AMR vector-performance sweep — the paper's stated future work,
//! answered: the same total work at shrinking AMR tile sizes, across the
//! five machines. AVL tracks the tile edge; the vector advantage erodes.
use pvs_amr::perf::{sweep_tile_sizes, AmrWorkload};
use pvs_core::engine::Engine;
use pvs_core::platforms;
use pvs_core::report::PerfReport;

/// The sweep both `pvs amr_sweep` and `pvs experiments` render: each of
/// [`sweep_tile_sizes`] with the report of 2^20 cells/step of stencil
/// work on each of [`platforms::all`], in that order.
pub fn rows() -> Vec<(usize, Vec<PerfReport>)> {
    sweep_tile_sizes()
        .into_iter()
        .map(|tile| {
            let phases = AmrWorkload::new(1 << 20, tile).phases();
            let reports = platforms::all()
                .into_iter()
                .map(|m| Engine::new(m).run(&phases, 1))
                .collect();
            (tile, reports)
        })
        .collect()
}

/// `pvs amr_sweep`.
pub fn run() {
    println!("AMR tile-size sweep: Gflops/P for 2^20 cells/step of stencil work\n");
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "tile", "Power3", "Power4", "Altix", "ES", "X1", "ES AVL"
    );
    for (tile, reports) in rows() {
        print!("{tile:>6}");
        for r in &reports {
            print!(" {:>9.2}", r.gflops_per_p);
        }
        let es = reports.iter().find(|r| r.machine == "ES");
        println!(" {:>8.0}", es.and_then(PerfReport::avl).unwrap_or(0.0));
    }
    println!("\nThe vector machines forfeit their advantage as AMR tiles shrink below");
    println!("the hardware vector length - the 'additional dimension of architectural");
    println!("balance' the paper closes on, quantified.");
}
