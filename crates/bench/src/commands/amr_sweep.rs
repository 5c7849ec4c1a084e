//! The AMR vector-performance sweep — the paper's stated future work,
//! answered: the same total work at shrinking AMR tile sizes, across the
//! five machines. AVL tracks the tile edge; the vector advantage erodes.
use pvs_amr::perf::{sweep_tile_sizes, AmrWorkload};
use pvs_core::engine::Engine;
use pvs_core::platforms;

/// `pvs amr_sweep`.
pub fn run() {
    println!("AMR tile-size sweep: Gflops/P for 2^20 cells/step of stencil work\n");
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "tile", "Power3", "Power4", "Altix", "ES", "X1", "ES AVL"
    );
    for tile in sweep_tile_sizes() {
        let w = AmrWorkload::new(1 << 20, tile);
        let mut cells = Vec::new();
        let mut avl = 0.0;
        for m in platforms::all() {
            let name = m.name;
            let r = Engine::new(m).run(&w.phases(), 1);
            if name == "ES" {
                avl = r.avl().unwrap_or(0.0);
            }
            cells.push(format!("{:.2}", r.gflops_per_p));
        }
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.0}",
            tile, cells[0], cells[1], cells[2], cells[3], cells[4], avl
        );
    }
    println!("\nThe vector machines forfeit their advantage as AMR tiles shrink below");
    println!("the hardware vector length - the 'additional dimension of architectural");
    println!("balance' the paper closes on, quantified.");
}
