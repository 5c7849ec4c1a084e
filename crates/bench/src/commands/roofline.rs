//! Roofline sweep: per-processor performance as a function of
//! computational intensity on every machine — where the vector advantage
//! lives and where it ends.
//!
//! The study's four applications sit at very different intensities (LBMHD
//! ~0.2 flops/byte, Cactus ~1, PARATEC's BLAS3 ~6+); this sweep shows the
//! whole curve and marks each application's operating point.

use pvs_core::engine::Engine;
use pvs_core::phase::{Phase, VectorizationInfo};
use pvs_core::platforms;
use pvs_memsim::bandwidth::AccessPattern;

fn gflops_at_intensity(machine: pvs_core::machine::Machine, flops_per_byte: f64) -> f64 {
    let bytes_per_iter = 64.0;
    let phase = Phase::loop_nest("sweep", 1 << 20, 10)
        .flops_per_iter(flops_per_byte * bytes_per_iter)
        .bytes_per_iter(bytes_per_iter)
        .pattern(AccessPattern::UnitStride)
        .working_set(usize::MAX / 2)
        .vector(VectorizationInfo::full());
    Engine::new(machine).run(&[phase], 1).gflops_per_p
}

/// `pvs roofline`.
pub fn run() {
    println!("Roofline sweep: streaming kernel, Gflops/P vs computational intensity\n");
    println!(
        "{:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "flops/byte", "Power3", "Power4", "Altix", "ES", "X1"
    );
    let intensities = [0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    for &i in &intensities {
        let row: Vec<String> = platforms::all()
            .into_iter()
            .map(|m| format!("{:.2}", gflops_at_intensity(m, i)))
            .collect();
        println!(
            "{:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            i, row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!("\nApplication operating points (approximate flops/byte):");
    println!("  LBMHD    ~0.19  (1.5 flops/word: deep in the bandwidth-bound regime,");
    println!("                   where 4 bytes/flop of vector memory is decisive)");
    println!("  GTC      ~0.4   (plus gather/scatter costs not on this chart)");
    println!("  Cactus   ~1.0   (stencils with register pressure)");
    println!("  PARATEC  ~6     (BLAS3: every machine near its compute roof)");
    println!("\nThe vector machines' roof is an order of magnitude higher on the left");
    println!("of the chart; by ~8 flops/byte the superscalar systems have reached");
    println!("their own roofs and the gap is just the peak-rate ratio.");
}
