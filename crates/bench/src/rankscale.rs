//! The `rankscale` command's engine: weak-scaling the four applications'
//! communication kernels to 10⁵ virtual ranks on the event-driven
//! mpisim runtime.
//!
//! The thread-backed runtime tops out around the host's thread limit,
//! so the paper's largest configurations (LBMHD 8192² on P = 8192, the
//! Earth Simulator weak-scaling studies) could never be replayed
//! rank-for-rank before. The event-driven runtime multiplexes virtual
//! ranks on one scheduler thread, so this sweep runs the per-app scale
//! kernels (`pvs_lbmhd::scale`, `pvs_gtc::scale`, `pvs_cactus::scale`,
//! `pvs_paratec::scale`) at rank counts up to 131 072.
//!
//! **Identity gate:** before any cell runs, every app's kernel is
//! executed on *both* runtimes at small P and compared bit-for-bit
//! (values and per-rank traffic). A mismatch hard-fails the whole run —
//! scale numbers from a divergent simulator are worthless.
//!
//! The output document reuses the `pvs-bench/profile-v2` schema so
//! `compare` gates it exactly like `BENCH_sweep.json`. The model axes
//! are synthetic but deterministic:
//!
//! * `model.time_s`  — total simulator events (resumes + routed
//!   messages + completed collectives);
//! * `model.comm_s`  — the communication share (messages + collectives);
//! * `model.gflops_per_p` — an FNV-1a checksum of every rank's output
//!   bits in rank order, folded below 2⁵³ so it round-trips f64 JSON
//!   exactly. Any behavioural drift anywhere in the runtime moves it.

use crate::profile::{CellProfile, ProfileOutput, SweepCell};
use pvs_core::hash::Fnv1a;
use pvs_core::report::{PerfReport, PhaseBreakdown};
use pvs_mpisim::event::SimStats;
use pvs_mpisim::{first_divergence, CommStats};
use pvs_obs::Registry;

/// One rank-scaling cell: an application kernel at a rank count.
#[derive(Debug, Clone, Copy)]
pub struct RankScaleCell {
    /// Application name (`LBMHD`, `PARATEC`, `CACTUS`, `GTC`).
    pub app: &'static str,
    /// Virtual rank count.
    pub procs: usize,
}

type KernelV1 = fn(usize) -> Vec<(Vec<f64>, CommStats)>;
/// `run_scale_v2(p, _threads)`: the second argument is unused (the event
/// runtime resumes every superstep on one thread) and stays only because
/// `benchmark/` links the signature; callers here pass 1.
type KernelV2 = fn(usize, usize) -> (Vec<(Vec<f64>, CommStats)>, SimStats);

/// The two runtime entry points for one application's kernel.
fn kernels(app: &str) -> (KernelV1, KernelV2) {
    match app {
        "LBMHD" => (pvs_lbmhd::scale::run_scale_v1, pvs_lbmhd::scale::run_scale_v2),
        "GTC" => (pvs_gtc::scale::run_scale_v1, pvs_gtc::scale::run_scale_v2),
        "CACTUS" => (pvs_cactus::scale::run_scale_v1, pvs_cactus::scale::run_scale_v2),
        "PARATEC" => (
            pvs_paratec::scale::run_scale_v1,
            pvs_paratec::scale::run_scale_v2,
        ),
        other => panic!("unknown rankscale app {other:?}"),
    }
}

/// The full weak-scaling ladder. PARATEC stops early: its kernel is a
/// dense personalized all-to-all, so traffic (and simulator memory)
/// grows as P², exactly the bisection-bandwidth wall §5 of the paper
/// attributes its scaling limit to. Its top rung, P = 2 048, is one
/// doubling past the paper's Table 4 (≈ 0.25 s and 200 MiB on the 2-core
/// host with flat all-to-all blocks); P² × 16 B of real payload is 1 GiB
/// at 8 192 whatever the layout.
pub fn weak_scaling_cells() -> Vec<RankScaleCell> {
    let mut cells = Vec::new();
    for procs in [64usize, 1024, 8192, 65536, 131072] {
        cells.push(RankScaleCell { app: "LBMHD", procs });
    }
    for procs in [64usize, 1024, 8192, 65536, 131072] {
        cells.push(RankScaleCell { app: "GTC", procs });
    }
    for procs in [64usize, 1024, 8192, 65536] {
        cells.push(RankScaleCell { app: "CACTUS", procs });
    }
    for procs in [64usize, 256, 1024, 2048] {
        cells.push(RankScaleCell { app: "PARATEC", procs });
    }
    cells
}

/// Rank counts the identity gate replays on both runtimes.
pub const IDENTITY_P: [usize; 3] = [2, 4, 16];

/// Run every app's kernel on both runtimes at [`IDENTITY_P`] and demand
/// bit-identical values and traffic statistics.
pub fn verify_identity() -> Result<(), String> {
    for app in ["LBMHD", "GTC", "CACTUS", "PARATEC"] {
        let (v1_run, v2_run) = kernels(app);
        for p in IDENTITY_P {
            if let Some(divergence) = first_divergence(&v1_run(p), &v2_run(p, 1).0) {
                return Err(format!("{app} {divergence}"));
            }
        }
    }
    Ok(())
}

/// FNV-1a over every rank's output bits in rank order, folded below 2⁵³
/// so the checksum survives the f64 JSON round-trip exactly.
fn output_checksum(per_rank: &[(Vec<f64>, CommStats)]) -> u64 {
    let mut hash = Fnv1a::new();
    for (values, _) in per_rank {
        for x in values {
            hash.write(&x.to_bits().to_le_bytes());
        }
    }
    hash.finish() % (1u64 << 53)
}

/// Minor page faults this process has taken so far (`minflt`, field 10
/// of `/proc/self/stat`); `None` where `/proc` is absent.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, is parenthesised and may hold spaces.
    stat.rsplit_once(')')?.1.split_whitespace().nth(7)?.parse().ok()
}

/// Run one cell on the event-driven runtime and render it as a
/// profile-v2 cell, with the minor page faults the run took.
fn run_cell(cell: RankScaleCell) -> (CellProfile, Option<u64>) {
    let (_, v2_run) = kernels(cell.app);
    let faults_before = minor_faults();
    let started = std::time::Instant::now();
    let (per_rank, sim) = v2_run(cell.procs, 1);
    let host_s = started.elapsed().as_secs_f64();
    let minflt = minor_faults()
        .zip(faults_before)
        .map(|(after, before)| after - before);

    let reg = Registry::new();
    sim.record_to(&reg);
    let total_bytes: u64 = per_rank.iter().map(|(_, s)| s.bytes_sent).sum();
    let events = sim.resumes + sim.messages + sim.collectives;
    let comm_events = sim.messages + sim.collectives;
    let report = PerfReport {
        machine: "mpisim-v2".to_string(),
        procs: sim.ranks as usize,
        time_s: events as f64,
        comm_s: comm_events as f64,
        flops_per_p: total_bytes as f64,
        gflops_per_p: output_checksum(&per_rank) as f64,
        pct_peak: 0.0,
        vector_metrics: None,
        phases: vec![
            PhaseBreakdown {
                name: "resume".to_string(),
                seconds: sim.resumes as f64,
                flops: 0.0,
                is_comm: false,
            },
            PhaseBreakdown {
                name: "p2p".to_string(),
                seconds: sim.messages as f64,
                flops: 0.0,
                is_comm: true,
            },
            PhaseBreakdown {
                name: "collectives".to_string(),
                seconds: sim.collectives as f64,
                flops: 0.0,
                is_comm: true,
            },
        ],
    };
    let profile = CellProfile {
        cell: SweepCell {
            app: cell.app,
            config: "weak-scaling",
            machine: "mpisim-v2",
            procs: cell.procs,
        },
        report,
        snapshot: reg.snapshot(),
        host_secs: vec![host_s],
    };
    (profile, minflt)
}

/// Run the sweep: the identity gate first, then the cells serially (running
/// 10⁵-rank cells concurrently would multiply peak memory). Returns the
/// document and, per cell in the same order, the minor page faults its
/// run took — a host note kept out of the document, `None` where `/proc`
/// is absent.
pub fn run_rankscale(
    cells: &[RankScaleCell],
) -> Result<(ProfileOutput, Vec<Option<u64>>), String> {
    verify_identity()?;
    let (profiles, minflt) = cells.iter().map(|&c| run_cell(c)).unzip();
    Ok((
        ProfileOutput::from_rows(profiles, Registry::new().snapshot(), 1),
        minflt,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reaches_past_1e5_ranks() {
        let cells = weak_scaling_cells();
        assert!(cells.iter().any(|c| c.procs > 100_000));
        // PARATEC's dense all-to-all is capped (P² traffic).
        let paratec_max = cells
            .iter()
            .filter(|c| c.app == "PARATEC")
            .map(|c| c.procs)
            .max()
            .unwrap();
        assert_eq!(paratec_max, 2048);
    }

    #[test]
    fn identity_gate_passes() {
        verify_identity().expect("v1 and v2 agree bit-for-bit");
    }

    #[test]
    fn document_passes_the_schema_gate() {
        let (out, minflt) = run_rankscale(&[
            RankScaleCell { app: "LBMHD", procs: 64 },
            RankScaleCell { app: "PARATEC", procs: 64 },
        ])
        .expect("identity gate passes");
        assert_eq!(minflt.len(), 2);
        let json = out.to_json();
        assert!(json.contains("\"schema\": \"pvs-bench/profile-v2\""));
        assert!(json.contains("\"machine\": \"mpisim-v2\""));
        assert!(json.contains("\"mpisim.sim.ranks\""));
        let doc = pvs_core::json::parse(&json).expect("the document parses");
        pvs_analyze::sentinel::check_profile_doc(&doc).expect("a profile document");
        let cells = doc.get("cells").and_then(pvs_core::json::Value::as_array);
        assert_eq!(cells.map(<[_]>::len), Some(2));
    }

    #[test]
    fn checksum_moves_when_output_moves() {
        let a = vec![(vec![1.0, 2.0], CommStats::default())];
        let b = vec![(vec![1.0, 2.0000000001], CommStats::default())];
        assert_ne!(output_checksum(&a), output_checksum(&b));
        assert!(output_checksum(&a) < (1 << 53));
    }
}
