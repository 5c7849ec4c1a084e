//! The chaos harness: the paper sweep re-run under injected faults.
//!
//! Each [`ChaosScenario`] is the damage itself, built directly as the
//! value each layer owns — an [`Adversity`] for the engine, a
//! [`FaultSpec`] for the message runtime, worker retirements for the
//! pool — plus the set of machines it makes sense on (hard link failures
//! only reroute on the X1 torus, port loss only on the ES crossbar, and
//! so on). The harness runs every applicable cell of the grid healthy
//! and degraded, checks the resilience invariants the fault model
//! promises, and renders the whole thing as a `pvs-bench/profile-v2`
//! document (`BENCH_chaos.json`)
//! with the scenario name folded into each cell's `config` field — so
//! `compare` gates chaos baselines with no new schema.
//!
//! Invariants checked on every run:
//!
//! * **Determinism** — the degraded sweep, re-run through a thread pool
//!   (with worker retirements injected, when the scenario calls for
//!   them), is bit-identical to the serial pass at any thread count.
//! * **No free lunch** — degraded modelled time is never below healthy
//!   (equivalently, degraded Gflop/s ≤ healthy); scenarios that damage
//!   the engine's machine model must slow at least one cell strictly.
//! * **Diagnosable damage** — cutting the X1 bisection pushes PARATEC
//!   *deeper* into the `bisection-bound` class: same classification,
//!   strictly higher communication fraction.
//! * **Runtime resilience** — under message loss/delay and rank failure
//!   the `pvs-mpisim` collectives still complete over the survivors,
//!   twice, with identical results and retry counters.

use crate::profile::{observed_run, CellProfile, ProfileOutput, SweepCell};
use pvs_analyze::bottleneck::Bottleneck;
use pvs_core::engine::Engine;
use pvs_core::pool::ThreadPool;
use pvs_core::report::{PerfReport, PhaseBreakdown};
use pvs_core::{Adversity, SplitMix64};
use pvs_mpisim::fault::{run_faulty, total_fault_stats, FaultSpec, FaultStats};
use pvs_netsim::{LinkFaults, Network};
use pvs_obs::{Recorder, Registry};
use std::collections::BTreeMap;
use std::fmt::{Debug, Display};

/// One named fault scenario: what breaks, and which machines it applies
/// to.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario name, folded into each degraded cell's `config` field.
    pub name: &'static str,
    /// Machines the scenario applies to.
    pub machines: &'static [&'static str],
    /// Engine-level damage: links and memory banks.
    pub adversity: Adversity,
    /// Message-runtime damage: drops, delays and failed ranks.
    pub comm: FaultSpec,
    /// `(worker, after_tasks)` retirements for the pooled pass.
    pub retirements: Vec<(usize, u64)>,
}

impl ChaosScenario {
    /// A scenario on `machines` that breaks nothing yet.
    fn healthy(name: &'static str, machines: &'static [&'static str]) -> Self {
        ChaosScenario {
            name,
            machines,
            adversity: Adversity::healthy(),
            comm: FaultSpec::healthy(),
            retirements: Vec::new(),
        }
    }
}

/// A healthy message-runtime spec whose drop and delay decisions derive
/// from `seed`.
fn seeded_comm(seed: u64) -> FaultSpec {
    FaultSpec::healthy().with_seed(SplitMix64::new(seed).next_u64())
}

/// Cut the X1 bisection: both +x crossings die in half the torus rows
/// (forcing their traffic onto the surviving −x links — rerouting around
/// a *single* dead link would ride otherwise-idle reverse links for
/// free), and the interior +x crossing is derated to half bandwidth in
/// the rest.
fn x1_link_down() -> ChaosScenario {
    let net = Network::new(pvs_core::platforms::x1().network(64));
    let cut = net.bisection_cut_links().expect("the X1 is a torus");
    let rows = cut.len() / 4;
    let mut faults = LinkFaults::healthy();
    for row in cut.chunks(4).take(rows / 2) {
        faults = faults.fail_link(row[0]).fail_link(row[2]);
    }
    for row in cut.chunks(4).skip(rows / 2) {
        faults = faults.degrade_link(row[0], 0.5);
    }
    ChaosScenario {
        adversity: Adversity::healthy().with_net(faults),
        ..ChaosScenario::healthy("x1-link-down", &["X1"])
    }
}

/// ES crossbar endpoints lose half their port lanes.
fn es_port_loss() -> ChaosScenario {
    let faults = (0..4).fold(LinkFaults::healthy(), LinkFaults::lose_port);
    ChaosScenario {
        adversity: Adversity::healthy().with_net(faults),
        ..ChaosScenario::healthy("es-port-loss", &["ES"])
    }
}

/// Memory banks mapped out of the interleave on the vector machines.
fn bank_fault() -> ChaosScenario {
    ChaosScenario {
        adversity: Adversity::healthy().fail_bank(0).fail_bank(3),
        ..ChaosScenario::healthy("bank-fault", &["ES", "X1"])
    }
}

/// Lossy, laggy message-passing: the engine model is untouched, but the
/// runtime must retry its way to the same collective results.
fn msg_drop_delay() -> ChaosScenario {
    ChaosScenario {
        comm: FaultSpec {
            delay_ps: 2_000_000,
            ..seeded_comm(0xD07D).drop_per_mille(150).delay_per_mille(300)
        },
        ..ChaosScenario::healthy("msg-drop-delay", &["Power3"])
    }
}

/// One rank dies and messages drop on top: collectives complete over the
/// survivors.
fn rank_fail_retry() -> ChaosScenario {
    ChaosScenario {
        comm: seeded_comm(0x4A4F).fail_rank(4).drop_per_mille(100),
        ..ChaosScenario::healthy("rank-fail-retry", &["ES"])
    }
}

/// Host-pool workers retire mid-sweep; queued cells redistribute with no
/// effect on the results.
fn worker_loss() -> ChaosScenario {
    ChaosScenario {
        retirements: vec![(1, 1), (2, 1)],
        ..ChaosScenario::healthy("worker-loss", &["Power3"])
    }
}

/// The six scenarios: between them they fail, derate and strip ports
/// off links, map banks out, fail a rank, drop and delay messages, and
/// retire workers.
pub fn scenarios() -> Vec<ChaosScenario> {
    vec![
        x1_link_down(),
        es_port_loss(),
        bank_fault(),
        msg_drop_delay(),
        rank_fail_retry(),
        worker_loss(),
    ]
}

/// What one scenario did, for the human-readable summary. Worker
/// retirement counts are host-scheduling dependent (a quota only fires
/// if that worker wins a task), so they are reported here and *not* in
/// the JSON document — `compare` gates the document's `harness` exactly.
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: &'static str,
    /// Cells of the grid the scenario ran on.
    pub cells: usize,
    /// Whether the scenario damages the engine's machine model.
    pub engine_faulted: bool,
    /// Aggregated message-runtime fault counters (zero when the scenario
    /// injects no comm faults).
    pub mpisim: FaultStats,
    /// Pool workers that actually retired during the pooled pass.
    pub retired_workers: u64,
}

/// A complete chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutput {
    /// Healthy + degraded rows as a profile-v2 sweep document.
    pub profile: ProfileOutput,
    /// Per-scenario accounting.
    pub scenarios: Vec<ScenarioSummary>,
}

impl ChaosOutput {
    /// Render as the `BENCH_chaos.json` document (profile-v2 schema).
    pub fn to_json(&self) -> String {
        self.profile.to_json()
    }
}

/// Scenario-qualified config label. Leaked once per distinct label —
/// the label set is a small static cross product, so the leak is
/// bounded and the `&'static str` plugs into [`SweepCell`] unchanged.
fn scenario_config(config: &str, scenario: &str) -> &'static str {
    Box::leak(format!("{config}@{scenario}").into_boxed_str())
}

/// One bare engine run of a cell on its damaged machine.
fn degraded_run(cell: &SweepCell, adversity: &Adversity) -> PerfReport {
    Engine::new(cell.machine())
        .with_adversity(adversity.clone())
        .run(&cell.phases(), cell.procs)
}

/// Whether two runs of one cell are the same report, bit for bit; if
/// not, the first member they differ on as `field: left vs right`, an
/// `f64` as its bit pattern beside its value. Reports and phases are
/// destructured exhaustively, so a new member does not compile until it
/// is compared here.
fn same_report(a: &PerfReport, b: &PerfReport) -> Result<(), String> {
    fn exact<T: PartialEq + Debug>(field: impl Display, a: T, b: T) -> Result<(), String> {
        if a == b {
            return Ok(());
        }
        Err(format!("{field}: {a:?} vs {b:?}"))
    }
    fn bits(field: impl Display, a: f64, b: f64) -> Result<(), String> {
        if a.to_bits() == b.to_bits() {
            return Ok(());
        }
        Err(format!("{field}: {:#018x} ({a:e}) vs {:#018x} ({b:e})", a.to_bits(), b.to_bits()))
    }
    let PerfReport {
        machine,
        procs,
        time_s,
        comm_s,
        flops_per_p,
        gflops_per_p,
        pct_peak,
        vector_metrics,
        phases,
    } = a;
    exact("machine", machine, &b.machine)?;
    exact("procs", procs, &b.procs)?;
    bits("time_s", *time_s, b.time_s)?;
    bits("comm_s", *comm_s, b.comm_s)?;
    bits("flops_per_p", *flops_per_p, b.flops_per_p)?;
    bits("gflops_per_p", *gflops_per_p, b.gflops_per_p)?;
    bits("pct_peak", *pct_peak, b.pct_peak)?;
    // Integer counters: derived equality covers every one of them.
    exact("vector_metrics", vector_metrics, &b.vector_metrics)?;
    exact("phases.len", phases.len(), b.phases.len())?;
    for (i, (x, y)) in phases.iter().zip(&b.phases).enumerate() {
        let PhaseBreakdown { name, seconds, flops, is_comm } = x;
        exact(format_args!("phases[{i}].name"), name, &y.name)?;
        bits(format_args!("phases[{i}].seconds"), *seconds, y.seconds)?;
        bits(format_args!("phases[{i}].flops"), *flops, y.flops)?;
        exact(format_args!("phases[{i}].is_comm"), is_comm, &y.is_comm)?;
    }
    Ok(())
}

/// The first cell and member on which two passes over `cells` differ, as
/// `app/config/machine/Pn field: left vs right`; `None` when every report of one
/// is bit-equal to its counterpart in the other.
fn first_divergence(cells: &[SweepCell], left: &[PerfReport], right: &[PerfReport]) -> Option<String> {
    if left.len() != right.len() {
        return Some(format!("{} reports vs {}", left.len(), right.len()));
    }
    cells.iter().zip(left).zip(right).find_map(|((cell, l), r)| {
        let field = same_report(l, r).err()?;
        Some(format!("{} {field}", cell.key()))
    })
}

/// The message-runtime workload each comm-fault scenario must survive: a
/// barrier plus a survivor allreduce on six ranks. Returns the per-rank
/// sums (survivor slots only) and the aggregated fault counters.
fn comm_workload(spec: &FaultSpec) -> (Vec<f64>, FaultStats) {
    let outcomes = run_faulty(6, spec.clone(), |c| {
        c.barrier().expect("barrier completes under injected faults");
        c.allreduce_sum_scalar((c.rank() + 1) as f64)
            .expect("allreduce completes under injected faults")
    });
    let values = outcomes.iter().filter_map(|o| o.value().copied()).collect();
    (values, total_fault_stats(&outcomes))
}

/// Run the chaos harness over `base` cells. Returns the rendered output
/// or a description of the first violated invariant.
pub fn run_chaos(
    base: &[SweepCell],
    scenarios: &[ChaosScenario],
    threads: usize,
) -> Result<ChaosOutput, String> {
    let harness_reg = Registry::new();
    let mut rows: Vec<CellProfile> = Vec::new();
    let mut healthy_times: BTreeMap<String, f64> = BTreeMap::new();

    // Healthy baseline rows, labelled `@healthy` so they diff natively.
    let healthy = Adversity::healthy();
    for cell in base {
        let mut profile = observed_run(cell, &healthy);
        healthy_times.insert(cell.key(), profile.report.time_s);
        profile.cell.config = scenario_config(cell.config, "healthy");
        rows.push(profile);
    }

    let mut summaries = Vec::new();
    for scenario in scenarios {
        let cells: Vec<SweepCell> = base
            .iter()
            .filter(|c| scenario.machines.contains(&c.machine))
            .cloned()
            .collect();
        if cells.is_empty() {
            return Err(format!(
                "scenario {} matched no cells of the grid",
                scenario.name
            ));
        }
        // Serial observed pass.
        let mut serial_reports = Vec::with_capacity(cells.len());
        for cell in &cells {
            let mut profile = observed_run(cell, &scenario.adversity);
            serial_reports.push(profile.report.clone());
            profile.cell.config = scenario_config(cell.config, scenario.name);
            rows.push(profile);
        }

        // Pooled pass: same degraded cells through a thread pool, with
        // the scenario's worker retirements injected (worker 0 stays
        // immortal; quotas beyond the pool width cannot apply).
        let retirements: Vec<(usize, u64)> = scenario
            .retirements
            .iter()
            .filter(|(w, _)| *w != 0 && *w < threads)
            .copied()
            .collect();
        let pool = ThreadPool::with_retirements(threads, &retirements);
        let adversity = scenario.adversity.clone();
        let pooled_reports: Vec<PerfReport> =
            pool.map(cells.clone(), move |cell| degraded_run(&cell, &adversity));
        let pool_reg = Registry::new();
        pool.record_to(&pool_reg);
        let retired = pool_reg.counter("pool.workers.retired");

        // Invariant: degraded results are thread-schedule independent.
        if let Some(at) = first_divergence(&cells, &serial_reports, &pooled_reports) {
            return Err(format!(
                "scenario {}: pooled degraded sweep diverged from the serial pass at {at} \
                 (serial vs pooled; {} threads, {} retirements)",
                scenario.name,
                threads,
                retirements.len()
            ));
        }

        // Invariant: damage never speeds the model up; engine-level
        // damage must slow something down.
        let engine_faulted = !scenario.adversity.is_healthy();
        let mut strictly_slower = false;
        for (cell, report) in cells.iter().zip(&serial_reports) {
            let key = cell.key();
            let healthy_t = *healthy_times
                .get(&key)
                .ok_or_else(|| format!("scenario {}: no healthy baseline for {key}", scenario.name))?;
            if report.time_s < healthy_t {
                return Err(format!(
                    "scenario {}: {key} got FASTER under faults ({:.6e}s < {:.6e}s)",
                    scenario.name, report.time_s, healthy_t
                ));
            }
            if report.time_s > healthy_t {
                strictly_slower = true;
            }
        }
        if engine_faulted && !strictly_slower {
            return Err(format!(
                "scenario {}: engine-level faults slowed nothing down",
                scenario.name
            ));
        }

        // Invariant: the message runtime retries through comm faults to
        // the same survivor results, twice.
        let mut mpisim = FaultStats::default();
        if !scenario.comm.is_healthy() {
            let (values, stats) = comm_workload(&scenario.comm);
            let (again, stats_again) = comm_workload(&scenario.comm);
            if values != again || stats != stats_again {
                return Err(format!(
                    "scenario {}: message-runtime workload is not deterministic",
                    scenario.name
                ));
            }
            let survivors: Vec<usize> = (0..6)
                .filter(|r| !scenario.comm.failed_ranks.contains(r))
                .collect();
            let expected: f64 = survivors.iter().map(|r| (r + 1) as f64).sum();
            if values.len() != survivors.len() || values.iter().any(|&v| v != expected) {
                return Err(format!(
                    "scenario {}: survivor allreduce produced {values:?}, expected {expected} \
                     over ranks {survivors:?}",
                    scenario.name
                ));
            }
            if stats.timeouts > 0 {
                return Err(format!(
                    "scenario {}: collectives timed out under the planned loss rate",
                    scenario.name
                ));
            }
            mpisim = stats;
            for (name, value) in [
                ("delivered", stats.delivered),
                ("drops", stats.drops),
                ("retries", stats.retries),
                ("delays", stats.delays),
                ("backoff_ps", stats.backoff_ps),
                ("delay_ps", stats.delay_ps),
            ] {
                if value > 0 {
                    harness_reg.add(&format!("chaos.{}.mpisim.{name}", scenario.name), value);
                }
            }
        }

        harness_reg.add(&format!("chaos.{}.cells", scenario.name), cells.len() as u64);
        summaries.push(ScenarioSummary {
            name: scenario.name,
            cells: cells.len(),
            engine_faulted,
            mpisim,
            retired_workers: retired,
        });
    }
    harness_reg.add("chaos.scenarios", scenarios.len() as u64);

    let output = ChaosOutput {
        profile: ProfileOutput::from_rows(rows, harness_reg.snapshot(), threads),
        scenarios: summaries,
    };

    check_bisection_shift(&output, scenarios)?;
    Ok(output)
}

/// The diagnosable-damage invariant: when `x1-link-down` runs over a
/// grid containing PARATEC/X1, the degraded cell must stay
/// `bisection-bound` with a strictly higher communication fraction than
/// healthy — cutting bisection links pushes the all-to-all app *deeper*
/// into its bottleneck class, never sideways into a different one.
fn check_bisection_shift(
    output: &ChaosOutput,
    scenarios: &[ChaosScenario],
) -> Result<(), String> {
    if !scenarios.iter().any(|s| s.name == "x1-link-down") {
        return Ok(());
    }
    let diagnoses = output.profile.diagnoses();
    let find = |suffix: &str| {
        diagnoses.iter().find(|d| {
            d.key.starts_with("PARATEC/") && d.key.contains("/X1/") && d.key.contains(suffix)
        })
    };
    let (Some(healthy), Some(degraded)) = (find("@healthy"), find("@x1-link-down")) else {
        // PARATEC/X1 not in this grid (custom cell list) — nothing to check.
        return Ok(());
    };
    if healthy.bottleneck != Bottleneck::BisectionBound {
        return Err(format!(
            "PARATEC/X1 healthy classified as {} (expected bisection-bound)",
            healthy.bottleneck.name()
        ));
    }
    if degraded.bottleneck != Bottleneck::BisectionBound {
        return Err(format!(
            "PARATEC/X1 under x1-link-down classified as {} (expected bisection-bound)",
            degraded.bottleneck.name()
        ));
    }
    if degraded.comm_fraction <= healthy.comm_fraction {
        return Err(format!(
            "x1-link-down did not push PARATEC/X1 deeper into bisection: comm fraction \
             {:.4} (degraded) vs {:.4} (healthy)",
            degraded.comm_fraction, healthy.comm_fraction
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::smoke_cells;

    #[test]
    fn scenarios_exercise_every_kind_of_damage() {
        let all = scenarios();
        let any = |f: &dyn Fn(&ChaosScenario) -> bool| all.iter().any(f);
        assert!(any(&|s| !s.adversity.net.failed_links.is_empty()), "link failure");
        assert!(any(&|s| !s.adversity.net.degraded_links.is_empty()), "link derate");
        assert!(any(&|s| !s.adversity.net.lost_ports.is_empty()), "port loss");
        assert!(any(&|s| !s.adversity.failed_banks.is_empty()), "bank fault");
        assert!(any(&|s| !s.comm.failed_ranks.is_empty()), "rank failure");
        assert!(any(&|s| s.comm.drop_per_mille > 0), "message loss");
        assert!(any(&|s| s.comm.delay_per_mille > 0), "message delay");
        assert!(any(&|s| !s.retirements.is_empty()), "worker loss");
    }

    #[test]
    fn smoke_chaos_passes_its_invariants() {
        let out = run_chaos(&smoke_cells(), &scenarios(), 2).expect("invariants hold");
        assert_eq!(out.scenarios.len(), 6);
        // Every scenario matched at least one cell of the six-cell grid.
        assert!(out.scenarios.iter().all(|s| s.cells >= 1));
        // The comm-fault scenarios really injected and retried.
        let msg = out
            .scenarios
            .iter()
            .find(|s| s.name == "msg-drop-delay")
            .unwrap();
        assert!(msg.mpisim.drops > 0 && msg.mpisim.retries > 0);
        assert!(msg.mpisim.delays > 0);
        let rank = out
            .scenarios
            .iter()
            .find(|s| s.name == "rank-fail-retry")
            .unwrap();
        assert!(rank.mpisim.delivered > 0);
        // Engine damage scenarios are flagged as such.
        for name in ["x1-link-down", "es-port-loss", "bank-fault"] {
            assert!(
                out.scenarios.iter().find(|s| s.name == name).unwrap().engine_faulted,
                "{name} must damage the machine model"
            );
        }
    }

    #[test]
    fn chaos_document_reuses_the_profile_schema() {
        let out = run_chaos(&smoke_cells(), &scenarios(), 2).expect("invariants hold");
        let json = out.to_json();
        assert!(json.contains("\"schema\": \"pvs-bench/profile-v2\""));
        assert!(json.contains("@healthy"));
        assert!(json.contains("@x1-link-down"));
        // It passes the schema gate `compare` puts documents through, and
        // the degraded rows are distinct cells.
        let doc = pvs_core::json::parse(&json).expect("the chaos document parses");
        pvs_analyze::sentinel::check_profile_doc(&doc).expect("a profile document");
        assert!(out.profile.cells.len() > smoke_cells().len());
        assert!(json.contains("chaos.scenarios"));
    }

    #[test]
    fn a_one_unit_divergence_names_its_cell_and_member() {
        let cells: Vec<SweepCell> =
            smoke_cells().into_iter().filter(|c| c.machine == "ES").collect();
        let healthy = Adversity::healthy();
        let serial: Vec<PerfReport> = cells.iter().map(|c| degraded_run(c, &healthy)).collect();
        assert_eq!(first_divergence(&cells, &serial, &serial), None);

        let last = cells.len() - 1;
        let key = cells[last].key();
        // (one member of the last cell's report moved by one unit, what the check must name)
        type Mutation = fn(&mut PerfReport);
        let mutations: [(Mutation, &str); 4] = [
            (|r| r.flops_per_p = f64::from_bits(r.flops_per_p.to_bits() + 1), "flops_per_p: 0x"),
            (|r| r.vector_metrics.as_mut().unwrap().scalar_ops += 1, "vector_metrics: Some("),
            (|r| r.phases[0].seconds = -r.phases[0].seconds, "phases[0].seconds: 0x"),
            (|r| { r.phases.pop(); }, "phases.len: "),
        ];
        for (mutate, names) in mutations {
            let mut pooled = serial.clone();
            mutate(&mut pooled[last]);
            let at = first_divergence(&cells, &serial, &pooled).expect("a divergence");
            assert!(at.starts_with(&format!("{key} {names}")), "{at}");
        }
        let short = first_divergence(&cells, &serial, &serial[..last]).expect("a divergence");
        assert_eq!(short, format!("{} reports vs {last}", cells.len()));
    }

    #[test]
    fn chaos_reruns_are_bit_identical() {
        // Everything but the recorded thread-count knob must be identical
        // at any PVS_THREADS.
        let strip = |json: String| {
            json.lines()
                .filter(|l| !l.contains("sweep_threads"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = strip(
            run_chaos(&smoke_cells(), &scenarios(), 1)
                .expect("invariants hold")
                .to_json(),
        );
        let b = strip(
            run_chaos(&smoke_cells(), &scenarios(), 4)
                .expect("invariants hold")
                .to_json(),
        );
        assert_eq!(a, b, "chaos output is thread-count independent");
    }
}
