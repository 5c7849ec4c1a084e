//! The cell registry and the request model on top of it.
//!
//! [`cell_phases`] is the workspace's one mapping from a paper cell —
//! `(app, config, machine, procs)`, spelled as Tables 3–6 print them —
//! to the phase stream the engine runs. The table generators, the
//! profiling and chaos harnesses and the serving plane
//! all resolve cells through it, so a served cell and a table cell of
//! the same name can never disagree.
//!
//! The request model is what a client may ask for, strict validation,
//! and the canonical key that makes responses content-addressable.
//!
//! A request names a sweep cell — `(app, config, machine, procs)` plus an
//! optional seeded fault draw — and every field is validated against a
//! closed vocabulary before any work happens. Validation is what makes
//! the cache safe: only requests that resolve to a well-defined
//! simulation are ever keyed, so a cache entry can always be regenerated
//! from its key alone.
//!
//! The canonical key is a `field=value` byte string over the *normalized*
//! request (fault defaults applied, no optional-field ambiguity), hashed
//! with [`pvs_core::hash::fnv1a_hex`]. Two requests that mean the same
//! cell always canonicalize to the same bytes, so N clients asking the
//! same question share one cache line and one simulation.

use pvs_cactus::perf::{CactusVariant, CactusWorkload};
use pvs_core::machine::Machine;
use pvs_core::phase::Phase;
use pvs_core::{platforms, Adversity};
use pvs_gtc::perf::{GtcVariant, GtcWorkload};
use pvs_lbmhd::perf::LbmhdWorkload;
use pvs_paratec::perf::ParatecWorkload;

/// The applications the serving layer answers for, with their legal
/// problem-size labels (the paper's Table 3–6 configurations).
pub const APP_CONFIGS: [(&str, [&str; 2]); 4] = [
    ("LBMHD", ["4096x4096", "8192x8192"]),
    ("PARATEC", ["432 atom", "686 atom"]),
    ("CACTUS", ["80x80x80", "250x64x64"]),
    ("GTC", ["10 part/cell", "100 part/cell"]),
];

/// The phase stream of one paper cell, or `None` when the paper has no
/// such cell. Covers every label Tables 3–6 print: the eight
/// [`APP_CONFIGS`] problem sizes on any machine name (the per-machine
/// code variants key off the name; unknown names run the superscalar
/// ports), the `X1-CAF` column (LBMHD's one-sided exchange), and GTC's
/// `100 p/c hybrid` row, which the paper ran on the Power3 only.
pub fn cell_phases(app: &str, config: &str, machine: &str, procs: usize) -> Option<Vec<Phase>> {
    let cactus = |w: CactusWorkload| w.phases(CactusVariant::for_machine(machine));
    let gtc = |ppc| GtcWorkload::new(ppc, procs).phases(GtcVariant::for_machine(machine));
    Some(match (app, config) {
        ("LBMHD", "4096x4096" | "8192x8192") => {
            let grid = if config == "4096x4096" { 4096 } else { 8192 };
            let w = LbmhdWorkload::new(grid, procs);
            if machine == "X1-CAF" { w.with_caf() } else { w }.phases()
        }
        ("PARATEC", "432 atom") => ParatecWorkload::si432(procs).phases(),
        ("PARATEC", "686 atom") => ParatecWorkload::si686(procs).phases(),
        ("CACTUS", "80x80x80") => cactus(CactusWorkload::small(procs)),
        ("CACTUS", "250x64x64") => cactus(CactusWorkload::large(procs)),
        ("GTC", "10 part/cell") => gtc(10),
        ("GTC", "100 part/cell") => gtc(100),
        // 64 toroidal MPI domains, 16 OpenMP threads under each.
        ("GTC", "100 p/c hybrid") if machine == "Power3" => GtcWorkload {
            mpi_domains: 64,
            ..GtcWorkload::new(100, procs)
        }
        .phases(GtcVariant::hybrid(16)),
        _ => return None,
    })
}

/// Largest processor count a request may ask for (the paper's largest
/// published runs stop at 1024; 4096 leaves headroom for scaling
/// questions without letting a client request an absurd simulation).
pub const MAX_PROCS: usize = 4096;

/// Most fault events a request may ask for (the default is
/// [`DEFAULT_FAULT_EVENTS`]). Resolving draws every event before any
/// cache probe, admission cap or deadline check, so this bound is what
/// keeps one request line from costing unbounded work.
pub const MAX_FAULT_EVENTS: usize = 64;

/// Number of fault events a request draws when it names a `fault_seed`
/// but no `fault_events`.
pub const DEFAULT_FAULT_EVENTS: usize = 4;

/// Seeded damage attached to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of [`pvs_fault::random_adversity`].
    pub seed: u64,
    /// Number of events drawn.
    pub events: usize,
}

/// One validated-on-construction cell request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Application name (`LBMHD`, `PARATEC`, `CACTUS`, `GTC`).
    pub app: String,
    /// Problem-size label exactly as the paper's tables spell it.
    pub config: String,
    /// Machine name (`Power3`, `Power4`, `Altix`, `ES`, `X1`).
    pub machine: String,
    /// Processor count.
    pub procs: usize,
    /// Optional seeded damage (engine-level adversity).
    pub faults: Option<FaultSpec>,
}

/// Why a request cannot be served. Every variant is a client error: the
/// server returns it as a `bad_request` response and computes nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Application name not in the study.
    UnknownApp(String),
    /// Config label not published for this application.
    UnknownConfig {
        /// The (valid) application.
        app: String,
        /// The unrecognized problem-size label.
        config: String,
    },
    /// Machine name not in the study.
    UnknownMachine(String),
    /// Processor count outside `1..=MAX_PROCS`.
    BadProcs(usize),
    /// More than `MAX_FAULT_EVENTS` fault events.
    BadFaultEvents(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::UnknownApp(app) => {
                write!(f, "unknown app {app:?} (expected LBMHD, PARATEC, CACTUS, or GTC)")
            }
            RequestError::UnknownConfig { app, config } => {
                write!(f, "unknown config {config:?} for {app}")
            }
            RequestError::UnknownMachine(m) => {
                write!(f, "unknown machine {m:?} (expected Power3, Power4, Altix, ES, or X1)")
            }
            RequestError::BadProcs(p) => {
                write!(f, "procs {p} out of range (expected 1..={MAX_PROCS})")
            }
            RequestError::BadFaultEvents(n) => {
                write!(f, "fault_events {n} out of range (expected 0..={MAX_FAULT_EVENTS})")
            }
        }
    }
}

/// A request resolved into everything the engine needs: validation has
/// already happened, so running this cell cannot fail.
#[derive(Debug, Clone)]
pub struct ResolvedCell {
    /// The machine model.
    pub machine: Machine,
    /// The application's phase stream for this cell.
    pub phases: Vec<Phase>,
    /// Processor count.
    pub procs: usize,
    /// Engine-level damage drawn from the request's seed (`None` when
    /// the request is healthy).
    pub adversity: Option<Adversity>,
}

impl Request {
    /// A healthy (fault-free) cell request.
    pub fn cell(app: &str, config: &str, machine: &str, procs: usize) -> Self {
        Self {
            app: app.to_string(),
            config: config.to_string(),
            machine: machine.to_string(),
            procs,
            faults: None,
        }
    }

    /// The canonical byte string this request hashes under. Stable
    /// across processes and releases: `field=value` pairs joined by `|`,
    /// fault defaults already applied.
    pub fn canonical_key(&self) -> String {
        let faults = match self.faults {
            None => "none".to_string(),
            Some(FaultSpec { seed, events }) => format!("{seed}:{events}"),
        };
        format!(
            "app={}|config={}|machine={}|procs={}|faults={faults}",
            self.app, self.config, self.machine, self.procs
        )
    }

    /// Content address: FNV-1a 64 of [`Request::canonical_key`], as 16
    /// hex digits. Cache shards, spill filenames, and response `key`
    /// fields all use this form.
    pub fn key_hash(&self) -> String {
        pvs_core::hash::fnv1a_hex(self.canonical_key().as_bytes())
    }

    /// Validate every field and build the cell the engine will run.
    pub fn resolve(&self) -> Result<ResolvedCell, RequestError> {
        if self.procs < 1 || self.procs > MAX_PROCS {
            return Err(RequestError::BadProcs(self.procs));
        }
        if let Some(FaultSpec { events, .. }) = self.faults {
            if events > MAX_FAULT_EVENTS {
                return Err(RequestError::BadFaultEvents(events));
            }
        }
        // The served vocabulary is closed: the five study machines and
        // the published problem sizes, nothing else the registry knows.
        let machine = platforms::all()
            .into_iter()
            .find(|m| m.name == self.machine)
            .ok_or_else(|| RequestError::UnknownMachine(self.machine.clone()))?;
        let configs = APP_CONFIGS
            .iter()
            .find(|(app, _)| *app == self.app)
            .map(|(_, configs)| configs)
            .ok_or_else(|| RequestError::UnknownApp(self.app.clone()))?;
        if !configs.contains(&self.config.as_str()) {
            return Err(RequestError::UnknownConfig {
                app: self.app.clone(),
                config: self.config.clone(),
            });
        }
        let phases = cell_phases(&self.app, &self.config, &self.machine, self.procs)
            .expect("every APP_CONFIGS label is a registry cell");
        let adversity = self.faults.map(|f| {
            let mut adversity = pvs_fault::random_adversity(f.seed, f.events, self.procs, 16);
            // Hard link failures are only reroutable on the 2D torus
            // (the X1); the network builder rejects them on crossbars
            // and fat-trees, whose routes are unique. Downgrade each to
            // a severe derate of the same link there, so one seeded
            // fault request means the same *severity* on every machine.
            if !matches!(machine.topology, pvs_netsim::TopologyKind::Torus2D) {
                let mut net = std::mem::take(&mut adversity.net);
                for link in std::mem::take(&mut net.failed_links) {
                    net = net.degrade_link(link, 0.25);
                }
                adversity.net = net;
            }
            adversity
        });
        Ok(ResolvedCell {
            machine,
            phases,
            procs: self.procs,
            adversity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_key_is_stable_and_injective_over_fields() {
        let r = Request::cell("LBMHD", "8192x8192", "ES", 64);
        assert_eq!(
            r.canonical_key(),
            "app=LBMHD|config=8192x8192|machine=ES|procs=64|faults=none"
        );
        let mut faulty = r.clone();
        faulty.faults = Some(FaultSpec { seed: 7, events: 4 });
        assert_eq!(
            faulty.canonical_key(),
            "app=LBMHD|config=8192x8192|machine=ES|procs=64|faults=7:4"
        );
        assert_ne!(r.key_hash(), faulty.key_hash());
        assert_ne!(
            Request::cell("LBMHD", "8192x8192", "ES", 64).key_hash(),
            Request::cell("LBMHD", "8192x8192", "ES", 65).key_hash()
        );
    }

    #[test]
    fn key_hash_is_process_independent() {
        // Pinned digest: must never change across builds, or every spill
        // directory in the field silently invalidates.
        assert_eq!(
            Request::cell("LBMHD", "8192x8192", "ES", 64).key_hash(),
            pvs_core::hash::fnv1a_hex(
                b"app=LBMHD|config=8192x8192|machine=ES|procs=64|faults=none"
            )
        );
    }

    #[test]
    fn invalid_fields_are_rejected_with_specific_errors() {
        assert!(matches!(
            Request::cell("LINPACK", "8192x8192", "ES", 64).resolve(),
            Err(RequestError::UnknownApp(_))
        ));
        assert!(matches!(
            Request::cell("LBMHD", "432 atom", "ES", 64).resolve(),
            Err(RequestError::UnknownConfig { .. })
        ));
        // The registry knows more machine names than the server answers
        // for; the error text promises the five study machines only.
        for machine in ["BlueGene", "X1-CAF", "X1-SSP", "Power5*"] {
            assert!(
                matches!(
                    Request::cell("LBMHD", "8192x8192", machine, 64).resolve(),
                    Err(RequestError::UnknownMachine(_))
                ),
                "{machine}"
            );
        }
        assert!(matches!(
            Request::cell("GTC", "100 p/c hybrid", "Power3", 1024).resolve(),
            Err(RequestError::UnknownConfig { .. })
        ));
        assert!(matches!(
            Request::cell("LBMHD", "8192x8192", "ES", 0).resolve(),
            Err(RequestError::BadProcs(0))
        ));
        assert!(matches!(
            Request::cell("LBMHD", "8192x8192", "ES", MAX_PROCS + 1).resolve(),
            Err(RequestError::BadProcs(_))
        ));
        let faulty = |events| Request {
            faults: Some(FaultSpec { seed: 1, events }),
            ..Request::cell("GTC", "10 part/cell", "X1", 64)
        };
        assert!(faulty(MAX_FAULT_EVENTS).resolve().is_ok());
        assert_eq!(
            faulty(MAX_FAULT_EVENTS + 1).resolve().unwrap_err(),
            RequestError::BadFaultEvents(MAX_FAULT_EVENTS + 1)
        );
    }

    #[test]
    fn registry_runs_the_caf_workload_on_the_caf_column() {
        // The cell the duplicated plumbing got wrong: the CAF column is
        // the one-sided exchange, not the MPI stream on a faster network.
        let caf = cell_phases("LBMHD", "8192x8192", "X1-CAF", 256).unwrap();
        let direct = LbmhdWorkload::new(8192, 256).with_caf().phases();
        let run = |phases| pvs_core::Engine::new(platforms::x1_caf()).run(phases, 256);
        assert_eq!(format!("{caf:?}"), format!("{direct:?}"));
        assert_eq!(
            run(&caf).gflops_per_p.to_bits(),
            run(&direct).gflops_per_p.to_bits()
        );
        let mpi = cell_phases("LBMHD", "8192x8192", "X1", 256).unwrap();
        assert_ne!(format!("{caf:?}"), format!("{mpi:?}"));
    }

    #[test]
    fn registry_blanks_exactly_what_the_paper_blanks() {
        assert!(cell_phases("GTC", "100 p/c hybrid", "Power3", 1024).is_some());
        assert!(cell_phases("GTC", "100 p/c hybrid", "ES", 1024).is_none());
        assert!(cell_phases("LBMHD", "432 atom", "ES", 64).is_none());
        assert!(cell_phases("LINPACK", "8192x8192", "ES", 64).is_none());
    }

    #[test]
    fn faulted_requests_compile_adversity() {
        let mut r = Request::cell("GTC", "100 part/cell", "X1", 64);
        r.faults = Some(FaultSpec { seed: 42, events: 6 });
        let cell = r.resolve().unwrap();
        // Pinned: the damage this seed draws. A change to the draw order
        // or to how a draw becomes damage must fail here (the served bytes
        // of faulted cells are pinned in `store.rs`).
        assert_eq!(
            cell.adversity,
            Some(Adversity { net: pvs_netsim::LinkFaults::healthy(), failed_banks: vec![1, 13] })
        );
        // Same seed, same damage: resolve twice and compare.
        let again = r.resolve().unwrap();
        assert_eq!(
            format!("{:?}", cell.adversity),
            format!("{:?}", again.adversity)
        );
    }
}
