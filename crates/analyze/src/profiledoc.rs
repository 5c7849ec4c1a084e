//! The `BENCH_sweep.json` document model and its reader.
//!
//! `pvs-bench`'s `profile` command writes schema `pvs-bench/profile-v2`
//! (pretty-printed, stable key order). This module loads it into one
//! [`ProfileDoc`] — the shared input of the bottleneck classifier
//! ([`crate::bottleneck`]), the Amdahl decomposition
//! ([`crate::amdahl`]), and the regression sentinel
//! ([`crate::sentinel`]). Whitespace is not part of the schema: a
//! compact rendering of the same document loads identically.

use pvs_core::json::{parse, Value};

/// Schema identifier the current writer emits (canonical spelling in
/// `pvs_core::schema`).
pub const SCHEMA_V2: &str = pvs_core::schema::PROFILE_V2;

/// Model-side metrics of one cell (pure functions of the cell identity —
/// deterministic across hosts and thread counts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelMetrics {
    /// Modelled seconds.
    pub time_s: f64,
    /// Modelled communication seconds.
    pub comm_s: f64,
    /// Gflop/s per processor.
    pub gflops_per_p: f64,
    /// Percentage of per-CPU peak.
    pub pct_peak: f64,
    /// Average vector length, vector machines only.
    pub avl: Option<f64>,
    /// Vector operation ratio as a percentage, vector machines only.
    pub vor_pct: Option<f64>,
    /// Per-phase `(name, seconds, is_comm)` in execution order.
    pub phases: Vec<(String, f64, bool)>,
}

/// One profiled sweep cell, as loaded from the document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileCell {
    /// Application name.
    pub app: String,
    /// Problem-size label.
    pub config: String,
    /// Machine name.
    pub machine: String,
    /// Processor count.
    pub procs: usize,
    /// Deterministic model metrics.
    pub model: ModelMetrics,
    /// Median host wall-clock seconds (noisy; host-specific).
    pub host_median_s: f64,
    /// All host samples in sample order.
    pub host_all_s: Vec<f64>,
    /// Counter snapshot, sorted by name as the registry dumps it.
    pub counters: Vec<(String, u64)>,
    /// Gauge snapshot, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl ProfileCell {
    /// Counter value by name (0 when absent, like `Registry::counter`).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// `(app, config, machine, procs)` — the identity the sentinel joins
    /// old and new documents on.
    pub fn key(&self) -> String {
        format!("{}/{}/{}/P{}", self.app, self.config, self.machine, self.procs)
    }

    /// Seconds spent in loop (non-communication) phases.
    pub fn loop_seconds(&self) -> f64 {
        (self.model.time_s - self.model.comm_s).max(0.0)
    }

    /// Fraction of modelled time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.model.time_s <= 0.0 {
            0.0
        } else {
            self.model.comm_s / self.model.time_s
        }
    }
}

/// A loaded profile document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDoc {
    /// Schema string found in the document.
    pub schema: String,
    /// All cells in document order.
    pub cells: Vec<ProfileCell>,
}

impl ProfileDoc {
    /// Look a cell up by sweep identity.
    pub fn cell(&self, app: &str, machine: &str) -> Option<&ProfileCell> {
        self.cells
            .iter()
            .find(|c| c.app == app && c.machine == machine)
    }
}

/// Reasons a document fails to load.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The text is not valid JSON.
    Parse(pvs_core::json::ParseError),
    /// The JSON is valid but not a profile document of a known schema.
    Schema(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::Schema(msg) => write!(f, "not a profile document: {msg}"),
        }
    }
}

fn name_value_pairs(v: Option<&Value>) -> Vec<(String, u64)> {
    v.and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|item| {
                    Some((
                        item.str("name")?.to_string(),
                        item.num("value")?.round() as u64,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Load a profile document from its JSON text.
pub fn load(text: &str) -> Result<ProfileDoc, LoadError> {
    from_value(&parse(text).map_err(LoadError::Parse)?)
}

/// Read an already-parsed profile document — every check [`load`] makes
/// after the parse (known schema, a `cells` array, each cell's identity
/// and model metrics).
pub fn from_value(doc: &Value) -> Result<ProfileDoc, LoadError> {
    let schema = doc
        .str("schema")
        .ok_or_else(|| LoadError::Schema("missing `schema` member".into()))?;
    if schema != SCHEMA_V2 {
        return Err(LoadError::Schema(format!(
            "unknown schema `{schema}` (expected `{SCHEMA_V2}`)"
        )));
    }
    let cells_json = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or_else(|| LoadError::Schema("missing `cells` array".into()))?;

    let mut cells = Vec::with_capacity(cells_json.len());
    for (i, c) in cells_json.iter().enumerate() {
        let bad = |what: &str| LoadError::Schema(format!("cell {i}: missing {what}"));
        let model_json = c.get("model").ok_or_else(|| bad("`model`"))?;
        let phases = model_json
            .get("phases")
            .and_then(Value::as_array)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|p| {
                        Some((
                            p.str("name")?.to_string(),
                            p.num("seconds")?,
                            p.get("is_comm")?.as_bool()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let model = ModelMetrics {
            time_s: model_json.num("time_s").ok_or_else(|| bad("model.time_s"))?,
            comm_s: model_json.num("comm_s").unwrap_or(0.0),
            gflops_per_p: model_json
                .num("gflops_per_p")
                .ok_or_else(|| bad("model.gflops_per_p"))?,
            pct_peak: model_json.num("pct_peak").unwrap_or(0.0),
            avl: model_json.num("avl"),
            vor_pct: model_json.num("vor_pct"),
            phases,
        };
        let host = c.get("host_wall");
        cells.push(ProfileCell {
            app: c.str("app").ok_or_else(|| bad("`app`"))?.to_string(),
            config: c.str("config").unwrap_or_default().to_string(),
            machine: c.str("machine").ok_or_else(|| bad("`machine`"))?.to_string(),
            procs: c.num("procs").ok_or_else(|| bad("`procs`"))? as usize,
            model,
            host_median_s: host.and_then(|h| h.num("median_s")).unwrap_or(0.0),
            host_all_s: host
                .and_then(|h| h.get("all_s"))
                .and_then(Value::as_array)
                .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default(),
            counters: name_value_pairs(c.get("counters")),
            gauges: name_value_pairs(c.get("gauges")),
        });
    }
    Ok(ProfileDoc {
        schema: schema.to_string(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-cell document, compact (single-line) rendering.
    fn compact_doc() -> String {
        concat!(
            "{\"schema\":\"pvs-bench/profile-v2\",",
            "\"sweep_threads\":1,\"host_samples_per_cell\":1,",
            "\"host_median_sum_s\":0.5,\"harness\":[],\"cells\":[",
            "{\"app\":\"LBMHD\",\"config\":\"8192x8192\",\"machine\":\"Power3\",",
            "\"procs\":64,\"model\":{\"machine\":\"Power3\",\"procs\":64,",
            "\"time_s\":386.8,\"comm_s\":3.39,\"gflops_per_p\":0.0976,",
            "\"pct_peak\":6.5,\"phases\":[{\"name\":\"collision\",",
            "\"seconds\":219.7,\"flops\":2.8e10,\"is_comm\":false}]},",
            "\"host_wall\":{\"median_s\":0.25,\"samples\":1,\"all_s\":[0.25]},",
            "\"counters\":[{\"name\":\"engine.phases\",",
            "\"value\":3}],\"gauges\":[]},",
            "{\"app\":\"GTC\",\"config\":\"100 part/cell\",\"machine\":\"ES\",",
            "\"procs\":64,\"model\":{\"machine\":\"ES\",\"procs\":64,",
            "\"time_s\":1.5,\"comm_s\":0.1,\"gflops_per_p\":1.2,",
            "\"pct_peak\":15.0,\"avl\":230.5,\"vor_pct\":97.2,\"phases\":[]},",
            "\"host_wall\":{\"median_s\":0.25,\"samples\":1,\"all_s\":[0.25]},",
            "\"counters\":[],\"gauges\":",
            "[{\"name\":\"netsim.link.peak_bytes\",\"value\":512}]}",
            "]}"
        )
        .to_string()
    }

    #[test]
    fn compact_documents_load() {
        let doc = load(&compact_doc()).unwrap();
        assert_eq!(doc.schema, SCHEMA_V2);
        assert_eq!(doc.cells.len(), 2);
        let lbmhd = doc.cell("LBMHD", "Power3").unwrap();
        assert_eq!(lbmhd.procs, 64);
        assert_eq!(lbmhd.counter("engine.phases"), 3);
        assert_eq!(lbmhd.counter("missing"), 0);
        assert!((lbmhd.model.time_s - 386.8).abs() < 1e-12);
        assert_eq!(lbmhd.model.phases.len(), 1);
        assert!(lbmhd.model.avl.is_none());
        let gtc = doc.cell("GTC", "ES").unwrap();
        assert_eq!(gtc.model.avl, Some(230.5));
        assert_eq!(gtc.gauge("netsim.link.peak_bytes"), 512);
        assert!((gtc.comm_fraction() - 0.1 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn pretty_printed_v2_loads_identically() {
        let compact = load(&compact_doc()).unwrap();
        let pretty = load(&pvs_core::json::pretty(&compact_doc())).unwrap();
        assert_eq!(compact, pretty);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = compact_doc().replace(SCHEMA_V2, "pvs-bench/profile-v99");
        match load(&doc) {
            Err(LoadError::Schema(msg)) => assert!(msg.contains("profile-v99")),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn non_json_is_a_parse_error() {
        assert!(matches!(load("not json"), Err(LoadError::Parse(_))));
        assert!(matches!(load("[1,2,3]"), Err(LoadError::Schema(_))));
    }

    #[test]
    fn cell_key_is_fully_qualified() {
        let doc = load(&compact_doc()).unwrap();
        assert_eq!(doc.cells[0].key(), "LBMHD/8192x8192/Power3/P64");
    }
}
