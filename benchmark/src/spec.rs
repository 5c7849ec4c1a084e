//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! states the same lists for the driver; a unit test keeps the two equal.

/// Load sizing: every thread count the benchmark chooses (client
/// connections, `StoreOptions.threads`, `run_sweep_threads`,
/// `run_scale_v2`) is `min(nproc, 2)`.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Host cores as the standard library reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default length of one measured window, seconds (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

/// The workloads, in run order. `BENCHMARK.json` states why each exists;
/// the README says more.
pub const WORKLOADS: [&str; 5] = [
    "serve_hot",
    "serve_cold",
    "sweep_paper",
    "sweep_p64",
    "ranks_ladder",
];

/// One gated end-to-end metric. `bound` is the share of the parent's
/// median by which it may worsen. Which way each metric improves is
/// stated in `BENCHMARK.json` only: no code here depends on it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these with tracing off. What an
/// "operation" is depends on the workload: a request (serve), a
/// `run_sweep_threads` pass (sweeps), a ladder pass (ranks); `ops_per_s`
/// counts requests, cells and simulated ranks respectively. Timings are
/// 2nd percentiles, not medians ([`crate::stats::quiet`] says why); the
/// median is the per-layer `op_p50_us`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p2_us",
        unit: "us",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
];

/// One per-layer metric (no bound; reported by the traced pass).
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
}

/// The three machines whose networks the netsim stages run on.
pub const NETSIM_MACHINES: [&str; 3] = ["Power3", "ES", "X1"];

/// The four applications, in the order every per-app family uses.
pub const APPS: [&str; 4] = ["LBMHD", "PARATEC", "CACTUS", "GTC"];

/// One rung of the rank ladder.
pub struct Rung {
    pub app: &'static str,
    pub procs: usize,
    /// `<APP>.<P>`, the suffix of this rung's `mpisim.*` metrics.
    pub label: &'static str,
    /// Span name of one `run_scale_v2` call on this rung.
    pub span: &'static str,
}

/// The ladder, in run order. The LBMHD pair is the doubling ROADMAP #3
/// targets; PARATEC is the P^2 all-to-all path; GTC the data-dependent
/// shift loop.
pub const LADDER: [Rung; 5] = [
    Rung {
        app: "LBMHD",
        procs: 65_536,
        label: "LBMHD.65536",
        span: "mpisim.run.LBMHD.65536",
    },
    Rung {
        app: "LBMHD",
        procs: 131_072,
        label: "LBMHD.131072",
        span: "mpisim.run.LBMHD.131072",
    },
    Rung {
        app: "GTC",
        procs: 8_192,
        label: "GTC.8192",
        span: "mpisim.run.GTC.8192",
    },
    Rung {
        app: "CACTUS",
        procs: 8_192,
        label: "CACTUS.8192",
        span: "mpisim.run.CACTUS.8192",
    },
    Rung {
        app: "PARATEC",
        procs: 1_024,
        label: "PARATEC.1024",
        span: "mpisim.run.PARATEC.1024",
    },
];

/// Every per-layer metric, in report order. A workload reports 0 for a
/// layer it does not exercise (see the layer table in the README).
pub fn per_layer() -> Vec<PerLayer> {
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push(PerLayer { name, unit });
    add("trace_overhead_pct".into(), "%");
    add("op_p50_us".into(), "us");
    add("op_p95_us".into(), "us");
    for (name, unit) in [
        ("serve.client_write_us", "us"),
        ("serve.client_wait_us", "us"),
        ("serve.client_read_us", "us"),
        ("serve.busy_p50_us", "us"),
        ("serve.unaccounted_us", "us"),
        ("serve.parse_us", "us"),
        ("serve.key_us", "us"),
        ("serve.resolve_us", "us"),
        ("serve.store_hit_us", "us"),
        ("serve.store_miss_us", "us"),
        ("serve.respond_us", "us"),
        ("serve.cache_get_ns", "ns"),
        ("serve.cache_insert_us", "us"),
        ("serve.hit_ratio", "ratio"),
        ("serve.sim_runs", "count"),
        ("serve.overloaded", "count"),
        ("serve.spill_errors", "count"),
    ] {
        add(name.into(), unit);
    }
    for app in APPS {
        add(format!("core.engine_run_us.{app}"), "us");
    }
    add("core.pool_handoff_us".into(), "us");
    add("core.sweep_serial_ms".into(), "ms");
    add("core.sweep_parallel_eff".into(), "ratio");
    add("core.sweep_overhead_us_per_cell".into(), "us");
    for family in ["halo2d", "alltoall", "allreduce"] {
        for machine in NETSIM_MACHINES {
            add(format!("netsim.{family}_us.{machine}"), "us");
        }
    }
    add("netsim.msgs_per_s".into(), "1/s");
    add("memsim.bank_gather_ns_per_access".into(), "ns");
    add("memsim.cache_trace_ns_per_access".into(), "ns");
    add("vectorsim.execute_ns".into(), "ns");
    for rung in &LADDER {
        add(format!("mpisim.wall_s.{}", rung.label), "s");
        add(format!("mpisim.ns_per_resume.{}", rung.label), "ns");
        add(format!("mpisim.resumes.{}", rung.label), "count");
        add(format!("mpisim.messages.{}", rung.label), "count");
        add(format!("mpisim.batches.{}", rung.label), "count");
    }
    add("mpisim.doubling_cost".into(), "ratio");
    add("report.render_us".into(), "us");
    add("report.paper_err_median_pct".into(), "%");
    add("analyze.json_parse_us".into(), "us");
    add("obs.add_ns".into(), "ns");
    add("obs.record_ns".into(), "ns");
    add("obs.record_many_ns_per_item".into(), "ns");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvs_analyze::json::{parse, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("array member")
            .iter()
            .map(|m| m.str("name").expect("name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let doc = manifest();
        assert_eq!(doc.num("run_seconds"), Some(RUN_SECONDS));
        assert_eq!(names(&doc, "workloads"), WORKLOADS.map(str::to_string));
        assert_eq!(
            names(&doc, "end_to_end"),
            END_TO_END.map(|m| m.name.to_string())
        );
        let layers: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn benchmark_json_states_the_same_units_and_bounds() {
        let doc = manifest();
        let listed = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        for (m, spec) in listed.iter().zip(&END_TO_END) {
            assert_eq!(m.str("unit"), Some(spec.unit), "{}", spec.name);
            assert_eq!(m.num("bound"), Some(spec.bound), "{}", spec.name);
        }
        let listed = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .expect("per_layer");
        for (m, spec) in listed.iter().zip(per_layer()) {
            assert_eq!(m.str("unit"), Some(spec.unit), "{}", spec.name);
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_charset() {
        let mut all: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        all.extend(per_layer().into_iter().map(|m| m.name));
        all.extend(WORKLOADS.map(str::to_string));
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }
}
