//! One seeded benchmark for the whole pvs stack.
//!
//! `pvs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints its metrics; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Without `--workload` it runs all
//! five, each in a fresh child process of this same binary, and writes a
//! results file that `pvs-benchmark compare <a> <b>` can check against
//! another. See `README.md` beside this package.
//!
//! Exit codes follow the repo convention: 0 ok, 1 a check failed, 2
//! usage, 3 unreadable input, 4 not JSON, 5 unknown schema, 6 unwritable
//! output.

mod compare;
mod gen;
mod layers;
mod ranks;
mod serve;
mod spec;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use spec::{END_TO_END, WORKLOADS};
use trace::Tracer;

/// Settings of one workload run.
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window with tracing off.
    pub seconds: f64,
    pub trace: bool,
    /// This workload's scratch directory, emptied when the run starts.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Unmeasured lead-in, so caches fill and threads start off the clock.
    pub fn warmup_seconds(&self) -> f64 {
        (self.seconds * 0.1).min(2.0)
    }

    /// One measured window. A traced run takes two shorter ones (tracing
    /// off, then on) so it can state what tracing cost.
    pub fn window_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * 0.4
        } else {
            self.seconds
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations measured, plus identity checks made.
    pub attempted: u64,
    /// Operations that errored or were refused, plus checks that failed.
    pub failed: u64,
    /// The metrics this run measured; the rest of its list reads 0.
    pub metrics: Vec<(String, f64)>,
    /// FNV-1a over the model bytes this workload's inputs produce, for
    /// byte-for-byte comparison between commits.
    pub digest: u64,
    /// Sample counts and settings, printed and kept in results files.
    pub notes: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

/// Why a run could not finish.
#[derive(Debug)]
pub enum BenchError {
    /// The program under test misbehaved (socket error, bad reply).
    Check(String),
    /// A file under `benchmark/out/` could not be written.
    Output(std::io::Error),
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Check(format!("i/o: {e}"))
    }
}

/// Time `set_up` `count` times, pushing each duration onto `samples_ns`,
/// and return what the last one built. A workload calls this before its
/// warm-up, again between warm-up and window, and again after the window,
/// and reports [`stats::quiet`] of all samples as `setup_s`: a slow spell
/// of the host that covers one or two of the three sampling points then
/// cannot move it. Tearing down what a set-up built is not timed.
pub fn timed_set_ups<T>(
    samples_ns: &mut Vec<u64>,
    count: usize,
    mut set_up: impl FnMut() -> Result<T, BenchError>,
) -> Result<T, BenchError> {
    for _ in 1..count {
        let started = Instant::now();
        let built = set_up()?;
        samples_ns.push(started.elapsed().as_nanos() as u64);
        drop(built);
    }
    let started = Instant::now();
    let built = set_up()?;
    samples_ns.push(started.elapsed().as_nanos() as u64);
    Ok(built)
}

const EXIT_CHECK: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_OUTPUT: u8 = 6;

const USAGE: &str = "usage:
  pvs-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  pvs-benchmark --print-workload NAME [--seed N]
  pvs-benchmark compare A.json B.json
workloads: serve_hot serve_cold sweep_paper sweep_p64 ranks_ladder";

/// `benchmark/out/`, beside this package's manifest.
fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process so far, MiB (`VmHWM`). A workload
/// reads it when its measured window ends, before the checks that follow
/// allocate anything.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Cli {
    workload: Option<String>,
    print_workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        print_workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--print-workload" => cli.print_workload = Some(value.clone()),
            "--seed" => {
                cli.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not a whole number"))?
            }
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    for name in cli.workload.iter().chain(&cli.print_workload) {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(cli)
}

/// `{"name":{"value":v,"unit":"u"},...}`.
fn metrics_json(metrics: &[(String, &'static str, f64)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Run one workload in this process and print its result.
fn run_workload(name: &str, cli: &Cli) -> ExitCode {
    let cfg = RunConfig {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: out_root().join(name),
    };
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("error: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(EXIT_OUTPUT);
    }
    let result = match name {
        "serve_hot" => serve::run(true, &cfg),
        "serve_cold" => serve::run(false, &cfg),
        "sweep_paper" => sweep::run(true, &cfg),
        "sweep_p64" => sweep::run(false, &cfg),
        _ => ranks::run(&cfg),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(BenchError::Check(why)) => {
            eprintln!("error: {name}: {why}");
            return ExitCode::from(EXIT_CHECK);
        }
        Err(BenchError::Output(e)) => {
            eprintln!(
                "error: {name}: cannot write under {}: {e}",
                cfg.out_dir.display()
            );
            return ExitCode::from(EXIT_OUTPUT);
        }
    };
    if cfg.trace {
        let path = cfg.out_dir.join("trace.jsonl");
        if let Err(e) = outcome.tracer.write_jsonl(&path, name) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(EXIT_OUTPUT);
        }
        outcome
            .notes
            .push(("spans", outcome.tracer.spans().len().to_string()));
    }

    // The run's full metric list, in BENCHMARK.json order. With tracing
    // off every end-to-end metric must have been measured; a per-layer
    // metric this workload has no span for reads 0.
    let listed: Vec<(String, &'static str)> = if cfg.trace {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    for (measured, _) in &outcome.metrics {
        assert!(
            listed.iter().any(|(name, _)| name == measured),
            "{measured} is not in the metric list"
        );
    }
    let metrics: Vec<(String, &'static str, f64)> = listed
        .into_iter()
        .map(|(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            assert!(cfg.trace || value.is_some(), "{name} was not measured");
            (name, unit, value.unwrap_or(0.0))
        })
        .collect();

    let correct = outcome.failed == 0;
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  nproc {}  threads {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        spec::nproc(),
        spec::threads()
    );
    for (key, value) in &outcome.notes {
        println!("note    {key:<28} {value}");
    }
    for (metric, unit, value) in &metrics {
        println!("metric  {metric:<44} {value:>18.4} {unit}");
    }
    println!("model_digest {:016x}", outcome.digest);
    println!(
        "attempted {}  failed {}  failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace(['"', '\\'], "'")))
        .collect();
    let metrics = metrics_json(&metrics);
    println!(
        "detail {{\"workload\":\"{name}\",\"trace\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"model_digest\":\"{:016x}\",\"notes\":{{{}}},\"metrics\":{metrics}}}",
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed,
        outcome.digest,
        notes.join(",")
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_CHECK)
    }
}

/// Run every workload, each in a fresh child process of this binary, and
/// write the results file.
fn run_all(cli: &Cli) -> ExitCode {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(EXIT_CHECK);
        }
    };
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| out_root().join("results.json"));
    let mut runs: Vec<String> = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let child = std::process::Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match child {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("error: cannot start {}: {e}", workload);
                    return ExitCode::from(EXIT_CHECK);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop(); // the driver's line repeats what `detail` holds
            let detail = lines.pop().and_then(|l| l.strip_prefix("detail "));
            for line in &lines {
                println!("{line}");
            }
            println!();
            all_correct &= output.status.success();
            match detail {
                Some(detail) => runs.push(detail.to_string()),
                None => eprintln!("error: {} printed no result", workload),
            }
        }
    }
    let doc = format!(
        "{{\"schema\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\"threads\":{},\"loadavg\":\"{}\",\"runs\":[\n{}\n]}}\n",
        compare::SCHEMA,
        cli.seed,
        cli.seconds,
        spec::nproc(),
        spec::threads(),
        loadavg.trim(),
        runs.join(",\n")
    );
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, doc));
    if let Err(e) = written {
        eprintln!("error: cannot write {}: {e}", out.display());
        return ExitCode::from(EXIT_OUTPUT);
    }
    println!("wrote {}", out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_CHECK)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Some(name) = &cli.print_workload {
        print!(
            "{}",
            gen::listing(name, cli.seed).expect("parse_cli checked the name")
        );
        return ExitCode::SUCCESS;
    }
    match &cli.workload {
        Some(name) => run_workload(name, &cli),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse_cli(&args(&[
            "--workload",
            "sweep_p64",
            "--seed",
            "9",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("sweep_p64"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 20.0, true));
        let default = parse_cli(&[]).unwrap();
        assert_eq!(
            (default.seed, default.seconds, default.trace),
            (1, spec::RUN_SECONDS, false)
        );
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--print-workload", "nope"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--workload"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_traced_run_splits_its_window() {
        let mut cfg = RunConfig {
            seed: 1,
            seconds: 20.0,
            trace: false,
            out_dir: PathBuf::new(),
        };
        assert_eq!(cfg.window_seconds(), 20.0);
        assert_eq!(cfg.warmup_seconds(), 2.0);
        cfg.trace = true;
        assert_eq!(cfg.window_seconds(), 8.0);
    }

    #[test]
    fn metrics_render_as_the_contract_object() {
        let json = metrics_json(&[
            ("op_p2_us".into(), "us", 43012.125),
            ("setup_s".into(), "s", 0.5),
        ]);
        assert_eq!(json, "{\"op_p2_us\":{\"value\":43012.125,\"unit\":\"us\"},\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}");
        assert!(pvs_analyze::json::parse(&json).is_ok());
    }
}
