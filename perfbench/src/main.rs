//! The repository benchmark: three workloads of the metasim study
//! pipeline, timed end to end with tracing off, or split by layer in a
//! traced run.
//!
//! ```text
//! perfbench --workload paper-cold|fleet-study|rank-analytic --seed N
//!           --seconds S --trace 0|1 [--state-dir DIR] [--host JSON]
//!           [--cli-export FILE.csv] [--fleet-seed N]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! named in `BENCHMARK.json` untraced, its per-layer metrics traced. A
//! fuller report, with the work counts and the host fingerprint, goes to
//! `<state-dir>/reports/`.

/// A JSON object from `key => value` pairs, in order.
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        serde::Value::Object(vec![$(($k.to_string(), serde::Serialize::to_value(&$v))),*])
    };
}

mod common;
mod fleet_study;
mod layers;
mod paper_cold;
mod rank_analytic;
mod trace;

use std::path::PathBuf;

use serde::Value;

use common::{Expected, Metrics, StateDir, EXPECTED_PATH};

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub fleet_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub state: StateDir,
    pub cli_export: Option<PathBuf>,
    pub expected: Expected,
}

/// What one run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub end_to_end: Metrics,
    pub layer_metrics: Metrics,
    pub counts: Value,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            end_to_end: Metrics::default(),
            layer_metrics: Metrics::default(),
            counts: Value::Null,
        }
    }
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }

    pub fn counts(&mut self, counts: Value) {
        self.counts = counts;
    }

    pub fn set_end_to_end(&mut self, wall: f64, setup: f64, peak_rss_mib: f64) {
        self.end_to_end.set("wall_s", wall, "s");
        self.end_to_end.set("setup_s", setup, "s");
        self.end_to_end.set("peak_rss_mib", peak_rss_mib, "MiB");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
    host: Value,
    cli_export: Option<PathBuf>,
    fleet_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        state_dir: PathBuf::from(".bench_build/perfbench"),
        host: Value::Null,
        cli_export: None,
        fleet_seed: fleet_study::DEV_SEED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)? as f64,
            "--trace" => args.trace = num(&value)? != 0,
            "--state-dir" => args.state_dir = PathBuf::from(value),
            "--host" => args.host = serde_json::from_str(&value).map_err(|e| e.to_string())?,
            "--cli-export" => args.cli_export = Some(PathBuf::from(value)),
            "--fleet-seed" => args.fleet_seed = num(&value)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The metrics `BENCHMARK.json` lists for this mode, as (name, unit).
fn listed_metrics(benchmark: &Value, trace: bool) -> Vec<(String, String)> {
    let key = if trace { "per_layer" } else { "end_to_end" };
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .map(|list| {
            list.iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        })
        .unwrap_or_default()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let benchmark: Value = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .unwrap_or_else(|| {
            eprintln!("perfbench: cannot read BENCHMARK.json");
            std::process::exit(2);
        });
    let expected = Expected::load().unwrap_or_else(|| {
        eprintln!("perfbench: cannot read {EXPECTED_PATH}");
        std::process::exit(2);
    });
    let ctx = Ctx {
        seed: args.seed,
        fleet_seed: args.fleet_seed,
        seconds: args.seconds,
        trace: args.trace,
        state: StateDir::new(args.state_dir.clone()),
        cli_export: args.cli_export.clone(),
        expected,
    };
    let outcome = match args.workload.as_str() {
        "paper-cold" => paper_cold::run(&ctx),
        "fleet-study" => fleet_study::run(&ctx),
        "rank-analytic" => rank_analytic::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };

    let measured = if args.trace {
        &outcome.layer_metrics
    } else {
        &outcome.end_to_end
    };
    let mut metrics = Vec::new();
    for (name, unit) in listed_metrics(&benchmark, args.trace) {
        // A layer metric a workload does not exercise reads 0.
        let value = measured.get(&name).unwrap_or(0.0);
        metrics.push((name, obj! {"value" => value, "unit" => unit}));
    }
    let correct = outcome.failures.is_empty() && outcome.failed == 0 && outcome.attempted > 0;

    let report = obj! {
        "workload" => args.workload,
        "seed" => args.seed,
        "trace" => args.trace,
        "host" => args.host,
        "correct" => correct,
        "attempted" => outcome.attempted,
        "failed" => outcome.failed,
        "failures" => outcome.failures,
        "notes" => outcome.notes,
        "counts" => outcome.counts,
        "metrics" => measured.to_json(),
    };
    let report_path = ctx.state.path("reports").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    common::write_report(&report_path, &report);

    let compact = |v: &Value| serde_json::to_string(v).expect("finite metrics serialize");
    println!("host: {}", compact(&args.host));
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    println!("report: {}", report_path.display());
    let result = obj! {
        "correct" => correct,
        "attempted" => outcome.attempted,
        "failed" => outcome.failed,
        "metrics" => Value::Object(metrics),
    };
    println!("{}", compact(&result));
}
