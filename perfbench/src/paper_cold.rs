//! `paper-cold`: the paper's own study on the shipped 11-machine fleet,
//! exact tier, one job, into a new empty artifact store. The inputs are
//! fixed, so the seed is not used.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use metasim_apps::groundtruth::{execute, GroundTruth, GROUND_TRUTH_KIND};
use metasim_apps::registry::all_test_cases;
use metasim_apps::tracing::{trace_workload, TraceCache, TRACE_KIND};
use metasim_cache::ArtifactStore;
use metasim_core::audit::preflight;
use metasim_core::metric::MetricId;
use metasim_core::prediction::predict_all;
use metasim_core::study::{Observation, Study, STUDY_KIND};
use metasim_machines::{fleet, Fleet, MachineId};
use metasim_memsim::analytic::{ResolvedTier, Tier};
use metasim_probes::suite::{ProbeSuite, PROBES_KIND};
use metasim_report::csv::CsvWriter;
use metasim_stats::descriptive::median;
use metasim_tracer::analysis::analyze_dependencies;
use metasim_units::Seconds;
use serde::Value;

use crate::common::{digest, measure_probes, peak_rss_mib, setup_batches, timed, Metrics, Replay};
use crate::layers::{attribute, kernel_table, report_spans};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Observations a complete grid holds.
const OBSERVATIONS: usize = 150;

struct Env {
    fleet: Fleet,
    store: Arc<ArtifactStore>,
    suite: ProbeSuite,
    gt: GroundTruth,
}

/// New memos over a new empty store at `dir`, as `metasim study` builds
/// them.
fn setup(dir: &Path) -> Env {
    let store = Arc::new(ArtifactStore::open(dir));
    Env {
        fleet: fleet(),
        suite: ProbeSuite::with_store(Arc::clone(&store)),
        gt: GroundTruth::with_store(Arc::clone(&store)),
        store,
    }
}

fn run_study(env: &Env) -> Study {
    let (study, timings) =
        Study::run_with_store_jobs(&env.fleet, &env.suite, &env.gt, Some(&env.store), 1);
    assert!(
        !timings.loaded_from_cache,
        "a new store cannot hold the study"
    );
    study
}

/// The observations serialized exactly as `metasim study --export` writes
/// them.
pub fn export_csv(study: &Study) -> String {
    let mut w = CsvWriter::new();
    let mut header: Vec<String> = ["case", "cpus", "machine", "actual_s", "base_actual_s"]
        .iter()
        .map(ToString::to_string)
        .collect();
    header.extend(
        MetricId::ALL
            .iter()
            .map(|m| format!("pred_{}", m.short_label())),
    );
    w.row(&header);
    for o in &study.observations {
        let mut cells = vec![
            o.case.label().to_string(),
            o.cpus.to_string(),
            o.machine.label().to_string(),
            format!("{}", o.actual),
            format!("{}", o.base_actual),
        ];
        cells.extend(o.predictions.iter().map(|p| format!("{p}")));
        w.row(&cells);
    }
    w.finish()
}

fn cell_ok(o: &Observation) -> bool {
    let pos = |x: f64| x.is_finite() && x > 0.0;
    pos(o.actual.get()) && pos(o.base_actual.get()) && o.predictions.iter().all(|p| pos(p.get()))
}

/// Check one study: a complete grid, every cell finite and positive, and
/// the export digest equal to the committed one (and the export equal to
/// the shipped CLI's when one is given).
fn check(ctx: &Ctx, study: &Study, out: &mut Outcome) -> String {
    let csv = export_csv(study);
    let digest = digest("paper-cold", &csv);
    let mut failed = study.observations.iter().filter(|o| !cell_ok(o)).count();
    failed += OBSERVATIONS.saturating_sub(study.observations.len());
    if !study.coverage().is_complete() {
        out.fail("paper-cold grid is incomplete");
    }
    if !ctx
        .expected
        .check(out, "paper-cold.export", Value::Str(digest.clone()))
    {
        failed = OBSERVATIONS;
    }
    if let Some(path) = &ctx.cli_export {
        let cli = std::fs::read_to_string(path).unwrap_or_default();
        if cli == csv {
            out.note(format!("observations byte-identical to {}", path.display()));
        } else {
            out.fail("observations differ from `metasim study --no-cache --export`");
            failed = OBSERVATIONS;
        }
    }
    out.attempted += OBSERVATIONS as u64;
    out.failed += failed as u64;
    digest
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.trace {
        return traced(ctx, out);
    }
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    // Set-up never writes to the store, so its directory stays empty.
    let setup_dir = ctx.state.empty_store_dir("paper-cold-setup");
    setup_batches(&mut setups, || drop(setup(&setup_dir)));
    crate::common::reset_peak_rss();
    let start = std::time::Instant::now();
    loop {
        let env = setup(&ctx.state.empty_store_dir("paper-cold"));
        let (study, w) = timed(|| run_study(&env));
        walls.push(w);
        check(ctx, &study, &mut out);
        drop(env);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + median(&walls).expect("one unit ran") > ctx.seconds {
            break;
        }
    }
    let rss = peak_rss_mib();
    setup_batches(&mut setups, || drop(setup(&setup_dir)));
    ctx.state.remove_stores();
    out.set_end_to_end(
        median(&walls).expect("one unit ran"),
        median(&setups).expect("set-up batches ran"),
        rss,
    );
    out.counts(obj! {"units" => walls.len(), "wall_s" => walls, "setup_s" => setups});
    out
}

fn traced(ctx: &Ctx, mut out: Outcome) -> Outcome {
    let mut m = Metrics::default();

    // Untraced reference unit, then the warm re-run against its store.
    let env = setup(&ctx.state.empty_store_dir("paper-cold"));
    crate::common::reset_peak_rss();
    let (study, untraced_wall) = timed(|| run_study(&env));
    m.set("obs.peak_rss_mib", peak_rss_mib(), "MiB");
    let reference = check(ctx, &study, &mut out);
    let stats = env.store.stats();
    let warm = setup_warm(&env);
    let ((warm_study, warm_timings), warm_s) = timed(|| {
        Study::run_with_store_jobs(&warm.fleet, &warm.suite, &warm.gt, Some(&warm.store), 1)
    });
    if !warm_timings.loaded_from_cache || warm_study != study {
        out.fail("warm study did not load the stored result");
    }
    m.set("cache.bytes", stats.bytes as f64, "bytes");
    m.set("cache.warm_study_ms", warm_s * 1e3, "ms");
    drop((env, warm));

    // Traced unit: the same pipeline, one crate call at a time.
    let env = setup(&ctx.state.empty_store_dir("paper-cold-traced"));
    let tr = Tracer::new(true);
    let mut executed = Vec::new();
    let study = tr.span("bench.unit", || decomposed(&tr, &env, &mut executed));
    let spans = tr.spans();
    if digest("paper-cold", &export_csv(&study)) != reference {
        out.fail("traced pipeline output differs from the study's");
    }

    let mut replay = Replay::default();
    for (machine, workload) in &executed {
        replay.cell(env.fleet.get(*machine), workload);
    }
    drop(env);
    ctx.state.remove_stores();
    report_spans(&mut m, &spans, &tr.counters(), &replay);
    kernel_table(&mut m);
    let t4 = study.table4();
    m.set("core.table4_9p_err_pct", t4[8].mean_absolute.get(), "%");
    m.set("work.cells", study.observations.len() as f64, "count");
    m.set("work.predictions", study.prediction_count() as f64, "count");
    attribute(&mut out, &mut m, &spans, &replay, untraced_wall);
    out.layer_metrics = m;
    out
}

/// A second set of memos over the filled store, for the warm re-run.
fn setup_warm(env: &Env) -> Env {
    Env {
        fleet: fleet(),
        suite: ProbeSuite::with_store(Arc::clone(&env.store)),
        gt: GroundTruth::with_store(Arc::clone(&env.store)),
        store: Arc::clone(&env.store),
    }
}

/// The study's phases with each crate call in its own span: probe sweeps
/// (stored as the suite stores them), the preflight audit reading them
/// back, every ground-truth cell, the traces and the predictions.
fn decomposed(
    tr: &Tracer,
    env: &Env,
    executed: &mut Vec<(MachineId, metasim_apps::workload::AppWorkload)>,
) -> Study {
    let f = &env.fleet;
    let store = &env.store;
    for id in MachineId::ALL {
        let machine = f.get(id);
        let probes = measure_probes(tr, machine, ResolvedTier::Exact);
        tr.span("cache.store_write", || {
            store.store(
                PROBES_KIND,
                ProbeSuite::store_key_tiered(machine, ResolvedTier::Exact),
                &probes,
            )
        })
        .expect("probe entry is writable");
    }
    let report = tr.span("core.preflight", || preflight(f, &env.suite));
    assert!(!report.has_errors(), "preflight found errors:\n{report}");
    let base = f.base();
    let base_probes = env.suite.measure(base);

    let mut actual: HashMap<(usize, MachineId), f64> = HashMap::new();
    for (i, (case, cpus)) in all_test_cases().into_iter().enumerate() {
        let workload = case.workload(cpus);
        for id in std::iter::once(MachineId::NavoP690Base).chain(MachineId::TARGETS) {
            let machine = f.get(id);
            let result = tr.span("apps.execute", || execute(machine, &workload));
            tr.span("cache.store_write", || {
                store.store(
                    GROUND_TRUTH_KIND,
                    GroundTruth::store_key(case, cpus, machine),
                    &result,
                )
            })
            .expect("ground-truth entry is writable");
            actual.insert((i, id), result.seconds);
            executed.push((id, workload.clone()));
        }
    }

    let mut observations = Vec::new();
    for (i, (case, cpus)) in all_test_cases().into_iter().enumerate() {
        let workload = case.workload(cpus);
        let trace = tr.span("tracer.trace", || trace_workload(&workload));
        tr.count("tracer.blocks", trace.blocks.len() as u64);
        tr.span("cache.store_write", || {
            store.store(TRACE_KIND, TraceCache::store_key(&workload), &trace)
        })
        .expect("trace entry is writable");
        let labels = tr.span("tracer.deps", || analyze_dependencies(&trace.blocks));
        let base_actual = Seconds::new(actual[&(i, MachineId::NavoP690Base)]);
        for id in MachineId::TARGETS {
            let target = env.suite.measure(f.get(id));
            let predictions = tr.span("core.predict_all", || {
                predict_all(&trace, &labels, &target, &base_probes, base_actual)
            });
            observations.push(Observation {
                case,
                cpus,
                machine: id,
                actual: Seconds::new(actual[&(i, id)]),
                base_actual,
                predictions,
            });
        }
    }
    let mut study = Study { observations };
    study
        .observations
        .sort_by_key(|o| (o.case, o.cpus, o.machine));
    tr.span("cache.store_write", || {
        store.store(STUDY_KIND, Study::store_key_tiered(f, Tier::Exact), &study)
    })
    .expect("study entry is writable");
    study
}
