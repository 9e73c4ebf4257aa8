//! `fleet-study`: `run_fleet_study` on `FleetSpec::paper_space()`, size
//! 100, analytic tier, sharded over two jobs (never more than the host's
//! cores). The fleet seed is fixed (42, or `--fleet-seed`): the seed
//! changes the sampled applications and with them the work by 2.5x, far
//! more than any bound on a seed-to-seed spread allows.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;

use metasim_apps::groundtruth::execute;
use metasim_apps::tracing::trace_workload;
use metasim_audit::{audit_value, AuditReport, Severity};
use metasim_core::executor::run_sharded;
use metasim_core::prediction::predict_all;
use metasim_fleet::audit::audit_tier_subsample;
use metasim_fleet::study::{region_of, tagged_case, FleetObservation, MS801_SUBSAMPLE};
use metasim_fleet::{
    audit_generated_fleet, audit_spec, preflight_reference, run_fleet_study, FleetGenerator,
    FleetSpec, FleetStudyConfig, FleetStudyOutput, GeneratedFleet, SampledGenerator,
};
use metasim_machines::fleet as paper_fleet;
use metasim_memsim::analytic::{resolve_tier, Tier};
use metasim_obs::SpanCtx;
use metasim_stats::descriptive::median;
use metasim_tracer::analysis::analyze_dependencies;
use metasim_units::Seconds;
use serde::Value;

use crate::common::{digest, measure_probes, peak_rss_mib, setup_batches, timed, Metrics, Replay};
use crate::layers::{attribute, kernel_table, report_spans};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Machines sampled.
pub const SIZE: usize = 100;

/// The development seed; `--fleet-seed 7` gives the held-out one.
pub const DEV_SEED: u64 = 42;

struct Env {
    spec: FleetSpec,
    cfg: FleetStudyConfig,
    fleet: GeneratedFleet,
}

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The spec, the config and the sampled fleet the checks are made against.
fn setup(ctx: &Ctx) -> Env {
    let spec = FleetSpec::paper_space();
    let cfg = FleetStudyConfig {
        size: SIZE,
        seed: ctx.fleet_seed,
        tier: Tier::Analytic,
        jobs: jobs(),
        mutation: None,
    };
    let fleet = SampledGenerator::paper_space().generate(SIZE, ctx.fleet_seed);
    Env { spec, cfg, fleet }
}

fn cell_ok(o: &FleetObservation) -> bool {
    let pos = |x: f64| x.is_finite() && x > 0.0;
    pos(o.actual) && pos(o.base_actual) && o.predictions.iter().all(|&p| pos(p))
}

/// Check one study: every (machine, app) cell present, finite and
/// positive, no error-severity audit finding, and a `FleetBench` whose
/// digest equals the one committed for this fleet seed.
fn check(ctx: &Ctx, env: &Env, output: &FleetStudyOutput, out: &mut Outcome) -> String {
    let cells = env.fleet.machines.len() * env.fleet.apps.len();
    let mut failed = output.observations.iter().filter(|o| !cell_ok(o)).count();
    failed += cells.saturating_sub(output.observations.len());
    if output.bench.audit_errors != 0 {
        out.fail(format!(
            "fleet study has {} error-severity audit findings",
            output.bench.audit_errors
        ));
    }
    let bench = serde_json::to_string(&output.bench).expect("FleetBench serializes");
    let key = format!("fleet-study.seed{}.bench", ctx.fleet_seed);
    if !ctx
        .expected
        .check(out, &key, Value::Str(digest("fleet-bench", &bench)))
    {
        failed = cells;
    }
    out.attempted += cells as u64;
    out.failed += failed as u64;
    digest("fleet-observations", &output.observations)
}

fn run_unit(env: &Env) -> Option<FleetStudyOutput> {
    run_fleet_study(&env.spec, &env.cfg).ok()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.trace {
        return traced(ctx, out);
    }
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    setup_batches(&mut setups, || drop(setup(ctx)));
    crate::common::reset_peak_rss();
    let start = std::time::Instant::now();
    loop {
        let env = setup(ctx);
        let (output, w) = timed(|| run_unit(&env));
        walls.push(w);
        match output {
            Some(output) => {
                check(ctx, &env, &output, &mut out);
            }
            None => {
                out.fail("fleet study refused to run: audit gate fired");
                out.attempted += (SIZE * env.spec.apps.count as usize) as u64;
                out.failed += (SIZE * env.spec.apps.count as usize) as u64;
            }
        }
        if start.elapsed().as_secs_f64() + median(&walls).expect("one unit ran") > ctx.seconds {
            break;
        }
    }
    let rss = peak_rss_mib();
    setup_batches(&mut setups, || drop(setup(ctx)));
    out.set_end_to_end(
        median(&walls).expect("one unit ran"),
        median(&setups).expect("set-up batches ran"),
        rss,
    );
    out.counts(
        obj! {"units" => walls.len(), "wall_s" => walls, "setup_s" => setups,
        "fleet_seed" => ctx.fleet_seed, "jobs" => jobs()},
    );
    out
}

fn traced(ctx: &Ctx, mut out: Outcome) -> Outcome {
    let mut m = Metrics::default();
    let env = setup(ctx);
    crate::common::reset_peak_rss();
    let (output, untraced_wall) = timed(|| run_unit(&env));
    m.set("obs.peak_rss_mib", peak_rss_mib(), "MiB");
    let Some(output) = output else {
        out.fail("fleet study refused to run: audit gate fired");
        return out;
    };
    let reference = check(ctx, &env, &output, &mut out);

    let tr = Tracer::new(true);
    let busy: Mutex<HashMap<ThreadId, (u64, f64)>> = Mutex::new(HashMap::new());
    let mut executed = Vec::new();
    let (observations, report) =
        tr.span("bench.unit", || decomposed(&tr, &env, &busy, &mut executed));
    let spans = tr.spans();
    if digest("fleet-observations", &observations) != reference {
        out.fail("traced pipeline output differs from the fleet study's");
    }

    let mut replay = Replay::default();
    for (machine, workload) in &executed {
        replay.cell(machine, workload);
    }
    report_spans(&mut m, &spans, &tr.counters(), &replay);
    kernel_table(&mut m);
    // Shards in the order their workers first started.
    let mut shards: Vec<(u64, f64)> = busy
        .into_inner()
        .expect("no shard panicked holding the busy map")
        .into_values()
        .collect();
    shards.sort_by_key(|s| s.0);
    for k in 0..2 {
        m.set(
            format!("fleet.shard_busy_s.{k}"),
            shards.get(k).map_or(0.0, |s| s.1),
            "s",
        );
    }
    m.set(
        "fleet.audit_errors",
        report.count(Severity::Error) as f64,
        "count",
    );
    m.set(
        "core.table4_9p_err_pct",
        output.bench.overall.metrics[8].mean_abs * 100.0,
        "%",
    );
    m.set("work.cells", observations.len() as f64, "count");
    m.set("work.predictions", (observations.len() * 9) as f64, "count");
    attribute(&mut out, &mut m, &spans, &replay, untraced_wall);
    out.layer_metrics = m;
    out
}

/// `run_fleet_study`'s steps with each crate call in its own span. The
/// aggregation into a `FleetBench` is private to the crate and not
/// repeated; the observations are compared instead.
fn decomposed(
    tr: &Tracer,
    env: &Env,
    busy: &Mutex<HashMap<ThreadId, (u64, f64)>>,
    executed: &mut Vec<(
        metasim_machines::MachineConfig,
        metasim_apps::workload::AppWorkload,
    )>,
) -> (Vec<FleetObservation>, AuditReport) {
    let cfg = &env.cfg;
    let generator = SampledGenerator::paper_space();
    let fleet = tr.span("fleet.generate", || generator.generate(cfg.size, cfg.seed));
    let mut report = tr.span("fleet.audit", || {
        let mut r = audit_value(|a| audit_spec(&env.spec, a));
        r.merge(audit_value(|a| audit_generated_fleet(&fleet, a)));
        r
    });
    let base = paper_fleet().base().clone();
    report.merge(tr.span("fleet.preflight_reference", || {
        audit_value(|a| preflight_reference(&base, &fleet.apps, cfg.tier, a))
    }));
    assert!(
        !report.has_errors(),
        "fleet preflight found errors:\n{report}"
    );

    let base_probes = measure_probes(tr, &base, resolve_tier(&base.memory, cfg.tier));
    let contexts: Vec<_> = fleet
        .apps
        .iter()
        .map(|app| {
            let trace = tr.span("tracer.trace", || trace_workload(&app.workload));
            tr.count("tracer.blocks", trace.blocks.len() as u64);
            let labels = tr.span("tracer.deps", || analyze_dependencies(&trace.blocks));
            let t_base = tr.span("apps.execute", || execute(&base, &app.workload).seconds);
            executed.push((base.clone(), app.workload.clone()));
            (app, trace, labels, t_base)
        })
        .collect();

    let started = std::time::Instant::now();
    let per_machine: Vec<Vec<(FleetObservation, metasim_apps::workload::AppWorkload)>> =
        tr.span("core.run_sharded", || {
            let parent = tr.current();
            run_sharded(
                SpanCtx::root(),
                cfg.jobs,
                fleet.machines.clone(),
                |machine| {
                    let (cells, s) = timed(|| {
                        tr.span_under(parent, "fleet.machine", || {
                            let tier = resolve_tier(&machine.config.memory, cfg.tier);
                            let probes = measure_probes(tr, &machine.config, tier);
                            let region = region_of(&machine);
                            contexts
                                .iter()
                                .map(|(app, trace, labels, t_base)| {
                                    let predictions = tr.span("core.predict_all", || {
                                        predict_all(
                                            trace,
                                            labels,
                                            &probes,
                                            &base_probes,
                                            Seconds::new(*t_base),
                                        )
                                    });
                                    let mut ground = app.workload.clone();
                                    ground.case = tagged_case(&ground.case, &machine.name);
                                    let actual = tr.span("apps.execute", || {
                                        execute(&machine.config, &ground).seconds
                                    });
                                    let mut preds = [0.0; 9];
                                    for (slot, p) in preds.iter_mut().zip(predictions.iter()) {
                                        *slot = p.get();
                                    }
                                    let obs = FleetObservation {
                                        machine: machine.name.clone(),
                                        region: region.clone(),
                                        app: app.name.clone(),
                                        processes: app.workload.processes,
                                        actual,
                                        base_actual: *t_base,
                                        predictions: preds,
                                    };
                                    (obs, ground)
                                })
                                .collect::<Vec<_>>()
                        })
                    });
                    let mut busy = busy.lock().expect("no shard panicked holding the busy map");
                    let entry = busy
                        .entry(std::thread::current().id())
                        .or_insert((started.elapsed().as_nanos() as u64, 0.0));
                    entry.1 += s;
                    cells
                },
            )
        });
    let mut observations = Vec::new();
    for (machine, cells) in fleet.machines.iter().zip(per_machine) {
        for (obs, ground) in cells {
            observations.push(obs);
            executed.push((machine.config.clone(), ground));
        }
    }
    report.merge(tr.span("fleet.tier_budget", || {
        audit_value(|a| audit_tier_subsample(&fleet, cfg.tier, MS801_SUBSAMPLE.min(cfg.size), a))
    }));
    (observations, report)
}
