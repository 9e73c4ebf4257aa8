//! `rank-analytic`: a procurement ranking over 20,000 machines sampled
//! from `FleetSpec::paper_space()` at the seed. Each machine gets analytic
//! probes and `predict_all` for the 15 paper (case, p) traces against the
//! base system; the result is the order of the machines per (case, p) by
//! metric #9. There is no ground truth on the targets, so exact memsim only
//! runs in set-up (the base runtimes) and in the untimed MS801 subsample
//! check.

use metasim_apps::groundtruth::execute;
use metasim_apps::registry::all_test_cases;
use metasim_apps::tracing::trace_workload;
use metasim_apps::workload::AppWorkload;
use metasim_audit::{audit_value, Severity};
use metasim_core::prediction::predict_all;
use metasim_fleet::audit::audit_tier_subsample;
use metasim_fleet::study::MS801_SUBSAMPLE;
use metasim_fleet::{FleetGenerator, GeneratedFleet, SampledGenerator};
use metasim_machines::{fleet as paper_fleet, MachineConfig};
use metasim_memsim::analytic::{ResolvedTier, Tier};
use metasim_probes::suite::MachineProbes;
use metasim_stats::descriptive::median;
use metasim_tracer::analysis::analyze_dependencies;
use metasim_tracer::block::DependencyClass;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;
use serde::Value;

use crate::common::{digest, measure_probes, peak_rss_mib, timed, Metrics, Replay};
use crate::layers::{attribute, kernel_table, report_spans};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Machines ranked per pass.
pub const SIZE: usize = 20_000;

/// Set-up repetitions per run; the median is reported.
const SETUP_REPEATS: usize = 3;

struct Case {
    workload: AppWorkload,
    trace: ApplicationTrace,
    labels: Vec<DependencyClass>,
    t_base: Seconds,
}

struct Env {
    fleet: GeneratedFleet,
    base: MachineConfig,
    base_probes: MachineProbes,
    cases: Vec<Case>,
}

/// Sample the machines; trace the 15 paper cases and run them on the base
/// system.
fn setup(tr: &Tracer, seed: u64) -> Env {
    let fleet = tr.span("fleet.generate", || {
        SampledGenerator::paper_space().generate(SIZE, seed)
    });
    let base = paper_fleet().base().clone();
    let base_probes = measure_probes(tr, &base, ResolvedTier::Analytic);
    let cases = all_test_cases()
        .into_iter()
        .map(|(case, cpus)| {
            let workload = case.workload(cpus);
            let trace = tr.span("tracer.trace", || trace_workload(&workload));
            tr.count("tracer.blocks", trace.blocks.len() as u64);
            let labels = tr.span("tracer.deps", || analyze_dependencies(&trace.blocks));
            let t_base = tr.span("apps.execute", || execute(&base, &workload).seconds);
            Case {
                workload,
                trace,
                labels,
                t_base: Seconds::new(t_base),
            }
        })
        .collect();
    Env {
        fleet,
        base,
        base_probes,
        cases,
    }
}

/// Findings of the MS801 subsample check, exact against analytic memsim on
/// the first sampled machines. It checks the analytic tier rather than
/// setting up the ranking, so it runs once per run and is not timed: its
/// cost depends on which machines the seed samples.
fn ms801_errors(tr: &Tracer, fleet: &GeneratedFleet) -> usize {
    let report = tr.span("fleet.tier_budget", || {
        audit_value(|a| audit_tier_subsample(fleet, Tier::Analytic, MS801_SUBSAMPLE, a))
    });
    report.count(Severity::Error)
}

/// One ranking pass: per machine, analytic probes and the 15 predictions;
/// then each (case, p)'s order of all machines by metric #9. Returns the
/// ranking digest and the number of cells with a missing, non-finite or
/// non-positive prediction.
fn pass(tr: &Tracer, env: &Env) -> (String, usize) {
    let mut m9 = vec![vec![0.0f64; env.fleet.machines.len()]; env.cases.len()];
    let mut failed = 0;
    for (i, machine) in env.fleet.machines.iter().enumerate() {
        let probes = if tr.enabled() {
            measure_probes(tr, &machine.config, ResolvedTier::Analytic)
        } else {
            MachineProbes::measure_tiered(&machine.config, ResolvedTier::Analytic)
        };
        for (c, case) in env.cases.iter().enumerate() {
            let preds = tr.span("core.predict_all", || {
                predict_all(
                    &case.trace,
                    &case.labels,
                    &probes,
                    &env.base_probes,
                    case.t_base,
                )
            });
            if !preds.iter().all(|p| p.get().is_finite() && p.get() > 0.0) {
                failed += 1;
            }
            m9[c][i] = preds[8].get();
        }
    }
    let orders: Vec<Vec<u32>> = m9
        .iter()
        .map(|times| {
            let mut idx: Vec<u32> = (0..times.len() as u32).collect();
            idx.sort_by(|&a, &b| {
                times[a as usize]
                    .total_cmp(&times[b as usize])
                    .then(a.cmp(&b))
            });
            idx
        })
        .collect();
    (digest("rank-analytic", &orders), failed)
}

/// Check one pass: every prediction, and its ranking against the one
/// committed for the seed (first pass) or the run's first pass (later ones).
fn check_pass(
    ctx: &Ctx,
    env: &Env,
    ranking: String,
    failed: usize,
    first: &mut Option<String>,
    out: &mut Outcome,
) {
    let cells = SIZE * env.cases.len();
    let mut failed = failed;
    match first {
        None => {
            let key = format!("rank-analytic.seed{}.ranking", ctx.seed);
            if !ctx.expected.check(out, &key, Value::Str(ranking.clone())) {
                failed = cells;
            }
            *first = Some(ranking);
        }
        Some(f) if *f != ranking => {
            out.fail("a pass ranked the machines differently from the run's first pass");
            failed = cells;
        }
        Some(_) => {}
    }
    out.attempted += cells as u64;
    out.failed += failed as u64;
}

/// The MS801 subsample check may find the analytic tier out of budget on a
/// sampled machine; the number of findings must equal the one committed
/// for the seed.
fn check_ms801(ctx: &Ctx, errors: usize, out: &mut Outcome) {
    if errors > 0 {
        out.note(format!(
            "MS801: analytic tier out of budget on the subsample ({errors} findings)"
        ));
    }
    let key = format!("rank-analytic.seed{}.ms801_errors", ctx.seed);
    ctx.expected.check(out, &key, Value::U64(errors as u64));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let untraced = Tracer::new(false);
    let (env, s) = timed(|| setup(&untraced, ctx.seed));
    let mut setups = vec![s];
    if ctx.trace {
        return traced(ctx, &env, out);
    }
    check_ms801(ctx, ms801_errors(&untraced, &env.fleet), &mut out);
    // Passes until the time is up, at least one; the first must give the
    // ranking committed for the seed, and every later one the same.
    let mut walls = Vec::new();
    let mut first = None;
    crate::common::reset_peak_rss();
    let start = std::time::Instant::now();
    loop {
        let ((ranking, failed), w) = timed(|| pass(&untraced, &env));
        walls.push(w);
        check_pass(ctx, &env, ranking, failed, &mut first, &mut out);
        if start.elapsed().as_secs_f64() + median(&walls).expect("one pass ran") > ctx.seconds {
            break;
        }
    }
    let rss = peak_rss_mib();
    drop(env);
    for _ in 1..SETUP_REPEATS {
        setups.push(timed(|| setup(&untraced, ctx.seed)).1);
    }
    out.set_end_to_end(
        median(&walls).expect("one pass ran"),
        median(&setups).expect("set-up ran"),
        rss,
    );
    out.counts(obj! {"passes" => walls.len(), "wall_s" => walls, "setup_s" => setups});
    out
}

fn traced(ctx: &Ctx, env: &Env, mut out: Outcome) -> Outcome {
    let mut m = Metrics::default();
    crate::common::reset_peak_rss();
    let ((d, failed), untraced_wall) = timed(|| pass(&Tracer::new(false), env));
    m.set("obs.peak_rss_mib", peak_rss_mib(), "MiB");
    check_pass(ctx, env, d.clone(), failed, &mut None, &mut out);

    // Set-up spans come from a traced set-up; the unit is one traced pass.
    let setup_tr = Tracer::new(true);
    let traced_env = setup(&setup_tr, ctx.seed);
    let ms801 = ms801_errors(&setup_tr, &traced_env.fleet);
    check_ms801(ctx, ms801, &mut out);
    let tr = Tracer::new(true);
    let (traced_digest, _) = tr.span("bench.unit", || pass(&tr, &traced_env));
    if traced_digest != d {
        out.fail("traced pass ranking differs from the untraced pass");
    }
    let unit_spans = tr.spans();
    let mut spans = setup_tr.spans();
    spans.extend(unit_spans.iter().cloned());

    // The base runtimes of set-up are the only ground truth.
    let mut replay = Replay::default();
    for case in &env.cases {
        replay.cell(&env.base, &case.workload);
    }
    let mut counters = setup_tr.counters();
    counters.extend(tr.counters());
    report_spans(&mut m, &spans, &counters, &replay);
    kernel_table(&mut m);
    m.set("fleet.audit_errors", ms801 as f64, "count");
    m.set("work.cells", (SIZE * env.cases.len()) as f64, "count");
    let predictions = SIZE * env.cases.len() * 9;
    m.set("work.predictions", predictions as f64, "count");
    attribute(
        &mut out,
        &mut m,
        &unit_spans,
        &Replay::default(),
        untraced_wall,
    );
    out.layer_metrics = m;
    out
}
