//! Base-calibrated predictions for all nine metrics.
//!
//! Every prediction scales the base system's *measured* runtime by a cost
//! ratio:
//!
//! ```text
//! T′(metric, X) = C(metric, X) / C(metric, X₀) · T(X₀)
//! ```
//!
//! The cost is the metric's transfer function in the formula IR
//! ([`crate::formula::cost_expr`]), walked once per metric in the two-lane
//! domain that yields the target's and the base's cost together. For
//! simple metrics the cost is a reciprocal rate, so this is literally
//! Equation 1. The paper's observation that Metric #4's results equal
//! Metric #1's ("the convolver's execution is identical to that of a
//! pencil-and-paper calculation") falls out algebraically — the flop count
//! cancels in the ratio — and is pinned by a test here.

use metasim_probes::suite::MachineProbes;
use metasim_tracer::block::DependencyClass;
use metasim_tracer::trace::ApplicationTrace;
use metasim_units::Seconds;

use crate::formula::{cost_tree, eval, Ctx, Lanes};
use crate::metric::MetricId;

/// All nine metric predictions for one target machine.
///
/// * `trace` — the application trace collected on the base system.
/// * `dep_labels` — static-analysis dependency verdicts for `trace.blocks`.
/// * `target`/`base` — probe measurements for the two machines.
/// * `time_base` — the measured runtime on the base system.
#[must_use]
pub fn predict_all(
    trace: &ApplicationTrace,
    dep_labels: &[DependencyClass],
    target: &MachineProbes,
    base: &MachineProbes,
    time_base: Seconds,
) -> [Seconds; 9] {
    assert!(time_base > 0.0, "base runtime must be positive");
    let ctx = Ctx::new(target, Some(base), trace, dep_labels, None, 0.0);
    MetricId::ALL.map(|metric| {
        let _span = metasim_obs::recording()
            .then(|| metasim_obs::span(format!("metric:{}", metric.short_label())));
        predict(metric, &ctx, time_base)
    })
}

/// Prediction for a single metric (convenience for examples and the CLI).
#[must_use]
pub fn predict_one(
    metric: MetricId,
    trace: &ApplicationTrace,
    dep_labels: &[DependencyClass],
    target: &MachineProbes,
    base: &MachineProbes,
    time_base: Seconds,
) -> Seconds {
    let ctx = Ctx::new(target, Some(base), trace, dep_labels, None, 0.0);
    predict(metric, &ctx, time_base)
}

/// One metric's cost tree, walked once for target and base, calibrated by
/// Equation 1.
fn predict(metric: MetricId, ctx: &Ctx<'_, Lanes>, time_base: Seconds) -> Seconds {
    if metasim_obs::recording() {
        // Counted for target and for base, as two cost evaluations.
        metasim_obs::counter_add("convolver.terms", 2 * terms(metric, ctx.trace));
    }
    let Lanes(cost_target, cost_base) = eval(cost_tree(metric), ctx);
    debug_assert!(cost_base > 0.0, "{metric}: zero base cost");
    cost_target / cost_base * time_base
}

/// Transfer-function size on one machine: one term per summed cost
/// contribution (benchmark rates, counter totals, per-block convolutions,
/// MPI census entries).
fn terms(metric: MetricId, trace: &ApplicationTrace) -> u64 {
    let terms = match metric {
        MetricId::S1Hpl | MetricId::S2Stream | MetricId::S3Gups | MetricId::P4Hpl => 1,
        MetricId::P5HplStream | MetricId::P6HplStreamGups => 2,
        MetricId::P7HplMaps => trace.blocks.len(),
        MetricId::P8HplMapsNet | MetricId::P9HplMapsNetDep => {
            trace.blocks.len() + trace.mpi.events.len()
        }
    };
    terms as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasim_apps::registry::TestCase;
    use metasim_apps::tracing::trace_workload;
    use metasim_machines::{fleet, MachineId};
    use metasim_probes::suite::ProbeSuite;
    use metasim_tracer::analysis::analyze_dependencies;

    #[test]
    fn metric4_equals_metric1_exactly() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let trace = trace_workload(&TestCase::HycomStandard.workload(96));
        let labels = analyze_dependencies(&trace.blocks);
        for id in MachineId::TARGETS {
            let target = suite.measure(f.get(id));
            let p = predict_all(&trace, &labels, &target, &base, Seconds::new(5000.0));
            assert!(
                (p[0] - p[3]).abs() / p[0] < 1e-9,
                "{id}: #1 {} vs #4 {}",
                p[0],
                p[3]
            );
        }
    }

    #[test]
    fn base_machine_predicts_itself_exactly() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let trace = trace_workload(&TestCase::AvusStandard.workload(32));
        let labels = analyze_dependencies(&trace.blocks);
        let p = predict_all(&trace, &labels, &base, &base, Seconds::new(777.0));
        for (i, v) in p.iter().enumerate() {
            assert!(
                (v.get() - 777.0).abs() < 1e-9,
                "metric {} self-prediction {v}",
                i + 1
            );
        }
    }

    #[test]
    fn predictions_scale_linearly_with_base_time() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let target = suite.measure(f.get(MachineId::ArlOpteron));
        let trace = trace_workload(&TestCase::RfcthStandard.workload(32));
        let labels = analyze_dependencies(&trace.blocks);
        let p1 = predict_all(&trace, &labels, &target, &base, Seconds::new(1000.0));
        let p2 = predict_all(&trace, &labels, &target, &base, Seconds::new(2000.0));
        for (a, b) in p1.iter().zip(&p2) {
            assert!((b.get() / a.get() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn predict_one_matches_predict_all() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let target = suite.measure(f.get(MachineId::AscSc45));
        let trace = trace_workload(&TestCase::Overflow2Standard.workload(48));
        let labels = analyze_dependencies(&trace.blocks);
        let all = predict_all(&trace, &labels, &target, &base, Seconds::new(4321.0));
        for (i, metric) in MetricId::ALL.into_iter().enumerate() {
            let one = predict_one(
                metric,
                &trace,
                &labels,
                &target,
                &base,
                Seconds::new(4321.0),
            );
            assert_eq!(one.get().to_bits(), all[i].get().to_bits(), "{metric}");
        }
    }

    #[test]
    fn convolver_terms_counter_counts_target_and_base_on_every_metric() {
        use metasim_obs::InMemoryRecorder;
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let target = suite.measure(f.get(MachineId::ArlXeon));
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let labels = analyze_dependencies(&trace.blocks);
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        metasim_obs::with_recorder(rec.clone(), || {
            let _ = predict_all(&trace, &labels, &target, &base, Seconds::new(1.0));
        });
        // #1–#4 one term each, #5/#6 two, #7 one per block, #8/#9 one per
        // block and census entry; each on target and on base.
        let (blocks, events) = (trace.blocks.len() as u64, trace.mpi.events.len() as u64);
        let per_machine = 4 + 2 * 2 + blocks + 2 * (blocks + events);
        assert_eq!(
            rec.metrics_snapshot().counter("convolver.terms"),
            2 * per_machine
        );
    }

    #[test]
    fn faster_machine_predicts_smaller_times() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let fast = suite.measure(f.get(MachineId::Navo655));
        let slow = suite.measure(f.get(MachineId::MhpccP3));
        let trace = trace_workload(&TestCase::AvusStandard.workload(64));
        let labels = analyze_dependencies(&trace.blocks);
        let pf = predict_all(&trace, &labels, &fast, &base, Seconds::new(1000.0));
        let ps = predict_all(&trace, &labels, &slow, &base, Seconds::new(1000.0));
        for (i, (a, b)) in pf.iter().zip(&ps).enumerate() {
            assert!(a < b, "metric {}: fast {a} vs slow {b}", i + 1);
        }
    }

    #[test]
    #[should_panic(expected = "base runtime")]
    fn zero_base_time_panics() {
        let f = fleet();
        let suite = ProbeSuite::new();
        let base = suite.measure(f.base());
        let trace = trace_workload(&TestCase::AvusStandard.workload(32));
        let labels = analyze_dependencies(&trace.blocks);
        let _ = predict_all(&trace, &labels, &base, &base, Seconds::new(0.0));
    }
}
