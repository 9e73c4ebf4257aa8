//! Per-layer reporting shared by the traced runs: the memsim kernel table
//! and the attribution of a traced unit's wall time to layers.

use std::collections::BTreeMap;
use std::time::Instant;

use metasim_machines::{fleet, MachineId};
use metasim_memsim::bandwidth::{drive, ELEMENT_BYTES};
use metasim_memsim::hierarchy::HierarchySim;
use metasim_memsim::streams::{RandomStream, StridedStream};
use metasim_stats::descriptive::{median, quantile_sorted};
use metasim_stats::rng::SeededRng;

use crate::common::{Metrics, Replay};
use crate::trace::{attribute_by_layer, durations, total_seconds, Span};
use crate::Outcome;

/// Accesses per timed kernel stream.
const KERNEL_ACCESSES: u64 = 1 << 16;

/// The layers a traced run is attributed to, in report order.
pub const LAYERS: [&str; 9] = [
    "memsim", "probes", "apps", "netsim", "tracer", "core", "fleet", "cache", "bench",
];

/// `memsim.kernel.<kind>.<ws>.<machine>.ns_per_access`: `HierarchySim`
/// driven through `bandwidth::drive` with fixed-length streams, after an
/// untimed warm-up stream of the same length; median of three.
pub fn kernel_table(m: &mut Metrics) {
    let f = fleet();
    let machines = [
        MachineId::ArlXeon,
        MachineId::ArlOpteron,
        MachineId::NavoP690Base,
    ];
    let sizes: [(&str, u64); 3] = [("16KiB", 16 << 10), ("2MiB", 2 << 20), ("64MiB", 64 << 20)];
    for id in machines {
        let spec = &f.get(id).memory;
        for (ws_name, ws) in sizes {
            for kind in ["seq", "short", "random"] {
                let mut sim = HierarchySim::new(spec);
                let mut times = Vec::new();
                let run = |sim: &mut HierarchySim| match kind {
                    "random" => {
                        let mut s =
                            RandomStream::new(0, ws, ELEMENT_BYTES, SeededRng::new(0x6b65_726e));
                        drive(sim, &mut s, KERNEL_ACCESSES);
                    }
                    _ => {
                        let stride = if kind == "seq" { 1 } else { 4 };
                        let mut s =
                            StridedStream::new(0, ws, stride * ELEMENT_BYTES, ELEMENT_BYTES);
                        drive(sim, &mut s, KERNEL_ACCESSES);
                    }
                };
                run(&mut sim);
                for _ in 0..3 {
                    let t = Instant::now();
                    run(&mut sim);
                    times.push(t.elapsed().as_secs_f64() * 1e9 / KERNEL_ACCESSES as f64);
                }
                m.set(
                    format!("memsim.kernel.{kind}.{ws_name}.{id:?}.ns_per_access"),
                    median(&times).expect("three timed streams"),
                    "ns",
                );
            }
        }
    }
}

/// Per-layer metrics read from the spans of a traced run, its work
/// counters, and the memsim / netsim replay of its ground-truth cells.
/// A span a workload does not record reads 0.
pub fn report_spans(
    m: &mut Metrics,
    spans: &[Span],
    counters: &BTreeMap<&'static str, u64>,
    replay: &Replay,
) {
    for (name, n) in counters {
        m.set(*name, *n as f64, "count");
    }
    replay.report(m);
    for c in ["maps", "stream", "gups", "hpl", "netbench"] {
        let span = format!("probes.{c}");
        m.set(format!("{span}_s"), total_seconds(spans, &span), "s");
    }
    for tier in ["exact", "analytic"] {
        let ms = scaled(&durations(spans, &format!("probes.sweep_{tier}")), 1e3);
        m.set(
            format!("probes.sweep_ms.{tier}.p50"),
            quantile(&ms, 0.5),
            "ms",
        );
        m.set(
            format!("probes.sweep_ms.{tier}.p90"),
            quantile(&ms, 0.9),
            "ms",
        );
        m.set(format!("probes.sweeps.{tier}"), ms.len() as f64, "count");
    }
    let execute = total_seconds(spans, "apps.execute");
    let exec_ms = scaled(&durations(spans, "apps.execute"), 1e3);
    m.set("apps.execute_s", execute, "s");
    m.set("apps.execute_ms.p50", quantile(&exec_ms, 0.5), "ms");
    m.set("apps.execute_ms.p90", quantile(&exec_ms, 0.9), "ms");
    m.set("apps.cells", exec_ms.len() as f64, "count");
    m.set(
        "apps.self_s",
        execute - replay.memsim_seconds() - replay.netsim_seconds,
        "s",
    );
    let trace = total_seconds(spans, "tracer.trace") + total_seconds(spans, "tracer.deps");
    m.set("tracer.trace_s", trace, "s");
    let us = scaled(&durations(spans, "core.predict_all"), 1e6);
    m.set("core.predict_all_us.p50", quantile(&us, 0.5), "us");
    m.set("core.predict_all_us.p99", quantile(&us, 0.99), "us");
    m.set("core.predict_calls", us.len() as f64, "count");
    for (metric, span) in [
        ("core.preflight_s", "core.preflight"),
        ("fleet.generate_s", "fleet.generate"),
        ("fleet.audit_s", "fleet.audit"),
        ("fleet.preflight_reference_s", "fleet.preflight_reference"),
        ("fleet.tier_budget_s", "fleet.tier_budget"),
    ] {
        m.set(metric, total_seconds(spans, span), "s");
    }
    let writes = total_seconds(spans, "cache.store_write");
    m.set("cache.store_write_ms", writes * 1e3, "ms");
}

/// The values times `factor`, sorted for `quantile`.
fn scaled(values: &[f64], factor: f64) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().map(|v| v * factor).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of sorted values; 0 where a workload records none.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_sorted(sorted, q).unwrap_or(0.0)
}

/// Attribute the wall time of a traced unit (the spans of one root) to
/// layers. Ground-truth executions are single `apps.execute` spans; the
/// memsim and netsim parts of them are split off in proportion to the
/// replayed time, and the rest stays with `apps`. Sets the `layer.*` and
/// `obs.*` metrics and names the top layer in a note.
pub fn attribute(
    out: &mut Outcome,
    m: &mut Metrics,
    spans: &[Span],
    replay: &Replay,
    untraced_wall: f64,
) {
    let mut by = attribute_by_layer(spans);
    let execute = total_seconds(spans, "apps.execute");
    let apps = by.get("apps").copied().unwrap_or(0.0);
    if execute > 0.0 {
        let mem_share = (replay.memsim_seconds() / execute).min(1.0);
        let net_share = (replay.netsim_seconds / execute).min(1.0 - mem_share);
        by.insert("memsim", apps * mem_share);
        by.insert("netsim", apps * net_share);
        by.insert("apps", apps * (1.0 - mem_share - net_share));
    }
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::seconds)
        .sum();
    let mut self_sum = 0.0;
    let mut top = ("bench", 0.0);
    for layer in LAYERS {
        let s = by.get(layer).copied().unwrap_or(0.0);
        m.set(format!("layer.{layer}.self_s"), s, "s");
        self_sum += s;
        if s > top.1 {
            top = (layer, s);
        }
    }
    m.set("obs.traced_wall_s", wall, "s");
    m.set("obs.self_sum_s", self_sum, "s");
    m.set("obs.untraced_wall_s", untraced_wall, "s");
    m.set(
        "obs.trace_overhead_frac",
        wall / untraced_wall - 1.0,
        "ratio",
    );
    m.set("obs.top_layer_share", top.1 / wall, "ratio");
    out.note(format!(
        "top layer: {} ({:.1}% of the traced unit)",
        top.0,
        top.1 / wall * 100.0
    ));
}
