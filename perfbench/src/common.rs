//! Pieces every workload shares: metric collection, the committed output
//! digests, batched set-up timing, fresh artifact stores, the probe sweep split by
//! component, and the memsim / netsim replays of a ground-truth cell.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

use metasim_apps::workload::AppWorkload;
use metasim_cache::content_key;
use metasim_machines::MachineConfig;
use metasim_memsim::analytic::ResolvedTier;
use metasim_memsim::bandwidth::{measure_bandwidth, Workload, MAX_MEASURED_ACCESSES};
use metasim_memsim::timing::{AccessKind, DependencyMode};
use metasim_netsim::replay::replay;
use metasim_probes::gups::measure_gups_tiered;
use metasim_probes::hpl::measure_hpl;
use metasim_probes::maps::measure_maps_tiered;
use metasim_probes::netbench::measure_netbench;
use metasim_probes::stream::measure_stream_tiered;
use metasim_probes::suite::{MachineProbes, HPL_PROCESSES};
use metasim_stats::descriptive::median;
use metasim_tracer::block::DependencyClass;

use crate::trace::Tracer;
use crate::Outcome;

/// Named metrics, each with its unit, in name order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn to_json(&self) -> Value {
        Value::Object(
            self.values
                .iter()
                .map(|(name, (value, unit))| {
                    (name.clone(), obj! {"value" => value, "unit" => unit})
                })
                .collect(),
        )
    }
}

/// Reset this process's peak resident set size to its current size, so
/// the peak read later covers only what runs after this call. Where the
/// kernel refuses, the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Content digest of a serializable output.
pub fn digest<T: serde::Serialize + ?Sized>(label: &str, value: &T) -> String {
    content_key(&["perfbench", label], value).to_string()
}

/// Where the expected outputs are committed, relative to the checkout root.
pub const EXPECTED_PATH: &str = "perfbench/expected.json";

/// The outputs committed in `perfbench/expected.json`, keyed like
/// `rank-analytic.seed7.ranking`. A change that alters an output on purpose
/// updates the file; the failure message names the new value.
pub struct Expected {
    values: Value,
}

impl Expected {
    pub fn load() -> Option<Self> {
        let text = std::fs::read_to_string(EXPECTED_PATH).ok()?;
        let values: Value = serde_json::from_str(&text).ok()?;
        values.as_object()?;
        Some(Expected { values })
    }

    /// Compare `got` with the value committed under `key`; true when they
    /// agree or none is committed. An output with no committed value is
    /// named in a note and checked within the run only.
    pub fn check(&self, out: &mut Outcome, key: &str, got: Value) -> bool {
        let show = |v: &Value| serde_json::to_string(v).expect("expected values serialize");
        match self.values.get(key) {
            Some(want) if *want == got => true,
            Some(want) => {
                out.fail(format!(
                    "{key} is {}, but {EXPECTED_PATH} has {}",
                    show(&got),
                    show(want)
                ));
                false
            }
            None => {
                out.note(format!(
                    "{key} is {}; {EXPECTED_PATH} has no value for it, so it is checked within this run only",
                    show(&got)
                ));
                true
            }
        }
    }
}

/// Where the benchmark keeps its stores and reports.
pub struct StateDir {
    pub root: PathBuf,
}

impl StateDir {
    pub fn new(root: PathBuf) -> Self {
        std::fs::create_dir_all(&root).expect("state directory is writable");
        StateDir { root }
    }

    /// The path of a new, empty artifact store: an old store there is
    /// removed. The store creates the directory on its first write, as it
    /// does for `metasim study` over a new cache directory.
    pub fn empty_store_dir(&self, tag: &str) -> PathBuf {
        let dir = self.root.join("stores").join(tag);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("old store is removable");
        }
        dir
    }

    pub fn remove_stores(&self) {
        let _ = std::fs::remove_dir_all(self.root.join("stores"));
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

pub fn write_report(path: &Path, report: &Value) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("report directory is writable");
    }
    let text = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(path, text).expect("report is writable");
}

/// Batches a cheap set-up is timed in before the timed units, and again
/// after them.
const SETUP_BATCHES: usize = 4;

/// Time `SETUP_BATCHES` batches of a cheap set-up, one after another, and
/// add each batch's median time to `samples`. A batch repeats the set-up
/// for half a second, at least five times. A sub-millisecond set-up timed
/// alone reads the shared host's speed at one moment, and that speed
/// switches between levels up to 1.9x apart.
pub fn setup_batches(samples: &mut Vec<f64>, mut f: impl FnMut()) {
    for _ in 0..SETUP_BATCHES {
        let start = Instant::now();
        let mut batch = Vec::new();
        while batch.len() < 5 || start.elapsed().as_secs_f64() < 0.5 {
            batch.push(timed(&mut f).1);
        }
        samples.push(median(&batch).expect("a batch times at least five set-ups"));
    }
}

/// Run `f` and return its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// One machine's probe sweep, measured component by component exactly as
/// `MachineProbes::measure_tiered` does, each component in its own span.
pub fn measure_probes(tr: &Tracer, machine: &MachineConfig, tier: ResolvedTier) -> MachineProbes {
    let sweep = match tier {
        ResolvedTier::Exact => "probes.sweep_exact",
        ResolvedTier::Analytic => "probes.sweep_analytic",
    };
    tr.span(sweep, || MachineProbes {
        id: machine.id,
        hpl: tr.span("probes.hpl", || measure_hpl(machine, HPL_PROCESSES)),
        stream: tr.span("probes.stream", || measure_stream_tiered(machine, tier)),
        gups: tr.span("probes.gups", || measure_gups_tiered(machine, tier)),
        maps: tr.span("probes.maps", || measure_maps_tiered(machine, tier)),
        netbench: tr.span("probes.netbench", || measure_netbench(machine)),
    })
}

/// Access kinds as the replay reports them.
pub const KINDS: [&str; 3] = ["seq", "short", "random"];

/// TLB sizes the random replay is split by.
pub const TLB_SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Time and work of replaying the memsim and netsim calls of ground-truth
/// executions. Access counts are simulated accesses (warm-up plus the
/// measured pass); `measured` is summed from each returned profile.
#[derive(Default)]
pub struct Replay {
    pub calls: [u64; 3],
    pub seconds: [f64; 3],
    pub accesses: [u64; 3],
    pub measured: [u64; 3],
    pub random_by_tlb: BTreeMap<usize, f64>,
    pub netsim_seconds: f64,
    pub netsim_events: u64,
}

fn dependency_mode(class: DependencyClass) -> DependencyMode {
    match class {
        DependencyClass::Independent => DependencyMode::Independent,
        DependencyClass::Chained => DependencyMode::Chained,
        DependencyClass::Branchy => DependencyMode::Branchy,
    }
}

impl Replay {
    /// Replay the `measure_bandwidth` argument mix of one ground-truth
    /// execution, read from the workload's public block census, and its
    /// MPI event replay.
    pub fn cell(&mut self, machine: &MachineConfig, workload: &AppWorkload) {
        for block in &workload.blocks {
            let (s1, short, random) = block.class_refs();
            let deps = dependency_mode(block.dependency);
            let classes = [
                (s1, AccessKind::Sequential),
                (short, AccessKind::Strided(block.short_stride())),
                (random, AccessKind::Random),
            ];
            for (k, (refs, kind)) in classes.into_iter().enumerate() {
                if refs == 0 {
                    continue;
                }
                let w = Workload::new(block.working_set, kind, deps);
                let (sample, s) = timed(|| measure_bandwidth(&machine.memory, &w));
                let warmup = w.accesses_per_pass().min(MAX_MEASURED_ACCESSES);
                let measured = sample.profile.total_accesses();
                self.calls[k] += 1;
                self.seconds[k] += s;
                self.accesses[k] += warmup + measured;
                self.measured[k] += measured;
                if k == 2 {
                    *self
                        .random_by_tlb
                        .entry(machine.memory.tlb.entries)
                        .or_default() += s;
                }
            }
        }
        let (_, s) = timed(|| replay(&machine.network, workload.processes, &workload.comm.events));
        self.netsim_seconds += s;
        self.netsim_events += workload.comm.events.len() as u64;
    }

    pub fn memsim_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    pub fn report(&self, m: &mut Metrics) {
        for (k, kind) in KINDS.iter().enumerate() {
            m.set(
                format!("memsim.{kind}.calls"),
                self.calls[k] as f64,
                "count",
            );
            m.set(format!("memsim.{kind}.s"), self.seconds[k], "s");
            m.set(
                format!("memsim.{kind}.accesses"),
                self.measured[k] as f64,
                "count",
            );
            let ns = if self.accesses[k] == 0 {
                0.0
            } else {
                self.seconds[k] * 1e9 / self.accesses[k] as f64
            };
            m.set(format!("memsim.{kind}.ns_per_access"), ns, "ns");
        }
        for tlb in TLB_SIZES {
            let s = self.random_by_tlb.get(&tlb).copied().unwrap_or(0.0);
            m.set(format!("memsim.random.tlb{tlb}.s"), s, "s");
        }
        m.set("netsim.replay_s", self.netsim_seconds, "s");
        m.set("netsim.events", self.netsim_events as f64, "count");
    }
}
