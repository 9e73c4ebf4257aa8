//! A single-flight memo of address-level simulations.
//!
//! The study asks for the same simulation many times over: ENHANCED MAPS
//! sweeps each working set under three dependency flavours, ground truth
//! measures the same (working set, stride class) for many (case, cpus)
//! cells, and machines that share a cache/TLB geometry share every profile.
//! None of that changes what `simulate` computes, because its only input
//! is the `SimKey`. [`ProfileMemo`] runs each distinct key once and
//! prices every request with the requesting spec's own [`TimingModel`].
//!
//! A memo belongs to its owner (a probe suite, a ground-truth runner), not
//! to the process: a new owner starts cold.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::bandwidth::{simulate, BandwidthSample, SimKey, Workload, ELEMENT_BYTES};
use crate::hierarchy::AccessProfile;
use crate::spec::MemorySpec;
use crate::timing::TimingModel;

/// Access profiles by simulation key (cache/TLB geometry, working set,
/// access kind, seed), one once-cell per key: concurrent cold
/// callers of one key run one simulation, and the rest wait for it.
///
/// Counts `memsim.profile.miss` once per simulation (inside the once-cell)
/// and `memsim.profile.hit` once per request served without one, so
/// `hit + miss` is the number of exact measurements made through the memo.
#[derive(Debug, Default)]
pub struct ProfileMemo {
    cells: RwLock<HashMap<SimKey, Arc<OnceLock<AccessProfile>>>>,
}

impl ProfileMemo {
    /// An empty memo. Allocates nothing until the first request.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Measure `workload` on `spec`: the shared simulation of its key,
    /// timed under `spec` and the workload's dependency mode. Equal to
    /// [`measure_bandwidth`](crate::bandwidth::measure_bandwidth) on the
    /// same inputs.
    ///
    /// # Panics
    /// Panics if the spec fails validation, hit or miss.
    #[must_use]
    pub fn measure(&self, spec: &MemorySpec, workload: &Workload) -> BandwidthSample {
        let model = TimingModel::new(spec.clone(), ELEMENT_BYTES);
        let profile = self.profile(SimKey::new(spec, workload));
        let seconds = model.time(&profile, workload.kind, workload.deps);
        BandwidthSample {
            workload: *workload,
            seconds,
            bytes: profile.requested_bytes,
            profile,
        }
    }

    /// The profile of `key`, simulating it on first request.
    fn profile(&self, key: SimKey) -> AccessProfile {
        let existing = self
            .cells
            .read()
            .expect("profile memo poisoned")
            .get(&key)
            .map(Arc::clone);
        let cell = existing.unwrap_or_else(|| {
            let mut cells = self.cells.write().expect("profile memo poisoned");
            Arc::clone(cells.entry(key.clone()).or_default())
        });
        let mut simulated = false;
        let profile = cell.get_or_init(|| {
            simulated = true;
            metasim_obs::counter_add("memsim.profile.miss", 1);
            simulate(&key)
        });
        if !simulated {
            metasim_obs::counter_add("memsim.profile.hit", 1);
        }
        profile.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;
    use crate::bandwidth::measure_bandwidth;
    use crate::spec::LevelSpec;
    use crate::timing::{AccessKind, DependencyMode};
    use metasim_obs::{with_recorder, InMemoryRecorder};

    fn spec() -> MemorySpec {
        MemorySpec::example_two_level()
    }

    /// Distinct keys the memo holds: one per simulation it ran.
    fn entries(memo: &ProfileMemo) -> usize {
        memo.cells.read().unwrap().len()
    }

    /// A random stream over 1 MiB: 256 pages against a 128-entry TLB, so
    /// the TLB fields shape the profile.
    fn workload() -> Workload {
        Workload::new(1 << 20, AccessKind::Random, DependencyMode::Independent)
    }

    #[test]
    fn timing_fields_share_one_simulation_and_price_it_apart() {
        let base = spec();
        let mut retimed = base.clone();
        for l in &mut retimed.levels {
            l.load_bandwidth /= 2.0;
            l.latency *= 1.5;
        }
        retimed.memory.stream_bandwidth /= 2.0;
        retimed.memory.latency *= 1.5;
        retimed.tlb.miss_penalty *= 2.0;
        retimed.mlp = 2.0;
        retimed.short_stride_prefetch = 0.3;
        retimed.dependency_chain_latency *= 2.0;
        retimed.branch_penalty *= 2.0;
        retimed.validate().unwrap();
        assert_eq!(base.geometry(), retimed.geometry());

        let memo = ProfileMemo::new();
        for w in [
            workload(),
            Workload::new(1 << 20, AccessKind::Strided(4), DependencyMode::Branchy),
            Workload::new(1 << 20, AccessKind::Sequential, DependencyMode::Chained),
        ] {
            let a = memo.measure(&base, &w);
            let b = memo.measure(&retimed, &w);
            assert_eq!(a.profile, b.profile, "{w:?}");
            assert_ne!(a.seconds, b.seconds, "{w:?}");
            assert_eq!(a, measure_bandwidth(&base, &w));
            assert_eq!(b, measure_bandwidth(&retimed, &w));
        }
        assert_eq!(entries(&memo), 3);
    }

    #[test]
    fn dependency_modes_share_one_simulation() {
        let memo = ProfileMemo::new();
        let s = spec();
        for deps in [
            DependencyMode::Independent,
            DependencyMode::Chained,
            DependencyMode::Branchy,
        ] {
            let w = Workload::new(256 << 10, AccessKind::Sequential, deps);
            assert_eq!(memo.measure(&s, &w), measure_bandwidth(&s, &w));
        }
        assert_eq!(entries(&memo), 1);
    }

    #[test]
    fn every_key_field_forces_a_miss() {
        let w = workload();
        let strided = Workload::new(1 << 20, AccessKind::Strided(2), DependencyMode::Independent);
        type SpecEdit = (&'static str, fn(&mut MemorySpec));
        let spec_edits: [SpecEdit; 10] = [
            ("fewer levels", |s| s.levels.truncate(1)),
            ("more levels", |s| {
                s.levels.push(LevelSpec {
                    capacity_bytes: 8 << 20,
                    line_bytes: 128,
                    associativity: 16,
                    load_bandwidth: 4e9,
                    latency: 30e-9,
                });
            }),
            ("L1 capacity", |s| s.levels[0].capacity_bytes *= 2),
            ("L1 line", |s| s.levels[0].line_bytes = 32),
            ("L1 ways", |s| s.levels[0].associativity = 4),
            ("L2 capacity", |s| s.levels[1].capacity_bytes *= 2),
            ("L2 line", |s| s.levels[1].line_bytes = 128),
            ("L2 ways", |s| s.levels[1].associativity = 16),
            ("TLB entries", |s| s.tlb.entries = 64),
            ("page bytes", |s| s.tlb.page_bytes = 8192),
        ];
        let workload_edits = [
            (
                "working set",
                w,
                Workload {
                    working_set: 2 << 20,
                    ..w
                },
            ),
            (
                "kind",
                w,
                Workload {
                    kind: AccessKind::Sequential,
                    ..w
                },
            ),
            (
                "stride",
                strided,
                Workload {
                    kind: AccessKind::Strided(4),
                    ..strided
                },
            ),
            ("seed", w, Workload { seed: 7, ..w }),
        ];

        let base = spec();
        for (field, edit) in &spec_edits {
            let mut edited = spec();
            edit(&mut edited);
            edited.validate().unwrap();
            let memo = ProfileMemo::new();
            let _ = memo.measure(&base, &w);
            assert_eq!(memo.measure(&edited, &w), measure_bandwidth(&edited, &w));
            assert_eq!(entries(&memo), 2, "{field} must miss");
        }
        for (field, before, after) in &workload_edits {
            let memo = ProfileMemo::new();
            let _ = memo.measure(&base, before);
            assert_eq!(memo.measure(&base, after), measure_bandwidth(&base, after));
            assert_eq!(entries(&memo), 2, "{field} must miss");
        }
    }

    #[test]
    fn concurrent_cold_callers_run_one_simulation() {
        const THREADS: usize = 4;
        let memo = ProfileMemo::new();
        let rec = Arc::new(InMemoryRecorder::new());
        let barrier = Barrier::new(THREADS);
        let samples: Vec<BandwidthSample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let rec = Arc::clone(&rec);
                    let (memo, barrier) = (&memo, &barrier);
                    scope.spawn(move || {
                        with_recorder(rec, || {
                            barrier.wait();
                            memo.measure(&spec(), &workload())
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(samples.windows(2).all(|p| p[0] == p[1]));
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("memsim.profile.miss"), 1);
        assert_eq!(snap.counter("memsim.profile.hit"), THREADS as u64 - 1);
    }

    #[test]
    #[should_panic(expected = "invalid memory spec")]
    fn a_hit_still_validates_the_spec() {
        let memo = ProfileMemo::new();
        let _ = memo.measure(&spec(), &workload());
        let mut bad = spec();
        bad.mlp = 0.5;
        let _ = memo.measure(&bad, &workload());
    }
}
