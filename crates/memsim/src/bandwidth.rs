//! Bandwidth measurement: drive an address stream through a fresh hierarchy
//! and time it.
//!
//! This is the primitive every memory probe is built on: STREAM is a single
//! sequential measurement at a main-memory-sized working set; GUPS a random
//! measurement; MAPS a sweep of measurements across working-set sizes;
//! ENHANCED MAPS the same sweep under chained/branchy dependency modes.
//!
//! Measurements follow benchmarking discipline: a warm-up pass populates the
//! caches and TLB, the profile is cleared, and only then is the measured
//! pass accumulated.
//!
//! A measurement is two steps. `simulate` drives the address stream and
//! returns the [`AccessProfile`]; its only input is a `SimKey` (the spec's
//! cache/TLB geometry, working set, access kind and seed). The
//! [`TimingModel`](crate::timing::TimingModel) then prices that profile
//! under the full spec and the workload's dependency mode. Because the
//! dependency mode and every timing parameter stay out of the key, one
//! simulation serves all of them: [`ProfileMemo`] shares it.

use serde::{Deserialize, Serialize};

use metasim_stats::rng::SeededRng;
use metasim_units::{Bytes, BytesPerSec, Seconds};

use crate::hierarchy::{AccessProfile, HierarchySim};
use crate::memo::ProfileMemo;
use crate::spec::{MemorySpec, SimGeometry};
use crate::streams::{AddressStream, RandomStream, StridedStream};
use crate::timing::{AccessKind, DependencyMode};

/// Bytes requested per access throughout the study (double precision).
pub const ELEMENT_BYTES: u64 = 8;

/// Cap on simulated accesses per measurement pass; keeps MAPS sweeps cheap
/// while staying statistically stable (profiles are fractions of ≥ 2^13
/// accesses).
pub const MAX_MEASURED_ACCESSES: u64 = 1 << 15;

/// Floor on simulated accesses per measurement pass.
pub const MIN_MEASURED_ACCESSES: u64 = 1 << 13;

/// A memory measurement request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Spatial pattern.
    pub kind: AccessKind,
    /// Dependency mode of the issuing loop.
    pub deps: DependencyMode,
    /// Seed label mixed into the random stream (defaults keep probe results
    /// machine-deterministic).
    pub seed: u64,
}

impl Workload {
    /// A workload with the default seed.
    #[must_use]
    pub fn new(working_set: u64, kind: AccessKind, deps: DependencyMode) -> Self {
        Self {
            working_set,
            kind,
            deps,
            seed: 0x5eed_0001,
        }
    }

    /// Stride in bytes implied by the access kind.
    #[must_use]
    pub fn stride_bytes(&self) -> u64 {
        stride_bytes(self.kind)
    }

    /// Number of accesses needed to cover the working set once.
    #[must_use]
    pub fn accesses_per_pass(&self) -> u64 {
        accesses_per_pass(self.working_set, self.kind)
    }
}

fn stride_bytes(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Sequential => ELEMENT_BYTES,
        AccessKind::Strided(s) => u64::from(s) * ELEMENT_BYTES,
        AccessKind::Random => ELEMENT_BYTES,
    }
}

fn accesses_per_pass(working_set: u64, kind: AccessKind) -> u64 {
    (working_set / stride_bytes(kind)).max(1)
}

/// Result of one bandwidth measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthSample {
    /// The workload measured.
    pub workload: Workload,
    /// Simulated seconds for the measured pass.
    pub seconds: f64,
    /// Bytes requested during the measured pass.
    pub bytes: u64,
    /// Where accesses were served.
    pub profile: AccessProfile,
}

impl BandwidthSample {
    /// Delivered bandwidth.
    #[must_use]
    pub fn bytes_per_second(&self) -> BytesPerSec {
        if self.seconds <= 0.0 {
            BytesPerSec::new(0.0)
        } else {
            Bytes::new(self.bytes as f64) / Seconds::new(self.seconds)
        }
    }

    /// Delivered bandwidth in GB/s (10^9 bytes).
    #[must_use]
    pub fn gb_per_second(&self) -> f64 {
        self.bytes_per_second().get() / 1e9
    }
}

/// Addresses generated per batch in [`drive`]: 8 KiB of address buffer —
/// resident in L1 of the *host* machine — amortizing stream dispatch and
/// profile-commit overhead over the hierarchy simulation.
pub const DRIVE_BATCH: usize = 1024;

/// Drive `n` accesses of `stream` through `sim`, in batches.
///
/// Equivalent to the scalar `for _ in 0..n { sim.access(stream.next_addr()) }`
/// loop — same state transitions, same profile — but addresses are generated
/// a block at a time and simulated via [`HierarchySim::access_batch`], so the
/// hot loop alternates between two tight kernels instead of interleaving
/// stream generation, cache simulation, and counter updates per access.
pub fn drive<S: AddressStream>(sim: &mut HierarchySim, stream: &mut S, n: u64) {
    let bytes = stream.element_bytes();
    let mut buf = [0u64; DRIVE_BATCH];
    let mut remaining = n;
    while remaining > 0 {
        let len = remaining.min(DRIVE_BATCH as u64) as usize;
        stream.fill(&mut buf[..len]);
        sim.access_batch(&buf[..len], bytes);
        remaining -= len as u64;
    }
}

/// Everything one address-level simulation depends on: the simulator's
/// view of the spec plus the working set, spatial pattern and seed of the
/// stream. The dependency mode and every timing parameter are absent; they
/// only price the resulting profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SimKey {
    geometry: SimGeometry,
    working_set: u64,
    kind: AccessKind,
    seed: u64,
}

impl SimKey {
    /// The key of measuring `workload` on `spec`.
    pub(crate) fn new(spec: &MemorySpec, workload: &Workload) -> Self {
        Self {
            geometry: spec.geometry(),
            working_set: workload.working_set,
            kind: workload.kind,
            seed: workload.seed,
        }
    }
}

/// Run the warm-up and measured passes a key describes through a fresh
/// hierarchy and return the measured pass's profile. Deterministic: equal
/// keys yield identical profiles. Keys come from validated specs.
pub(crate) fn simulate(key: &SimKey) -> AccessProfile {
    let mut sim = HierarchySim::from_geometry(&key.geometry);
    let per_pass = accesses_per_pass(key.working_set, key.kind);
    let measured = per_pass.clamp(MIN_MEASURED_ACCESSES, MAX_MEASURED_ACCESSES);
    // Warm-up must visit the whole working set at least once (capped so huge
    // sweeps stay cheap: beyond the cap the caches are in steady-state
    // thrash anyway).
    let warmup = per_pass.min(MAX_MEASURED_ACCESSES);
    let working_set = key.working_set.max(ELEMENT_BYTES);

    match key.kind {
        AccessKind::Sequential | AccessKind::Strided(_) => {
            let mut stream =
                StridedStream::new(0, working_set, stride_bytes(key.kind), ELEMENT_BYTES);
            drive(&mut sim, &mut stream, warmup);
            sim.clear_profile();
            drive(&mut sim, &mut stream, measured);
        }
        AccessKind::Random => {
            let rng = SeededRng::new(key.seed ^ key.working_set);
            let mut stream = RandomStream::new(0, working_set, ELEMENT_BYTES, rng);
            drive(&mut sim, &mut stream, warmup);
            sim.clear_profile();
            drive(&mut sim, &mut stream, measured);
        }
    }
    sim.profile().clone()
}

/// Measure delivered bandwidth for `workload` on the memory system described
/// by `spec`. Deterministic: equal inputs yield identical samples. Callers
/// that measure many workloads share simulations through one
/// [`ProfileMemo`]; this runs through a fresh one.
///
/// # Panics
/// Panics if the spec fails validation.
#[must_use]
pub fn measure_bandwidth(spec: &MemorySpec, workload: &Workload) -> BandwidthSample {
    ProfileMemo::new().measure(spec, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MemorySpec;

    fn spec() -> MemorySpec {
        MemorySpec::example_two_level()
    }

    #[test]
    fn l1_resident_approaches_l1_bandwidth() {
        let s = spec();
        let sample = measure_bandwidth(
            &s,
            &Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Independent),
        );
        let l1 = s.levels[0].load_bandwidth;
        assert!(
            sample.bytes_per_second() > 0.95 * l1,
            "got {} vs L1 {}",
            sample.bytes_per_second(),
            l1
        );
    }

    #[test]
    fn memory_resident_approaches_stream_bandwidth() {
        let s = spec();
        let sample = measure_bandwidth(
            &s,
            &Workload::new(
                64 << 20,
                AccessKind::Sequential,
                DependencyMode::Independent,
            ),
        );
        let mem = s.memory.stream_bandwidth;
        let bw = sample.bytes_per_second();
        assert!(bw < mem, "cannot exceed DRAM: {bw} vs {mem}");
        assert!(bw > 0.6 * mem, "should approach DRAM: {bw} vs {mem}");
    }

    #[test]
    fn bandwidth_decreases_monotonically_in_working_set() {
        let s = spec();
        let sizes = [8u64 << 10, 256 << 10, 16 << 20];
        let bws: Vec<_> = sizes
            .iter()
            .map(|&ws| {
                measure_bandwidth(
                    &s,
                    &Workload::new(ws, AccessKind::Sequential, DependencyMode::Independent),
                )
                .bytes_per_second()
            })
            .collect();
        assert!(bws[0] > bws[1] && bws[1] > bws[2], "{bws:?}");
    }

    #[test]
    fn random_far_below_sequential_from_memory() {
        let s = spec();
        let seq = measure_bandwidth(
            &s,
            &Workload::new(
                64 << 20,
                AccessKind::Sequential,
                DependencyMode::Independent,
            ),
        );
        let rnd = measure_bandwidth(
            &s,
            &Workload::new(64 << 20, AccessKind::Random, DependencyMode::Independent),
        );
        assert!(
            rnd.bytes_per_second() < 0.25 * seq.bytes_per_second(),
            "random {} vs sequential {}",
            rnd.bytes_per_second(),
            seq.bytes_per_second()
        );
    }

    #[test]
    fn chained_dependency_reduces_bandwidth() {
        let s = spec();
        let ind = measure_bandwidth(
            &s,
            &Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Independent),
        );
        let dep = measure_bandwidth(
            &s,
            &Workload::new(8 << 10, AccessKind::Sequential, DependencyMode::Chained),
        );
        assert!(
            dep.bytes_per_second() < 0.5 * ind.bytes_per_second(),
            "chained {} vs independent {}",
            dep.bytes_per_second(),
            ind.bytes_per_second()
        );
    }

    #[test]
    fn measurement_is_deterministic() {
        let s = spec();
        let w = Workload::new(1 << 20, AccessKind::Random, DependencyMode::Independent);
        let a = measure_bandwidth(&s, &w);
        let b = measure_bandwidth(&s, &w);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_drive_matches_scalar_access_loop() {
        // The batch kernel must be bit-equivalent to the scalar loop it
        // replaced: identical profile, including a partial final batch.
        let s = spec();
        let n = (DRIVE_BATCH as u64) * 3 + 17;
        for kind in [AccessKind::Sequential, AccessKind::Random] {
            let w = Workload::new(1 << 20, kind, DependencyMode::Independent);
            let (mut batched, mut scalar) = (HierarchySim::new(&s), HierarchySim::new(&s));
            match kind {
                AccessKind::Random => {
                    let rng = SeededRng::new(w.seed ^ w.working_set);
                    let mut a = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng.clone());
                    let mut b = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng);
                    drive(&mut batched, &mut a, n);
                    for _ in 0..n {
                        let addr = b.next_addr();
                        scalar.access(addr, ELEMENT_BYTES);
                    }
                }
                _ => {
                    let mut a =
                        StridedStream::new(0, w.working_set, w.stride_bytes(), ELEMENT_BYTES);
                    let mut b =
                        StridedStream::new(0, w.working_set, w.stride_bytes(), ELEMENT_BYTES);
                    drive(&mut batched, &mut a, n);
                    for _ in 0..n {
                        let addr = b.next_addr();
                        scalar.access(addr, ELEMENT_BYTES);
                    }
                }
            }
            assert_eq!(batched.profile(), scalar.profile(), "{kind:?}");
        }
    }

    #[test]
    fn batched_drive_matches_scalar_loop_on_a_1024_entry_tlb() {
        // A 64 MiB random stream spans 16,384 pages, so a 1,024-entry TLB
        // misses on most accesses and evicts its LRU page thousands of
        // times: the big-TLB eviction path the shipped p690/p655s take.
        let mut s = spec();
        s.tlb.entries = 1024;
        let n = (DRIVE_BATCH as u64) * 12 + 17;
        let w = Workload::new(64 << 20, AccessKind::Random, DependencyMode::Independent);
        let rng = SeededRng::new(w.seed ^ w.working_set);
        let mut a = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng.clone());
        let mut b = RandomStream::new(0, w.working_set, ELEMENT_BYTES, rng);
        let (mut batched, mut scalar) = (HierarchySim::new(&s), HierarchySim::new(&s));
        let mut reference = crate::tlb::ScanLru::new(s.tlb.entries);
        let page_shift = s.tlb.page_bytes.trailing_zeros();
        drive(&mut batched, &mut a, n);
        for _ in 0..n {
            let addr = b.next_addr();
            scalar.access(addr, ELEMENT_BYTES);
            reference.access_page(addr >> page_shift);
        }
        assert_eq!(batched.profile(), scalar.profile());
        assert_eq!(batched.profile().tlb_misses, reference.misses);
        assert!(
            reference.misses > 8 * s.tlb.entries as u64,
            "{}",
            reference.misses
        );
    }

    #[test]
    fn workload_accessors() {
        let w = Workload::new(1 << 20, AccessKind::Strided(4), DependencyMode::Independent);
        assert_eq!(w.stride_bytes(), 32);
        assert_eq!(w.accesses_per_pass(), (1 << 20) / 32);
        let w = Workload::new(4, AccessKind::Sequential, DependencyMode::Independent);
        assert_eq!(w.accesses_per_pass(), 1, "degenerate working set");
    }

    #[test]
    fn sample_bandwidth_handles_zero_time() {
        let s = BandwidthSample {
            workload: Workload::new(8, AccessKind::Sequential, DependencyMode::Independent),
            seconds: 0.0,
            bytes: 0,
            profile: AccessProfile::default(),
        };
        assert_eq!(s.bytes_per_second(), 0.0);
        assert_eq!(s.gb_per_second(), 0.0);
    }

    #[test]
    fn gb_conversion() {
        let s = BandwidthSample {
            workload: Workload::new(8, AccessKind::Sequential, DependencyMode::Independent),
            seconds: 1.0,
            bytes: 2_000_000_000,
            profile: AccessProfile::default(),
        };
        assert!((s.gb_per_second() - 2.0).abs() < 1e-12);
    }
}
