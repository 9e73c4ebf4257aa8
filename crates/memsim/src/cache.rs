//! A set-associative cache with true-LRU replacement.
//!
//! The simulator models tag state only (no data), which is all a timing study
//! needs. Associativity in the fleet this workspace models is small (1–16
//! ways), so per-set LRU is a linear scan over a tiny array. Tags and stamps
//! live in separate contiguous `u64` arrays (structure-of-arrays): the hit
//! scan reads only the tag array and the victim scan only the stamp array,
//! each a branchless sweep the compiler can unroll and `cmov`/vectorize.

use crate::spec::{LevelGeometry, LevelSpec};

const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache over 64-bit byte addresses.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line tag per way (`addr >> line_shift`); `u64::MAX` marks empty.
    tags: Vec<u64>,
    /// Monotone last-touch stamp per way, parallel to `tags`.
    stamps: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
    /// Line most recently touched, valid when `last_way != usize::MAX`.
    /// Invariant: `tags[last_way] == last_line` — every fill updates both,
    /// and the most recently stamped way can never be a later fill's LRU
    /// victim, so the pair can only go stale by being overwritten together.
    last_line: u64,
    last_way: usize,
}

impl Cache {
    /// Build a cache from a validated [`LevelSpec`].
    ///
    /// # Panics
    /// Panics if the spec fails validation — construct specs through the
    /// `machines` crate or validate first.
    #[must_use]
    pub fn new(spec: &LevelSpec) -> Self {
        spec.validate().expect("invalid cache spec");
        Self::from_geometry(&spec.geometry())
    }

    /// Build a cache from the geometry of a validated level.
    pub(crate) fn from_geometry(geometry: &LevelGeometry) -> Self {
        let sets = geometry.sets();
        let assoc = geometry.associativity as usize;
        let ways = (sets as usize) * assoc;
        Self {
            tags: vec![EMPTY; ways],
            stamps: vec![0; ways],
            assoc,
            set_mask: sets - 1,
            line_shift: geometry.line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
            last_line: 0,
            last_way: usize::MAX,
        }
    }

    /// Access the line containing byte address `addr`. Returns `true` on hit.
    /// On miss the line is filled, evicting the set's LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.line_shift)
    }

    /// Access a pre-decomposed line number (callers shift the address once
    /// per batch instead of once per level per access). Bit-identical to
    /// [`access`](Self::access) on the containing address.
    pub(crate) fn access_line(&mut self, line: u64) -> bool {
        self.clock += 1;
        // MRU fast path: a repeat of the line we just touched needs no set
        // scan — it is still resident at `last_way` by the struct invariant.
        if line == self.last_line && self.last_way != usize::MAX {
            self.stamps[self.last_way] = self.clock;
            self.hits += 1;
            return true;
        }
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;

        // Hit scan: tags are unique within a set, so keeping the last match
        // equals keeping the only match — no early exit, no branch.
        let mut way = usize::MAX;
        for (i, &t) in self.tags[base..base + self.assoc].iter().enumerate() {
            if t == line {
                way = base + i;
            }
        }
        if way != usize::MAX {
            self.stamps[way] = self.clock;
            self.hits += 1;
            self.last_line = line;
            self.last_way = way;
            return true;
        }

        // Miss: replace the first way with the minimum stamp — the same
        // element `min_by_key` picks (empty ways carry stamp 0 and lose
        // ties, so they are consumed before any eviction happens).
        let stamps = &self.stamps[base..base + self.assoc];
        let mut victim = 0;
        let mut best = stamps[0];
        for (i, &s) in stamps.iter().enumerate().skip(1) {
            if s < best {
                best = s;
                victim = i;
            }
        }
        let way = base + victim;
        self.tags[way] = line;
        self.stamps[way] = self.clock;
        self.misses += 1;
        self.last_line = line;
        self.last_way = way;
        false
    }

    /// Collapse `reps` further accesses to the most recently touched line
    /// into one stamp update. Bit-identical to calling
    /// [`access_line`](Self::access_line) `reps` times with the same line:
    /// each would hit the MRU fast path, and only the final stamp is
    /// observable.
    pub(crate) fn touch_repeat(&mut self, reps: u64) {
        debug_assert!(self.last_way != usize::MAX, "no line touched yet");
        self.clock += reps;
        self.stamps[self.last_way] = self.clock;
        self.hits += reps;
    }

    /// Log2 of the line size, for callers that pre-decompose addresses.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Probe without updating state (no fill, no LRU touch).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].contains(&line)
    }

    /// Invalidate all contents and reset statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
        self.last_line = 0;
        self.last_way = usize::MAX;
    }

    /// Hits observed since construction/reset.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed since construction/reset.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction; 0 if no accesses yet.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LevelSpec;

    fn tiny(assoc: u32, sets: u64) -> Cache {
        // line 64B
        Cache::new(&LevelSpec {
            capacity_bytes: 64 * u64::from(assoc) * sets,
            line_bytes: 64,
            associativity: assoc,
            load_bandwidth: 1e9,
            latency: 1e-9,
        })
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny(2, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct-mapped-like behaviour inside one set: assoc 2, sets 1.
        let mut c = tiny(2, 1);
        c.access(0); // A miss, fills way
        c.access(64); // B miss, fills way
        c.access(0); // A hit (A is now MRU)
        c.access(128); // C miss, evicts B (LRU)
        assert!(c.contains(0), "A should survive");
        assert!(!c.contains(64), "B should be evicted");
        assert!(c.contains(128));
    }

    #[test]
    fn set_indexing_separates_conflicting_lines() {
        let mut c = tiny(1, 2); // direct-mapped, 2 sets
                                // line 0 -> set 0, line 1 -> set 1, line 2 -> set 0
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0), "set 1 fill must not evict set 0");
        assert!(!c.access(128), "conflicting line misses");
        assert!(!c.access(0), "and evicts the original");
    }

    #[test]
    fn working_set_within_capacity_fully_hits_after_warmup() {
        let mut c = tiny(4, 16); // 4 KiB
        let lines = 4 * 16;
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {i} should hit");
                }
            }
        }
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_under_lru() {
        let mut c = tiny(4, 4); // 16 lines capacity
        let lines = 32; // 2x capacity, cyclic sweep defeats LRU entirely
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        // After warmup, cyclic sweep over 2x capacity yields ~0% hits with LRU.
        let h0 = c.hits();
        for i in 0..lines {
            c.access(i * 64);
        }
        assert_eq!(c.hits(), h0, "cyclic over-capacity sweep should never hit");
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny(2, 4);
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(!c.contains(0));
        assert!(!c.access(0));
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = tiny(2, 4);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_does_not_mutate() {
        let mut c = tiny(2, 2);
        c.access(0);
        let hits = c.hits();
        let misses = c.misses();
        assert!(c.contains(0));
        assert!(!c.contains(4096));
        assert_eq!(c.hits(), hits);
        assert_eq!(c.misses(), misses);
    }

    #[test]
    fn line_bytes_reported() {
        let c = tiny(2, 2);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn high_addresses_do_not_wrap() {
        let mut c = tiny(2, 4);
        let base = 1u64 << 40;
        assert!(!c.access(base));
        assert!(c.access(base + 8));
        assert!(!c.access(base + 64));
    }

    #[test]
    fn touch_repeat_matches_repeated_access() {
        let (mut fast, mut slow) = (tiny(2, 4), tiny(2, 4));
        fast.access(128);
        slow.access(128);
        fast.touch_repeat(5);
        for _ in 0..5 {
            assert!(slow.access(128));
        }
        assert_eq!(fast.hits(), slow.hits());
        assert_eq!(fast.misses(), slow.misses());
        // Subsequent divergent traffic behaves identically.
        for addr in [0u64, 64, 128, 192, 256, 128, 0] {
            assert_eq!(fast.access(addr), slow.access(addr), "addr {addr}");
        }
        assert_eq!(fast.hits(), slow.hits());
    }

    #[test]
    fn mru_fast_path_survives_interleaved_fills() {
        // An assoc-1 cache where a conflicting fill replaces the last-touched
        // way: the fast path must not claim a stale hit afterwards.
        let mut c = tiny(1, 1);
        assert!(!c.access(0)); // fills the only way
        assert!(c.access(0)); // MRU fast path
        assert!(!c.access(64)); // evicts line 0, retargets the fast path
        assert!(!c.access(0), "evicted line must miss");
        assert!(c.access(0), "and hit after refill");
    }
}
