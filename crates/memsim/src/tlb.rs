//! A fully-associative LRU TLB model.
//!
//! Large random working sets (GUPS, random-stride MAPS at big sizes) pay TLB
//! misses on top of cache misses on real machines; the timing model adds the
//! penalty so random-access curves keep degrading past the last cache level,
//! as the paper's MAPS data does.
//!
//! The model is an exact true-LRU in O(1) per translation: a page → slot
//! hash map (with a multiplicative hasher, not SipHash) finds a resident
//! page, and an index-linked recency list over the slots gives the LRU
//! victim as its tail. The shipped TLBs have up to 1,024 entries, so a scan
//! of the entries per lookup or per eviction would dominate random-access
//! simulation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::spec::TlbSpec;

/// End-of-list marker in the recency links.
const NIL: u32 = u32::MAX;

/// Fully-associative, true-LRU translation lookaside buffer.
///
/// Each resident page owns a slot. A page → slot map finds the slot in O(1),
/// and an index-linked recency list over the slots (`head` = most recently
/// used, `tail` = least) keeps the LRU order: a hit moves its slot to the
/// head, a miss at capacity evicts the tail and reuses its slot. Lookup and
/// eviction are both O(1) whatever the entry count.
#[derive(Debug, Clone)]
pub struct Tlb {
    slot_of: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// Page held by each slot; slots fill in order until `capacity`.
    pages: Vec<u64>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
    page_shift: u32,
    /// Hits since construction/reset. The batched hierarchy pass adds
    /// same-page repeats here directly: a repeat of the page just
    /// translated is a hit that leaves the recency order unchanged.
    pub(crate) hits: u64,
    misses: u64,
}

impl Tlb {
    /// Build from a [`TlbSpec`].
    ///
    /// # Panics
    /// Panics if `entries` is zero, does not fit a `u32` slot index, or
    /// `page_bytes` is not a power of two.
    #[must_use]
    pub fn new(spec: &TlbSpec) -> Self {
        Self::with_reach(spec.entries, spec.page_bytes)
    }

    /// Build from the two fields of a [`TlbSpec`] the simulation reads
    /// (the miss penalty is the timing model's).
    ///
    /// # Panics
    /// As [`new`](Self::new).
    pub(crate) fn with_reach(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(entries < NIL as usize, "TLB entry count exceeds u32 slots");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            slot_of: HashMap::with_capacity_and_hasher(entries + 1, BuildHasherDefault::default()),
            pages: Vec::with_capacity(entries),
            prev: Vec::with_capacity(entries),
            next: Vec::with_capacity(entries),
            head: NIL,
            tail: NIL,
            capacity: entries,
            page_shift: page_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Translate the page containing `addr`; returns `true` on TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_page(addr >> self.page_shift)
    }

    /// Translate a pre-decomposed page number. Bit-identical to
    /// [`access`](Self::access) on any containing address.
    pub(crate) fn access_page(&mut self, page: u64) -> bool {
        let slot = match self.slot_of.entry(page) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                self.hits += 1;
                if slot != self.head {
                    self.unlink(slot);
                    self.push_front(slot);
                }
                return true;
            }
            Entry::Vacant(e) if self.pages.len() < self.capacity => {
                let slot = self.pages.len() as u32;
                e.insert(slot);
                self.pages.push(page);
                self.prev.push(NIL);
                self.next.push(NIL);
                slot
            }
            Entry::Vacant(e) => {
                // Evict the LRU tail and reuse its slot. The new page is
                // mapped before the victim is unmapped (one lookup saved);
                // the map was sized for that one extra entry.
                let victim = self.tail;
                e.insert(victim);
                let old = std::mem::replace(&mut self.pages[victim as usize], page);
                self.slot_of.remove(&old);
                self.unlink(victim);
                victim
            }
        };
        self.misses += 1;
        self.push_front(slot);
        false
    }

    /// Detach `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Attach a detached `slot` as the most recently used.
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }

    /// Log2 of the page size, for callers that pre-decompose addresses.
    pub(crate) fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Reset contents and statistics.
    pub fn reset(&mut self) {
        self.slot_of.clear();
        self.pages.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hits = 0;
        self.misses = 0;
    }

    /// Misses since construction/reset.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits since construction/reset.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Reach in bytes (entries × page size).
    #[must_use]
    pub fn reach_bytes(&self) -> u64 {
        (self.capacity as u64) << self.page_shift
    }
}

/// Multiplicative (Fx-style) hasher for page numbers. The TLB map sits on
/// the simulator's hottest path and its keys are not adversarial, so one
/// multiply and a rotate (bringing the well-mixed high product bits down to
/// the bucket-index bits) replace SipHash.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl PageHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The linear-scan true-LRU the O(1) [`Tlb`] replaced, kept as the reference
/// it must match access for access: entries carry a unique, strictly
/// increasing use stamp, a lookup scans for the page, and a miss at capacity
/// evicts the first entry with the minimum stamp.
#[cfg(test)]
pub(crate) struct ScanLru {
    entries: Vec<(u64, u64)>, // (page, stamp)
    capacity: usize,
    clock: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

#[cfg(test)]
impl ScanLru {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub(crate) fn access_page(&mut self, page: u64) -> bool {
        self.clock += 1;
        if let Some(i) = self.entries.iter().position(|&(p, _)| p == page) {
            self.entries[i].1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push((page, self.clock));
        } else {
            let victim = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].1)
                .expect("capacity is non-zero");
            self.entries[victim] = (page, self.clock);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(entries: usize) -> TlbSpec {
        TlbSpec {
            entries,
            page_bytes: 4096,
            miss_penalty: 50e-9,
        }
    }

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(&spec(4));
        assert!(!t.access(0));
        assert!(t.access(100));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.hits(), 2);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = Tlb::new(&spec(2));
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // page 0 hit -> MRU
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0), "page 0 retained");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn within_reach_working_set_hits_after_warmup() {
        let mut t = Tlb::new(&spec(8));
        for _ in 0..2 {
            for p in 0..8u64 {
                t.access(p * 4096);
            }
        }
        let misses = t.misses();
        for p in 0..8u64 {
            assert!(t.access(p * 4096));
        }
        assert_eq!(t.misses(), misses);
    }

    #[test]
    fn reach_and_reset() {
        let mut t = Tlb::new(&spec(128));
        assert_eq!(t.reach_bytes(), 128 * 4096);
        t.access(0);
        t.reset();
        assert_eq!(t.hits() + t.misses(), 0);
        assert!(!t.access(0));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = Tlb::new(&spec(0));
    }

    /// Seeded page sequence mixing immediate repeats, reuse of a universe
    /// about 1.5× the capacity (hits and LRU evictions), and never-seen
    /// pages far from the universe (cold misses).
    fn mixed_pages(capacity: usize, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = metasim_stats::rng::SeededRng::new(seed);
        let universe = (capacity + capacity / 2 + 2) as u64;
        let mut fresh = 1u64 << 40;
        let mut pages = Vec::with_capacity(n);
        let mut last = 0;
        for _ in 0..n {
            let page = match rng.next_below(10) {
                0 => last,
                1 => {
                    fresh += 1;
                    fresh
                }
                _ => rng.next_below(universe),
            };
            pages.push(page);
            last = page;
        }
        pages
    }

    #[test]
    fn matches_the_linear_scan_reference() {
        for capacity in [1, 2, 3, 64, 1024] {
            for seed in [1u64, 42] {
                let pages = mixed_pages(capacity, 20 * capacity + 2_000, seed);
                let mut tlb = Tlb::new(&spec(capacity));
                let mut reference = ScanLru::new(capacity);
                for (i, &page) in pages.iter().enumerate() {
                    assert_eq!(
                        tlb.access_page(page),
                        reference.access_page(page),
                        "capacity {capacity}, seed {seed}, access {i}: page {page}"
                    );
                }
                assert_eq!(tlb.hits(), reference.hits, "capacity {capacity}");
                assert_eq!(tlb.misses(), reference.misses, "capacity {capacity}");
                assert!(tlb.hits() > 0 && tlb.misses() > capacity as u64);
            }
        }
    }

    #[test]
    fn reset_matches_a_fresh_reference() {
        let pages = mixed_pages(64, 3_000, 7);
        let mut tlb = Tlb::new(&spec(64));
        for &page in &pages {
            tlb.access_page(page);
        }
        tlb.reset();
        let mut reference = ScanLru::new(64);
        for &page in pages.iter().rev() {
            assert_eq!(tlb.access_page(page), reference.access_page(page));
        }
        assert_eq!(
            (tlb.hits(), tlb.misses()),
            (reference.hits, reference.misses)
        );
    }

    #[test]
    fn capacity_one_evicts_on_every_new_page() {
        let mut t = Tlb::new(&spec(1));
        assert!(!t.access(0));
        assert!(t.access(8), "same page hits");
        assert!(!t.access(4096), "replaces the only entry");
        assert!(!t.access(0), "evicted page must miss");
    }
}
