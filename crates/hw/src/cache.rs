//! The Gaussian Reuse Cache (Sec. V-D).
//!
//! Input Gaussian features are read once per (tile, Gaussian) instance by
//! the tile engine. Because the D&B engine knows every tile a Gaussian
//! intersects *before* rendering starts, the access sequence — and hence
//! every feature's *reuse distance* (the number of tiles until its next
//! access) — can be precomputed. The cache exploits this with a
//! Belady-style replacement policy (Fig. 12): on a miss, evict the line
//! whose next use is farthest in the future; on a hit, update the line's
//! RD field to its next precomputed use.
//!
//! LRU and FIFO policies are provided for the ablation comparison; the
//! property tests check that reuse-distance replacement never does worse
//! than either on the same trace (it is the offline-optimal policy).

/// Replacement policy of the feature cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Precomputed reuse distance (the paper's policy; offline optimal).
    ReuseDistance,
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
}

/// Access statistics of a cache simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (= DRAM feature fetches).
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1] (0 for an empty trace).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses as f64
    }
}

/// Marks a Gaussian with no resident line in [`GaussianReuseCache`]'s
/// line table.
const NOT_RESIDENT: u32 = u32::MAX;

/// A set-less (fully associative) feature cache, as the paper's small
/// capacity and comparator-array replacement imply.
#[derive(Debug)]
pub struct GaussianReuseCache {
    policy: Policy,
    capacity: usize,
    /// Line index by Gaussian id ([`NOT_RESIDENT`] when absent), grown
    /// on demand to the largest id seen.
    line_of: Vec<u32>,
    /// (gaussian, priority) per line. Priority semantics depend on policy:
    /// next-use position (ReuseDistance), last-use stamp (LRU),
    /// insertion stamp (FIFO).
    lines: Vec<(u32, u64)>,
    /// The lines as a binary min-heap on `(rank, line)`, so the victim
    /// is the root: ReuseDistance ranks the farthest next use first,
    /// LRU/FIFO the oldest stamp, and ties go to the lowest line. This
    /// is the comparator array's answer (Fig. 12 steps 2-3) without
    /// scanning every line; a priority change re-sorts one heap path.
    heap: Vec<u32>,
    /// Heap slot of every line.
    slot: Vec<u32>,
    stamp: u64,
    stats: CacheStats,
}

impl GaussianReuseCache {
    /// Creates a cache with space for `capacity` feature lines.
    ///
    /// A zero capacity is allowed and models the "0 KB" point of Fig. 17
    /// (every access misses).
    pub fn new(capacity: usize, policy: Policy) -> Self {
        Self {
            policy,
            capacity,
            line_of: Vec::new(),
            lines: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            slot: Vec::with_capacity(capacity),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// A line's place in victim order: smaller keys are evicted first.
    fn key(&self, line: u32) -> (u64, u32) {
        let priority = self.lines[line as usize].1;
        let rank = match self.policy {
            Policy::ReuseDistance => !priority,
            Policy::Lru | Policy::Fifo => priority,
        };
        (rank, line)
    }

    /// Restores heap order around slot `i` after its line's key changed.
    fn resift(&mut self, mut i: usize) {
        while i > 0 && self.key(self.heap[i]) < self.key(self.heap[(i - 1) / 2]) {
            self.swap_slots(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len()
                    && self.key(self.heap[child]) < self.key(self.heap[least])
                {
                    least = child;
                }
            }
            if least == i {
                return;
            }
            self.swap_slots(i, least);
            i = least;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slot[self.heap[a] as usize] = a as u32;
        self.slot[self.heap[b] as usize] = b as u32;
    }

    /// Puts `gaussian` with `priority` into `line` (a new line when it
    /// is `lines.len()`).
    fn install(&mut self, line: u32, gaussian: u32, priority: u64) {
        if self.line_of.len() <= gaussian as usize {
            self.line_of.resize(gaussian as usize + 1, NOT_RESIDENT);
        }
        self.line_of[gaussian as usize] = line;
        if line as usize == self.lines.len() {
            self.lines.push((gaussian, priority));
            self.slot.push(self.heap.len() as u32);
            self.heap.push(line);
        } else {
            self.lines[line as usize] = (gaussian, priority);
        }
        self.resift(self.slot[line as usize] as usize);
    }

    /// Simulates one access to `gaussian`'s features.
    ///
    /// `next_use` is the precomputed position (global tile counter value)
    /// of this Gaussian's *next* access, or `u64::MAX` when it is never
    /// accessed again — only meaningful under [`Policy::ReuseDistance`].
    /// Returns `true` on a hit. Ids index a dense table (splat ids of
    /// one frame), so its memory follows the largest id seen.
    pub fn access(&mut self, gaussian: u32, next_use: u64) -> bool {
        self.stamp += 1;
        self.stats.accesses += 1;
        let priority = match self.policy {
            Policy::ReuseDistance => next_use,
            Policy::Lru => self.stamp,
            Policy::Fifo => 0, // set on install only
        };
        let resident = self.line_of.get(gaussian as usize).copied().unwrap_or(NOT_RESIDENT);
        if resident != NOT_RESIDENT {
            self.stats.hits += 1;
            // Step 4 (Fig. 12): update the RD field on a hit (or the LRU
            // stamp); FIFO leaves the insertion stamp untouched.
            if self.policy != Policy::Fifo {
                self.lines[resident as usize].1 = priority;
                self.resift(self.slot[resident as usize] as usize);
            }
            return true;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        let install = if self.policy == Policy::Fifo { self.stamp } else { priority };
        if self.lines.len() < self.capacity {
            self.install(self.lines.len() as u32, gaussian, install);
            return false;
        }
        // Steps 2-3 (Fig. 12): compare & select the victim, then load &
        // replace. ReuseDistance evicts the max next-use; LRU/FIFO evict
        // the min stamp.
        let victim = self.heap[0];
        let (old, victim_priority) = self.lines[victim as usize];
        // Bypass optimisation for the optimal policy: if the incoming
        // line's next use is farther than every resident line's, caching
        // it cannot help — keep the resident set (Belady allows bypass).
        if self.policy == Policy::ReuseDistance && next_use > victim_priority {
            return false;
        }
        self.line_of[old as usize] = NOT_RESIDENT;
        self.install(victim, gaussian, install);
        false
    }
}

/// Precomputes, for an access trace, the position of each access's *next*
/// occurrence (`u64::MAX` when none) — the reuse-distance metadata the D&B
/// engine attaches to its per-tile Gaussian lists (Fig. 12(a)). Like the
/// cache, it keeps a dense table sized by the largest id in `trace`.
pub fn next_use_positions(trace: &[u32]) -> Vec<u64> {
    let ids = trace.iter().max().map_or(0, |&m| m as usize + 1);
    let mut next = vec![u64::MAX; ids];
    let mut out = vec![u64::MAX; trace.len()];
    for (i, &g) in trace.iter().enumerate().rev() {
        out[i] = next[g as usize];
        next[g as usize] = i as u64;
    }
    out
}

/// Runs a full trace through a cache and returns the statistics.
pub fn simulate_trace(trace: &[u32], capacity: usize, policy: Policy) -> CacheStats {
    let next = next_use_positions(trace);
    let mut cache = GaussianReuseCache::new(capacity, policy);
    for (i, &g) in trace.iter().enumerate() {
        cache.access(g, next[i]);
    }
    cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The naive reference: the comparator array as a linear scan over
    /// every line, with `HashMap` lookups.
    struct NaiveCache {
        policy: Policy,
        capacity: usize,
        map: HashMap<u32, usize>,
        lines: Vec<(u32, u64)>,
        stamp: u64,
        stats: CacheStats,
    }

    impl NaiveCache {
        fn new(capacity: usize, policy: Policy) -> Self {
            let (map, lines) = (HashMap::new(), Vec::new());
            Self { policy, capacity, map, lines, stamp: 0, stats: CacheStats::default() }
        }

        fn access(&mut self, gaussian: u32, next_use: u64) -> bool {
            self.stamp += 1;
            self.stats.accesses += 1;
            let priority = match self.policy {
                Policy::ReuseDistance => next_use,
                Policy::Lru => self.stamp,
                Policy::Fifo => 0,
            };
            if let Some(&line) = self.map.get(&gaussian) {
                self.stats.hits += 1;
                if self.policy != Policy::Fifo {
                    self.lines[line].1 = priority;
                }
                return true;
            }
            self.stats.misses += 1;
            if self.capacity == 0 {
                return false;
            }
            let install = if self.policy == Policy::Fifo { self.stamp } else { priority };
            if self.lines.len() < self.capacity {
                self.map.insert(gaussian, self.lines.len());
                self.lines.push((gaussian, install));
                return false;
            }
            let mut victim = 0usize;
            for (i, &(_, p)) in self.lines.iter().enumerate() {
                let better = match self.policy {
                    Policy::ReuseDistance => p > self.lines[victim].1,
                    Policy::Lru | Policy::Fifo => p < self.lines[victim].1,
                };
                if better {
                    victim = i;
                }
            }
            if self.policy == Policy::ReuseDistance && next_use > self.lines[victim].1 {
                return false;
            }
            self.map.remove(&self.lines[victim].0);
            self.map.insert(gaussian, victim);
            self.lines[victim] = (gaussian, install);
            false
        }
    }

    fn naive_next_use(trace: &[u32]) -> Vec<u64> {
        let mut next: HashMap<u32, u64> = HashMap::new();
        let mut out = vec![u64::MAX; trace.len()];
        for (i, &g) in trace.iter().enumerate().rev() {
            if let Some(&n) = next.get(&g) {
                out[i] = n;
            }
            next.insert(g, i as u64);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The indexed victim choice replays the linear scan exactly:
        /// the same hit/miss at every access and the same statistics,
        /// under every policy. Ids drawn from a wide range make most
        /// accesses never-reused (`u64::MAX` next use), so the victim
        /// ties that the lowest line must break are common.
        #[test]
        fn indexed_cache_matches_the_linear_scan(
            raw in prop::collection::vec(0u32..1 << 16, 0..300),
            ids in 1u32..80,
            wide in 0u32..4,
            cap in 0usize..12,
        ) {
            // One trace in four keeps the wide ids: mostly distinct.
            let modulus = if wide == 0 { u32::MAX } else { ids };
            let trace: Vec<u32> = raw.iter().map(|&g| g % modulus).collect();
            let next = next_use_positions(&trace);
            prop_assert_eq!(&next, &naive_next_use(&trace));
            let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len();
            for capacity in [cap, distinct, distinct + 3] {
                for policy in [Policy::ReuseDistance, Policy::Lru, Policy::Fifo] {
                    let mut fast = GaussianReuseCache::new(capacity, policy);
                    let mut naive = NaiveCache::new(capacity, policy);
                    for (i, &g) in trace.iter().enumerate() {
                        prop_assert_eq!(
                            fast.access(g, next[i]),
                            naive.access(g, next[i]),
                            "access {} of {:?} at capacity {}", i, policy, capacity
                        );
                    }
                    prop_assert_eq!(fast.stats(), naive.stats);
                }
            }
        }
    }

    #[test]
    fn next_use_positions_basic() {
        let trace = [1u32, 2, 1, 3, 2, 1];
        let next = next_use_positions(&trace);
        assert_eq!(next, vec![2, 4, 5, u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let trace = [1u32, 1, 1, 1];
        let s = simulate_trace(&trace, 0, Policy::ReuseDistance);
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 4);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn repeated_access_hits() {
        let trace = [7u32; 10];
        for policy in [Policy::ReuseDistance, Policy::Lru, Policy::Fifo] {
            let s = simulate_trace(&trace, 1, policy);
            assert_eq!(s.hits, 9, "{policy:?}");
            assert_eq!(s.misses, 1);
        }
    }

    #[test]
    fn belady_beats_lru_on_cyclic_trace() {
        // The classic LRU-pathological cyclic trace over capacity+1 keys:
        // LRU gets zero hits; Belady keeps part of the working set.
        let trace: Vec<u32> = (0..60).map(|i| i % 4).collect();
        let lru = simulate_trace(&trace, 3, Policy::Lru);
        let opt = simulate_trace(&trace, 3, Policy::ReuseDistance);
        assert_eq!(lru.hits, 0, "LRU thrashes on a cyclic trace");
        assert!(opt.hits > 30, "optimal keeps most of the set: {} hits", opt.hits);
    }

    #[test]
    fn optimal_matches_brute_force_on_small_trace() {
        // Exhaustively verify against the textbook Belady count on a
        // hand-checked trace (capacity 3):
        // 1 2 3 4 1 2 5 1 2 3 4 5  -> OPT has 5 hits (7 misses).
        let trace = [1u32, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
        let s = simulate_trace(&trace, 3, Policy::ReuseDistance);
        assert_eq!(s.misses, 7, "Belady's canonical example");
        assert_eq!(s.hits, 5);
    }

    #[test]
    fn fifo_ignores_recency() {
        // After filling, FIFO evicts the oldest insertion even if it was
        // just used.
        let trace = [1u32, 2, 3, 1, 4, 1];
        // cap 3: [1,2,3]; access 1 -> hit; 4 evicts 1 (oldest); 1 -> miss.
        let s = simulate_trace(&trace, 3, Policy::Fifo);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 5);
    }

    #[test]
    fn lru_respects_recency() {
        let trace = [1u32, 2, 3, 1, 4, 1];
        // cap 3: [1,2,3]; 1 hit; 4 evicts 2 (LRU); 1 -> hit.
        let s = simulate_trace(&trace, 3, Policy::Lru);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn hit_rate_monotone_in_capacity_for_optimal() {
        // Fig. 17's shape: larger caches never hurt under the optimal
        // policy (stack property of OPT).
        let trace: Vec<u32> = (0..500u32).map(|i| (i * 17 + i * i / 7) % 97).collect();
        let mut last = 0.0;
        for cap in [0usize, 8, 16, 32, 64, 97] {
            let r = simulate_trace(&trace, cap, Policy::ReuseDistance).hit_rate();
            assert!(r >= last - 1e-12, "hit rate dropped at capacity {cap}");
            last = r;
        }
        // Beyond the working set, the rate saturates at compulsory misses.
        let full = simulate_trace(&trace, 97, Policy::ReuseDistance);
        let bigger = simulate_trace(&trace, 200, Policy::ReuseDistance);
        assert_eq!(full.hits, bigger.hits);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = GaussianReuseCache::new(2, Policy::Lru);
        assert!(!c.access(1, u64::MAX));
        assert!(c.access(1, u64::MAX));
        let s = c.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.hits, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
