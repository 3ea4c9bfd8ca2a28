//! The plan cache: memoised ESG_1Q searches keyed on what the search
//! actually depends on.
//!
//! §5.3's headline is that pipeline-conscious scheduling stays cheap
//! enough to run per request; this module makes that cheaper still by
//! never re-running a search whose inputs were just solved. A search is a
//! pure function of `(stage table, effective GSLO, K, premium, variant)`,
//! and the stage table is itself a pure function of `(window functions,
//! batch cap)` over the immutable profile table — so a [`PlanKey`] built
//! from those coordinates plus the reduced-DAG fingerprint
//! (`esg_dag::Hierarchy::fingerprint`) identifies the result exactly.
//!
//! The effective GSLO is continuous (it is derived from live slack), so
//! exact keys would never repeat. [`quantize_gslo`] therefore buckets it:
//! the scheduler *searches with the bucket's representative* (the budget
//! rounded down by at most one part in 2^[`GSLO_MANTISSA_BITS`], i.e.
//! tightened, never loosened — the SLO-safe direction), which makes the
//! memo semantically invisible: cached and uncached dispatch are
//! bit-identical because both quantize (`tests/plan_cache_equivalence.rs`
//! pins this across a churn-heavy sweep).
//!
//! The cache is bounded by cost-aware GreedyDual eviction (the victim
//! is the entry that would be cheapest to recompute, aged so entries
//! that stop being used eventually go), counts hits/misses/evictions
//! (surfaced as `esg_sim::SchedulerStats` through `ExperimentResult`),
//! and is invalidated wholesale on cluster-churn notifications. Because
//! keys capture every search input (the node-class speed factor
//! included), invalidation is a memory/robustness bound rather than a
//! correctness requirement: a regime change re-populates the cache with
//! the keys the new cluster actually produces instead of letting a dead
//! regime's entries squat in the bound.

use crate::search::SearchResult;
use esg_model::FnId;
use std::collections::{BTreeMap, HashMap};

/// Explicit mantissa bits kept by [`quantize_gslo`]: buckets are ~0.8%
/// wide (2^-7), tight enough that the tightened budget is within profile
/// noise, wide enough that per-request GSLOs repeat across requests.
pub const GSLO_MANTISSA_BITS: u32 = 7;

/// Rounds a search budget down onto the plan-cache bucket grid by
/// clearing all but the top [`GSLO_MANTISSA_BITS`] mantissa bits.
/// Monotone, deterministic, and never larger than the input (for
/// non-negative finite inputs), so a path feasible under the quantized
/// budget is feasible under the real one. Non-finite or non-positive
/// budgets collapse to 0 (the search then falls back to the fastest
/// path, exactly as it would unquantized).
pub fn quantize_gslo(gslo_ms: f64) -> f64 {
    if !gslo_ms.is_finite() || gslo_ms <= 0.0 {
        return 0.0;
    }
    const DROP: u64 = (1u64 << (52 - GSLO_MANTISSA_BITS as u64)) - 1;
    f64::from_bits(gslo_ms.to_bits() & !DROP)
}

/// Everything an ESG_1Q invocation depends on, collapsed to a hashable
/// key. Two dispatches with equal keys would run byte-identical searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Reduced-DAG fingerprint of the application
    /// (`esg_dag::Hierarchy::fingerprint`, falling back to
    /// `esg_dag::Dag::fingerprint` for non-reducible DAGs).
    pub dag_fp: u64,
    /// FNV over the search window's function ids and the first-stage
    /// batch cap — identifies the stage table within the app.
    pub window_fp: u64,
    /// Bit pattern of the *quantized* effective GSLO (the value the
    /// search actually runs with).
    pub gslo_bits: u64,
    /// Bit pattern of the node-class speed factor the budget was scaled
    /// by (redundant with `gslo_bits` in the common path, but it keys the
    /// scheduler's post-search feasibility arithmetic too).
    pub speed_bits: u64,
    /// Solution count K of the search.
    pub k: u32,
    /// Bit pattern of the premium band (0.0 for probes, 0.5 for
    /// dispatch-quality searches).
    pub premium_bits: u64,
    /// Search-variant tag (0 = A*, 1 = stage-wise).
    pub variant: u8,
}

impl PlanKey {
    /// FNV-1a over a window's function ids plus the batch cap (the
    /// `window_fp` component) — the same `esg_dag::Fnv` the DAG
    /// fingerprints use.
    pub fn window_fingerprint(fns: &[FnId], batch_cap: u32) -> u64 {
        let mut h = esg_dag::Fnv::new();
        h.write_u64(fns.len() as u64);
        for f in fns {
            h.write_u64(f.0 as u64);
        }
        h.write_u64(batch_cap as u64);
        h.finish()
    }
}

/// A memoised search result plus the table aggregate the scheduler needs
/// when the result is infeasible (the "winnable race" check), so a cache
/// hit skips the table build entirely.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The search result, exactly as the search produced it.
    pub result: SearchResult,
    /// `StageTable::min_total_time()` of the searched table.
    pub min_total_ms: f64,
}

/// Hit/miss accounting of one [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to a real search.
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries dropped by the capacity bound.
    pub evictions: u64,
    /// Wholesale invalidations (churn notifications).
    pub invalidations: u64,
}

struct Slot {
    plan: CachedPlan,
    /// GreedyDual priority: the inflation at the last touch plus the
    /// search's expansions.
    priority: u64,
    /// Tick of the last touch; breaks priority ties (oldest goes first).
    tick: u64,
}

/// A bounded memo of [`CachedPlan`]s keyed by [`PlanKey`], evicting by
/// GreedyDual.
///
/// Each entry's priority is `inflation + expansions`, set on insert and
/// refreshed on every hit. When the bound is reached the lowest-priority
/// entry goes and its priority becomes the new `inflation`, so entries
/// that are expensive to re-search outlive cheap ones, and idle entries
/// still age out as fresh touches overtake them. With equal costs this
/// is exactly LRU.
///
/// Ties break on a monotone tick (unique per operation), so the victim is
/// deterministic regardless of `HashMap` iteration order — sweep
/// determinism depends on this. An ordered `(priority, tick)` index makes
/// finding the victim O(log n).
pub struct PlanCache {
    map: HashMap<PlanKey, Slot>,
    /// `(priority, tick) → key` for every entry of `map`, lowest first.
    order: BTreeMap<(u64, u64), PlanKey>,
    /// Priority of the last victim: the floor every new priority starts
    /// from.
    inflation: u64,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// Default entry bound: comfortably covers the standard environment's
    /// (app, stage, bucket, class) population while capping memory at a
    /// few hundred K-path results.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            map: HashMap::new(),
            order: BTreeMap::new(),
            inflation: 0,
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// An empty cache at [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Looks up `key`, refreshing its priority on a hit. Counts a miss on
    /// `None` (the caller is expected to search and [`insert`](Self::insert)).
    pub fn get(&mut self, key: &PlanKey) -> Option<CachedPlan> {
        self.tick += 1;
        let Some(slot) = self.map.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.order.remove(&(slot.priority, slot.tick));
        slot.priority = self.inflation + slot.plan.result.expansions;
        slot.tick = self.tick;
        self.order.insert((slot.priority, slot.tick), *key);
        self.stats.hits += 1;
        let plan = slot.plan.clone();
        self.check_indices();
        Some(plan)
    }

    /// Memoises `plan` under `key`, evicting the lowest-priority entry
    /// when the bound is reached. Re-inserting a held key overwrites it
    /// in place and never evicts.
    pub fn insert(&mut self, key: PlanKey, plan: CachedPlan) {
        self.tick += 1;
        if let Some(old) = self.map.get(&key) {
            self.order.remove(&(old.priority, old.tick));
        } else if self.map.len() >= self.capacity {
            if let Some(((priority, _), victim)) = self.order.pop_first() {
                self.map.remove(&victim);
                self.inflation = priority;
                self.stats.evictions += 1;
            }
        }
        self.stats.insertions += 1;
        let slot = Slot {
            priority: self.inflation + plan.result.expansions,
            tick: self.tick,
            plan,
        };
        self.order.insert((slot.priority, slot.tick), key);
        self.map.insert(key, slot);
        self.check_indices();
    }

    /// Drops every entry (cluster-membership churn: the speed landscape
    /// that shaped recent keys is gone, so let the new regime repopulate).
    pub fn invalidate(&mut self) {
        self.map.clear();
        self.order.clear();
        self.inflation = 0;
        self.stats.invalidations += 1;
        self.check_indices();
    }

    /// Every entry is indexed exactly once in the eviction order.
    fn check_indices(&self) {
        debug_assert_eq!(
            self.map.len(),
            self.order.len(),
            "memo and order index diverged"
        );
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accumulated counters (they survive invalidation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::PathCandidate;
    use esg_model::Config;

    fn key(i: u64) -> PlanKey {
        PlanKey {
            dag_fp: i,
            window_fp: i.wrapping_mul(31),
            gslo_bits: 0,
            speed_bits: 1f64.to_bits(),
            k: 5,
            premium_bits: 0.5f64.to_bits(),
            variant: 0,
        }
    }

    fn plan(cost: f64) -> CachedPlan {
        plan_with(cost, 10)
    }

    /// A plan whose search took `expansions` (its re-search cost).
    fn plan_with(cost: f64, expansions: u64) -> CachedPlan {
        CachedPlan {
            result: SearchResult {
                paths: vec![PathCandidate {
                    configs: vec![Config::MIN],
                    time_ms: 1.0,
                    cost_cents: cost,
                }],
                expansions,
                feasible: true,
            },
            min_total_ms: 1.0,
        }
    }

    #[test]
    fn quantize_rounds_down_within_one_bucket() {
        for &v in &[0.37, 1.0, 12.345, 400.0, 1e6] {
            let q = quantize_gslo(v);
            assert!(q <= v, "{q} > {v}");
            assert!(
                q >= v * (1.0 - 2.0f64.powi(-(GSLO_MANTISSA_BITS as i32))),
                "{q} more than one bucket below {v}"
            );
            // Idempotent: a representative maps to itself.
            assert_eq!(quantize_gslo(q).to_bits(), q.to_bits());
        }
        assert_eq!(quantize_gslo(0.0), 0.0);
        assert_eq!(quantize_gslo(-5.0), 0.0);
        assert_eq!(quantize_gslo(f64::INFINITY), 0.0);
        assert_eq!(quantize_gslo(f64::NAN), 0.0);
    }

    #[test]
    fn quantize_buckets_nearby_values_together() {
        // Values within a fraction of a bucket share a representative…
        assert_eq!(
            quantize_gslo(400.0).to_bits(),
            quantize_gslo(400.0 * (1.0 + 2.0f64.powi(-10))).to_bits()
        );
        // …and clearly distinct budgets do not.
        assert_ne!(
            quantize_gslo(400.0).to_bits(),
            quantize_gslo(430.0).to_bits()
        );
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = PlanCache::with_capacity(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan(1.0));
        let got = c.get(&key(1)).expect("hit");
        assert_eq!(got.result.paths[0].cost_cents, 1.0);
        assert!(c.get(&key(2)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Equal re-search costs: priorities tie and the oldest touch goes,
        // every time — GreedyDual degenerates to LRU.
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), plan(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "LRU entry must be gone");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        // 3 was touched last, so 1 goes next.
        c.insert(key(4), plan(4.0));
        assert!(!c.map.contains_key(&key(1)));
        assert!(c.map.contains_key(&key(3)));
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        c.insert(key(2), plan(20.0)); // overwrite in place
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(
            c.get(&key(2)).expect("hit").result.paths[0].cost_cents,
            20.0
        );
        // Nor at a cheaper or dearer re-search cost than the entry had.
        for round in 0..10 {
            c.insert(key(1 + round % 2), plan_with(0.0, 1 + round * 100));
            assert_eq!((c.len(), c.order.len()), (2, 2));
        }
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn expensive_entry_outlives_cheap_one_off_inserts() {
        // An LRU of 4 would drop the expensive plan on the 4th cheap
        // insert; cost-aware eviction keeps it through a long stream of
        // one-off cheap searches.
        let mut c = PlanCache::with_capacity(4);
        c.insert(key(0), plan_with(0.0, 1_000));
        for i in 1..=60 {
            c.insert(key(i), plan_with(i as f64, 10));
        }
        assert_eq!(c.stats().evictions, 57);
        assert!(c.get(&key(0)).is_some(), "expensive plan must survive");
        // Aging still applies: once inflation passes its priority, the
        // idle expensive entry goes like any other.
        for i in 61..=1_000 {
            c.insert(key(i), plan_with(i as f64, 10));
        }
        assert!(c.get(&key(0)).is_none(), "idle entries must age out");
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn invalidate_clears_both_indices() {
        let mut c = PlanCache::with_capacity(2);
        c.insert(key(1), plan_with(1.0, 50));
        c.insert(key(2), plan_with(2.0, 5));
        c.insert(key(3), plan_with(3.0, 5)); // evicts 2, inflation 5
        assert!(c.inflation > 0);
        c.invalidate();
        assert!(c.map.is_empty());
        assert!(c.order.is_empty());
        assert_eq!(c.inflation, 0);
        // A fresh population fills to capacity without evicting.
        c.insert(key(4), plan(4.0));
        c.insert(key(5), plan(5.0));
        assert_eq!((c.map.len(), c.order.len()), (2, 2));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidation_clears_entries_but_keeps_counters() {
        let mut c = PlanCache::with_capacity(8);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        assert!(c.get(&key(1)).is_some());
        c.invalidate();
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none(), "churn must drop cached plans");
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.hits, 1, "counters survive invalidation");
        assert_eq!(s.insertions, 2);
    }

    #[test]
    fn window_fingerprint_is_order_and_cap_sensitive() {
        let a = PlanKey::window_fingerprint(&[FnId(0), FnId(1)], 8);
        let b = PlanKey::window_fingerprint(&[FnId(1), FnId(0)], 8);
        let c = PlanKey::window_fingerprint(&[FnId(0), FnId(1)], 4);
        assert_ne!(a, b, "stage order is part of the table identity");
        assert_ne!(a, c, "batch cap is part of the table identity");
        assert_eq!(a, PlanKey::window_fingerprint(&[FnId(0), FnId(1)], 8));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut c = PlanCache::with_capacity(0);
        assert_eq!(c.capacity(), 1);
        c.insert(key(1), plan(1.0));
        c.insert(key(2), plan(2.0));
        assert_eq!(c.len(), 1);
    }
}
