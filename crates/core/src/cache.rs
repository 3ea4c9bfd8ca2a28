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
//!
//! # Entry layout and bound
//!
//! An entry is a fixed-size [`CachedPlan`] holding only what the
//! scheduler reads after a search — verdict, expansions, best-path time,
//! the table's fastest total and the first-stage candidates (8 inline,
//! bit-packed; any more in a shared tail) — so a hit copies one record
//! and allocates nothing. Entries sit in a slab of 120-byte slots reused
//! in place on eviction; the search shape is interned to a dense id, so
//! an entry's exact key is 24 bytes, and both the key index and the
//! eviction heap hold `u32` slab numbers rather than key copies.
//!
//! The bound, [`PlanCache::DEFAULT_CAPACITY`] = 2048, is sized to the
//! working set: over a bursty four-app run (33k lookups, 4.7k distinct
//! keys) 512 entries evicted a live entry on almost every miss and hit
//! 53 %, while 2048 entries hit 77–78 % — and the compact memo at 2048
//! entries weighs less than the 512 full search results it replaced.

use crate::search::SearchResult;
use esg_model::{Config, FnId};
use std::collections::HashMap;
use std::sync::Arc;

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

/// How many first-stage candidates a [`CachedPlan`] holds inline; any
/// further ones (K > 8 can produce them) live in a shared tail.
pub const INLINE_CANDIDATES: usize = 8;

/// What the scheduler reads from one search, in a fixed-size record: the
/// verdict, the cost that drives the simulated overhead, the best path's
/// time, the table's fastest total, and the deduplicated first-stage
/// candidates in path order. Stages after the first and path costs are
/// never read after the search, so they are not kept.
///
/// Up to [`INLINE_CANDIDATES`] candidates are stored inline, bit-packed;
/// the rest sit behind a reference-counted tail, so a memo hit copies the
/// record and allocates nothing at any K.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedPlan {
    /// False when no path met the target and the fastest path was
    /// substituted.
    pub feasible: bool,
    /// Configuration expansions the search examined.
    pub expansions: u64,
    /// Total estimated time of the best (cheapest, or fallback) path, ms.
    pub best_time_ms: f64,
    /// `StageTable::min_total_time()` of the searched table (the
    /// "winnable race" check of an infeasible result).
    pub min_total_ms: f64,
    /// Candidates `0..inline_len`, packed by [`pack`].
    inline: [u32; INLINE_CANDIDATES],
    inline_len: u8,
    /// Candidates after the inline ones, in order.
    tail: Option<Arc<[Config]>>,
}

/// Bit widths of the packed batch, vCPU and vGPU fields (10 + 11 + 11).
const BATCH_BITS: u32 = 10;
const VCPU_BITS: u32 = 11;

/// Packs a configuration into one word, or `None` when a dimension is too
/// large for its field (such candidates go to the tail instead).
fn pack(c: Config) -> Option<u32> {
    let fits = c.batch < 1 << BATCH_BITS
        && c.vcpus < 1 << VCPU_BITS
        && c.vgpus < 1 << (32 - BATCH_BITS - VCPU_BITS);
    fits.then_some(c.batch | (c.vcpus << BATCH_BITS) | (c.vgpus << (BATCH_BITS + VCPU_BITS)))
}

fn unpack(w: u32) -> Config {
    Config {
        batch: w & ((1 << BATCH_BITS) - 1),
        vcpus: (w >> BATCH_BITS) & ((1 << VCPU_BITS) - 1),
        vgpus: w >> (BATCH_BITS + VCPU_BITS),
    }
}

impl CachedPlan {
    /// Summarises `result`, searched over a table whose fastest total is
    /// `min_total_ms`.
    pub fn new(result: &SearchResult, min_total_ms: f64) -> CachedPlan {
        let mut plan = CachedPlan {
            feasible: result.feasible,
            expansions: result.expansions,
            best_time_ms: result.paths[0].time_ms,
            min_total_ms,
            inline: [0; INLINE_CANDIDATES],
            inline_len: 0,
            tail: None,
        };
        let mut tail: Vec<Config> = Vec::new();
        for c in result.first_stage_candidates() {
            match pack(c) {
                Some(w) if tail.is_empty() && (plan.inline_len as usize) < INLINE_CANDIDATES => {
                    plan.inline[plan.inline_len as usize] = w;
                    plan.inline_len += 1;
                }
                _ => tail.push(c),
            }
        }
        if !tail.is_empty() {
            plan.tail = Some(tail.into());
        }
        plan
    }

    /// The first-stage candidates, deduplicated, in path order (the
    /// result's `SearchResult::first_stage_candidates`).
    pub fn candidates(&self) -> impl Iterator<Item = Config> + '_ {
        self.inline[..self.inline_len as usize]
            .iter()
            .map(|&w| unpack(w))
            .chain(self.tail.iter().flat_map(|t| t.iter().copied()))
    }

    /// [`candidates`](Self::candidates), collected.
    pub fn first_stage_candidates(&self) -> Vec<Config> {
        self.candidates().collect()
    }

    /// The best path's first-stage configuration.
    pub fn best_config(&self) -> Config {
        self.candidates().next().expect("a search returns a path")
    }
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

/// The search-shape part of a [`PlanKey`]: everything but the budget and
/// the speed factor. A handful exist per environment, so the memo interns
/// each to a dense id and its entries key on that id.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct WindowKey {
    dag_fp: u64,
    window_fp: u64,
    k: u32,
    premium_bits: u64,
    variant: u8,
}

/// The exact key of one memo entry: an interned [`WindowKey`] plus the
/// budget and speed bits.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SlotKey {
    window: u32,
    gslo_bits: u64,
    speed_bits: u64,
}

impl SlotKey {
    /// A well-mixed 64-bit hash. Quantized budgets and speed factors keep
    /// their information in the high bits, so every word goes through the
    /// full finaliser before it reaches the bucket bits.
    fn hash(&self) -> u64 {
        fn mix(mut h: u64) -> u64 {
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            h ^ (h >> 33)
        }
        mix(self.gslo_bits ^ mix(self.speed_bits ^ mix(self.window as u64)))
    }
}

/// One memo entry, overwritten in place when it is evicted.
struct Slot {
    key: SlotKey,
    /// GreedyDual priority: the inflation at the last touch plus the
    /// search's expansions.
    priority: u64,
    /// Tick of the last touch; breaks priority ties (oldest goes first).
    tick: u64,
    plan: CachedPlan,
}

impl Slot {
    /// The eviction order: lowest priority first, then oldest touch.
    #[inline]
    fn rank(&self) -> (u64, u64) {
        (self.priority, self.tick)
    }
}

/// Marks a free bucket of a [`SlotIndex`].
const EMPTY: u32 = u32::MAX;

/// Open-addressing index from a [`SlotKey`] to its slab number.
///
/// A bucket holds only the slab number; the key it is compared against
/// lives in the slab, so the index costs 8–16 bytes per entry instead of
/// a hash map's key copy. Linear probing at a load of at most one half;
/// removal shifts the rest of the probe run back, so there are no
/// tombstones.
#[derive(Default)]
struct SlotIndex {
    buckets: Vec<u32>,
    len: usize,
}

impl SlotIndex {
    #[inline]
    fn home(&self, key: &SlotKey) -> usize {
        key.hash() as usize & (self.buckets.len() - 1)
    }

    /// The bucket holding `key`, if it is indexed.
    fn find(&self, slots: &[Slot], key: &SlotKey) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.buckets[i] {
                EMPTY => return None,
                b if slots[b as usize].key == *key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Indexes slab entry `idx` under its (absent) key.
    fn insert(&mut self, slots: &[Slot], idx: u32) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let grown = vec![EMPTY; (self.buckets.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.buckets, grown);
            for b in old.into_iter().filter(|&b| b != EMPTY) {
                self.place(slots, b);
            }
        }
        self.place(slots, idx);
        self.len += 1;
    }

    fn place(&mut self, slots: &[Slot], idx: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(&slots[idx as usize].key);
        while self.buckets[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.buckets[i] = idx;
    }

    /// Frees bucket `hole`, pulling back each later entry of the probe run
    /// whose home is not after the hole.
    fn remove_at(&mut self, slots: &[Slot], mut hole: usize) {
        let mask = self.buckets.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b == EMPTY {
                break;
            }
            let home = self.home(&slots[b as usize].key);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.buckets[hole] = b;
                hole = j;
            }
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
    }

    fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
    }
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
/// deterministic — sweep determinism depends on this.
///
/// Layout: entries live in a slab of 120-byte slots that grows to the
/// bound and is then overwritten in place, a victim's slot going to the
/// entry that evicted it. An open-addressing index maps each entry's
/// 24-byte key (an interned search shape plus the budget and speed bits)
/// to its slab number, and a binary min-heap of slab numbers ordered by
/// `(priority, tick)` finds the victim in O(log n). Neither index copies
/// a key.
pub struct PlanCache {
    slots: Vec<Slot>,
    index: SlotIndex,
    /// Dense ids of the search shapes seen since the last invalidation.
    windows: HashMap<WindowKey, u32>,
    /// Slab numbers, a min-heap by [`Slot::rank`].
    heap: Vec<u32>,
    /// `heap_pos[i]` is slab entry `i`'s position in `heap`.
    heap_pos: Vec<u32>,
    /// Priority of the last victim: the floor every new priority starts
    /// from.
    inflation: u64,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// Default entry bound. It holds the working set of a bursty
    /// four-app run: a key log of 33k lookups over 4.7k distinct keys
    /// replays at a 53 % hit rate under 512 entries and 77 % under 2048.
    pub const DEFAULT_CAPACITY: usize = 2048;

    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            slots: Vec::new(),
            index: SlotIndex::default(),
            windows: HashMap::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
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

    fn window_key(key: &PlanKey) -> WindowKey {
        WindowKey {
            dag_fp: key.dag_fp,
            window_fp: key.window_fp,
            k: key.k,
            premium_bits: key.premium_bits,
            variant: key.variant,
        }
    }

    fn slot_key(window: u32, key: &PlanKey) -> SlotKey {
        SlotKey {
            window,
            gslo_bits: key.gslo_bits,
            speed_bits: key.speed_bits,
        }
    }

    /// The slab entry holding `key`, if any.
    fn find(&self, key: &PlanKey) -> Option<u32> {
        let window = *self.windows.get(&Self::window_key(key))?;
        let bucket = self.index.find(&self.slots, &Self::slot_key(window, key))?;
        Some(self.index.buckets[bucket])
    }

    /// Looks up `key`, refreshing its priority on a hit. Counts a miss on
    /// `None` (the caller is expected to search and [`insert`](Self::insert)).
    pub fn get(&mut self, key: &PlanKey) -> Option<CachedPlan> {
        self.tick += 1;
        let Some(idx) = self.find(key) else {
            self.stats.misses += 1;
            return None;
        };
        let slot = &mut self.slots[idx as usize];
        slot.priority = self.inflation + slot.plan.expansions;
        slot.tick = self.tick;
        // Both rank components only grow on a hit.
        self.sift_down(self.heap_pos[idx as usize] as usize);
        self.stats.hits += 1;
        self.check_indices();
        Some(self.slots[idx as usize].plan.clone())
    }

    /// Memoises `plan` under `key`, evicting the lowest-priority entry
    /// when the bound is reached. Re-inserting a held key overwrites it
    /// in place and never evicts.
    pub fn insert(&mut self, key: PlanKey, plan: CachedPlan) {
        self.tick += 1;
        self.stats.insertions += 1;
        let next_window = self.windows.len() as u32;
        let window = *self
            .windows
            .entry(Self::window_key(&key))
            .or_insert(next_window);
        let key = Self::slot_key(window, &key);
        if let Some(bucket) = self.index.find(&self.slots, &key) {
            let idx = self.index.buckets[bucket];
            self.write(idx, key, plan);
        } else if self.slots.len() >= self.capacity {
            let victim = self.heap[0];
            let bucket = self
                .index
                .find(&self.slots, &self.slots[victim as usize].key)
                .expect("every slab entry is indexed");
            self.index.remove_at(&self.slots, bucket);
            self.inflation = self.slots[victim as usize].priority;
            self.stats.evictions += 1;
            self.write(victim, key, plan);
            self.index.insert(&self.slots, victim);
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                priority: self.inflation + plan.expansions,
                tick: self.tick,
                plan,
            });
            self.heap_pos.push(self.heap.len() as u32);
            self.heap.push(idx);
            self.sift_up(self.heap.len() - 1);
            self.index.insert(&self.slots, idx);
        }
        self.check_indices();
    }

    /// Overwrites slab entry `idx` and restores the heap order around it.
    fn write(&mut self, idx: u32, key: SlotKey, plan: CachedPlan) {
        self.slots[idx as usize] = Slot {
            key,
            priority: self.inflation + plan.expansions,
            tick: self.tick,
            plan,
        };
        let pos = self.sift_up(self.heap_pos[idx as usize] as usize);
        self.sift_down(pos);
    }

    fn rank_at(&self, pos: usize) -> (u64, u64) {
        self.slots[self.heap[pos] as usize].rank()
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as u32;
        self.heap_pos[self.heap[b] as usize] = b as u32;
    }

    /// Moves the heap entry at `pos` up to its place; returns where it
    /// landed.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.rank_at(parent) <= self.rank_at(pos) {
                break;
            }
            self.swap(parent, pos);
            pos = parent;
        }
        pos
    }

    /// Moves the heap entry at `pos` down to its place.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.rank_at(right) < self.rank_at(left) {
                right
            } else {
                left
            };
            if self.rank_at(pos) <= self.rank_at(child) {
                break;
            }
            self.swap(pos, child);
            pos = child;
        }
    }

    /// Drops every entry (cluster-membership churn: the speed landscape
    /// that shaped recent keys is gone, so let the new regime repopulate).
    pub fn invalidate(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.windows.clear();
        self.heap.clear();
        self.heap_pos.clear();
        self.inflation = 0;
        self.stats.invalidations += 1;
        self.check_indices();
    }

    /// Every entry is indexed exactly once (and, in this crate's tests,
    /// the heap is ordered).
    fn check_indices(&self) {
        debug_assert!(
            self.slots.len() == self.index.len
                && self.slots.len() == self.heap.len()
                && self.slots.len() == self.heap_pos.len(),
            "memo slab and indices diverged"
        );
        #[cfg(test)]
        assert!(
            (1..self.heap.len()).all(|i| self.rank_at((i - 1) / 2) < self.rank_at(i)),
            "eviction heap out of order"
        );
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
            .field("len", &self.slots.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::StageTable;
    use crate::search::{astar_search_bounded, PathCandidate};
    use esg_model::{standard_catalog, ConfigGrid, PriceModel};
    use esg_profile::ProfileTable;

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

    /// A plan tagged by its best path's time.
    fn plan(time_ms: f64) -> CachedPlan {
        plan_with(time_ms, 10)
    }

    /// A tagged plan whose search took `expansions` (its re-search cost).
    fn plan_with(time_ms: f64, expansions: u64) -> CachedPlan {
        let result = SearchResult {
            paths: vec![PathCandidate {
                configs: vec![Config::MIN],
                time_ms,
                cost_cents: 1.0,
            }],
            expansions,
            feasible: true,
        };
        CachedPlan::new(&result, 1.0)
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
    fn cached_plan_round_trips_the_search_summary() {
        let p = ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::default(),
            &PriceModel::default(),
        );
        let table = StageTable::build(&[FnId(0), FnId(1)], &p, 8);
        let gslo = table.min_total_time() * 3.0;
        let mut spilled = false;
        for k in [1, 5, 8, 80] {
            for gslo in [gslo, table.min_total_time() * 0.5] {
                let r = astar_search_bounded(&table, gslo, k, f64::INFINITY);
                let plan = CachedPlan::new(&r, table.min_total_time());
                let want = r.first_stage_candidates();
                assert_eq!(plan.first_stage_candidates(), want, "K={k}");
                assert_eq!(plan.best_config(), r.paths[0].configs[0]);
                assert_eq!(plan.feasible, r.feasible);
                assert_eq!(plan.expansions, r.expansions);
                assert_eq!(plan.best_time_ms.to_bits(), r.paths[0].time_ms.to_bits());
                assert_eq!(
                    plan.min_total_ms.to_bits(),
                    table.min_total_time().to_bits()
                );
                assert_eq!(plan.tail.is_some(), want.len() > INLINE_CANDIDATES);
                spilled |= plan.tail.is_some();
            }
        }
        assert!(spilled, "K = 80 must spill past the inline candidates");
    }

    #[test]
    fn unpackable_candidates_keep_their_order_in_the_tail() {
        let path = |c: Config| PathCandidate {
            configs: vec![c, Config::MIN],
            time_ms: 1.0,
            cost_cents: 1.0,
        };
        let wide = Config::new(1, 4096, 1);
        let configs = [
            Config::new(2, 1, 1),
            wide,
            Config::new(2, 1, 1),
            Config::new(1023, 2047, 2047),
        ];
        let r = SearchResult {
            paths: configs.iter().map(|&c| path(c)).collect(),
            expansions: 3,
            feasible: true,
        };
        let plan = CachedPlan::new(&r, 1.0);
        assert_eq!(
            plan.inline_len, 1,
            "everything after a spill goes to the tail"
        );
        assert_eq!(plan.first_stage_candidates(), r.first_stage_candidates());
    }

    #[test]
    fn entry_layout_is_pinned() {
        // The slab's footprint at the default bound is what justifies it.
        assert_eq!(std::mem::size_of::<SlotKey>(), 24);
        assert_eq!(std::mem::size_of::<CachedPlan>(), 80);
        assert_eq!(std::mem::size_of::<Slot>(), 120);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = PlanCache::with_capacity(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan(1.0));
        let got = c.get(&key(1)).expect("hit");
        assert_eq!(got.best_time_ms, 1.0);
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
        assert_eq!(c.get(&key(3)).expect("hit").best_time_ms, 3.0);
        assert_eq!(c.stats().evictions, 1);
        // 3 was touched last, so 1 goes next, and its slot is reused.
        c.insert(key(4), plan(4.0));
        assert!(c.find(&key(1)).is_none());
        assert!(c.find(&key(3)).is_some());
        assert_eq!(c.slots.len(), 2);
        assert_eq!(c.get(&key(4)).expect("hit").best_time_ms, 4.0);
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
        assert_eq!(c.get(&key(2)).expect("hit").best_time_ms, 20.0);
        // Nor at a cheaper or dearer re-search cost than the entry had.
        for round in 0..10 {
            c.insert(key(1 + round % 2), plan_with(0.0, 1 + round * 100));
            assert_eq!((c.len(), c.index.len, c.heap.len()), (2, 2, 2));
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
        assert!(c.slots.is_empty() && c.index.len == 0);
        assert!(c.heap.is_empty() && c.windows.is_empty());
        assert_eq!(c.inflation, 0);
        // A fresh population fills to capacity without evicting.
        c.insert(key(4), plan(4.0));
        c.insert(key(5), plan(5.0));
        assert_eq!((c.slots.len(), c.index.len, c.heap.len()), (2, 2, 2));
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
    fn keys_differing_in_any_coordinate_are_distinct() {
        let base = key(1);
        let variants = [
            PlanKey { dag_fp: 9, ..base },
            PlanKey {
                window_fp: 9,
                ..base
            },
            PlanKey {
                gslo_bits: 9,
                ..base
            },
            PlanKey {
                speed_bits: 9,
                ..base
            },
            PlanKey { k: 1, ..base },
            PlanKey {
                premium_bits: 0,
                ..base
            },
            PlanKey { variant: 1, ..base },
        ];
        let mut c = PlanCache::with_capacity(16);
        c.insert(base, plan(0.0));
        for (i, k) in variants.iter().enumerate() {
            assert!(c.get(k).is_none(), "variant {i} aliased the base key");
            c.insert(*k, plan(i as f64 + 1.0));
        }
        assert_eq!(c.get(&base).expect("hit").best_time_ms, 0.0);
        for (i, k) in variants.iter().enumerate() {
            assert_eq!(c.get(k).expect("hit").best_time_ms, i as f64 + 1.0);
        }
    }

    /// The memo's contract in its plainest form: a list scanned for the
    /// lowest `(priority, tick)` on every eviction.
    struct ReferenceMemo {
        entries: Vec<(PlanKey, u64, u64, f64)>, // key, priority, tick, plan tag
        inflation: u64,
        tick: u64,
        capacity: usize,
    }

    impl ReferenceMemo {
        fn get(&mut self, key: &PlanKey, cost: impl Fn(f64) -> u64) -> Option<f64> {
            self.tick += 1;
            let e = self.entries.iter_mut().find(|e| e.0 == *key)?;
            e.1 = self.inflation + cost(e.3);
            e.2 = self.tick;
            Some(e.3)
        }

        fn insert(&mut self, key: PlanKey, tag: f64, expansions: u64) {
            self.tick += 1;
            if let Some(i) = self.entries.iter().position(|e| e.0 == key) {
                self.entries.remove(i);
            } else if self.entries.len() >= self.capacity {
                let (i, e) = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| (e.1, e.2))
                    .expect("full");
                self.inflation = e.1;
                self.entries.remove(i);
            }
            self.entries
                .push((key, self.inflation + expansions, self.tick, tag));
        }
    }

    #[test]
    fn slab_memo_matches_the_reference_greedy_dual() {
        // A small key space over a tiny and a mid-size bound: constant
        // eviction, overwrites, re-hits and the odd invalidation.
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let cost = |tag: f64| tag as u64 % 97 + 1;
        for capacity in [1, 3, 16] {
            let mut memo = PlanCache::with_capacity(capacity);
            let mut reference = ReferenceMemo {
                entries: Vec::new(),
                inflation: 0,
                tick: 0,
                capacity,
            };
            for step in 0..20_000u64 {
                let mut k = key(next(40));
                k.gslo_bits = next(3) << 45;
                match next(100) {
                    0 => {
                        memo.invalidate();
                        reference.entries.clear();
                        reference.inflation = 0;
                    }
                    1..=49 => {
                        let got = memo.get(&k).map(|p| p.best_time_ms);
                        assert_eq!(got, reference.get(&k, cost), "step {step}");
                    }
                    _ => {
                        let tag = next(10_000) as f64;
                        memo.insert(k, plan_with(tag, cost(tag)));
                        reference.insert(k, tag, cost(tag));
                    }
                }
                assert_eq!(memo.len(), reference.entries.len());
                assert_eq!(memo.inflation, reference.inflation);
            }
        }
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
