//! Per-stage tables and the dual-blade bounds (§3.3).
//!
//! For a partial path `p` over the first stages of a group, ESG_1Q computes:
//!
//! * `tLow(p)` — `time(p)` plus the **minimum latency** of every uncovered
//!   stage: a lower bound on any completion's time. Used by the time blade.
//! * `rscLow(p)` — `cost(p)` plus the **minimum cost** of every uncovered
//!   stage: a lower bound on any completion's cost. Used by the cost blade.
//! * `rscFastest(p)` — `cost(p)` plus the cost of running every uncovered
//!   stage **at its fastest configuration**: the cost of an achievable
//!   completion (the fastest one), hence an upper bound that tightens
//!   `best_full_paths_maxCost`.
//!
//! The table pre-computes suffix sums of the three per-stage aggregates so
//! each bound is O(1) during the search.

use esg_model::{Config, FnId};
use esg_profile::{ProfileEntry, ProfileTable};

/// Pre-processed stage data for one ESG_1Q invocation.
///
/// The table copies no profile entries: each stage *borrows* its
/// function's `FunctionProfile::entries` slice, which arrives pre-sorted
/// ascending by latency, so a build is one small allocation (the
/// per-stage records) however wide the grid. The first stage's batch cap
/// is applied as a filter on iteration ([`StageTable::entries`]); entries
/// above the cap were never part of the stage, so the search's visit
/// order and expansion count are exactly those of a table that copied
/// the capped slice out.
#[derive(Clone, Debug)]
pub struct StageTable<'p> {
    /// One record per stage plus a terminal record (empty entries, zero
    /// sums), so `stages[s]` holds the suffix sums over stages `s..`.
    stages: Vec<Stage<'p>>,
}

/// One stage: its borrowed profile, the batch cap it is read under, and
/// the suffix sums of the three per-stage aggregates from here on.
#[derive(Clone, Copy, Debug)]
struct Stage<'p> {
    /// The function's whole profile, ascending by latency.
    entries: &'p [ProfileEntry],
    /// Entries with a larger batch are not part of the stage (`u32::MAX`
    /// after the first stage).
    batch_cap: u32,
    /// Sum over stages `s..` of the minimum latency.
    min_lat_suffix: f64,
    /// Sum over stages `s..` of the minimum per-job cost.
    min_cost_suffix: f64,
    /// Sum over stages `s..` of the fastest-config per-job cost.
    fastest_cost_suffix: f64,
}

/// The entries of one stage, ascending by latency: the borrowed profile
/// with batches above the stage's cap skipped.
#[derive(Clone, Debug)]
pub struct StageEntries<'p> {
    iter: std::slice::Iter<'p, ProfileEntry>,
    batch_cap: u32,
}

impl<'p> Iterator for StageEntries<'p> {
    type Item = &'p ProfileEntry;

    #[inline]
    fn next(&mut self) -> Option<&'p ProfileEntry> {
        let cap = self.batch_cap;
        self.iter.find(|e| e.config.batch <= cap)
    }
}

impl<'p> StageTable<'p> {
    /// Builds the table for a stage sequence. `first_stage_max_batch` caps
    /// the batch dimension of stage 0 (ESG adapts the batch to the actual
    /// queue length; later stages are unconstrained). A grid without a
    /// small-enough batch keeps its smallest batch instead: the effective
    /// cap is `max(cap, smallest batch)`, and the dispatcher clamps the
    /// batch to the live queue length anyway.
    pub fn build(
        stages: &[FnId],
        profiles: &'p ProfileTable,
        first_stage_max_batch: u32,
    ) -> StageTable<'p> {
        assert!(!stages.is_empty(), "need at least one stage");
        let terminal = Stage {
            entries: &[],
            batch_cap: u32::MAX,
            min_lat_suffix: 0.0,
            min_cost_suffix: 0.0,
            fastest_cost_suffix: 0.0,
        };
        let mut out = vec![terminal; stages.len() + 1];
        for (s, &f) in stages.iter().enumerate().rev() {
            let profile = profiles.profile(f);
            let entries = profile.entries();
            debug_assert!(
                entries
                    .windows(2)
                    .all(|w| w[0].latency_ms <= w[1].latency_ms),
                "profiles must arrive sorted ascending by latency"
            );
            let (batch_cap, min_lat, min_cost, fastest_cost) = if s == 0 {
                let smallest = entries.iter().map(|e| e.config.batch).min();
                let cap = first_stage_max_batch.max(smallest.expect("non-empty profile"));
                let fastest = entries
                    .iter()
                    .find(|e| e.config.batch <= cap)
                    .expect("the effective cap keeps an entry");
                let cheapest = profile
                    .entries_by_cost()
                    .find(|e| e.config.batch <= cap)
                    .expect("the effective cap keeps an entry");
                (
                    cap,
                    fastest.latency_ms,
                    cheapest.per_job_cost_cents,
                    fastest.per_job_cost_cents,
                )
            } else {
                (
                    u32::MAX,
                    profile.min_latency_ms(),
                    profile.min_per_job_cost_cents(),
                    profile.fastest_per_job_cost_cents(),
                )
            };
            let next = out[s + 1];
            out[s] = Stage {
                entries,
                batch_cap,
                min_lat_suffix: next.min_lat_suffix + min_lat,
                min_cost_suffix: next.min_cost_suffix + min_cost,
                fastest_cost_suffix: next.fastest_cost_suffix + fastest_cost,
            };
        }
        StageTable { stages: out }
    }

    /// Number of stages.
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len() - 1
    }

    /// Entries of stage `s`, ascending latency.
    #[inline]
    pub fn entries(&self, s: usize) -> StageEntries<'p> {
        let stage = &self.stages[s];
        StageEntries {
            iter: stage.entries.iter(),
            batch_cap: stage.batch_cap,
        }
    }

    /// `tLow`: `time_so_far` plus the minimal remaining latency from stage
    /// `next` on.
    #[inline]
    pub fn t_low(&self, time_so_far: f64, next: usize) -> f64 {
        time_so_far + self.stages[next].min_lat_suffix
    }

    /// `rscLow`: `cost_so_far` plus the minimal remaining cost.
    #[inline]
    pub fn rsc_low(&self, cost_so_far: f64, next: usize) -> f64 {
        cost_so_far + self.stages[next].min_cost_suffix
    }

    /// `rscFastest`: `cost_so_far` plus the cost of finishing fastest.
    #[inline]
    pub fn rsc_fastest(&self, cost_so_far: f64, next: usize) -> f64 {
        cost_so_far + self.stages[next].fastest_cost_suffix
    }

    /// The fastest full path (each stage at its minimum-latency config):
    /// the default when no path meets the target (`setDefaultPaths`).
    pub fn fastest_path(&self) -> (Vec<Config>, f64, f64) {
        let mut configs = Vec::with_capacity(self.num_stages());
        let mut time = 0.0;
        let mut cost = 0.0;
        for s in 0..self.num_stages() {
            let e = self.entries(s).next().expect("non-empty stage");
            configs.push(e.config);
            time += e.latency_ms;
            cost += e.per_job_cost_cents;
        }
        (configs, time, cost)
    }

    /// The quickest achievable total time — used to detect infeasible
    /// targets up front.
    #[inline]
    pub fn min_total_time(&self) -> f64 {
        self.stages[0].min_lat_suffix
    }
}

/// A bounded "K smallest values" list: the paper's `minRSC`, tracking the K
/// best `rscFastest` upper bounds; `kth()` is `best_full_paths_maxCost`.
#[derive(Clone, Debug)]
pub struct MinRsc {
    k: usize,
    values: Vec<f64>, // ascending, at most k
}

impl MinRsc {
    /// Creates an empty list of capacity `k >= 1`.
    pub fn new(k: usize) -> MinRsc {
        assert!(k >= 1, "K must be at least 1");
        MinRsc {
            k,
            values: Vec::with_capacity(k + 1),
        }
    }

    /// The K-th smallest value seen (the pruning threshold); infinite until
    /// K values arrive.
    #[inline]
    pub fn kth(&self) -> f64 {
        if self.values.len() < self.k {
            f64::INFINITY
        } else {
            self.values[self.k - 1]
        }
    }

    /// Inserts a value, keeping the K smallest.
    pub fn insert(&mut self, v: f64) {
        let pos = self.values.partition_point(|&x| x <= v);
        if pos >= self.k {
            return;
        }
        self.values.insert(pos, v);
        self.values.truncate(self.k);
    }

    /// Inserts a value unless an (approximately) equal one is present.
    ///
    /// The A* variant accumulates `rscFastest` upper bounds across stages,
    /// where several prefixes of the *same* completion insert the same
    /// value; counting them as distinct paths would inflate the K-th-best
    /// threshold and over-prune. Suppressing near-equal values is safe in
    /// both directions: duplicate same-path bounds are counted once, and
    /// genuinely tied distinct paths merely loosen the blade.
    pub fn insert_distinct(&mut self, v: f64) {
        let near = |x: f64| (x - v).abs() <= 1e-9 * x.abs().max(1.0);
        if self.values.iter().any(|&x| near(x)) {
            return;
        }
        self.insert(v);
    }

    /// Clears the list (Algorithm 1 resets `minRSC` per stage).
    pub fn reset(&mut self) {
        self.values.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AppPlans;
    use esg_model::{standard_apps, standard_catalog, ConfigGrid, PriceModel};

    fn profiles() -> ProfileTable {
        ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::default(),
            &PriceModel::default(),
        )
    }

    /// The copying table the borrowed one replaced, kept as the reference
    /// its views must reproduce bit for bit.
    struct CopiedTable {
        entries: Vec<ProfileEntry>,
        offsets: Vec<usize>,
        min_lat_suffix: Vec<f64>,
        min_cost_suffix: Vec<f64>,
        fastest_cost_suffix: Vec<f64>,
    }

    impl CopiedTable {
        fn build(stages: &[FnId], profiles: &ProfileTable, cap: u32) -> CopiedTable {
            let n = stages.len();
            let mut entries: Vec<ProfileEntry> = Vec::new();
            let mut offsets = vec![0];
            for (i, &f) in stages.iter().enumerate() {
                let all = profiles.profile(f).entries();
                if i == 0 {
                    let start = entries.len();
                    entries.extend(all.iter().filter(|e| e.config.batch <= cap));
                    if entries.len() == start {
                        let min_batch = all.iter().map(|e| e.config.batch).min().unwrap();
                        entries.extend(all.iter().filter(|e| e.config.batch == min_batch));
                    }
                } else {
                    entries.extend_from_slice(all);
                }
                offsets.push(entries.len());
            }
            let mut min_lat_suffix = vec![0.0; n + 1];
            let mut min_cost_suffix = vec![0.0; n + 1];
            let mut fastest_cost_suffix = vec![0.0; n + 1];
            for s in (0..n).rev() {
                let stage = &entries[offsets[s]..offsets[s + 1]];
                let min_cost = stage
                    .iter()
                    .map(|e| e.per_job_cost_cents)
                    .fold(f64::INFINITY, f64::min);
                min_lat_suffix[s] = min_lat_suffix[s + 1] + stage[0].latency_ms;
                min_cost_suffix[s] = min_cost_suffix[s + 1] + min_cost;
                fastest_cost_suffix[s] = fastest_cost_suffix[s + 1] + stage[0].per_job_cost_cents;
            }
            CopiedTable {
                entries,
                offsets,
                min_lat_suffix,
                min_cost_suffix,
                fastest_cost_suffix,
            }
        }

        fn entries(&self, s: usize) -> &[ProfileEntry] {
            &self.entries[self.offsets[s]..self.offsets[s + 1]]
        }
    }

    fn bits(e: &ProfileEntry) -> (Config, [u64; 4]) {
        (
            e.config,
            [
                e.latency_ms.to_bits(),
                e.per_job_latency_ms.to_bits(),
                e.task_cost_cents.to_bits(),
                e.per_job_cost_cents.to_bits(),
            ],
        )
    }

    #[test]
    fn borrowed_table_matches_the_copying_build() {
        let p = profiles();
        let apps = standard_apps();
        let mut windows: Vec<Vec<FnId>> = Vec::new();
        for g in 1..=4 {
            let plans = AppPlans::build(&apps, &p, g);
            for (a, app) in apps.iter().enumerate() {
                for stage in 0..app.num_stages() {
                    let w = plans.plan(a).search_window(stage);
                    windows.push(w.iter().map(|&v| app.nodes[v]).collect());
                }
            }
        }
        windows.sort();
        windows.dedup();
        assert!(windows.len() > 10, "only {} windows", windows.len());
        for fns in &windows {
            for cap in 0..=9 {
                let new = StageTable::build(fns, &p, cap);
                let old = CopiedTable::build(fns, &p, cap);
                let n = fns.len();
                assert_eq!(new.num_stages(), n);
                for s in 0..n {
                    let a: Vec<_> = new.entries(s).map(bits).collect();
                    let b: Vec<_> = old.entries(s).iter().map(bits).collect();
                    assert_eq!(a, b, "{fns:?} cap {cap} stage {s}");
                }
                for s in 0..=n {
                    let at = |x: f64| x.to_bits();
                    assert_eq!(at(new.t_low(1.5, s)), at(1.5 + old.min_lat_suffix[s]));
                    assert_eq!(at(new.rsc_low(0.25, s)), at(0.25 + old.min_cost_suffix[s]));
                    assert_eq!(
                        at(new.rsc_fastest(0.25, s)),
                        at(0.25 + old.fastest_cost_suffix[s])
                    );
                }
                assert_eq!(
                    new.min_total_time().to_bits(),
                    old.min_lat_suffix[0].to_bits()
                );
                let (configs, time, cost) = new.fastest_path();
                let old_configs: Vec<Config> = (0..n).map(|s| old.entries(s)[0].config).collect();
                let old_time = (0..n).fold(0.0, |t, s| t + old.entries(s)[0].latency_ms);
                let old_cost = (0..n).fold(0.0, |c, s| c + old.entries(s)[0].per_job_cost_cents);
                assert_eq!(configs, old_configs);
                assert_eq!(time.to_bits(), old_time.to_bits());
                assert_eq!(cost.to_bits(), old_cost.to_bits());
            }
        }
    }

    #[test]
    fn suffix_sums_monotone() {
        let p = profiles();
        let t = StageTable::build(&[FnId(0), FnId(1), FnId(3)], &p, 8);
        assert_eq!(t.num_stages(), 3);
        assert!(t.t_low(0.0, 0) > t.t_low(0.0, 1));
        assert!(t.t_low(0.0, 2) > 0.0);
        assert_eq!(t.t_low(5.0, 3), 5.0);
        assert!(t.rsc_low(0.0, 0) > t.rsc_low(0.0, 1));
        assert!(t.rsc_fastest(0.0, 0) >= t.rsc_low(0.0, 0));
    }

    #[test]
    fn batch_cap_restricts_first_stage_only() {
        let p = profiles();
        let capped = StageTable::build(&[FnId(0), FnId(1)], &p, 1);
        assert!(capped.entries(0).all(|e| e.config.batch == 1));
        assert!(capped.entries(1).any(|e| e.config.batch > 1));
        let free = StageTable::build(&[FnId(0), FnId(1)], &p, 8);
        assert!(free.entries(0).count() > capped.entries(0).count());
    }

    #[test]
    fn cap_below_the_grid_keeps_the_smallest_batch() {
        let p = ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::new(vec![2, 4], vec![1, 2], vec![1]),
            &PriceModel::default(),
        );
        let t = StageTable::build(&[FnId(0), FnId(1)], &p, 1);
        assert_eq!(t.entries(0).count(), 2);
        assert!(t.entries(0).all(|e| e.config.batch == 2));
    }

    #[test]
    fn fastest_path_is_min_time() {
        let p = profiles();
        let t = StageTable::build(&[FnId(0), FnId(2)], &p, 8);
        let (configs, time, cost) = t.fastest_path();
        assert_eq!(configs.len(), 2);
        assert!((time - t.min_total_time()).abs() < 1e-9);
        assert!(cost > 0.0);
        // Fastest path cost equals the rscFastest bound of the empty path.
        assert!((cost - t.rsc_fastest(0.0, 0)).abs() < 1e-12);
    }

    #[test]
    fn entries_sorted_ascending_latency() {
        let p = profiles();
        let t = StageTable::build(&[FnId(4)], &p, 4);
        let lat: Vec<f64> = t.entries(0).map(|e| e.latency_ms).collect();
        assert!(lat.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn min_rsc_tracks_k_smallest() {
        let mut m = MinRsc::new(3);
        assert_eq!(m.kth(), f64::INFINITY);
        m.insert(5.0);
        m.insert(1.0);
        assert_eq!(m.kth(), f64::INFINITY); // only 2 values
        m.insert(3.0);
        assert_eq!(m.kth(), 5.0);
        m.insert(2.0);
        assert_eq!(m.kth(), 3.0);
        m.insert(10.0); // ignored, too large
        assert_eq!(m.kth(), 3.0);
        m.reset();
        assert_eq!(m.kth(), f64::INFINITY);
    }

    #[test]
    fn min_rsc_k1_tracks_best() {
        let mut m = MinRsc::new(1);
        m.insert(4.0);
        assert_eq!(m.kth(), 4.0);
        m.insert(2.0);
        assert_eq!(m.kth(), 2.0);
        m.insert(3.0);
        assert_eq!(m.kth(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stage_list_panics() {
        let _ = StageTable::build(&[], &profiles(), 1);
    }
}
