//! Exhaustive configuration-path search.
//!
//! The §5.3 overhead baseline ("the time taken by a brute-force search
//! would be orders of magnitude higher … 7258 ms for 256 configurations
//! per function") and the oracle against which the pruned searches are
//! property-tested.

use crate::bounds::StageTable;
use crate::search::{PathCandidate, SearchResult};
use esg_model::Config;

/// Enumerates every configuration path, returning the K cheapest that meet
/// `gslo_ms` (fastest-path fallback when none does, like the pruned
/// searches).
pub fn brute_force(table: &StageTable, gslo_ms: f64, k: usize) -> SearchResult {
    assert!(k >= 1, "K must be at least 1");
    let n = table.num_stages();
    let mut best: Vec<PathCandidate> = Vec::new();
    let mut expansions: u64 = 0;

    let mut stack: Vec<(usize, Vec<Config>, f64, f64)> = vec![(0, Vec::new(), 0.0, 0.0)];
    while let Some((s, configs, time, cost)) = stack.pop() {
        if s == n {
            if time <= gslo_ms {
                let pos = best.partition_point(|p| p.cost_cents <= cost);
                if pos < k {
                    best.insert(
                        pos,
                        PathCandidate {
                            configs,
                            time_ms: time,
                            cost_cents: cost,
                        },
                    );
                    best.truncate(k);
                }
            }
            continue;
        }
        for e in table.entries(s) {
            expansions += 1;
            let mut c = configs.clone();
            c.push(e.config);
            stack.push((s + 1, c, time + e.latency_ms, cost + e.per_job_cost_cents));
        }
    }

    if best.is_empty() {
        let (configs, time_ms, cost_cents) = table.fastest_path();
        return SearchResult {
            paths: vec![PathCandidate {
                configs,
                time_ms,
                cost_cents,
            }],
            expansions,
            feasible: false,
        };
    }
    SearchResult {
        paths: best,
        expansions,
        feasible: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{standard_catalog, ConfigGrid, FnId, PriceModel};
    use esg_profile::ProfileTable;

    fn profiles() -> ProfileTable {
        ProfileTable::build(
            &standard_catalog(),
            &ConfigGrid::new(vec![1, 2], vec![1, 2], vec![1, 2]),
            &PriceModel::default(),
        )
    }

    #[test]
    fn expansion_count_is_tree_size() {
        let p = profiles();
        let t = StageTable::build(&[FnId(0), FnId(1)], &p, 8);
        let r = brute_force(&t, f64::INFINITY, 1);
        // 8 first-stage entries + 8*8 second-stage entries.
        assert_eq!(r.expansions, 8 + 64);
        assert!(r.feasible);
    }

    #[test]
    fn returns_k_cheapest_sorted() {
        let p = profiles();
        let t = StageTable::build(&[FnId(0), FnId(2)], &p, 8);
        let r = brute_force(&t, f64::INFINITY, 4);
        assert_eq!(r.paths.len(), 4);
        for w in r.paths.windows(2) {
            assert!(w[0].cost_cents <= w[1].cost_cents);
        }
    }

    #[test]
    fn respects_deadline() {
        let p = profiles();
        let t = StageTable::build(&[FnId(4), FnId(5)], &p, 8);
        let gslo = t.min_total_time() * 1.1;
        let r = brute_force(&t, gslo, 8);
        assert!(r.feasible);
        for p in &r.paths {
            assert!(p.time_ms <= gslo);
        }
    }

    #[test]
    fn infeasible_falls_back() {
        let p = profiles();
        let t = StageTable::build(&[FnId(4)], &p, 8);
        let r = brute_force(&t, 1.0, 3);
        assert!(!r.feasible);
        assert_eq!(r.paths.len(), 1);
    }
}
