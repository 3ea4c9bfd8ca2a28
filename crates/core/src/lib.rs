//! The ESG scheduling algorithm (the paper's primary contribution).
//!
//! ESG treats the shareable GPU as a first-order scheduling factor and
//! searches the three-dimensional configuration space `(batch, vCPUs,
//! vGPUs)` of a pipeline's stages as a path-finding problem (§3.3):
//!
//! * [`bounds`] — the per-stage aggregates behind *dual-blade pruning*:
//!   `tLow` (time lower bound), `rscLow` (cost lower bound) and
//!   `rscFastest` (an achievable cost upper bound used to tighten the
//!   cost blade);
//! * [`search`] — ESG_1Q in both published forms: the stage-wise
//!   Algorithm-1 variant and the A* best-first variant (allocation-free
//!   inner loop over a reusable [`SearchScratch`] arena), each returning
//!   the configuration priority queue of the K cheapest SLO-feasible
//!   paths;
//! * [`cache`] — the [`PlanCache`]: fixed-size summaries of memoised
//!   searches ([`CachedPlan`]) keyed on the reduced-DAG fingerprint, the
//!   quantized effective GSLO, and the node-class speed factor, held in
//!   a slab bounded by cost-aware (GreedyDual) eviction and
//!   churn-invalidated;
//! * [`brute`] — exhaustive search, the §5.3 baseline and the oracle for
//!   optimality tests;
//! * [`plan`] — per-application dominator-based SLO distribution
//!   (`esg-dag`) with per-stage quota fractions;
//! * [`scheduler`] — [`EsgScheduler`], the adapter that plugs ESG into the
//!   `esg-sim` platform: optimality-guided *adaptive* scheduling (the
//!   search re-runs before every stage dispatch) plus the locality-first
//!   ESG_Dispatch placement (§3.4);
//! * [`policy`] — ESG's stages for the composable round-policy pipeline:
//!   [`EsgCrossQueuePacking`] ranks a whole round's queues by GSLO
//!   tightness under one shared search budget, preferring warm
//!   co-location (stacks with `esg_sim::SloAdmission`);
//! * [`hybrid`] — the static-pinning tier: [`PinPlanner`] packs the
//!   popularity head of a workload onto whole servers, and
//!   [`HybridScheduler`] routes pinned queues to their slice with zero
//!   search while the tail falls through to the full ESG search.

#![warn(missing_docs)]

pub mod bounds;
pub mod brute;
pub mod cache;
pub mod hybrid;
pub mod plan;
pub mod policy;
pub mod scheduler;
pub mod search;

pub use bounds::StageTable;
pub use brute::brute_force;
pub use cache::{quantize_gslo, CacheStats, CachedPlan, PlanCache, PlanKey};
pub use hybrid::{HybridScheduler, PinPlanner};
pub use plan::AppPlans;
pub use policy::{BandwidthAwarePacking, EsgCrossQueuePacking};
pub use scheduler::{EsgScheduler, SearchVariant};
pub use search::{
    astar_search, astar_search_bounded, astar_search_with, stagewise_search, PathCandidate,
    SearchResult, SearchScratch,
};
