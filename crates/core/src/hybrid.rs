//! The hybrid static+dynamic tier: [`PinPlanner`] and
//! [`HybridScheduler`].
//!
//! ESG searches the configuration space per queue at dispatch time
//! (§3). That search is what makes ESG adaptive — and what every
//! dispatch of a *predictably hot* workflow pays for again and again.
//! Production schedulers over the same shareable-GPU substrate put a
//! *static tier* in front of the search: an offline pattern-analysis
//! pass pins the popularity head onto specific servers, so hot
//! dispatches route straight to a pre-decided `(config, node)` slice —
//! zero search, warm by construction, whole workflows completing
//! intra-server — while the cold tail still flows through the full
//! dynamic search.
//!
//! * [`PinPlanner`] — the analysis pass. It ranks applications by
//!   observed invocation share (`esg_workload::PopularityProfile`),
//!   keeps the head whose share clears the configured multiple of the
//!   uniform share, and packs each hot workflow's stages — workflow
//!   co-occurrence is structural: stage *i* always feeds stage *i+1* —
//!   onto the nodes of a single server, hottest app first, within the
//!   vGPU pin budget. A stage whose share of the arrival rate outruns
//!   one slice gets several *replica* slices on distinct nodes of the
//!   pinned server, sized so the set sustains the head with headroom.
//! * [`HybridScheduler`] — the routing tier. Pinned queues dispatch to
//!   a free replica of their slice set with zero search effort (a
//!   *hit*); when every replica is mid-batch the round flows through
//!   the dynamic search instead (a *miss*) so a queue never waits
//!   behind its own running batches. Everything else delegates verbatim
//!   to the wrapped [`EsgScheduler`]. Churn is handled lazily: when a
//!   replica's node has drained, it moves to a sibling node of the same
//!   server (a *re-pin*) or drops; when the last replica is gone, the
//!   queue is demoted to the dynamic tier for good — a drained server
//!   never strands its functions.
//!
//! The contract that keeps the tier safe to deploy: with an **empty
//! plan the hybrid scheduler is dispatch-trace bit-identical to its
//! inner ESG scheduler** (`tests/pinning_equivalence.rs` pins this
//! property across the heterogeneous grid). Uniform traffic produces an
//! empty plan by construction, so the static tier can only ever change
//! behaviour where there is skew to exploit.

use crate::scheduler::EsgScheduler;
use esg_model::{ClusterSpec, Config, NodeId, Resources};
use esg_sim::{
    Capabilities, NodeView, Outcome, Pin, PinPlan, PinnedStats, PinningConfig, PolicySpec,
    PolicyStack, QueueKey, SchedCtx, Scheduler, SchedulerEvent, SchedulerStats, ServerMap, SimEnv,
};
use esg_workload::{PopularityProfile, Workload};

/// The weighting [`ClusterState::most_free`](esg_sim::ClusterState)
/// uses; re-used here so pin packing and dynamic cold placement agree
/// on what "freest" means.
const VGPU_WEIGHT: f64 = 16.0 / 7.0;

/// Throughput headroom a pinned stage's replica set must carry over the
/// app's observed arrival rate. Per-slice utilisation ≈ 1/headroom, so
/// 1.5× keeps some replica usually *free* when the next round arrives,
/// while the dynamic tier absorbs the bursts that catch the whole set
/// mid-batch. Without that slack the pins become the bottleneck the
/// dynamic tier's spreading would avoid, so the planner refuses to pin
/// apps it cannot over-provision.
const PIN_HEADROOM: f64 = 1.5;

/// Share of an app's SLO the pinned tier may spend on compute. Stage
/// latency budgets are scaled by this before configurations are
/// filtered, so a pinned workflow keeps the remainder of its SLO as
/// slack for queueing, transfers and noise — a pick that fits the SLO
/// exactly would violate it on the first queued round.
const PIN_SLO_SHARE: f64 = 0.8;

/// The offline pattern-analysis pass: workload popularity in, a
/// server-packed [`PinPlan`] out.
#[derive(Clone, Copy, Debug)]
pub struct PinPlanner {
    cfg: PinningConfig,
}

impl PinPlanner {
    /// A planner with the given knobs (validated by
    /// `SimBuilder::pinning` when the run goes through the builder).
    pub fn new(cfg: PinningConfig) -> PinPlanner {
        PinPlanner { cfg }
    }

    /// The planner's knobs.
    pub fn config(&self) -> PinningConfig {
        self.cfg
    }

    /// Analyses `workload` and packs the popularity head onto
    /// `cluster`'s servers.
    ///
    /// An app qualifies when its observed invocation share is at least
    /// `min_share_factor / num_apps` — uniform traffic clears that bar
    /// for nobody (factor > 1), so the returned plan is empty and the
    /// hybrid tier stays inert. Qualifying apps are pinned hottest
    /// first: every stage of the workflow goes onto one server (so the
    /// whole hot pipeline completes intra-server), greedily onto the
    /// freest nodes that fit, subject to per-node capacity and the
    /// global vGPU budget. Each stage gets as many replica slices as its
    /// share of the arrival rate demands (see `pick_config`), so a hot
    /// app whose slowest stage outruns one slice is replicated rather
    /// than saturated. An app whose slices cannot all be packed onto one
    /// server is skipped whole — a half-pinned workflow would pay the
    /// cross-server hop the tier exists to avoid. So is an app whose
    /// rate no affordable replica set can sustain with `PIN_HEADROOM`
    /// slack: pinning it would funnel the head of the distribution
    /// through saturated slices the dynamic tier could have spread.
    pub fn plan(&self, env: &SimEnv, cluster: &ClusterSpec, workload: &Workload) -> PinPlan {
        let mut plan = PinPlan::empty();
        if env.apps.is_empty() || cluster.nodes.is_empty() {
            return plan;
        }
        let profile = PopularityProfile::of(workload);
        let min_share = self.cfg.min_share_factor / env.apps.len() as f64;
        let hot = profile.hot_apps(min_share, self.cfg.max_pinned_apps);
        if hot.is_empty() {
            return plan;
        }

        let servers = ServerMap::from_spec(cluster);
        let mut free: Vec<Resources> = cluster.nodes.iter().map(|c| c.resources()).collect();
        let mut budget = self.cfg.budget_vgpus;
        let span_ms = workload.span_ms().max(1.0);

        for app in hot {
            let spec = &env.apps[app.index()];
            // Every invocation passes through every stage once, so each
            // stage's replica set must sustain the app's whole arrival
            // rate. The compute share of the SLO is split across stages
            // in proportion to their base execution times, so slow
            // stages get the slack they need rather than an even (and
            // unmeetable) share.
            let rate_per_ms = profile.share(app) * profile.total() as f64 / span_ms;
            let slo_ms = PIN_SLO_SHARE * env.slo_ms(app);
            let exec_total: f64 = spec.nodes.iter().map(|&f| env.catalog.get(f).exec_ms).sum();
            if exec_total <= 0.0 {
                continue;
            }
            let Some(stages) = spec
                .nodes
                .iter()
                .map(|&f| {
                    let budget_ms = slo_ms * env.catalog.get(f).exec_ms / exec_total;
                    pick_config(env, f, budget_ms, rate_per_ms)
                })
                .collect::<Option<Vec<(Config, u32)>>>()
            else {
                continue;
            };
            let needed: u64 = stages
                .iter()
                .map(|(c, k)| u64::from(c.vgpus) * u64::from(*k))
                .sum();
            if needed > budget {
                continue;
            }
            // One slot per replica slice, tagged with its stage so each
            // packed node can be pinned back to the right queue.
            let slots: Vec<(usize, Config)> = stages
                .iter()
                .enumerate()
                .flat_map(|(stage, &(config, k))| (0..k).map(move |_| (stage, config)))
                .collect();
            let slot_configs: Vec<Config> = slots.iter().map(|&(_, c)| c).collect();
            // Server candidates, freest (by weighted remaining
            // resources) first; a flat cluster is one big pseudo-server.
            let groups: Vec<(Option<usize>, Vec<NodeId>)> = match &servers {
                Some(map) => {
                    let mut g: Vec<(Option<usize>, Vec<NodeId>)> = (0..map.num_servers())
                        .map(|s| (Some(s), map.nodes_of(s).collect()))
                        .collect();
                    g.sort_by(|a, b| {
                        weight_of(&free, &b.1)
                            .total_cmp(&weight_of(&free, &a.1))
                            .then(a.0.cmp(&b.0))
                    });
                    g
                }
                None => vec![(None, (0..free.len() as u32).map(NodeId).collect())],
            };
            for (server, nodes) in groups {
                if let Some(placed) = pack(&slot_configs, &nodes, &free) {
                    for (&(stage, config), &node) in slots.iter().zip(&placed) {
                        free[node.index()] -= config.resources();
                        plan.push(Pin {
                            key: QueueKey { app, stage },
                            function: spec.nodes[stage],
                            config,
                            node,
                            server,
                        });
                    }
                    budget -= needed;
                    break;
                }
            }
        }
        plan
    }
}

/// How many replica slices one pinned stage may use before the planner
/// gives up on the app — a backstop against plans that would swallow a
/// whole server for one stage.
const MAX_PIN_REPLICAS: u32 = 8;

/// The configuration and replica count for one pinned stage: among
/// entries whose full-batch task latency fits the stage's SLO share
/// (`budget_ms`), the one whose replica set sustains `rate_per_ms`
/// arrivals (`batch / latency` per slice, [`PIN_HEADROOM`] slack) for
/// the smallest weighted resource footprint — vCPUs plus
/// [`VGPU_WEIGHT`]-scaled vGPUs, the same weighting packing uses, so
/// the picks are the ones a server can actually hold — then fewest
/// replicas, then fastest. A pin serves the head of the popularity
/// distribution, so it is provisioned for latency headroom, not cost —
/// the dynamic tier's cost search still covers the tail. `None` when no
/// affordable replica set can carry the load — the caller then leaves
/// the app to the dynamic tier, which can spread it.
fn pick_config(
    env: &SimEnv,
    f: esg_model::FnId,
    budget_ms: f64,
    rate_per_ms: f64,
) -> Option<(Config, u32)> {
    let p = env.profiles.profile(f);
    let need = rate_per_ms * PIN_HEADROOM;
    let mut best: Option<(f64, u32, f64, Config)> = None;
    // Entries ascend by task latency: everything past the budget is out.
    for e in p.entries().iter().take_while(|e| e.latency_ms <= budget_ms) {
        let thr = f64::from(e.config.batch) / e.latency_ms;
        let k = (need / thr).ceil().max(1.0);
        if k > f64::from(MAX_PIN_REPLICAS) {
            continue;
        }
        let k = k as u32;
        let footprint = f64::from(k) * e.config.resources().weighted(1.0, VGPU_WEIGHT);
        let better = match &best {
            None => true,
            Some((bf, bk, bl, _)) => footprint
                .total_cmp(bf)
                .then(k.cmp(bk))
                .then(e.latency_ms.total_cmp(bl))
                .is_lt(),
        };
        if better {
            best = Some((footprint, k, e.latency_ms, e.config));
        }
    }
    best.map(|(_, k, _, config)| (config, k))
}

/// Total weighted free resources across `nodes`.
fn weight_of(free: &[Resources], nodes: &[NodeId]) -> f64 {
    nodes
        .iter()
        .map(|n| free[n.index()].weighted(1.0, VGPU_WEIGHT))
        .sum()
}

/// Greedily assigns one replica slot after another to the freest node
/// of the group that fits it, against a *copy* of the free table.
/// Freest-first placement naturally spreads same-stage replicas across
/// the server's nodes; when the server has fewer nodes than a stage has
/// replicas, the extras land where capacity remains and the plan's
/// `(key, node)` upsert merges them — the reserved capacity still
/// carries the replica's share of the load, since dispatch concurrency
/// is capacity-gated, not entry-gated. `None` when any slot finds no
/// room (the caller then tries the next server).
fn pack(configs: &[Config], nodes: &[NodeId], free: &[Resources]) -> Option<Vec<NodeId>> {
    let mut free = free.to_vec();
    let mut placed: Vec<NodeId> = Vec::with_capacity(configs.len());
    for config in configs {
        let demand = config.resources();
        let node = nodes
            .iter()
            .copied()
            .filter(|n| free[n.index()].contains(demand))
            .max_by(|a, b| {
                free[a.index()]
                    .weighted(1.0, VGPU_WEIGHT)
                    .total_cmp(&free[b.index()].weighted(1.0, VGPU_WEIGHT))
                    .then(b.0.cmp(&a.0))
            })?;
        free[node.index()] -= demand;
        placed.push(node);
    }
    Some(placed)
}

/// ESG with a static-pinning tier in front: pinned queues route to
/// their pre-decided slice with zero search, the tail falls through to
/// the full dynamic search. See the module docs for the contract.
#[derive(Debug)]
pub struct HybridScheduler {
    inner: EsgScheduler,
    plan: PinPlan,
    servers: Option<ServerMap>,
    pinned: PinnedStats,
}

impl HybridScheduler {
    /// A hybrid over a default [`EsgScheduler`] and `plan`. Without a
    /// [`ServerMap`] (see [`with_servers`](Self::with_servers)) churn
    /// re-pins consider every node instead of the pinned server's
    /// siblings.
    pub fn new(plan: PinPlan) -> HybridScheduler {
        HybridScheduler {
            inner: EsgScheduler::new(),
            plan,
            servers: None,
            pinned: PinnedStats::default(),
        }
    }

    /// Runs the full pipeline — analyse `workload`, pack the head onto
    /// `cluster` — and wraps the resulting plan around a default ESG
    /// scheduler with the matching server map.
    pub fn planned(
        cfg: PinningConfig,
        env: &SimEnv,
        cluster: &ClusterSpec,
        workload: &Workload,
    ) -> HybridScheduler {
        let plan = PinPlanner::new(cfg).plan(env, cluster, workload);
        let mut h = HybridScheduler::new(plan);
        h.servers = ServerMap::from_spec(cluster);
        h
    }

    /// Replaces the inner dynamic scheduler (ablations tune its knobs).
    pub fn with_inner(mut self, inner: EsgScheduler) -> Self {
        self.inner = inner;
        self
    }

    /// Installs the server topology map used to find re-pin targets
    /// after churn.
    pub fn with_servers(mut self, map: ServerMap) -> Self {
        self.servers = Some(map);
        self
    }

    /// The live pin plan (re-pins and demotions mutate it).
    pub fn plan(&self) -> &PinPlan {
        &self.plan
    }

    /// The pinned-tier counters so far.
    pub fn pinned_stats(&self) -> PinnedStats {
        self.pinned
    }

    /// The best re-pin target for a replica whose node drained: an
    /// online node of the same server with the capacity to ever host
    /// `demand` and not already hosting a sibling replica (`taken`),
    /// freest first. Falls back to the whole cluster when the server is
    /// unknown (flat cluster or no map).
    fn repin_target(
        &self,
        ctx: &SchedCtx<'_>,
        server: Option<usize>,
        demand: Resources,
        taken: &[NodeId],
    ) -> Option<NodeId> {
        let candidates: Vec<NodeId> = match (&self.servers, server) {
            (Some(map), Some(s)) => map.nodes_of(s).collect(),
            _ => (0..ctx.cluster.len() as u32).map(NodeId).collect(),
        };
        candidates
            .into_iter()
            .filter(|id| !taken.contains(id))
            .filter_map(|id| ctx.cluster.nodes().get(id.index()).map(|v| (id, v)))
            .filter(|(_, v)| v.online && v.total.contains(demand))
            .max_by(|a, b| cmp_free(a.1, b.1, demand).then(b.0 .0.cmp(&a.0 .0)))
            .map(|(id, _)| id)
    }
}

/// Orders node views for re-pinning: nodes that fit `demand` *right
/// now* beat merely-capable ones, then more weighted free space wins.
fn cmp_free(a: &NodeView, b: &NodeView, demand: Resources) -> std::cmp::Ordering {
    (a.fits(demand) as u8).cmp(&(b.fits(demand) as u8)).then(
        a.free
            .weighted(1.0, VGPU_WEIGHT)
            .total_cmp(&b.free.weighted(1.0, VGPU_WEIGHT)),
    )
}

impl Scheduler for HybridScheduler {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        let replicas: Vec<Pin> = self.plan.replicas(ctx.key).copied().collect();
        if replicas.is_empty() || ctx.jobs.is_empty() {
            return self.inner.schedule(ctx);
        }
        let qlen = ctx.jobs.len() as u32;
        let demand = replicas[0].config.resources();
        // Repair churn first: a replica whose node drained (or a join
        // table mismatch shrank it) moves to a sibling of the same
        // server, or drops when no sibling can ever host it.
        let mut live: Vec<Pin> = Vec::with_capacity(replicas.len());
        for pin in &replicas {
            let view = ctx.cluster.nodes().get(pin.node.index());
            if view.is_some_and(|v| v.online && v.total.contains(demand)) {
                live.push(*pin);
                continue;
            }
            let taken: Vec<NodeId> = self.plan.replicas(ctx.key).map(|p| p.node).collect();
            match self.repin_target(ctx, pin.server, demand, &taken) {
                Some(node) => {
                    self.plan
                        .set_replica_node(pin.key, pin.node, node, pin.server);
                    self.pinned.repins += 1;
                    live.push(Pin { node, ..*pin });
                }
                None => {
                    self.plan.drop_replica(pin.key, pin.node);
                }
            }
        }
        if live.is_empty() {
            // Every replica's node is gone and no sibling can take
            // them: the queue is demoted to the dynamic tier for good.
            self.plan.demote(ctx.key);
            self.pinned.misses += 1;
            return self.inner.schedule(ctx);
        }
        if live.iter().any(|p| {
            ctx.cluster
                .nodes()
                .get(p.node.index())
                .is_some_and(|v| v.fits(demand))
        }) {
            self.pinned.hits += 1;
            return Outcome::single(live[0].config.clamp_batch(qlen), 0);
        }
        // Every replica is mid-batch: this round flows through the
        // dynamic tier (a *miss*) rather than parking the queue in the
        // platform's recheck loop until a forced-minimum dispatch
        // scatters it; the pins stay for the next round.
        self.pinned.misses += 1;
        self.inner.schedule(ctx)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        // Route only the pinned configuration, and only to a replica
        // with room right now; other configs for the same queue (e.g.
        // the platform's forced-minimum fallback after repeated
        // rechecks) keep the dynamic locality placement, so a
        // temporarily full replica set never strands its queue. Among
        // free replicas, one holding a warm container wins — steady
        // traffic concentrates on warm replicas and the cold ones are
        // paid for once, on bursts, instead of re-paying a cold start
        // every time a round-robin lands on an expired container.
        let demand = config.resources();
        let free: Vec<NodeId> = self
            .plan
            .replicas(ctx.key)
            .filter(|p| config.vcpus == p.config.vcpus && config.vgpus == p.config.vgpus)
            .map(|p| p.node)
            .filter(|n| {
                ctx.cluster
                    .nodes()
                    .get(n.index())
                    .is_some_and(|v| v.fits(demand))
            })
            .collect();
        let warm = free.iter().copied().find(|n| {
            ctx.cluster
                .nodes()
                .get(n.index())
                .is_some_and(|v| v.has_warm(ctx.function))
        });
        match warm.or_else(|| free.first().copied()) {
            Some(node) => Some(node),
            None => self.inner.place(ctx, config),
        }
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        self.inner.round_policy()
    }

    fn adopt_policy(&mut self, spec: &PolicySpec) -> bool {
        self.inner.adopt_policy(spec)
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        if let SchedulerEvent::Churn { joined: true, .. } = event {
            // Joined nodes are append-only and unassigned: they serve
            // the dynamic tier but are never intra-server for a pin.
            if let Some(map) = &mut self.servers {
                map.note_join();
            }
        }
        self.inner.on_event(event);
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats().with_pinned(self.pinned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppId, SloClass};
    use esg_sim::ClusterState;
    use esg_workload::{shaped_workload_with, Popularity};

    fn env() -> SimEnv {
        SimEnv::standard(SloClass::Moderate)
    }

    fn workload_with(popularity: Popularity) -> Workload {
        shaped_workload_with(
            esg_model::WorkloadClass::Light,
            esg_model::TrafficShape::Steady,
            &esg_model::standard_app_ids(),
            11,
            popularity,
            60_000.0,
        )
    }

    fn skewed_workload() -> Workload {
        workload_with(Popularity::Zipf { s: 2.0 })
    }

    fn idle_state(n: u32) -> ClusterState {
        ClusterState::from_views(
            (0..n)
                .map(|i| esg_sim::NodeView::idle(NodeId(i), Resources::new(16, 7)))
                .collect(),
        )
    }

    /// A job with `slack` ms left at the test context's t = 10 ms.
    fn job(slack: f64) -> esg_sim::JobView {
        esg_sim::JobView {
            invocation: esg_model::InvocationId(0),
            ready_at_ms: 0.0,
            invocation_arrival_ms: 0.0,
            deadline_ms: 10.0 + slack,
            pred_node: None,
        }
    }

    fn mk_ctx<'a>(
        env: &'a SimEnv,
        state: &'a ClusterState,
        jobs: &'a [esg_sim::JobView],
        key: QueueKey,
        function: esg_model::FnId,
    ) -> SchedCtx<'a> {
        SchedCtx {
            now_ms: 10.0,
            key,
            jobs,
            function,
            slo_ms: env.slo_ms(key.app),
            base_latency_ms: env.base_latency_ms(key.app),
            queue_interval_ms: None,
            cluster: state,
            profiles: &env.profiles,
            apps: &env.apps,
            catalog: &env.catalog,
            price: &env.price,
            transfer: &env.transfer,
            noise: &env.noise,
        }
    }

    #[test]
    fn planner_pins_only_the_skewed_head_within_one_server() {
        let env = env();
        let cluster = ClusterSpec::paper().with_topology(4, 10.0);
        let cfg = PinningConfig::default();
        let plan = PinPlanner::new(cfg).plan(&env, &cluster, &skewed_workload());
        assert!(!plan.is_empty(), "zipf-2 traffic must produce pins");
        assert!(plan.total_vgpus() <= cfg.budget_vgpus);
        // Whole workflows, intra-server: every pinned app has all its
        // stages pinned, all on one server.
        let apps: std::collections::BTreeSet<u32> =
            plan.pins().iter().map(|p| p.key.app.0).collect();
        assert!(apps.len() <= cfg.max_pinned_apps);
        for &a in &apps {
            let pins: Vec<&Pin> = plan.pins().iter().filter(|p| p.key.app.0 == a).collect();
            // Every stage is covered (replicas may add extra pins), and
            // replicas of one stage sit on distinct nodes.
            let covered: std::collections::BTreeSet<usize> =
                pins.iter().map(|p| p.key.stage).collect();
            assert_eq!(covered.len(), env.apps[a as usize].num_stages());
            for &stage in &covered {
                let nodes: std::collections::BTreeSet<NodeId> = pins
                    .iter()
                    .filter(|p| p.key.stage == stage)
                    .map(|p| p.node)
                    .collect();
                let count = pins.iter().filter(|p| p.key.stage == stage).count();
                assert_eq!(nodes.len(), count, "replicas share a node");
            }
            let server = pins[0].server.expect("topology declared");
            assert!(pins.iter().all(|p| p.server == Some(server)));
            let map = ServerMap::from_spec(&cluster).expect("topology declared");
            assert!(pins.iter().all(|p| map.server_of(p.node) == Some(server)));
        }
    }

    #[test]
    fn uniform_traffic_yields_an_empty_plan() {
        let env = env();
        let cluster = ClusterSpec::paper().with_topology(4, 10.0);
        let workload = workload_with(Popularity::Uniform);
        let plan = PinPlanner::new(PinningConfig::default()).plan(&env, &cluster, &workload);
        assert!(plan.is_empty(), "factor 1.5 must reject uniform shares");
    }

    #[test]
    fn a_head_too_hot_for_one_slice_is_left_to_the_dynamic_tier() {
        let env = env();
        let cluster = ClusterSpec::paper().with_topology(4, 10.0);
        // The same zipf-2 mix at Heavy density: the head's arrival rate
        // outruns every profiled configuration's batch/latency
        // throughput, so a pin would funnel half the cluster's traffic
        // through one saturated slice. The planner must pass on it.
        let workload = shaped_workload_with(
            esg_model::WorkloadClass::Heavy,
            esg_model::TrafficShape::Steady,
            &esg_model::standard_app_ids(),
            11,
            Popularity::Zipf { s: 2.0 },
            60_000.0,
        );
        let plan = PinPlanner::new(PinningConfig::default()).plan(&env, &cluster, &workload);
        let light =
            PinPlanner::new(PinningConfig::default()).plan(&env, &cluster, &skewed_workload());
        assert!(
            plan.total_vgpus() < light.total_vgpus(),
            "heavy traffic must pin strictly less than light ({} vs {})",
            plan.total_vgpus(),
            light.total_vgpus()
        );
    }

    #[test]
    fn a_tight_budget_skips_whole_apps_not_stages() {
        let env = env();
        let cluster = ClusterSpec::paper().with_topology(4, 10.0);
        let cfg = PinningConfig {
            budget_vgpus: 1,
            ..PinningConfig::default()
        };
        let plan = PinPlanner::new(cfg).plan(&env, &cluster, &skewed_workload());
        // One vGPU cannot hold any multi-stage app: nothing half-pinned.
        assert!(plan.is_empty());
    }

    #[test]
    fn pinned_queues_dispatch_to_the_pin_with_zero_search() {
        let env = env();
        let cluster = ClusterSpec::paper().with_topology(4, 10.0);
        let mut h =
            HybridScheduler::planned(PinningConfig::default(), &env, &cluster, &skewed_workload());
        let pin = *h.plan().pins().first().expect("plan is non-empty");
        let state = idle_state(16);
        let jobs = vec![job(500.0)];
        let ctx = mk_ctx(&env, &state, &jobs, pin.key, pin.function);
        let out = h.schedule(&ctx);
        assert_eq!(out.expansions, 0, "pinned hits never search");
        assert_eq!(out.candidates, vec![pin.config.clamp_batch(1)]);
        let node = h.place(&ctx, out.candidates[0]).expect("idle node fits");
        assert_eq!(node, pin.node);
        assert_eq!(h.stats().pinned.hits, 1);
        assert_eq!(h.stats().pinned.misses, 0);
    }

    #[test]
    fn a_drained_pin_repins_within_the_server_then_demotes() {
        let env = env();
        let cluster = ClusterSpec::paper().with_topology(4, 10.0);
        let mut h =
            HybridScheduler::planned(PinningConfig::default(), &env, &cluster, &skewed_workload());
        let pin = *h.plan().pins().first().expect("plan is non-empty");
        let server = pin.server.expect("topology declared");
        let map = ServerMap::from_spec(&cluster).expect("topology declared");
        let mut state = idle_state(16);
        // Drain the pinned node only: the pin must move to a sibling.
        state.node_mut(pin.node).online = false;
        state.node_mut(pin.node).free = Resources::ZERO;
        let jobs = vec![job(500.0)];
        let out = h.schedule(&mk_ctx(&env, &state, &jobs, pin.key, pin.function));
        assert!(!out.candidates.is_empty());
        let moved = *h.plan().get(pin.key).expect("still pinned");
        assert_ne!(moved.node, pin.node);
        assert_eq!(map.server_of(moved.node), Some(server), "sibling re-pin");
        assert_eq!(h.pinned_stats().repins, 1);
        assert_eq!(h.pinned_stats().hits, 1);
        // Now drain the whole server: the pin demotes, ESG takes over.
        for n in map.nodes_of(server) {
            state.node_mut(n).online = false;
            state.node_mut(n).free = Resources::ZERO;
        }
        let out = h.schedule(&mk_ctx(&env, &state, &jobs, pin.key, pin.function));
        assert!(
            !out.candidates.is_empty(),
            "demoted queue still gets ESG candidates"
        );
        assert!(out.expansions > 0, "the dynamic tier searched");
        assert!(h.plan().get(pin.key).is_none(), "pin demoted");
        assert_eq!(h.pinned_stats().misses, 1);
    }

    #[test]
    fn empty_plan_delegates_everything_to_esg() {
        let env = env();
        let state = idle_state(4);
        let jobs = vec![job(500.0)];
        let key = QueueKey {
            app: AppId(0),
            stage: 0,
        };
        let ctx = mk_ctx(&env, &state, &jobs, key, env.apps[0].nodes[0]);
        let mut hybrid = HybridScheduler::new(PinPlan::empty());
        let mut esg = EsgScheduler::new();
        let ho = hybrid.schedule(&ctx);
        let eo = esg.schedule(&ctx);
        assert_eq!(ho.candidates, eo.candidates);
        assert_eq!(ho.expansions, eo.expansions);
        assert_eq!(
            hybrid.place(&ctx, ho.candidates[0]),
            esg.place(&ctx, eo.candidates[0])
        );
        // Stats gate: all-zero pinned counters print nothing, so the
        // stats Debug rendering matches ESG's exactly.
        assert_eq!(
            format!("{:?}", hybrid.stats()),
            format!("{:?}", esg.stats())
        );
    }
}
