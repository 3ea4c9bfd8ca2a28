//! Control-plane scale bench: round-driver throughput vs shard count at
//! 10k–1M queues.
//!
//! The classic round driver's cost per decision is dominated by the
//! eligible scan: every controller round walks *all* queues to find the
//! pending ones, then the classic fast path decides exactly one. The
//! sharded control plane (`SimConfig::shards`) partitions the queues so
//! each shard's round walks only its own slice — an algorithmic
//! `O(Q) → O(Q/N)` cut per decision that needs no extra cores. This
//! target measures that effect on the real machinery: the driver below
//! replicates the platform's staging/commit structure (eligible scan →
//! `QueueView` build → [`ShardedController::stage`] with an O(1) probe
//! scheduler → generation-validated [`ClusterState::try_commit`]) over
//! synthetic queue populations far beyond what end-to-end simulation can
//! reach.
//!
//! Contention is real, not simulated: all shards stage against the same
//! snapshot, so they converge on the same most-free node, and commits
//! past its capacity are generation conflicts that retry — the reported
//! conflict rate is the optimistic-concurrency price of sharding.
//!
//! Per case, a separate instrumented pass records per-decision latency
//! (p99) and the commit/conflict split; both land in `BENCH_scale.json`
//! next to the criterion medians and in the "Control-plane scale"
//! tables of `EXPERIMENTS.md` (`<!-- BENCH:scale:begin/end -->`).
//!
//! The committed `bench_results/BENCH_scale.json` is a CI perf-gate
//! baseline (like `overhead`); `ESG_SMOKE=1` cuts the sample count
//! only, keeping case labels and per-iteration work identical so smoke
//! runs stay comparable to the committed full run.
//!
//! # End-to-end streaming replay
//!
//! The `scale/replay/*` cases drive the *whole* platform — streamed
//! Azure-shaped arrivals pulled lazily from an `ArrivalStream`, the ESG
//! scheduler, the round/shard drivers, arena-backed invocation/task
//! state, and the selected event-queue backend — through ≥1M
//! invocations per full-mode sample (`ESG_SMOKE=1` replays a shorter
//! trace window; medians are reported *per invocation*, so smoke and
//! full runs stay label- and scale-comparable for the perf gate). Each
//! replay also asserts the engine's constant-memory promise: the arena
//! and event-queue high-water marks must stay under a fixed ceiling
//! regardless of replay length.

use criterion::{BenchmarkId, Criterion};
use esg_bench::{render_scale_markdown, section, update_experiments_md, write_json};
use esg_core::EsgScheduler;
use esg_model::{AppId, Config, FnId, InvocationId, NodeId, Resources, SloClass};
use esg_sim::{
    Capabilities, ClusterState, EventQueueKind, JobView, MemoryFootprint, NodeView, Outcome,
    QueueKey, QueueView, RoundCtx, SchedCtx, Scheduler, ShardStats, ShardedController, SimConfig,
    SimEnv, Simulation,
};
use esg_workload::AzureLikeTrace;
use serde_json::json;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Queue-population axis (the controller's scan burden).
const QUEUES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// Shard-count axis.
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Commit attempts per measured iteration (fixed across the whole grid
/// so medians are directly comparable; throughput = attempts / median).
const DECISIONS_PER_ITER: usize = 64;
/// Decisions in the separate instrumented (p99 + conflict-rate) pass.
const INSTRUMENTED_DECISIONS: usize = 256;
/// Cluster size backing every case (a realistic control-plane fan-in:
/// queue counts outgrow node counts by orders of magnitude).
const NODES: usize = 64;
/// Per-dispatch demand. Seven fit per node, so an eight-shard staging
/// batch converging on the same most-free node genuinely overflows it —
/// the conflict path is exercised, not hypothesised.
const DEMAND: Resources = Resources::new(2, 1);
/// In-flight dispatch cap: completions (FIFO release) keep the cluster
/// at this occupancy, below the 64 × 7 slot capacity.
const IN_FLIGHT_CAP: usize = 384;
/// Steady-state pending queues (conserved: each commit drains one queue
/// and activates another through a striding cursor).
const PENDING: usize = 1_024;

/// Azure-trace window replayed per full-mode sample, minutes. At the
/// trace's ~2.5k arrivals/min this crosses one million invocations
/// (asserted below); the rate sits just under the paper cluster's
/// capacity so the backlog plateaus instead of growing.
const REPLAY_MINUTES_FULL: usize = 400;
/// Smoke-mode trace window: same labels and per-invocation metric,
/// CI-sized work.
const REPLAY_MINUTES_SMOKE: usize = 20;
/// Constant-memory ceiling for a replay, in arena entries / pending
/// events. Live state tracks the steady-state backlog (~1k invocations
/// plus burst spikes), never the replay length — a millionfold replay
/// must stay under the same fixed bound as a smoke run.
const REPLAY_MEMORY_CEILING: usize = 32_768;

/// One replay case: event-queue backend plus round-driver sharding.
struct ReplayCase {
    label: &'static str,
    kind: EventQueueKind,
    shards: usize,
}

const REPLAY_CASES: [ReplayCase; 3] = [
    ReplayCase {
        label: "scale/replay/heap",
        kind: EventQueueKind::Heap,
        shards: 1,
    },
    ReplayCase {
        label: "scale/replay/wheel",
        kind: EventQueueKind::Wheel,
        shards: 1,
    },
    ReplayCase {
        label: "scale/replay/wheel-s4",
        kind: EventQueueKind::Wheel,
        shards: 4,
    },
];

/// The Azure-shaped replay workload: diurnal cycle, rare 3× bursts,
/// lognormal-ish dispersion, mean pinned below cluster capacity.
fn replay_trace() -> AzureLikeTrace {
    AzureLikeTrace {
        mean_per_minute: 2_500.0,
        period_minutes: 120.0,
        burst_probability: 0.02,
        seed: 42,
        ..AzureLikeTrace::default()
    }
}

/// Result of one timed replay sample.
struct ReplaySample {
    wall_ns: u64,
    arrivals: u64,
    completed: u64,
    shed: u64,
    footprint: MemoryFootprint,
}

/// Streams `minutes` of the Azure trace through the full platform with
/// the ESG scheduler on the given backend/shard configuration.
fn run_replay(case: &ReplayCase, minutes: usize) -> ReplaySample {
    let env = SimEnv::standard(SloClass::Moderate);
    let cfg = SimConfig {
        seed: 42,
        event_queue: case.kind,
        shards: case.shards,
        force_sharded: case.shards > 1,
        ..SimConfig::default()
    };
    let stream = replay_trace().stream(esg_model::standard_app_ids(), Some(minutes));
    let mut sched = EsgScheduler::new();
    let t0 = Instant::now();
    let (r, footprint) =
        Simulation::from_stream(&env, cfg, &mut sched, stream).run_with_footprint();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    ReplaySample {
        wall_ns,
        arrivals: r.arrivals,
        completed: r.total_completed(),
        shed: r.shed_invocations,
        footprint,
    }
}

/// O(1) probe scheduler: the measured cost is the driver itself — scan,
/// view build, staging, commit — not a placement search.
struct Probe;

impl Scheduler for Probe {
    fn name(&self) -> &'static str {
        "scale-probe"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            gpu_sharing: true,
            inter_function_relation: false,
            adaptive: false,
            data_locality: false,
            pre_warming: false,
        }
    }

    fn schedule(&mut self, _ctx: &SchedCtx<'_>) -> Outcome {
        Outcome::single(Config::MIN, 1)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        ctx.cluster.most_free(config.resources())
    }
}

/// One staged decision: a queue picked by the shard's round plus the
/// placement it chose from its generation-stamped snapshot.
struct Staged {
    qi: usize,
    node: NodeId,
    staged_gen: u64,
}

/// The platform-shaped synthetic driver: `Q` queues partitioned across
/// `N` shards over a shared 64-node [`ClusterState`].
struct ScaleDriver {
    keys: Vec<QueueKey>,
    ctl: ShardedController,
    /// Jobs pending per queue; `> 0` marks the queue eligible.
    depth: Vec<u32>,
    state: ClusterState,
    env: SimEnv,
    jobs: Vec<JobView>,
    /// FIFO of uncompleted dispatches; popping one models a completion.
    in_flight: VecDeque<NodeId>,
    activate_cursor: usize,
    probe: Probe,
    commits: u64,
    conflicts: u64,
}

impl ScaleDriver {
    fn new(queues: usize, shards: usize) -> ScaleDriver {
        let keys: Vec<QueueKey> = (0..queues)
            .map(|i| QueueKey {
                app: AppId(i as u32),
                stage: 0,
            })
            .collect();
        let ctl = ShardedController::new(shards, &keys, None);
        let mut depth = vec![0u32; queues];
        let stride = (queues / PENDING).max(1);
        for p in 0..PENDING.min(queues) {
            depth[p * stride] = 1;
        }
        let nodes: Vec<NodeView> = (0..NODES)
            .map(|i| NodeView::idle(NodeId(i as u32), Resources::new(16, 7)))
            .collect();
        let jobs = vec![JobView {
            invocation: InvocationId(0),
            ready_at_ms: 5.0,
            invocation_arrival_ms: 0.0,
            deadline_ms: 510.0, // 500 ms of slack at now_ms = 10
            pred_node: None,
        }];
        ScaleDriver {
            keys,
            ctl,
            depth,
            state: ClusterState::from_views(nodes),
            env: SimEnv::standard(SloClass::Moderate),
            jobs,
            in_flight: VecDeque::with_capacity(IN_FLIGHT_CAP + 1),
            activate_cursor: 1, // off the initial pending stride
            probe: Probe,
            commits: 0,
            conflicts: 0,
        }
    }

    /// Marks another queue pending (the arrival feed), striding across
    /// the key space so every shard keeps a populated partition.
    fn activate(&mut self) {
        self.activate_cursor = (self.activate_cursor + 7_919) % self.keys.len();
        self.depth[self.activate_cursor] += 1;
    }

    /// One shard's staging round: scan the partition for eligible
    /// queues, build their views, stage through the controller, and
    /// stamp the decision with the state generation — the platform's
    /// staging phase over synthetic queues.
    fn stage_shard(&mut self, shard: usize) -> Option<Staged> {
        let eligible: Vec<usize> = self
            .ctl
            .members(shard)
            .iter()
            .copied()
            .filter(|&qi| self.depth[qi] > 0)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let mut queues: Vec<QueueView<'_>> = Vec::with_capacity(eligible.len());
        for &qi in &eligible {
            queues.push(QueueView {
                key: self.keys[qi],
                jobs: &self.jobs,
                function: FnId((qi % 6) as u32),
                slo_ms: 1_000.0,
                base_latency_ms: 200.0,
                queue_interval_ms: None,
            });
        }
        let ctx = RoundCtx {
            now_ms: 10.0,
            queues: &queues,
            cluster: &self.state,
            profiles: &self.env.profiles,
            apps: &self.env.apps,
            catalog: &self.env.catalog,
            price: &self.env.price,
            transfer: &self.env.transfer,
            noise: &self.env.noise,
            dataplane: None,
            servers: None,
        };
        let decisions = self.ctl.stage(shard, &mut self.probe, &ctx);
        let key = decisions.first()?.0;
        // The placement the shard would hand the dispatcher, chosen from
        // its snapshot; the commit step re-validates it.
        let node = self.state.most_free(DEMAND)?;
        Some(Staged {
            // Keys are built with `app == index`, so the decision maps
            // straight back to its queue slot.
            qi: key.app.0 as usize,
            node,
            staged_gen: self.state.generation(),
        })
    }

    /// Ordered-commit step for one staged decision: re-validate against
    /// the live state; a failure after the generation moved is a
    /// cross-shard conflict (the queue stays pending and is re-staged).
    fn commit(&mut self, st: Staged) {
        let moved = self.state.moved_since(st.staged_gen);
        if self.state.try_commit(st.node, DEMAND) {
            self.commits += 1;
            self.depth[st.qi] = self.depth[st.qi].saturating_sub(1);
            self.activate();
            self.in_flight.push_back(st.node);
            if self.in_flight.len() > IN_FLIGHT_CAP {
                // Completion: the oldest dispatch releases its resources
                // (and bumps the generation, as platform completions do).
                let done = self.in_flight.pop_front().expect("non-empty");
                let v = self.state.node_mut(done);
                v.free += DEMAND;
            }
        } else {
            debug_assert!(moved, "a commit can only fail after the state moved");
            self.conflicts += 1;
        }
    }

    /// Runs `target` commit attempts through staged batches: every shard
    /// stages one decision against the same snapshot epoch, then the
    /// batch commits in shard order — the platform's two-phase loop.
    fn run_decisions(&mut self, target: usize) {
        let shards = self.ctl.shards();
        let mut done = 0usize;
        while done < target {
            let staged: Vec<Staged> = (0..shards).filter_map(|s| self.stage_shard(s)).collect();
            if staged.is_empty() {
                for _ in 0..shards {
                    self.activate();
                }
                continue;
            }
            for st in staged {
                self.commit(st);
                done += 1;
            }
        }
    }

    /// Instrumented variant: per-decision wall latency (its shard's
    /// staging plus its own commit), nanoseconds.
    fn run_instrumented(&mut self, target: usize) -> Vec<u64> {
        let shards = self.ctl.shards();
        let mut lat = Vec::with_capacity(target);
        while lat.len() < target {
            let mut staged: Vec<(Staged, u64)> = Vec::with_capacity(shards);
            for s in 0..shards {
                let t0 = Instant::now();
                let st = self.stage_shard(s);
                let stage_ns = t0.elapsed().as_nanos() as u64;
                if let Some(st) = st {
                    staged.push((st, stage_ns));
                }
            }
            if staged.is_empty() {
                for _ in 0..shards {
                    self.activate();
                }
                continue;
            }
            for (st, stage_ns) in staged {
                let t0 = Instant::now();
                self.commit(st);
                lat.push(stage_ns + t0.elapsed().as_nanos() as u64);
            }
        }
        lat
    }

    fn stats(&self) -> ShardStats {
        let mut s = self.ctl.stats();
        s.commits = self.commits;
        s.conflicts = self.conflicts;
        s.retries = self.conflicts; // every conflicted queue is re-staged
        s
    }
}

/// Case coordinates recorded next to each criterion report.
struct CaseMeta {
    label: String,
    queues: usize,
    shards: usize,
    p99_ns: u64,
    conflict_rate: f64,
    commits: u64,
    conflicts: u64,
}

fn main() {
    let smoke = std::env::var("ESG_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    // Smoke cuts samples only: per-iteration work and labels match the
    // committed full-run baseline the perf gate compares against.
    let samples = if smoke { 15 } else { 40 };
    section(if smoke {
        "Control-plane scale: dispatch throughput vs shard count (smoke mode)"
    } else {
        "Control-plane scale: dispatch throughput vs shard count"
    });

    let mut c = Criterion::default().sample_size(samples);
    let mut metas: Vec<CaseMeta> = Vec::new();

    {
        let mut group = c.benchmark_group("scale");
        for &q in &QUEUES {
            for &n in &SHARDS {
                let mut driver = ScaleDriver::new(q, n);
                // Reach steady state: saturate the in-flight window so
                // measured iterations include completions and conflicts.
                driver.run_decisions(IN_FLIGHT_CAP + 128);
                let param = format!("q{q}/s{n}");
                group.bench_with_input(BenchmarkId::new("driver", &param), &(), |b, _| {
                    b.iter(|| {
                        driver.run_decisions(DECISIONS_PER_ITER);
                        black_box(driver.commits)
                    })
                });
                // Instrumented pass on the same warmed driver: p99
                // per-decision latency and the commit/conflict split.
                driver.commits = 0;
                driver.conflicts = 0;
                let mut lat = driver.run_instrumented(INSTRUMENTED_DECISIONS);
                lat.sort_unstable();
                let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
                let stats = driver.stats();
                metas.push(CaseMeta {
                    label: format!("scale/driver/{param}"),
                    queues: q,
                    shards: n,
                    p99_ns: p99,
                    conflict_rate: stats.conflict_rate(),
                    commits: stats.commits,
                    conflicts: stats.conflicts,
                });
            }
        }
        group.finish();
    }

    // End-to-end streaming replay: ≥1M Azure-shaped invocations per
    // full-mode sample through the real platform. Timed outside
    // criterion (a sample is tens of seconds, not microseconds); the
    // reported median is normalized *per invocation* so smoke and full
    // runs compare under the same case labels.
    let replay_samples = if smoke { 1 } else { 3 };
    let replay_minutes = if smoke {
        REPLAY_MINUTES_SMOKE
    } else {
        REPLAY_MINUTES_FULL
    };
    println!("\nbench group: scale/replay ({replay_minutes} trace minutes per sample)");
    let mut replay_cases: Vec<serde_json::Value> = Vec::new();
    let mut replay_arrivals: Vec<u64> = Vec::new();
    for case in &REPLAY_CASES {
        let mut samples_ns: Vec<f64> = Vec::new();
        let mut last: Option<ReplaySample> = None;
        for _ in 0..replay_samples {
            let s = run_replay(case, replay_minutes);
            assert_eq!(
                s.arrivals,
                s.completed + s.shed,
                "{}: replay stranded work",
                case.label
            );
            if !smoke {
                assert!(
                    s.arrivals >= 1_000_000,
                    "{}: full replay must cross one million invocations (got {})",
                    case.label,
                    s.arrivals
                );
            }
            // The constant-memory promise: live state tracks the
            // backlog, never the replay length.
            let fp = s.footprint;
            for (what, n) in [
                ("invocation arena", fp.invocation_slots),
                ("task arena", fp.task_slots),
                ("event queue", fp.peak_pending_events),
            ] {
                assert!(
                    n < REPLAY_MEMORY_CEILING,
                    "{}: {what} grew past the replay memory ceiling ({n} >= {REPLAY_MEMORY_CEILING})",
                    case.label
                );
            }
            samples_ns.push(s.wall_ns as f64 / s.arrivals as f64);
            last = Some(s);
        }
        let last = last.expect("at least one replay sample");
        samples_ns.sort_by(f64::total_cmp);
        let median_ns = samples_ns[samples_ns.len() / 2];
        let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let min_ns = samples_ns[0];
        println!(
            "  {:<28} {:>8.0} ns/invocation  {:>9.0} inv/s  ({} invocations, peak {} live)",
            case.label,
            median_ns,
            1e9 / median_ns,
            last.arrivals,
            last.footprint.peak_live_invocations,
        );
        replay_arrivals.push(last.arrivals);
        replay_cases.push(json!({
            "case": (case.label),
            "kind": "replay",
            "event_queue": (format!("{:?}", case.kind).to_lowercase()),
            "shards": (case.shards),
            "invocations": (last.arrivals),
            "trace_minutes": replay_minutes,
            "median_ns": median_ns,
            "mean_ns": mean_ns,
            "min_ns": min_ns,
            "samples": replay_samples,
            "invocations_per_sec": (1e9 / median_ns),
            "peak_live_invocations": (last.footprint.peak_live_invocations),
            "invocation_slots": (last.footprint.invocation_slots),
            "task_slots": (last.footprint.task_slots),
            "peak_pending_events": (last.footprint.peak_pending_events),
            "completed": (last.completed),
            "shed": (last.shed),
        }));
    }
    // Every backend/shard combination replays the same stream: identical
    // arrival counts are the cheap cross-check (full trace equivalence
    // is pinned by tests/replay_equivalence.rs).
    assert!(
        replay_arrivals.windows(2).all(|w| w[0] == w[1]),
        "replay cases diverged on arrival count: {replay_arrivals:?}"
    );

    // Assemble the artifact from the collected reports.
    let median = |label: &str| {
        c.reports()
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.median_ns)
            .unwrap_or(0.0)
    };
    let throughput = |m: &CaseMeta| {
        let med = median(&m.label);
        if med <= 0.0 {
            return 0.0;
        }
        DECISIONS_PER_ITER as f64 * (1.0 - m.conflict_rate) / (med * 1e-9)
    };
    let mut cases: Vec<serde_json::Value> = metas
        .iter()
        .map(|m| {
            let r = c
                .reports()
                .iter()
                .find(|r| r.label == m.label)
                .unwrap_or_else(|| panic!("no report for case {}", m.label));
            json!({
                "case": (m.label.clone()),
                "kind": "driver",
                "queues": (m.queues),
                "shards": (m.shards),
                "median_ns": (r.median_ns),
                "mean_ns": (r.mean_ns),
                "min_ns": (r.min_ns),
                "samples": (r.samples),
                "decisions_per_iter": DECISIONS_PER_ITER,
                "dispatches_per_sec": (throughput(m)),
                "p99_decision_ns": (m.p99_ns),
                "conflict_rate": (m.conflict_rate),
                "commits": (m.commits),
                "conflicts": (m.conflicts),
            })
        })
        .collect();
    cases.extend(replay_cases);
    let doc = json!({
        "suite": "scale",
        "samples": samples,
        "smoke": smoke,
        "cases": cases,
    });
    write_json("BENCH_scale", &doc);
    if smoke {
        eprintln!("[md] smoke mode: skipping EXPERIMENTS.md update");
    } else {
        update_experiments_md("scale", &render_scale_markdown(&doc));
    }

    // Headline + acceptance: dispatches/sec must rise monotonically with
    // the shard count at 100k+ queues, and the best shard count must
    // clear 2× the single-shard driver (full runs only; smoke medians on
    // loaded CI boxes are guarded by the perf gate instead).
    for &q in &QUEUES {
        let row: Vec<(usize, f64, f64)> = SHARDS
            .iter()
            .map(|&n| {
                let m = metas
                    .iter()
                    .find(|m| m.queues == q && m.shards == n)
                    .expect("measured case");
                (n, throughput(m), m.conflict_rate)
            })
            .collect();
        let base = row[0].1;
        let best = row.iter().map(|r| r.1).fold(0.0, f64::max);
        println!(
            "\nqueues {q}: 1-shard {base:.0} dispatches/s, best {best:.0} ({:.2}×)",
            best / base
        );
        for (n, tput, rate) in &row {
            println!(
                "  s{n}: {tput:>12.0} dispatches/s  conflict rate {:.2}%",
                rate * 100.0
            );
        }
        if !smoke && q >= 100_000 {
            for w in row.windows(2) {
                assert!(
                    // 2% grace: adjacent shard counts at small Q can sit
                    // within wall-clock noise of each other.
                    w[1].1 >= w[0].1 * 0.98,
                    "dispatch throughput not monotone in shard count at {q} queues: \
s{} {:.0}/s → s{} {:.0}/s",
                    w[0].0,
                    w[0].1,
                    w[1].0,
                    w[1].1
                );
            }
            assert!(
                best >= base * 2.0,
                "sharding won less than 2× at {q} queues (best {best:.0}/s vs {base:.0}/s)"
            );
        }
    }
}
