//! Contended data-plane golden digest: pins the *outcomes* of runs whose
//! transfers really contend, across commits.
//!
//! `tests/dataplane_equivalence.rs` proves the infinite-bandwidth plane
//! matches the scalar model, but not what a contended run produces. This
//! suite does: for every cell it stores an FNV fingerprint of the
//! dispatch trace and of the canonical `ExperimentResult` (wall-clock
//! overhead cleared; the `TransferSummary` with its replan, queueing and
//! cross-server counters is part of the dump), a second fingerprint of
//! that result with the plan-cache counters zeroed (`masked=`: the
//! simulated outcome alone, independent of the memo's eviction policy),
//! plus the plane's headline counters in clear text so a divergence
//! reads at a glance.
//!
//! Cells:
//! * `tor-steady` / `tor-bursty` — the paper cluster behind 4-GPU
//!   servers with narrow 0.05 MB/ms ToR uplinks (the benchmark's
//!   `tor-contended` cell, shortened), the replan-storm regime;
//! * `slow-queued` — a narrow-fabric cluster with staging buffers scaled
//!   to 1e-3, so admissions queue and activate FIFO on completions;
//! * `tor-churn` — the ToR cluster with a node drained and a node
//!   joined mid-run, so the plane grows after construction.
//!
//! Provenance: `tests/golden/dataplane_contended.digest` was blessed on
//! the `BTreeMap`-scan data plane (every membership change walked every
//! live flow), before the per-pool member index replaced that scan. The
//! index must reproduce it bit for bit. The `masked=` column was added
//! later on the same code, with every other column byte-identical. When
//! the plan memo moved from LRU to cost-aware (GreedyDual) eviction, only
//! `result=` was re-blessed on the ToR cells whose memo evicts: the
//! eviction counters and search count it hashes moved, while `trace=`,
//! `masked=` and the clear-text counters stayed byte-identical. When the
//! memo's default bound went from 512 to 2048 entries, `result=` of the
//! `tor-steady` and `tor-bursty` rows moved again for the same reason,
//! and nothing else did. Each cell once had a second row on the timer
//! wheel, a byte-copy of its heap row; those rows went with the wheel,
//! and the second column still reads `Heap` so the remaining rows are
//! byte-identical to their blessed form. Regenerate with `ESG_BLESS=1 cargo test --test dataplane_golden` —
//! only from a commit whose data-plane behaviour is the agreed baseline,
//! noting the provenance here.

mod support;

use esg::prelude::*;
use support::{fnv64, Traced};

/// Simulated arrival window per ToR cell, ms: long enough that each
/// logs thousands of replans, short enough for a debug `cargo test`.
const TOR_RUN_MS: f64 = 30_000.0;

/// Arrival window of the staging-starved cell, ms.
const SLOW_RUN_MS: f64 = 3_000.0;

/// The narrow-fabric cluster of `tests/dataplane_equivalence.rs`.
fn slow_cluster() -> ClusterSpec {
    ClusterSpec::new("slow-fabric").with(
        NodeClass::t4()
            .with_bandwidth(0.05, 0.05, 0.5)
            .with_staging_mb(64.0),
        6,
    )
}

/// One golden cell: cluster, churn, traffic shape, plane knobs, window.
struct Cell {
    name: &'static str,
    spec: ClusterSpec,
    churn: ChurnPlan,
    shape: TrafficShape,
    plane: DataPlaneConfig,
    run_ms: f64,
}

fn cells() -> Vec<Cell> {
    let tor = ClusterSpec::paper().with_topology(4, 0.05);
    vec![
        Cell {
            name: "tor-steady",
            spec: tor.clone(),
            churn: ChurnPlan::none(),
            shape: TrafficShape::Steady,
            plane: DataPlaneConfig::default(),
            run_ms: TOR_RUN_MS,
        },
        Cell {
            name: "tor-bursty",
            spec: tor.clone(),
            churn: ChurnPlan::none(),
            shape: TrafficShape::Bursty,
            plane: DataPlaneConfig::default(),
            run_ms: TOR_RUN_MS,
        },
        Cell {
            name: "slow-queued",
            spec: slow_cluster(),
            churn: ChurnPlan::none(),
            shape: TrafficShape::Bursty,
            plane: DataPlaneConfig {
                staging_scale: 1e-3,
                ..DataPlaneConfig::default()
            },
            run_ms: SLOW_RUN_MS,
        },
        Cell {
            name: "tor-churn",
            spec: tor,
            churn: ChurnPlan::none()
                .drain(TOR_RUN_MS / 3.0, NodeId(2))
                .join(TOR_RUN_MS / 2.0, NodeClass::a100()),
            shape: TrafficShape::Steady,
            plane: DataPlaneConfig::default(),
            run_ms: TOR_RUN_MS,
        },
    ]
}

/// Canonical result form: wall-clock samples are host-dependent;
/// everything else, the transfer rollup included, must reproduce
/// bit for bit.
fn canonical(mut r: ExperimentResult) -> String {
    r.wall_overhead_ms.clear();
    format!("{r:?}")
}

/// The canonical result with the plan-cache bookkeeping zeroed: the
/// search count and the memo's hit, miss and eviction counters depend
/// on the memo's eviction policy, which is host-side bookkeeping that
/// must never change what the platform simulates. This digest pins the
/// simulated outcome alone, so a memo change re-blesses `result=` but
/// must leave `masked=` byte-identical.
fn canonical_masked(mut r: ExperimentResult) -> String {
    let s = &mut r.scheduler_stats;
    s.searches = 0;
    s.plan_cache_hits = 0;
    s.plan_cache_misses = 0;
    s.plan_cache_evictions = 0;
    canonical(r)
}

fn run_cell(cell: &Cell) -> String {
    let env = SimEnv::standard(SloClass::Moderate);
    let workload = shaped_workload(
        WorkloadClass::Normal,
        cell.shape,
        &esg::model::standard_app_ids(),
        42,
        cell.run_ms,
    );
    let cfg = SimConfig {
        cluster: Some(cell.spec.clone()),
        churn: cell.churn.clone(),
        warmup_exclude_ms: cell.run_ms * 0.25,
        seed: 42,
        data_plane: Some(cell.plane),
        ..SimConfig::default()
    };
    let mut sched = Traced::new(Box::new(EsgScheduler::new()));
    let r = run_simulation(&env, cfg, &mut sched, &workload, "dataplane-golden");
    let t = &r.transfers;
    format!(
        "{}|Heap|trace={:016x}|result={:016x}|masked={:016x}|completed={}|\
transfers={}|replans={}|queued={}|cross_server_mb={}",
        cell.name,
        fnv64(&sched.trace()),
        fnv64(&canonical(r.clone())),
        fnv64(&canonical_masked(r.clone())),
        r.total_completed(),
        t.completed,
        t.replans,
        t.queued,
        t.cross_server_mb,
    )
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/dataplane_contended.digest")
}

#[test]
fn contended_cells_match_golden_digest() {
    let mut digest = String::new();
    for cell in &cells() {
        digest.push_str(&run_cell(cell));
        digest.push('\n');
    }
    let path = golden_path();
    if std::env::var("ESG_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &digest).expect("write golden digest");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).expect(
        "golden digest missing — run ESG_BLESS=1 cargo test --test dataplane_golden \
from the agreed baseline commit",
    );
    // Line-by-line comparison so a divergence names its cell.
    for (got, want) in digest.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "contended data-plane outcome diverged on this cell"
        );
    }
    assert_eq!(
        digest.lines().count(),
        golden.lines().count(),
        "cell count changed"
    );
    // The cells must exercise what they are named for.
    for line in digest.lines() {
        let field = |key: &str| -> f64 {
            line.split('|')
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .expect("digest field present")
        };
        if line.starts_with("tor-") {
            assert!(field("replans=") >= 1_000.0, "ToR cell must replan: {line}");
            assert!(field("cross_server_mb=") > 0.0, "{line}");
        }
        if line.starts_with("slow-queued") {
            assert!(field("queued=") > 0.0, "staging must queue: {line}");
        }
    }
}
