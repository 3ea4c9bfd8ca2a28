//! The benchmark's three workloads: what each one feeds the platform and
//! how a run of it is configured. README.md says why each was chosen.
//!
//! Arrivals are open-loop in simulated time: every schedule below is fixed
//! by its generator and seed, whatever the platform does with it.

use esg_bench::{standard_config, RUN_SECONDS};
use esg_model::{standard_app_ids, ClusterSpec, Scenario, TrafficShape};
use esg_sim::{DataPlaneConfig, SimConfig, SimEnv};
use esg_workload::{shaped_stream, ArrivalStream, AzureLikeTrace, Workload};

/// Trace-minutes of the Azure-shaped replay. Peak RSS grows with this
/// length (about 1.3 MB per trace-minute), so it is fixed here rather
/// than scaled to the machine.
pub const REPLAY_MINUTES: usize = 60;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The streamed Azure-shaped replay of the `scale/replay` bench.
    AzureReplay,
    /// `relaxed-heavy` under bursty traffic on the paper cluster.
    HeavyBursty,
    /// `moderate-normal` steady traffic on 4-GPU servers behind narrow
    /// ToR uplinks, with the contended data plane on.
    TorContended,
}

/// Where a run's arrivals come from.
pub enum Arrivals {
    /// Pulled lazily by the platform as simulated time advances.
    Streamed(Box<ArrivalStream>),
    /// Generated up front, as the sweep engine does for its cells.
    Materialised(Workload),
}

/// Arrival counts of one drained stream.
pub struct ArrivalCount {
    /// Every arrival the run will receive.
    pub total: u64,
    /// Arrivals at or after the warm-up window (the ones metrics count).
    pub measured: u64,
}

impl WorkloadKind {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::AzureReplay,
        WorkloadKind::HeavyBursty,
        WorkloadKind::TorContended,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::AzureReplay => "azure-replay",
            WorkloadKind::HeavyBursty => "heavy-bursty",
            WorkloadKind::TorContended => "tor-contended",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload seeds one benchmark run simulates. The first is the
    /// benchmark's `--seed` itself, so seed 42 reproduces the committed
    /// bench artifacts; the rest are derived from it, so the same
    /// `--seed` always yields the same inputs. Simulated outcomes are the
    /// median over these seeds: one seed's tail latency and SLO hit rate
    /// swing with its bursts, the median of several does not.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        let count = match self {
            WorkloadKind::AzureReplay => 5,
            WorkloadKind::HeavyBursty => 9,
            WorkloadKind::TorContended => 15,
        };
        (0..count)
            .map(|i| seed.wrapping_add(i * 0x9e37_79b9_7f4a_7c15))
            .collect()
    }

    /// The SLO class and arrival intensity. The Azure replay takes only
    /// the SLO class from it (moderate, as the `scale/replay` bench); its
    /// arrivals come from the trace.
    fn scenario(self) -> Scenario {
        match self {
            WorkloadKind::AzureReplay => Scenario::MODERATE_NORMAL,
            WorkloadKind::HeavyBursty => Scenario::RELAXED_HEAVY,
            WorkloadKind::TorContended => Scenario::MODERATE_NORMAL,
        }
    }

    /// The static environment (catalog, apps, profiles, prices).
    pub fn env(self) -> SimEnv {
        SimEnv::standard(self.scenario().slo)
    }

    /// The platform configuration for workload seed `seed`.
    pub fn config(self, seed: u64) -> SimConfig {
        match self {
            WorkloadKind::AzureReplay => SimConfig {
                seed,
                ..SimConfig::default()
            },
            WorkloadKind::HeavyBursty => SimConfig {
                seed,
                ..standard_config()
            },
            WorkloadKind::TorContended => SimConfig {
                seed,
                cluster: Some(ClusterSpec::paper().with_topology(4, 0.05)),
                data_plane: Some(DataPlaneConfig::default()),
                ..standard_config()
            },
        }
    }

    /// A fresh arrival stream for `seed`. Scenario streams are unbounded;
    /// [`horizon_ms`](Self::horizon_ms) cuts them.
    fn stream(self, seed: u64) -> ArrivalStream {
        match self {
            WorkloadKind::AzureReplay => AzureLikeTrace {
                mean_per_minute: 2_500.0,
                period_minutes: 120.0,
                burst_probability: 0.02,
                seed,
                ..AzureLikeTrace::default()
            }
            .stream(standard_app_ids(), Some(REPLAY_MINUTES)),
            WorkloadKind::HeavyBursty => shaped_stream(
                self.scenario().workload,
                TrafficShape::Bursty,
                &standard_app_ids(),
                seed,
            ),
            WorkloadKind::TorContended => shaped_stream(
                self.scenario().workload,
                TrafficShape::Steady,
                &standard_app_ids(),
                seed,
            ),
        }
    }

    /// Last arrival instant of a scenario run, ms (`None`: the stream
    /// ends by itself).
    fn horizon_ms(self) -> Option<f64> {
        match self {
            WorkloadKind::AzureReplay => None,
            _ => Some(RUN_SECONDS * 1000.0),
        }
    }

    /// The arrivals one run feeds the platform.
    pub fn arrivals(self, seed: u64) -> Arrivals {
        match self.horizon_ms() {
            None => Arrivals::Streamed(Box::new(self.stream(seed))),
            Some(h) => Arrivals::Materialised(self.stream(seed).until_ms(h)),
        }
    }

    /// Drains an identical stream outside any run and counts it.
    pub fn drain(self, seed: u64, warmup_ms: f64) -> ArrivalCount {
        let horizon = self.horizon_ms().unwrap_or(f64::INFINITY);
        let mut count = ArrivalCount {
            total: 0,
            measured: 0,
        };
        for a in self.stream(seed) {
            if a.at_ms > horizon {
                break;
            }
            count.total += 1;
            count.measured += u64::from(a.at_ms >= warmup_ms);
        }
        count
    }
}
