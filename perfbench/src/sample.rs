//! One simulation of one workload seed, run to completion in its own
//! process: the unit the benchmark repeats. The process reports its
//! measurements, an outcome fingerprint and its correctness checks as
//! lines on standard output (see [`Sample::write`]).

use crate::timed::{Ledger, Timed};
use crate::workloads::{Arrivals, WorkloadKind};
use esg_core::EsgScheduler;
use esg_sim::{fnv64, ExperimentResult, MemoryFootprint, Scheduler, SimConfig, SimEnv, Simulation};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per process; the reported set-up times are their medians.
const SETUP_REPEATS: usize = 15;

/// A correctness check's verdict.
pub struct Check {
    /// The check's name, as printed.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

impl Check {
    /// A named verdict.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything one process measured.
pub struct Sample {
    /// Named values, in print order.
    pub values: Vec<(String, f64)>,
    /// Hash of the simulated outcome (no host-time field enters it).
    pub fingerprint: u64,
    /// Correctness checks of this run.
    pub checks: Vec<Check>,
}

impl Sample {
    /// The value named `name`.
    pub fn value(&self, name: &str) -> Result<f64, String> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("worker did not report {name}"))
    }

    /// Writes the sample in the line format [`Sample::parse`] reads.
    pub fn write(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            out.push_str(&format!("value {name} {v:?}\n"));
        }
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAIL" };
            out.push_str(&format!("check {} {verdict} {}\n", c.name, c.detail));
        }
        out
    }

    /// Reads a sample written by [`Sample::write`].
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut sample = Sample {
            values: Vec::new(),
            fingerprint: 0,
            checks: Vec::new(),
        };
        let mut saw_fingerprint = false;
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("value"), Some(name), Some(v)) => {
                    let v: f64 = v.parse().map_err(|e| format!("bad value {line:?}: {e}"))?;
                    sample.values.push((name.to_string(), v));
                }
                (Some("fingerprint"), Some(hex), None) => {
                    sample.fingerprint = u64::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad fingerprint {line:?}: {e}"))?;
                    saw_fingerprint = true;
                }
                (Some("check"), Some(name), Some(rest)) => {
                    let (verdict, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                    sample
                        .checks
                        .push(Check::new(name, verdict == "ok", detail.to_string()));
                }
                _ => return Err(format!("unexpected worker line {line:?}")),
            }
        }
        if !saw_fingerprint {
            return Err("worker printed no fingerprint".to_string());
        }
        Ok(sample)
    }
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set, MB, from the kernel's high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// The single final stage of every application (the benchmark's
/// completion count relies on there being exactly one).
fn sink_stages(env: &SimEnv) -> Result<Vec<usize>, String> {
    env.apps
        .iter()
        .map(|app| {
            let sinks: Vec<usize> = (0..app.num_stages())
                .filter(|&s| !app.edges.iter().any(|&(from, _)| from == s))
                .collect();
            match sinks.as_slice() {
                [s] => Ok(*s),
                _ => Err(format!("app {} has {} final stages", app.name, sinks.len())),
            }
        })
        .collect()
}

fn simulate(
    env: &SimEnv,
    cfg: SimConfig,
    sched: &mut dyn Scheduler,
    arrivals: Arrivals,
) -> (ExperimentResult, MemoryFootprint) {
    match arrivals {
        Arrivals::Streamed(stream) => {
            Simulation::from_stream(env, cfg, sched, *stream).run_with_footprint()
        }
        Arrivals::Materialised(workload) => {
            Simulation::new(env, cfg, sched, &workload).run_with_footprint()
        }
    }
}

/// Hash of the simulated outcome: dispatch and quality counters, latency
/// percentiles, cost and transfer counters. Host time never enters it.
fn fingerprint(r: &ExperimentResult, latencies: &[f64], fp: &MemoryFootprint) -> u64 {
    let mut s = format!(
        "{} {} {} {} {} {} {} {} {} {} {:?}|",
        r.arrivals,
        r.dispatches,
        r.rechecks,
        r.forced_min_dispatches,
        r.warm_starts,
        r.cold_starts,
        r.config_misses,
        r.shed_invocations,
        r.shed_jobs,
        r.overhead_ms.len(),
        r.makespan_ms,
    );
    for a in &r.apps {
        s.push_str(&format!(
            "{} {} {:?}|",
            a.completed, a.slo_hits, a.cost_cents
        ));
    }
    s.push_str(&format!(
        "{:?} {:?}|",
        percentile(latencies, 50.0),
        percentile(latencies, 99.0)
    ));
    let t = &r.transfers;
    s.push_str(&format!(
        "{} {} {} {} {} {:?} {:?} {:?}|",
        t.started,
        t.completed,
        t.queued,
        t.batched_small,
        t.replans,
        t.total_mb,
        t.cross_server_mb,
        t.peak_staging_mb
    ));
    let st = &r.scheduler_stats;
    s.push_str(&format!(
        "{} {} {}|{} {}",
        st.searches,
        st.plan_cache_hits,
        st.plan_cache_misses,
        fp.peak_live_invocations,
        fp.peak_pending_events
    ));
    fnv64(&s)
}

/// Runs workload seed `seed` once, traced or not, and measures it.
pub fn run(kind: WorkloadKind, seed: u64, traced: bool) -> Result<Sample, String> {
    let cfg = kind.config(seed);

    // Workload layer, outside the run: drain an identical stream.
    let t0 = Instant::now();
    let count = kind.drain(seed, cfg.warmup_exclude_ms);
    let stream_s = secs(t0);

    // Set-up, repeated; the last set-up feeds the run.
    let (mut env_s, mut sched_s, mut workload_s, mut setup_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let env = black_box(kind.env());
        env_s.push(secs(t0));
        let t1 = Instant::now();
        let sched = black_box(EsgScheduler::new());
        sched_s.push(secs(t1));
        let t2 = Instant::now();
        let arrivals = black_box(kind.arrivals(seed));
        workload_s.push(secs(t2));
        setup_s.push(secs(t0));
        built = Some((env, sched, arrivals));
    }
    let (env, sched, arrivals) = built.expect("at least one set-up");
    let sinks = sink_stages(&env)?;

    let ref_before = crate::reference::seconds();
    let t0 = Instant::now();
    let (result, footprint, ledger) = if traced {
        let mut timed = Timed::new(sched, sinks);
        let (r, f) = simulate(&env, cfg, &mut timed, arrivals);
        (r, f, Some(timed.ledger))
    } else {
        let mut sched = sched;
        let (r, f) = simulate(&env, cfg, &mut sched, arrivals);
        (r, f, None)
    };
    let run_s = secs(t0);
    let rss_mb = peak_rss_mb()?;
    // The machine's current speed, bracketing the run.
    let reference_s = (ref_before + crate::reference::seconds()) / 2.0;

    let mut latencies: Vec<f64> = result
        .apps
        .iter()
        .flat_map(|a| a.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let completed = result.total_completed();
    let arrivals = result.arrivals.max(1) as f64;

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));
    put("us_per_invocation", run_s * 1e6 / arrivals);
    put("reference_s", reference_s);
    // Host time of a thousand invocations in reference passes: the
    // machine's momentary speed, which drifts by tens of percent over
    // minutes on a shared host, divides out.
    put("ref_passes_per_kinv", run_s * 1e3 / arrivals / reference_s);
    put("setup_s", median(&mut setup_s));
    put("peak_rss_mb", rss_mb);
    put("gslo_hit_pct", result.avg_hit_rate() * 100.0);
    put("gslo_miss_pct", (1.0 - result.avg_hit_rate()) * 100.0);
    put(
        "cost_per_invocation_cents",
        result.cost_per_invocation_cents(),
    );
    put("latency_p50_ms", percentile(&latencies, 50.0));
    put("latency_p99_ms", percentile(&latencies, 99.0));
    put("latency_samples", latencies.len() as f64);
    put("measured_arrivals", count.measured as f64);
    put("completed", completed as f64);

    if let Some(l) = &ledger {
        put_layers(&mut put, l, &result, &footprint, run_s);
    }
    put("workload.stream_s", stream_s);
    put("workload.arrivals", count.total as f64);
    put("setup.env_s", median(&mut env_s));
    put("setup.sched_s", median(&mut sched_s));
    put("setup.workload_s", median(&mut workload_s));

    let mut checks = vec![
        Check::new(
            "arrivals_delivered",
            result.arrivals == count.total,
            format!("platform {} vs generated {}", result.arrivals, count.total),
        ),
        Check::new(
            "measured_conserved",
            completed <= count.measured && completed + result.shed_invocations >= count.measured,
            format!(
                "completed {completed} + shed {} vs measured arrivals {}",
                result.shed_invocations, count.measured
            ),
        ),
        Check::new(
            "transfers_drained",
            result.transfers.started == result.transfers.completed,
            format!(
                "started {} vs completed {}",
                result.transfers.started, result.transfers.completed
            ),
        ),
        Check::new(
            "latency_samples_match",
            latencies.len() as u64 == completed,
            format!("{} samples vs {completed} completions", latencies.len()),
        ),
    ];
    if let Some(l) = &ledger {
        checks.push(Check::new(
            "all_conserved",
            l.sink_dispatched + result.shed_invocations == count.total,
            format!(
                "completed {} + shed {} vs arrivals {}",
                l.sink_dispatched, result.shed_invocations, count.total
            ),
        ));
    }
    Ok(Sample {
        values,
        fingerprint: fingerprint(&result, &latencies, &footprint),
        checks,
    })
}

/// The traced run's per-layer values.
fn put_layers(
    put: &mut impl FnMut(&str, f64),
    l: &Ledger,
    r: &ExperimentResult,
    fp: &MemoryFootprint,
    run_s: f64,
) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut rounds: Vec<f64> = l.round_ns.iter().map(|&ns| f64::from(ns)).collect();
    rounds.sort_by(f64::total_cmp);
    let round_busy_s = l.round_busy_ns as f64 / 1e9;
    let place_busy_s = l.place_busy_ns as f64 / 1e9;
    let event_busy_s = l.event_busy_ns as f64 / 1e9;
    put("core.round_calls", l.round_ns.len() as f64);
    put("core.round_busy_s", round_busy_s);
    put("core.round_p50_ns", percentile(&rounds, 50.0));
    put("core.round_p99_ns", percentile(&rounds, 99.0));
    put(
        "core.decisions_per_dispatch",
        ratio(l.decisions as f64, r.dispatches as f64),
    );
    put("core.skip_ratio", ratio(l.skips as f64, l.decisions as f64));

    let st = &r.scheduler_stats;
    put("core.searches", st.searches as f64);
    put("core.plan_cache_hit_ratio", st.plan_cache_hit_rate());
    put("core.place_calls", l.place_calls as f64);
    put("core.place_busy_s", place_busy_s);
    put(
        "core.place_fail_ratio",
        ratio(l.place_fails as f64, l.place_calls as f64),
    );
    let mut overhead = r.overhead_ms.clone();
    overhead.sort_by(f64::total_cmp);
    put("core.sim_overhead_ms_p50", percentile(&overhead, 50.0));
    put("core.sim_overhead_ms_p99", percentile(&overhead, 99.0));
    put("core.event_calls", l.event_calls as f64);
    put("core.event_busy_s", event_busy_s);

    put(
        "sim.self_s",
        run_s - round_busy_s - place_busy_s - event_busy_s,
    );
    put("sim.dispatches", r.dispatches as f64);
    put("sim.rechecks", r.rechecks as f64);
    put("sim.forced_min_dispatches", r.forced_min_dispatches as f64);
    put("sim.cold_start_ratio", r.cold_start_rate());
    put("sim.peak_pending_events", fp.peak_pending_events as f64);
    put("sim.peak_live_invocations", fp.peak_live_invocations as f64);
    let samples: usize = r.apps.iter().map(|a| a.latencies_ms.len()).sum::<usize>()
        + r.overhead_ms.len()
        + r.wall_overhead_ms.len();
    put("sim.metric_samples", samples as f64);

    let t = &r.transfers;
    put("dataplane.transfers", t.started as f64);
    put("dataplane.queued", t.queued as f64);
    put("dataplane.replans", t.replans as f64);
    put(
        "dataplane.replans_per_transfer",
        ratio(t.replans as f64, t.started as f64),
    );
    put("dataplane.cross_server_mb", t.cross_server_mb);
    put("dataplane.peak_staging_mb", t.peak_staging_mb);
}
