//! End-to-end benchmark of the ESG platform.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <azure-replay|heavy-bursty|tor-contended|all> \
//!     [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Each simulation runs single-threaded, to completion, in a process of
//! its own; this process starts them one after another and waits for
//! each. A run simulates each of the workload's seeds once, then repeats
//! them until `--seconds` have passed (one repeat at least). `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs every seed untraced
//! and traced, and prints the per-layer split. The last line of standard
//! output is one JSON object with the run's verdict and metrics.
//! README.md documents the metrics and the workloads.

mod reference;
mod sample;
mod timed;
mod workloads;

use sample::{median, Check, Sample};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::WorkloadKind;

/// Metric → unit, end to end (the `--trace 0` set).
const END_TO_END: [(&str, &str); 7] = [
    ("ref_passes_per_kinv", "ref/kinv"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gslo_miss_pct", "%"),
    ("cost_per_invocation_cents", "cents"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Host measurements: the median over every process of the run. The
/// other end-to-end metrics are simulated outcomes: the median over the
/// run's workload seeds.
const HOST_METRICS: [&str; 3] = ["ref_passes_per_kinv", "setup_s", "peak_rss_mb"];

/// Metric → unit, per layer (the `--trace 1` set). Each is the median
/// over the run's traced processes, except `trace.overhead_pct`.
const PER_LAYER: [(&str, &str); 35] = [
    ("workload.stream_s", "s"),
    ("workload.arrivals", "count"),
    ("core.round_calls", "count"),
    ("core.round_busy_s", "s"),
    ("core.round_p50_ns", "ns"),
    ("core.round_p99_ns", "ns"),
    ("core.decisions_per_dispatch", "ratio"),
    ("core.skip_ratio", "ratio"),
    ("core.searches", "count"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.place_calls", "count"),
    ("core.place_busy_s", "s"),
    ("core.place_fail_ratio", "ratio"),
    ("core.sim_overhead_ms_p50", "ms"),
    ("core.sim_overhead_ms_p99", "ms"),
    ("core.event_calls", "count"),
    ("core.event_busy_s", "s"),
    ("sim.self_s", "s"),
    ("sim.dispatches", "count"),
    ("sim.rechecks", "count"),
    ("sim.forced_min_dispatches", "count"),
    ("sim.cold_start_ratio", "ratio"),
    ("sim.peak_pending_events", "count"),
    ("sim.peak_live_invocations", "count"),
    ("sim.metric_samples", "count"),
    ("dataplane.transfers", "count"),
    ("dataplane.queued", "count"),
    ("dataplane.replans", "count"),
    ("dataplane.replans_per_transfer", "ratio"),
    ("dataplane.cross_server_mb", "MB"),
    ("dataplane.peak_staging_mb", "MB"),
    ("setup.env_s", "s"),
    ("setup.sched_s", "s"),
    ("setup.workload_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        worker: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--worker" {
            args.worker = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite, non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Runs one simulation in a fresh process and reads its sample.
fn spawn(kind: WorkloadKind, seed: u64, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--worker", "--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start worker: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "worker {} seed {seed} failed: {}",
            kind.name(),
            out.status
        ));
    }
    Sample::parse(&String::from_utf8_lossy(&out.stdout))
}

/// One seed's processes: untraced ones, and traced ones in a traced run.
struct SeedRuns {
    seed: u64,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
}

/// The outcome of one benchmark run of one workload.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed in the report but not in the JSON line.
    notes: Vec<String>,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Runs `kind` for `seconds` and aggregates its processes.
fn bench(kind: WorkloadKind, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let start = Instant::now();
    let mut runs: Vec<SeedRuns> = kind
        .seeds(seed)
        .into_iter()
        .map(|seed| SeedRuns {
            seed,
            untraced: Vec::new(),
            traced: Vec::new(),
        })
        .collect();
    // One process per workload seed, then repeats (cycling the seeds)
    // until `seconds` have passed; at least one repeat, so every run
    // checks that a seed reproduces its outcome.
    let seeds = runs.len();
    let mut spawned = 0;
    while spawned <= seeds || start.elapsed().as_secs_f64() < seconds {
        let r = &mut runs[spawned % seeds];
        r.untraced.push(spawn(kind, r.seed, false)?);
        if trace {
            r.traced.push(spawn(kind, r.seed, true)?);
        }
        spawned += 1;
    }
    let processes: usize = runs.iter().map(|r| r.untraced.len() + r.traced.len()).sum();
    println!(
        "== {} seed {seed} trace {}: {} workload seeds, {processes} processes, {:.1} s",
        kind.name(),
        u8::from(trace),
        runs.len(),
        start.elapsed().as_secs_f64()
    );

    let mut report = Report {
        metrics: Vec::new(),
        notes: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    // Every process's own checks, tallied per check name.
    let mut tally: Vec<(String, usize, Vec<String>)> = Vec::new();
    for s in runs.iter().flat_map(|r| r.untraced.iter().chain(&r.traced)) {
        for c in &s.checks {
            let pos = match tally.iter().position(|(n, _, _)| *n == c.name) {
                Some(p) => p,
                None => {
                    tally.push((c.name.clone(), 0, Vec::new()));
                    tally.len() - 1
                }
            };
            tally[pos].1 += 1;
            if !c.ok {
                tally[pos].2.push(c.detail.clone());
            }
        }
    }
    for (name, n, fails) in tally {
        let detail = match fails.first() {
            None => format!("{n} of {n} processes"),
            Some(first) => format!("failed in {} of {n} processes: {first}", fails.len()),
        };
        report
            .checks
            .push(Check::new(&name, fails.is_empty(), detail));
    }
    // Same seed, same simulated outcome: across repeats, and traced
    // against untraced.
    let mut deterministic = Vec::new();
    let mut trace_inert = Vec::new();
    for r in &runs {
        let first = r.untraced[0].fingerprint;
        if r.untraced.iter().any(|s| s.fingerprint != first) {
            deterministic.push(r.seed);
        }
        if r.traced.iter().any(|s| s.fingerprint != first) {
            trace_inert.push(r.seed);
        }
    }
    let detail = |bad: &[u64]| {
        if bad.is_empty() {
            "equal fingerprints for every seed".to_string()
        } else {
            format!("fingerprints differ on seeds {bad:?}")
        }
    };
    report.checks.push(Check::new(
        "same_seed_same_outcome",
        deterministic.is_empty(),
        detail(&deterministic),
    ));
    if trace {
        report.checks.push(Check::new(
            "traced_matches_untraced",
            trace_inert.is_empty(),
            detail(&trace_inert),
        ));
    }

    // Simulated outcomes come from each seed's first process; failures
    // are measured arrivals that never completed.
    for r in &runs {
        let s = &r.untraced[0];
        let measured = s.value("measured_arrivals")? as u64;
        let completed = s.value("completed")? as u64;
        report.attempted += measured;
        report.failed += measured.saturating_sub(completed);
    }
    let firsts: Vec<&Sample> = runs.iter().map(|r| &r.untraced[0]).collect();
    let all_untraced: Vec<&Sample> = runs.iter().flat_map(|r| &r.untraced).collect();
    let all_traced: Vec<&Sample> = runs.iter().flat_map(|r| &r.traced).collect();
    let median_of = |samples: &[&Sample], name: &str| -> Result<f64, String> {
        let mut values: Vec<f64> = samples
            .iter()
            .map(|s| s.value(name))
            .collect::<Result<_, _>>()?;
        Ok(median(&mut values))
    };
    if !trace {
        for (name, unit) in END_TO_END {
            let v = if HOST_METRICS.contains(&name) {
                median_of(&all_untraced, name)?
            } else {
                median_of(&firsts, name)?
            };
            report.metrics.push((name.to_string(), v, unit));
        }
        let samples: f64 = firsts
            .iter()
            .map(|s| s.value("latency_samples"))
            .sum::<Result<f64, _>>()?;
        report.notes.push(format!(
            "latency percentiles: median over {} seeds of each seed's percentile; {samples} samples in all",
            firsts.len()
        ));
        report.notes.push(format!(
            "us_per_invocation: {:.3} us; reference pass {:.3} ms (medians over processes)",
            median_of(&all_untraced, "us_per_invocation")?,
            median_of(&all_untraced, "reference_s")? * 1e3
        ));
        report.notes.push(format!(
            "gslo_hit_pct: {:.4} % (median over seeds)",
            median_of(&firsts, "gslo_hit_pct")?
        ));
        report.notes.push(format!(
            "failed_pct: {:.4} % ({} of {} measured arrivals shed or never completed)",
            100.0 * report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted
        ));
    } else {
        let untraced = median_of(&all_untraced, "ref_passes_per_kinv")?;
        let traced = median_of(&all_traced, "ref_passes_per_kinv")?;
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.overhead_pct" => (traced / untraced - 1.0) * 100.0,
                _ => median_of(&all_traced, name)?,
            };
            report.metrics.push((name.to_string(), v, unit));
        }
    }
    let finite = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    report.checks.push(Check::new(
        "metrics_finite",
        finite,
        "every reported metric is a finite number".into(),
    ));
    Ok(report)
}

fn print_report(report: &Report) {
    for (name, v, unit) in &report.metrics {
        println!("{name:<34} {v:>16.6} {unit}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for c in &report.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {:<28} {verdict} ({})", c.name, c.detail);
        if !c.ok {
            eprintln!("CHECK FAILED: {}: {}", c.name, c.detail);
        }
    }
}

/// The final JSON line.
fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kinds: Vec<WorkloadKind> = if args.workload == "all" && !args.worker {
        WorkloadKind::ALL.to_vec()
    } else {
        match WorkloadKind::parse(&args.workload) {
            Some(k) => vec![k],
            None => {
                eprintln!("perfbench: unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    if args.worker {
        return match sample::run(kinds[0], args.seed, args.trace) {
            Ok(s) => {
                print!("{}", s.write());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::from(2)
            }
        };
    }
    // `--workload all` runs every workload untraced and traced.
    let traces: Vec<bool> = if kinds.len() > 1 {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for &kind in &kinds {
        for &trace in &traces {
            let report = match bench(kind, args.seed, args.seconds, trace) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            print_report(&report);
            correct &= report.correct();
            // Under `all`, the traced run repeats its untraced twin's arrivals.
            if !trace || traces.len() == 1 {
                attempted += report.attempted;
                failed += report.failed;
            }
            let prefix = if kinds.len() > 1 {
                format!("{}/", kind.name())
            } else {
                String::new()
            };
            for (name, v, unit) in report.metrics {
                metrics.push((format!("{prefix}{name}"), v, unit));
            }
        }
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
