//! `perf-gate`: the CI scheduler-overhead regression check.
//!
//! Compares fresh bench artifacts against the committed baselines and
//! fails (exit 1) when a case's median regressed beyond the tolerance,
//! printing a per-case delta table (also appended to
//! `$GITHUB_STEP_SUMMARY` when set, so the job summary shows it).
//!
//! `--baseline` and `--fresh` may each be given more than once; the
//! gate then runs over the union of every artifact's cases, so one
//! suite's cases normalise against all the others. A case label that
//! appears in two artifacts on the same side is an error, not a silent
//! overwrite.
//!
//! Because CI runners and developer machines differ in absolute speed,
//! medians are *normalized by default*: every case's `fresh/baseline`
//! ratio is divided by the **median ratio** across the gated cases, so a
//! uniformly slower machine cancels out and only shape changes — one
//! case slowing relative to the others, exactly what a code regression
//! looks like — count against the gate. `--absolute` compares raw
//! nanoseconds instead.
//!
//! Shared-runner wall clocks are noisy even after normalization
//! (observed per-case spread on a busy container: ±50%), so a single
//! case beyond the tolerance is not failure. The verdict combines three
//! robust criteria:
//!
//! * **hard limit** — any case beyond `--hard-tolerance` (default
//!   +100%, i.e. 2× normalized) fails outright: targeted regressions
//!   (dropping a pruning blade, breaking the scratch reuse) blow far
//!   past it, noise does not;
//! * **breadth** — more than `--max-regressed-fraction` (default 25%)
//!   of gated cases beyond `--tolerance` (default ±30%) fails: systemic
//!   slowdowns move most of the distribution, noise moves a few cases;
//! * **warm speedup** — the fresh run's *median* warm/cold pair must
//!   show at least `--min-speedup` (default 5×) amortisation; this one
//!   is within-run, so runner speed cannot perturb it (and the median —
//!   not the minimum — is gated because the smallest pair divides two
//!   near-timer-granularity numbers).
//!
//! Cases whose baseline median sits below `--noise-floor-ns` (default
//! 1 µs) are reported but never gated: at ~150 ns a warm cache hit is
//! within timer granularity. The warm path is guarded by the speedup
//! bound instead.
//!
//! ```sh
//! cargo run --release -p esg-bench --bin perf-gate -- \
//!     --baseline bench_results/BENCH_overhead.json \
//!     --fresh bench_results_fresh/BENCH_overhead.json \
//!     --baseline bench_results/BENCH_scale.json \
//!     --fresh bench_results_fresh/BENCH_scale.json \
//!     --tolerance 0.30
//! ```

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

struct Args {
    baselines: Vec<String>,
    fresh: Vec<String>,
    tolerance: f64,
    hard_tolerance: f64,
    max_regressed_fraction: f64,
    min_speedup: f64,
    noise_floor_ns: f64,
    absolute: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baselines: Vec::new(),
        fresh: Vec::new(),
        tolerance: 0.30,
        hard_tolerance: 1.0,
        max_regressed_fraction: 0.25,
        min_speedup: 5.0,
        noise_floor_ns: 1_000.0,
        absolute: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--baseline" => args.baselines.push(value("--baseline")?),
            "--fresh" => args.fresh.push(value("--fresh")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?
            }
            "--min-speedup" => {
                args.min_speedup = value("--min-speedup")?
                    .parse()
                    .map_err(|e| format!("bad --min-speedup: {e}"))?
            }
            "--hard-tolerance" => {
                args.hard_tolerance = value("--hard-tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --hard-tolerance: {e}"))?
            }
            "--max-regressed-fraction" => {
                args.max_regressed_fraction = value("--max-regressed-fraction")?
                    .parse()
                    .map_err(|e| format!("bad --max-regressed-fraction: {e}"))?
            }
            "--noise-floor-ns" => {
                args.noise_floor_ns = value("--noise-floor-ns")?
                    .parse()
                    .map_err(|e| format!("bad --noise-floor-ns: {e}"))?
            }
            "--absolute" => args.absolute = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.fresh.is_empty() {
        return Err("--fresh <path> is required".into());
    }
    if args.baselines.is_empty() {
        args.baselines
            .push("bench_results/BENCH_overhead.json".into());
    }
    Ok(args)
}

/// `case label → median_ns` of one artifact.
fn medians(doc: &Value) -> BTreeMap<String, f64> {
    doc.get("cases")
        .and_then(Value::as_array)
        .map(|cases| {
            cases
                .iter()
                .filter_map(|c| {
                    let label = c.get("case")?.as_str()?.to_string();
                    let m = c.get("median_ns")?.as_f64()?;
                    (m > 0.0).then_some((label, m))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The union of [`medians`] over `docs` (each `(path, artifact)`); a
/// case label found in two artifacts is an error naming both paths.
fn merged_medians(docs: &[(String, Value)]) -> Result<BTreeMap<String, f64>, String> {
    let mut merged = BTreeMap::new();
    let mut origin: BTreeMap<String, &str> = BTreeMap::new();
    for (path, doc) in docs {
        for (label, m) in medians(doc) {
            if let Some(first) = origin.insert(label.clone(), path) {
                return Err(format!("case {label} appears in both {first} and {path}"));
            }
            merged.insert(label, m);
        }
    }
    Ok(merged)
}

/// Loads every artifact in `paths` and merges their cases.
fn load_all(paths: &[String]) -> Result<BTreeMap<String, f64>, String> {
    let docs = paths
        .iter()
        .map(|p| Ok((p.clone(), load(p)?)))
        .collect::<Result<Vec<_>, String>>()?;
    merged_medians(&docs)
}

/// Median of an unsorted, non-empty slice (by value; averages the middle
/// pair on even counts).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Warm/cold median ratios across the artifact's case pairs, ascending.
/// The *median* pair is the gated statistic: the smallest pair divides a
/// ~1 µs cold case by a ~150 ns warm lookup, both near timer
/// granularity, so gating on the minimum would fail on clock jitter.
fn warm_speedups(med: &BTreeMap<String, f64>) -> Vec<f64> {
    let mut out: Vec<f64> = med
        .iter()
        .filter_map(|(label, &cold)| {
            let param = label.strip_prefix("overhead/cold/")?;
            let warm = med.get(&format!("overhead/warm/{param}"))?;
            Some(cold / warm)
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf-gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (base, fresh) = match (load_all(&args.baselines), load_all(&args.fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for r in [b, f] {
                if let Err(e) = r {
                    eprintln!("perf-gate: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let shared: Vec<&String> = base.keys().filter(|k| fresh.contains_key(*k)).collect();
    if shared.is_empty() {
        eprintln!("perf-gate: no shared cases between baseline and fresh run");
        return ExitCode::FAILURE;
    }

    // Hardware normalisation: divide every fresh/baseline ratio by the
    // median ratio over the gated (above-noise-floor) cases — no-op
    // under --absolute. The median of ratios is robust to the handful of
    // outlier cases that shared-runner noise produces, which a geometric
    // mean of levels is not.
    let gated: Vec<&&String> = shared
        .iter()
        .filter(|k| base[**k] >= args.noise_floor_ns)
        .collect();
    let scale = if args.absolute || gated.is_empty() {
        1.0
    } else {
        median(gated.iter().map(|k| fresh[**k] / base[**k]).collect())
    };

    let mut table = String::from(
        "| case | baseline (µs) | fresh (µs) | Δ normalized | status |\n\
|---|---:|---:|---:|---|\n",
    );
    let mut hard_regressions = 0usize;
    let mut soft_regressions = 0usize;
    for k in &shared {
        let b = base[*k];
        let f = fresh[*k];
        let delta = (f / b) / scale - 1.0;
        let status = if b < args.noise_floor_ns {
            "below noise floor"
        } else if delta > args.hard_tolerance {
            hard_regressions += 1;
            "REGRESSED (hard)"
        } else if delta > args.tolerance {
            soft_regressions += 1;
            "regressed"
        } else if delta < -args.tolerance {
            "improved"
        } else {
            "ok"
        };
        table.push_str(&format!(
            "| {k} | {:.2} | {:.2} | {:+.1}% | {status} |\n",
            b / 1_000.0,
            f / 1_000.0,
            delta * 100.0,
        ));
    }
    let allowed_soft = (args.max_regressed_fraction * gated.len() as f64).floor() as usize;

    let speedups = warm_speedups(&fresh);
    let speedup = (!speedups.is_empty()).then(|| median(speedups.clone()));
    let speedup_min = speedups.first().copied();
    let speedup_ok = speedup.is_none_or(|s| s >= args.min_speedup);
    let mode = if args.absolute {
        "absolute"
    } else {
        "median-ratio-normalized"
    };
    let verdict = if hard_regressions == 0 && soft_regressions <= allowed_soft && speedup_ok {
        "PASS"
    } else {
        "FAIL"
    };
    let summary = format!(
        "## perf-gate: {verdict}\n\n\
{} gated cases ({mode}, run-speed scale {scale:.3}): {hard_regressions} beyond \
+{:.0}% (hard limit), {soft_regressions} beyond ±{:.0}% (≤{allowed_soft} tolerated \
as runner noise). Median warm-cache speedup: {} (required ≥{:.0}×; smallest pair {}).\
\n\n{table}",
        gated.len(),
        args.hard_tolerance * 100.0,
        args.tolerance * 100.0,
        speedup.map_or("n/a".to_string(), |s| format!("{s:.0}×")),
        args.min_speedup,
        speedup_min.map_or("n/a".to_string(), |s| format!("{s:.0}×")),
    );
    println!("{summary}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
        {
            let _ = writeln!(f, "{summary}");
        }
    }
    if verdict == "PASS" {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn artifact(cases: &[(&str, f64)]) -> Value {
        let cases: Vec<Value> = cases
            .iter()
            .map(|&(label, m)| json!({"case": label, "median_ns": m}))
            .collect();
        json!({"cases": (Value::Array(cases))})
    }

    #[test]
    fn repeated_artifacts_gate_the_union_of_cases() {
        let docs = [
            (
                "overhead.json".to_string(),
                artifact(&[("overhead/cold/a", 2_000.0), ("overhead/warm/a", 100.0)]),
            ),
            (
                "scale.json".to_string(),
                artifact(&[("scale/replay/heap", 60_000.0)]),
            ),
        ];
        let merged = merged_medians(&docs).expect("disjoint labels merge");
        assert_eq!(
            merged.keys().map(String::as_str).collect::<Vec<_>>(),
            vec!["overhead/cold/a", "overhead/warm/a", "scale/replay/heap"]
        );
        assert_eq!(merged["scale/replay/heap"], 60_000.0);
    }

    #[test]
    fn a_label_in_two_artifacts_is_an_error() {
        let docs = [
            (
                "a.json".to_string(),
                artifact(&[("scale/replay/heap", 1.0)]),
            ),
            (
                "b.json".to_string(),
                artifact(&[("scale/replay/heap", 2.0)]),
            ),
        ];
        let err = merged_medians(&docs).expect_err("duplicate label");
        assert!(err.contains("scale/replay/heap"), "{err}");
        assert!(err.contains("a.json") && err.contains("b.json"), "{err}");
    }
}
