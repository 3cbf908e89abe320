//! NETDAG end-to-end and per-layer benchmark.
//!
//! Drives an in-process `netdag serve` daemon over loopback TCP with one
//! of three closed-loop workloads and prints, as the last line of
//! standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run records spans around the benchmark's calls into
//! each layer and reports the per-layer ones instead. The line before
//! it is a JSON report with provenance, sample counts, tail percentiles
//! and the determinism block; the same report (and, for traced runs,
//! every span) is written under `.bench_build/perfbench-run/`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload soak --seed 2020 --seconds 20 --trace 0
//! ```

mod apps;
mod budget;
mod cold_admit;
mod daemon;
mod hot_cache;
mod layers;
mod loadgen;
mod soak;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Report;

/// Seed the benchmark was tuned on.
const DEV_SEED: u64 = 2020;
/// Seed kept back for confirming performance claims.
const HELD_OUT_SEED: u64 = 7919;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("solve_p50_us", "us"),
    ("solve_tail_us", "us"),
    ("hit_p50_us", "us"),
    ("hit_tail_us", "us"),
    ("validate_p50_us", "us"),
    ("validate_tail_us", "us"),
    ("admitted_frac", "frac"),
    ("makespan_mean_us", "us"),
    ("peak_rss_mb", "MiB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire_us", "us"),
    ("serve.wire_frac", "frac"),
    ("serve.queue_p50_us", "us"),
    ("serve.queue_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.service_solve_p50_us", "us"),
    ("serve.service_solve_p99_us", "us"),
    ("serve.service_validate_p50_us", "us"),
    ("serve.service_validate_p99_us", "us"),
    ("serve.service_batch_p50_us", "us"),
    ("serve.service_batch_p99_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.warm_starts", "count"),
    ("core.presolve_us", "us"),
    ("core.presolve_rejects", "count"),
    ("core.solve_us", "us"),
    ("solver.nodes", "count"),
    ("solver.backtracks", "count"),
    ("solver.propagations", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("validation.weakly_hard_us", "us"),
    ("validation.soft_us", "us"),
    ("validation.weakly_hard_trials", "count"),
    ("weakly_hard.sampler_build_us", "us"),
    ("weakly_hard.distinct_windows", "frac"),
    ("lwb.executor_new_us", "us"),
    ("lwb.run_us", "us"),
    ("lwb.rounds", "count"),
    ("lwb.transmissions", "count"),
    ("glossy.stat_cache_hit_rate", "frac"),
    ("scenario.generate_us", "us"),
    ("scenario.generate_frac", "frac"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEV_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["soak", "hot_cache", "cold_admit"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (soak, hot_cache, cold_admit)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch directory for access logs, reports and spans, inside the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_build").join("perfbench-run");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// FNV-1a over every file under `crates/` and `vendor/` plus the
/// lock file, in path order: identifies the source tree measured when
/// the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk("crates".as_ref(), &mut files);
    walk("vendor".as_ref(), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// Finite numbers print with every digit; anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let seed_role = match args.seed {
        DEV_SEED => "development",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    };
    let commit = command_output("git", &["rev-parse", "HEAD"]);
    let mut stamp = vec![("commit", json_str(&commit))];
    if commit == "unknown" {
        stamp.push(("source_digest", json_str(&source_digest())));
    }
    stamp.extend([
        ("nproc", nproc.to_string()),
        ("rustc", json_str(&command_output("rustc", &["-V"]))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seed_role", json_str(seed_role)),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "daemon",
            json_str(&format!(
                "{} shards x {} worker, loopback TCP, default socket options",
                daemon::SHARDS,
                daemon::WORKERS_PER_SHARD
            )),
        ),
    ]);
    stamp
}

fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let ran = match args.workload.as_str() {
        "soak" => soak::run(&args, &mut report),
        "hot_cache" => hot_cache::run(&args, &mut report),
        _ => cold_admit::run(&args, &mut report),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in wanted {
        match report.metrics.get(*name) {
            Some(m) if m.unit == *unit => {}
            _ => report.fail_check(format!("metric {name} ({unit}) missing")),
        }
    }
    let correct = report.check_failures.is_empty() && report.failed == 0;

    let metric_details: Vec<(&str, String)> = wanted
        .iter()
        .filter_map(|(name, _)| {
            report.metrics.get(*name).map(|m| {
                (
                    *name,
                    object(&[
                        ("value", json_num(m.value)),
                        ("samples", m.samples.to_string()),
                        ("source", json_str(&m.note)),
                    ]),
                )
            })
        })
        .collect();
    let determinism: Vec<(&str, String)> = report
        .determinism
        .iter()
        .map(|(k, v)| (*k, v.to_string()))
        .collect();
    let info: Vec<(&str, String)> = report
        .info
        .iter()
        .map(|(k, v)| (k.as_str(), json_str(v)))
        .collect();
    let failures: Vec<String> = report
        .check_failures
        .iter()
        .take(20)
        .map(|f| json_str(f))
        .collect();
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let full = object(&[
        ("provenance", object(&provenance(&args))),
        ("correct", correct.to_string()),
        ("attempted", report.attempted.to_string()),
        ("failed", report.failed.to_string()),
        ("failed_frac", json_num(failed_frac)),
        ("check_failures", format!("[{}]", failures.join(", "))),
        ("metrics", object(&metric_details)),
        ("determinism", object(&determinism)),
        ("info", object(&info)),
    ]);
    let path = out_dir().join(format!(
        "report-{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{full}\n")) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    println!("{full}");

    let metrics: Vec<(&str, String)> = wanted
        .iter()
        .filter_map(|(name, unit)| {
            report.metrics.get(*name).map(|m| {
                (
                    *name,
                    object(&[("value", json_num(m.value)), ("unit", json_str(unit))]),
                )
            })
        })
        .collect();
    println!(
        "{}",
        object(&[
            ("correct", correct.to_string()),
            ("attempted", report.attempted.max(1).to_string()),
            ("failed", report.failed.to_string()),
            ("metrics", object(&metrics)),
        ])
    );
    ExitCode::SUCCESS
}
