//! Turns a traced run's spans, the daemon's access log and the
//! counters the workload collected into the per-layer metrics.

use std::collections::{BTreeMap, BTreeSet};

use netdag_obs::keys;

use crate::daemon::LogLine;
use crate::stats::{percentile, Report};
use crate::trace::{self, LayerTime, Span};

/// Span names that are work done by a layer (as opposed to waiting on
/// the daemon or grouping other spans).
const COMPUTE: &[&str] = &[
    "scenario.generate",
    "serve.codec",
    "serve.fingerprint",
    "core.presolve",
    "core.solve",
    "validation.soft",
    "validation.weakly_hard",
    "weakly_hard.sampler_build",
    "lwb.executor_new",
    "lwb.run",
];

/// Counts a workload gathers beside its spans.
#[derive(Default)]
pub struct LayerInputs {
    /// Each connection's spans and measured window, ns since its epoch.
    pub threads: Vec<(Vec<Span>, u64, u64)>,
    /// Access-log lines of the measured requests.
    pub log: Vec<LogLine>,
    /// Requests the workload sent in the measured window.
    pub requests: u64,
    /// Round-trip time minus the daemon's queue and service time, summed
    /// over `wire_count` requests, µs.
    pub wire_total_us: f64,
    pub wire_count: u64,
    /// Round-trip time of the same requests, µs.
    pub rtt_total_us: f64,
    pub presolve_rejects: u64,
    pub solver_nodes: u64,
    pub solver_backtracks: u64,
    pub solver_propagations: u64,
    pub weakly_hard_trials: u64,
    pub sampler_windows: Vec<(u32, u32)>,
    pub lwb_rounds: u64,
    pub lwb_transmissions: u64,
    /// Daemon cache counters over the window: hits, misses, warm starts.
    pub cache: (u64, u64, u64),
    /// Glossy λ-table cache hits and misses over the window.
    pub glossy: (u64, u64),
    /// Wall time the workload's own input generation is a share of, ns.
    pub generate_base_ns: u64,
}

/// Snapshot of the process-wide glossy statistic-cache counters.
pub fn glossy_counters() -> (u64, u64) {
    let snap = netdag_obs::global().snapshot();
    let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    (get(keys::GLOSSY_CACHE_HITS), get(keys::GLOSSY_CACHE_MISSES))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn quantiles(report: &mut Report, name: &str, mut v: Vec<f64>, what: &str) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    report.set(
        &format!("{name}_p50_us"),
        percentile(&v, 0.5),
        "us",
        n,
        what,
    );
    report.set(
        &format!("{name}_p99_us"),
        percentile(&v, 0.99),
        "us",
        n,
        what,
    );
}

pub fn fill(report: &mut Report, inp: LayerInputs, wire_note: &str, tag: &str) {
    let spans: Vec<Vec<Span>> = inp.threads.iter().map(|(s, _, _)| s.clone()).collect();
    let times = trace::self_times(&spans);
    let t = |name: &str| times.get(name).copied().unwrap_or_default();
    let mean = |report: &mut Report, metric: &str, span: &str| {
        let lt: LayerTime = t(span);
        report.set(
            metric,
            lt.mean_us(),
            "us",
            lt.calls as usize,
            &format!("mean self time per {span} call"),
        );
    };

    report.set(
        "serve.wire_us",
        ratio(inp.wire_total_us, inp.wire_count as f64),
        "us",
        inp.wire_count as usize,
        wire_note,
    );
    report.set(
        "serve.wire_frac",
        ratio(inp.wire_total_us, inp.rtt_total_us),
        "frac",
        inp.wire_count as usize,
        "wire time over round-trip time",
    );
    let queue: Vec<f64> = inp.log.iter().map(|l| l.queue_us as f64).collect();
    quantiles(report, "serve.queue", queue, "access-log queue_us");
    let service = |op: &str| -> Vec<f64> {
        inp.log
            .iter()
            .filter(|l| op.is_empty() || l.op == op)
            .map(|l| l.service_us as f64)
            .collect()
    };
    quantiles(
        report,
        "serve.service",
        service(""),
        "access-log service_us, all ops",
    );
    quantiles(
        report,
        "serve.service_solve",
        service("solve"),
        "access-log service_us, solve",
    );
    quantiles(
        report,
        "serve.service_validate",
        service("validate"),
        "access-log service_us, validate",
    );
    quantiles(
        report,
        "serve.service_batch",
        service("batch_solve"),
        "access-log service_us, batch_solve",
    );
    let codec = t("serve.codec");
    report.set(
        "serve.codec_us",
        ratio(codec.self_ns as f64 / 1e3, inp.requests as f64),
        "us",
        inp.requests as usize,
        "client and daemon encode plus decode, per request",
    );
    mean(report, "serve.fingerprint_us", "serve.fingerprint");
    let (hits, misses, warm) = inp.cache;
    report.set(
        "serve.cache_hit_rate",
        ratio(hits as f64, (hits + misses + warm) as f64),
        "frac",
        (hits + misses + warm) as usize,
        "cache_stats delta over the window",
    );
    report.set(
        "serve.cache_hits",
        hits as f64,
        "count",
        1,
        "cache_stats delta",
    );
    report.set(
        "serve.cache_misses",
        misses as f64,
        "count",
        1,
        "cache_stats delta",
    );
    report.set(
        "serve.warm_starts",
        warm as f64,
        "count",
        1,
        "cache_stats delta",
    );

    mean(report, "core.presolve_us", "core.presolve");
    report.set(
        "core.presolve_rejects",
        inp.presolve_rejects as f64,
        "count",
        1,
        "timing presolve rejections",
    );
    mean(report, "core.solve_us", "core.solve");
    let solves = t("core.solve");
    let per_solve = |v: u64| ratio(v as f64, solves.calls as f64);
    report.set(
        "solver.nodes",
        per_solve(inp.solver_nodes),
        "count",
        solves.calls as usize,
        "mean per solve",
    );
    report.set(
        "solver.backtracks",
        per_solve(inp.solver_backtracks),
        "count",
        solves.calls as usize,
        "mean per solve",
    );
    report.set(
        "solver.propagations",
        per_solve(inp.solver_propagations),
        "count",
        solves.calls as usize,
        "mean per solve",
    );
    report.set(
        "solver.nodes_per_s",
        ratio(inp.solver_nodes as f64, solves.self_ns as f64 / 1e9),
        "1/s",
        solves.calls as usize,
        "search nodes over core.solve self time",
    );

    mean(
        report,
        "validation.weakly_hard_us",
        "validation.weakly_hard",
    );
    mean(report, "validation.soft_us", "validation.soft");
    report.set(
        "validation.weakly_hard_trials",
        inp.weakly_hard_trials as f64,
        "count",
        1,
        "adversarial trials run",
    );
    mean(
        report,
        "weakly_hard.sampler_build_us",
        "weakly_hard.sampler_build",
    );
    let distinct: BTreeSet<&(u32, u32)> = inp.sampler_windows.iter().collect();
    report.set(
        "weakly_hard.distinct_windows",
        ratio(distinct.len() as f64, inp.sampler_windows.len() as f64),
        "frac",
        inp.sampler_windows.len(),
        "distinct (m, K) windows over sampler builds",
    );
    mean(report, "lwb.executor_new_us", "lwb.executor_new");
    mean(report, "lwb.run_us", "lwb.run");
    report.set(
        "lwb.rounds",
        inp.lwb_rounds as f64,
        "count",
        1,
        "rounds replayed",
    );
    report.set(
        "lwb.transmissions",
        inp.lwb_transmissions as f64,
        "count",
        1,
        "packets sent in replay",
    );
    let (g_hits, g_misses) = inp.glossy;
    report.set(
        "glossy.stat_cache_hit_rate",
        ratio(g_hits as f64, (g_hits + g_misses) as f64),
        "frac",
        (g_hits + g_misses) as usize,
        "glossy.cache_hits over hits plus misses",
    );
    mean(report, "scenario.generate_us", "scenario.generate");
    report.set(
        "scenario.generate_frac",
        ratio(
            t("scenario.generate").self_ns as f64,
            inp.generate_base_ns as f64,
        ),
        "frac",
        1,
        "input generation over the workload's wall time",
    );

    let window_ns: u64 = inp.threads.iter().map(|(_, a, b)| b - a).sum();
    report.set(
        "trace.coverage_frac",
        trace::coverage(&times, window_ns),
        "frac",
        1,
        "self time of layer spans (all but request and shadow) over each connection's window",
    );
    let span_count: usize = spans.iter().map(Vec::len).sum();
    report.set(
        "trace.overhead_frac",
        ratio(span_count as f64 * trace::span_cost_ns(), window_ns as f64),
        "frac",
        span_count,
        "spans recorded times measured cost per span, over the window",
    );

    let budget: BTreeMap<&str, String> = times
        .iter()
        .map(|(name, lt)| {
            (
                *name,
                format!(
                    "{} calls, {:.1} ms self, {:.4} of window",
                    lt.calls,
                    lt.self_ns as f64 / 1e6,
                    ratio(lt.self_ns as f64, window_ns as f64)
                ),
            )
        })
        .collect();
    for (name, line) in &budget {
        report.info(&format!("budget.{name}"), line);
    }
    if let Some((name, _)) = times
        .iter()
        .filter(|(n, _)| COMPUTE.contains(n))
        .max_by_key(|(_, lt)| lt.self_ns)
    {
        report.info("largest_compute_layer", name);
    }
    let path = crate::out_dir().join(format!("spans-{tag}.ndjson"));
    if let Err(e) = trace::write_spans(&path, &spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
