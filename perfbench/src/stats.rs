//! Percentiles and the result record every workload fills in.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The tail percentile for `n` samples: the highest of p99 and p90 that
/// leaves at least ten samples above it, else p50, else the maximum.
pub fn tail_quantile(n: usize) -> (f64, &'static str) {
    for (q, label) in [(0.99, "p99"), (0.90, "p90"), (0.50, "p50")] {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return (q, label);
        }
    }
    (1.0, "max")
}

/// One metric with its unit and, for latencies, where it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Exact counts that must repeat across runs of one commit and seed.
    pub determinism: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Free-form facts about the run (counts, layer budget).
    pub info: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize, note: &str) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
                note: note.to_owned(),
            },
        );
    }

    /// Records `<prefix>_p50_us` and `<prefix>_tail_us` from latency
    /// samples in µs; `source` says what was timed. The tail percentile
    /// is resolved from `guaranteed`, the sample count every run of the
    /// workload collects, not from the actual count: otherwise a faster
    /// program, collecting more samples in the time box, would move the
    /// tail from p90 to p99 and read as a regression.
    pub fn latency(&mut self, prefix: &str, samples: &[f64], guaranteed: usize, source: &str) {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        if v.len() < guaranteed {
            self.fail_check(format!(
                "{prefix}: {} samples, fewer than the {guaranteed} every run must collect",
                v.len()
            ));
        }
        let (q, label) = tail_quantile(guaranteed);
        self.set(
            &format!("{prefix}_p50_us"),
            percentile(&v, 0.5),
            "us",
            v.len(),
            source,
        );
        self.set(
            &format!("{prefix}_tail_us"),
            percentile(&v, q),
            "us",
            v.len(),
            &format!("{label} of {source}"),
        );
    }

    pub fn fail_check(&mut self, what: String) {
        if self.check_failures.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.check_failures.push(what);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.to_owned(), value.to_string());
    }

    /// Sets `peak_rss_mb` from the peak so far. Workloads call it when
    /// the measured window ends, before their own post-window checks.
    pub fn peak_rss_at_window_end(&mut self) {
        self.set(
            "peak_rss_mb",
            peak_rss_mb(),
            "MiB",
            1,
            "VmHWM of the benchmark process, daemon included, at the end of the window",
        );
    }
}

/// Peak resident set size of this process in MiB (daemon included,
/// since it runs in-process).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
