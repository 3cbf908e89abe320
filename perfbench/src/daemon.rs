//! The in-process `netdag serve` daemon the workloads drive over
//! loopback TCP, and its structured access log.

use std::io::{self, BufRead};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use netdag_serve::protocol::{CacheStatsBody, Request, STATUS_OK};
use netdag_serve::{Client, ServeConfig, ServeReport};

/// Shards × workers per shard: two worker threads in total, one per
/// core of the reference two-core machine.
pub const SHARDS: usize = 2;
pub const WORKERS_PER_SHARD: usize = 1;

/// Daemon configuration of the `hot_cache` and `cold_admit` workloads:
/// 32 cache entries per shard hold the whole `hot_cache` pool, and are
/// far fewer than the unique problems `cold_admit` sends.
pub fn serve_config(access_log: PathBuf) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        workers: WORKERS_PER_SHARD,
        queue_capacity: 64,
        cache_capacity: 32,
        access_log: Some(access_log),
        ..ServeConfig::default()
    }
}

/// Set-ups per run when a set-up is only daemon start to first answer:
/// well under a millisecond, except when the daemon's accept loop wins
/// the race with the first connect and sleeps one 25 ms poll. `setup_s`
/// is the median of many, so those slow starts do not move it.
pub const QUICK_SETUPS: usize = 61;

pub struct Daemon {
    pub addr: SocketAddr,
    pub log: PathBuf,
    handle: JoinHandle<io::Result<ServeReport>>,
}

impl Daemon {
    /// Starts a daemon and waits for its first answer.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        let log = cfg
            .access_log
            .clone()
            .expect("benchmark daemons keep an access log");
        let (addr, handle) = netdag_scenario::spawn_daemon(cfg)?;
        let daemon = Daemon { addr, log, handle };
        let resp = Client::connect(addr)?.send(&Request::op("health"))?;
        if resp.status != STATUS_OK {
            return Err(io::Error::other(format!("health answered {}", resp.status)));
        }
        Ok(daemon)
    }

    pub fn cache_stats(&self) -> io::Result<CacheStatsBody> {
        Client::connect(self.addr)?
            .send(&Request::op("cache_stats"))?
            .cache
            .ok_or_else(|| io::Error::other("cache_stats without a body"))
    }

    /// Drains the daemon and waits for it to exit.
    pub fn stop(self) -> io::Result<ServeReport> {
        Client::connect(self.addr)?.send(&Request::op("shutdown"))?;
        self.handle
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// Sets the daemon up `times` times — start, first answer, then
/// `prefill` — stopping all but the last. Returns the last daemon, its
/// prefill result and every set-up's seconds.
pub fn set_up<P>(
    name: &str,
    times: usize,
    config: impl Fn(PathBuf) -> ServeConfig,
    mut prefill: impl FnMut(&Daemon) -> io::Result<P>,
) -> io::Result<(Daemon, P, Vec<f64>)> {
    let mut secs = Vec::new();
    let mut last: Option<(Daemon, P)> = None;
    for r in 0..times {
        if let Some((daemon, _)) = last.take() {
            daemon.stop()?;
        }
        let log = crate::out_dir().join(format!("access-{name}-{r}.ndjson"));
        let started = Instant::now();
        let daemon = Daemon::start(config(log))?;
        let filled = prefill(&daemon)?;
        secs.push(started.elapsed().as_secs_f64());
        last = Some((daemon, filled));
    }
    let (daemon, filled) = last.expect("at least one set-up");
    Ok((daemon, filled, secs))
}

/// One access-log line (one per worker-handled job).
#[derive(Debug, Clone)]
pub struct LogLine {
    pub id: Option<u64>,
    pub op: String,
    pub cache: String,
    pub nodes: u64,
    pub queue_us: u64,
    pub service_us: u64,
}

pub fn read_log(path: &Path) -> io::Result<Vec<LogLine>> {
    fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
        match v {
            serde::Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn text(v: &serde::Value, key: &str) -> String {
        match field(v, key) {
            Some(serde::Value::String(s)) => s.clone(),
            _ => String::new(),
        }
    }
    let num =
        |v: &serde::Value, key: &str| field(v, key).and_then(serde::Value::as_u64).unwrap_or(0);
    let mut out = Vec::new();
    for line in io::BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        let v = serde_json::parse(&line).map_err(io::Error::other)?;
        out.push(LogLine {
            id: field(&v, "id").and_then(serde::Value::as_u64),
            op: text(&v, "op"),
            cache: text(&v, "cache"),
            nodes: num(&v, "nodes"),
            queue_us: num(&v, "queue_us"),
            service_us: num(&v, "service_us"),
        });
    }
    Ok(out)
}
