//! The TCP server: decode, admission, shard fleet, solving, shutdown.
//!
//! ```text
//!            ┌───────────────┐  ring   ┌─ shard 0: queue+caches+pool ─┐
//!  client ──▶│ connection    │──route──▶  shard 1: queue+caches+pool  │
//!  (NDJSON)  │ thread (read  │◀─ slot ─│  …                           │
//!            │ timeout poll) │         └─ shard N-1 ──────────────────┘
//!            └───────────────┘
//! ```
//!
//! * The **acceptor** polls a non-blocking listener and spawns one
//!   scoped thread per connection.
//! * **Connection threads** parse one request per line. Cheap
//!   operations (`cache_stats`, `metrics`, `health`, `shutdown`,
//!   malformed input) are answered inline. A `solve` / `validate`
//!   request (and each `batch_solve` item) goes through the one
//!   `decode` step: the application, the constraint mix and the
//!   configuration are built and the request fingerprinted exactly
//!   once, and everything downstream — the CPM presolve, ring routing,
//!   the worker's cache probe and solve — uses that one result. A
//!   request that fails to decode still travels to its worker, which
//!   answers with the decode error, so every such request is logged and
//!   timed like any other.
//! * **Admission** has one path, `admit`: an all-or-nothing enqueue
//!   of `(shard, work)` groups onto [`ServeConfig::shards`] independent
//!   bounded queues chosen by the consistent-hash [`Ring`]. A single
//!   request is one group; `batch_solve` groups its items by
//!   destination shard and reassembles the per-item answers in request
//!   order. When any target queue is full, or after shutdown began, the
//!   whole request is rejected immediately with a structured reason
//!   rather than queued without bound. The two read-only probes
//!   (`metrics`, `health`) are excluded from request counting so
//!   polling them never perturbs the telemetry they report.
//! * **Shards** each own a solution cache and a mode cache — two
//!   instances of the one LRU core in [`crate::cache`] — and
//!   [`ServeConfig::workers`] worker threads (a
//!   [`netdag_runtime::run_indexed`] fan-out of `shards × workers`).
//!   Routing by the *structural* fingerprint hash keeps every
//!   structural family on one shard, so exact/warm/miss classification
//!   — and therefore every response byte — is identical at any shard
//!   count. Each solve first probes its shard's cache: an exact hit
//!   answers verbatim with zero solver nodes; a structural hit
//!   warm-starts branch-and-bound through [`SolveControl`]; a miss
//!   solves cold. A per-request deadline is enforced by the same
//!   controller — expiry returns the best incumbent found so far,
//!   marked incomplete.
//! * **Warm restart** ([`ServeConfig::cache_snapshot`]): at startup the
//!   snapshot file, if present, is validated against its schema tag and
//!   every entry is re-routed through the *current* ring — a snapshot
//!   written by an N-shard daemon restores into an M-shard one. On
//!   graceful drain the merged cache contents are written back
//!   atomically (sibling temp file + `rename`).
//! * **Shutdown** (the `shutdown` operation) stops admission, wakes
//!   every worker, and lets them drain all accepted requests before
//!   [`serve`] returns; every accepted request is answered.
//!
//! All counters land in the global [`netdag_obs`] recorder under the
//! `serve.*` keys and every request runs inside a `serve.request`
//! trace span, so `netdag serve --metrics/--trace` export them with the
//! standard schemas. Live telemetry layers on top: per-server
//! [`netdag_obs::WindowedHist`] rings answer the `metrics` operation
//! with rolling p50/p90/p99 over recent traffic, each worker-handled
//! request can emit one structured JSON access-log line
//! ([`ServeConfig::access_log`]) carrying the same `rid` stamped into
//! its trace span, periodic delta snapshots are written atomically
//! every [`ServeConfig::metrics_interval`] completed requests, and an
//! [`SloGate`] is evaluated against the windowed data at shutdown.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use netdag_core::app::Application;
use netdag_core::config::{Backend, RoundStructure, ScheduleError, SchedulerConfig};
use netdag_core::constraints::WeaklyHardConstraints;
use netdag_core::control::SolveControl;
use netdag_core::modes::schedule_modes;
use netdag_core::problem::Mix;
use netdag_core::spec::ScheduleExport;
use netdag_obs::{counter, keys, Gauge, SloGate, SloInputs, SloReport, WindowedHist};
use netdag_runtime::{run_indexed, ExecPolicy};
use netdag_validation::validate_schedule;

use crate::cache::{Lookup, ModeCache, SolutionCache};
use crate::fingerprint::{fingerprint, mode_fingerprint, Fingerprint};
use crate::protocol::{
    CacheStatsBody, HealthBody, MetricsBody, Request, Response, RollingStats, ShardCacheStats,
    StatSpec, ValidationReport, WindowMeta, MAX_VALIDATE_KAPPA, MAX_VALIDATE_TRIALS,
    REASON_QUEUE_FULL, REASON_SHUTTING_DOWN, STATUS_INCOMPLETE, STATUS_INFEASIBLE, STATUS_OK,
};
use crate::ring::Ring;
use crate::snapshot::{self, CacheSnapshot, ModeSnapshotEntry};

/// How often blocked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Independent shards (minimum 1). Each shard owns its own
    /// solution cache, mode cache, admission queue, and worker pool;
    /// requests are routed by consistent hashing over the structural
    /// fingerprint, so responses are byte-identical at any shard count.
    pub shards: usize,
    /// Worker threads solving requests **per shard** (minimum 1).
    pub workers: usize,
    /// Admission queue bound **per shard**: requests beyond this many
    /// waiting are rejected with [`REASON_QUEUE_FULL`].
    pub queue_capacity: usize,
    /// Solution cache bound **per shard** (LRU eviction beyond it).
    pub cache_capacity: usize,
    /// Engine node budget between deadline polls of a controlled solve.
    pub step_nodes: u64,
    /// Structured JSON access-log path: one line per worker-handled
    /// request. `None` disables logging.
    pub access_log: Option<PathBuf>,
    /// Target file of the periodic snapshot writer (the CLI passes its
    /// `--metrics` path). Only used when `metrics_interval > 0`.
    pub metrics_path: Option<PathBuf>,
    /// Write a delta metrics snapshot every this many completed
    /// requests (0 disables the writer). Writes go to a sibling temp
    /// file then `rename`, so readers never observe a torn document.
    pub metrics_interval: u64,
    /// Ring slots of each rolling telemetry window.
    pub window_slots: usize,
    /// Advance the rolling windows every this many completed requests,
    /// so the window covers the last `window_slots × window_tick`
    /// requests of traffic.
    pub window_tick: u64,
    /// Thresholds evaluated against the windowed data at shutdown
    /// (empty by default: no checks, report omitted).
    pub slo: SloGate,
    /// Cache persistence file: restored (re-routed onto the current
    /// ring) before accepting connections, written atomically on
    /// graceful drain. `None` disables persistence.
    pub cache_snapshot: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            step_nodes: 4096,
            access_log: None,
            metrics_path: None,
            metrics_interval: 0,
            window_slots: 16,
            window_tick: 64,
            slo: SloGate::default(),
            cache_snapshot: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`serve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Request lines received (including malformed and rejected ones).
    pub requests: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Exact cache hits.
    pub cache_hits: u64,
    /// Cold solves.
    pub cache_misses: u64,
    /// Warm-started solves.
    pub warm_starts: u64,
    /// Solves truncated by their deadline.
    pub deadline_expired: u64,
    /// Cache entries restored from [`ServeConfig::cache_snapshot`].
    pub restored: u64,
    /// The shutdown SLO verdict; `None` when no gate was configured.
    pub slo: Option<SloReport>,
}

/// A `solve`, `validate` or batch-item request after [`decode`]: built
/// once, on the connection thread, and shared by the presolve, ring
/// routing and the worker.
struct Problem {
    app: Application,
    /// A solve has exactly one mix; a validation has the soft mix
    /// and/or the weakly hard one, in that order.
    mixes: Vec<Mix>,
    cfg: SchedulerConfig,
    fp: Fingerprint,
}

/// What [`decode`] makes of a request.
struct Decoded {
    /// The structural hash the ring routes by; `None` only without an
    /// app spec. A request that fails to build still routes by it.
    route: Option<u64>,
    /// The built problem, or the error its worker answers with.
    problem: Result<Problem, String>,
}

/// The one decode step of a `solve` or `validate` request: fingerprint
/// it and build its application and constraint mix. Errors are checked
/// in a fixed order, one message per defect.
fn decode(req: &Request) -> Decoded {
    let Some(app_spec) = req.app.as_ref() else {
        return Decoded {
            route: None,
            problem: Err(format!("{} needs an \"app\" spec", req.op)),
        };
    };
    let cfg = config_from(req);
    // Normalized so a defaulted statistic fingerprints like an
    // explicit one.
    let stat = req.stat.clone().unwrap_or(StatSpec {
        kind: "eq13".into(),
        fss: None,
    });
    let fp = fingerprint(
        app_spec,
        req.soft.as_ref(),
        req.weakly_hard.as_ref(),
        &stat,
        &cfg,
    );
    let validate = req.op == "validate";
    let build = || -> Result<(Application, Vec<Mix>), String> {
        if validate {
            if req.schedule.is_none() {
                return Err("validate needs a \"schedule\" document".into());
            }
            if req.soft.is_none() && req.weakly_hard.is_none() {
                return Err("validate needs \"soft\" and/or \"weakly_hard\" constraints".into());
            }
        } else if req.soft.is_some() && req.weakly_hard.is_some() {
            return Err("\"soft\" and \"weakly_hard\" are mutually exclusive".into());
        }
        let invalid = |e| format!("invalid spec: {e}");
        let (app, names) = app_spec.build().map_err(invalid)?;
        let mut mixes = Vec::new();
        if let Some(soft) = req.soft.as_ref() {
            // Validation reads only `fss`; a solve also insists on eq15.
            let Some(fss) = stat.fss.filter(|_| validate || stat.kind == "eq15") else {
                return Err(if validate {
                    "soft validation needs \"stat\": {\"kind\": \"eq15\", \"fss\": …}"
                } else {
                    "soft solving needs \"stat\": {\"kind\": \"eq15\", \"fss\": …}"
                }
                .into());
            };
            mixes.push(Mix::Soft(fss, soft.build(&names).map_err(invalid)?));
        } else if !validate && stat.kind != "eq13" {
            return Err("weakly hard solving needs \"stat\": {\"kind\": \"eq13\"}".into());
        }
        match req.weakly_hard.as_ref() {
            Some(spec) => mixes.push(Mix::WeaklyHard(spec.build(&names).map_err(invalid)?)),
            // An unconstrained solve is weakly hard with no constraints.
            None if mixes.is_empty() => mixes.push(Mix::WeaklyHard(WeaklyHardConstraints::new())),
            None => {}
        }
        Ok((app, mixes))
    };
    Decoded {
        route: Some(fp.structural),
        problem: build().map(|(app, mixes)| Problem {
            app,
            mixes,
            cfg,
            fp,
        }),
    }
}

/// What a queued job asks its shard's worker to do.
enum Work {
    /// A `solve` or `validate` request with its one [`decode`].
    Single {
        req: Box<Request>,
        problem: Result<Problem, String>,
    },
    /// A `mode_solve` request with its configuration and mode-set hash
    /// (`None` without a `modes` spec), computed once on the connection
    /// thread.
    Modes {
        req: Box<Request>,
        cfg: SchedulerConfig,
        key: Option<u64>,
    },
    /// One shard's slice of a `batch_solve` request: the decoded items
    /// in batch order, each solved as a standalone `solve` carrying the
    /// batch head's id and deadline. The worker answers with a `batch`
    /// array aligned to this slice; items run back-to-back, so a repeat
    /// hits the cache its predecessor just filled and structural
    /// neighbours chain warm starts within the batch.
    Batch {
        head_id: Option<u64>,
        deadline_ms: Option<u64>,
        items: Vec<Result<Problem, String>>,
    },
}

impl Work {
    /// Operation label for the trace span and access log.
    fn op(&self) -> &str {
        match self {
            Work::Single { req, .. } | Work::Modes { req, .. } => &req.op,
            Work::Batch { .. } => "batch_solve",
        }
    }

    /// Client correlation id.
    fn id(&self) -> Option<u64> {
        match self {
            Work::Single { req, .. } | Work::Modes { req, .. } => req.id,
            Work::Batch { head_id, .. } => *head_id,
        }
    }
}

/// One queued job plus the slot its response is delivered through.
struct Job {
    work: Work,
    /// Server-assigned request id, stamped into both the access-log
    /// line and the `serve.request` trace span so the two correlate.
    rid: u64,
    accepted_at: Instant,
    slot: std::sync::Arc<Slot>,
}

/// Single-use rendezvous between a worker and a connection thread.
struct Slot {
    done: Mutex<Option<Response>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> std::sync::Arc<Slot> {
        std::sync::Arc::new(Slot {
            done: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, resp: Response) {
        *lock(&self.done) = Some(resp);
        self.ready.notify_all();
    }

    fn wait(&self) -> Response {
        let mut guard = lock(&self.done);
        loop {
            if let Some(resp) = guard.take() {
                return resp;
            }
            guard = self.ready.wait(guard).expect("slot lock");
        }
    }
}

/// The daemon's rolling telemetry windows, one per windowed metric.
/// All four tick together every [`ServeConfig::window_tick`] completed
/// requests. `solver_nodes` is count-based and therefore pinned
/// bit-identical across worker counts; the three wall-time windows are
/// reported but exempt from determinism pins.
struct Windows {
    latency_us: WindowedHist,
    queue_wait_us: WindowedHist,
    service_us: WindowedHist,
    solver_nodes: WindowedHist,
}

impl Windows {
    fn new(slots: usize) -> Windows {
        Windows {
            latency_us: WindowedHist::new(slots),
            queue_wait_us: WindowedHist::new(slots),
            service_us: WindowedHist::new(slots),
            solver_nodes: WindowedHist::new(slots),
        }
    }

    fn tick(&self) {
        self.latency_us.tick();
        self.queue_wait_us.tick();
        self.service_us.tick();
        self.solver_nodes.tick();
    }

    /// The `metrics` operation's `rolling` section, in fixed name
    /// order.
    fn rolling(&self) -> Vec<RollingStats> {
        [
            ("serve.latency_us", &self.latency_us),
            ("serve.queue_wait_us", &self.queue_wait_us),
            ("serve.service_us", &self.service_us),
            ("serve.solver_nodes", &self.solver_nodes),
        ]
        .into_iter()
        .map(|(name, w)| {
            let s = w.stats();
            RollingStats {
                name: name.to_owned(),
                count: s.count,
                sum: s.sum,
                max: s.max,
                p50: s.p50,
                p90: s.p90,
                p99: s.p99,
            }
        })
        .collect()
    }
}

/// Handles to the global `serve.*` gauges, resolved once per server.
struct Gauges {
    queue_depth: Gauge,
    in_flight: Gauge,
    cache_entries: Gauge,
    workers_live: Gauge,
    shards: Gauge,
}

impl Gauges {
    fn new() -> Gauges {
        let r = netdag_obs::global();
        Gauges {
            queue_depth: r.gauge(keys::GAUGE_SERVE_QUEUE_DEPTH),
            in_flight: r.gauge(keys::GAUGE_SERVE_IN_FLIGHT),
            cache_entries: r.gauge(keys::GAUGE_SERVE_CACHE_ENTRIES),
            workers_live: r.gauge(keys::GAUGE_SERVE_WORKERS_LIVE),
            shards: r.gauge(keys::GAUGE_SERVE_SHARDS),
        }
    }
}

/// One shard of the fleet: its own admission queue, caches, and
/// restore counter. Workers are bound to exactly one shard, so a
/// shard's caches are only ever touched by its own pool (plus the
/// connection threads reading stats).
struct ShardState {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    cache: Mutex<SolutionCache>,
    mode_cache: Mutex<ModeCache>,
    /// Entries restored into this shard from the startup snapshot.
    restored: AtomicU64,
}

impl ShardState {
    fn new(cache_capacity: usize) -> ShardState {
        ShardState {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            cache: Mutex::new(SolutionCache::new(cache_capacity)),
            mode_cache: Mutex::new(ModeCache::new(cache_capacity)),
            restored: AtomicU64::new(0),
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    started: Instant,
    ring: Ring,
    shards: Vec<ShardState>,
    shutdown: AtomicBool,
    in_flight: AtomicU64,
    /// This daemon's live worker threads (the obs gauge of the same
    /// name is process-global and would sum over in-process daemons).
    workers_live: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    /// Requests fully handled by a worker (drives window ticks and the
    /// interval snapshot writer).
    completed: AtomicU64,
    /// Per-server deadline expiries (the obs counter is process-global
    /// and would double-count across in-process servers).
    deadline_expired: AtomicU64,
    /// Next server-assigned request id.
    next_rid: AtomicU64,
    windows: Windows,
    gauges: Gauges,
    /// Open access log, when configured.
    access: Option<Mutex<BufWriter<std::fs::File>>>,
    /// Baseline of the last interval snapshot, so each written file is
    /// a true delta covering only its own interval.
    snap_base: Mutex<netdag_obs::MetricsReport>,
    /// Upper bound on a request's `threads` and `config.threads`: the
    /// machine's available parallelism, read once, by the first request
    /// that names a thread count (the read costs tens of µs, a sizable
    /// share of a daemon start).
    max_threads: OnceLock<u64>,
}

impl Shared {
    /// The shard owning ring key `key`; a request without one (no app
    /// or mode spec to hash) goes to shard 0.
    fn shard_for(&self, key: Option<u64>) -> usize {
        key.map_or(0, |k| self.ring.route(k))
    }

    /// Wakes every shard's worker pool (the shutdown broadcast).
    fn wake_all(&self) {
        for shard in &self.shards {
            shard.ready.notify_all();
        }
    }
}

/// Locks a daemon mutex; a poisoned lock means a worker panicked
/// mid-update, and the daemon does not serve from torn state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("serve lock poisoned")
}

/// Runs the daemon on an already-bound listener until a client sends a
/// `shutdown` request; every request accepted before then is answered
/// before this returns. The listener may be bound to port 0 — callers
/// should print `listener.local_addr()` for clients.
///
/// # Errors
///
/// Returns the listener's error if it cannot be switched to
/// non-blocking mode, the filesystem error if a configured access log
/// cannot be created, or a configured cache snapshot's error if the
/// file exists but is unreadable, unparsable, or carries an unsupported
/// schema tag (a missing file is a normal cold start); per-connection
/// I/O errors only terminate the affected connection.
pub fn serve(listener: TcpListener, cfg: &ServeConfig) -> std::io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    // Pin the full instrument schema before the first `metrics`
    // response so its embedded obs document has the same key set as a
    // `--metrics` file, whichever entry point started the daemon.
    netdag_obs::global().preregister(
        keys::ALL_COUNTERS,
        keys::ALL_SPANS,
        keys::ALL_HISTOGRAMS,
        keys::ALL_GAUGES,
    );
    let access = match cfg.access_log.as_ref() {
        Some(path) => Some(Mutex::new(BufWriter::new(std::fs::File::create(path)?))),
        None => None,
    };
    let nshards = cfg.shards.max(1);
    let shared = Shared {
        cfg: cfg.clone(),
        started: Instant::now(),
        ring: Ring::new(nshards),
        shards: (0..nshards)
            .map(|_| ShardState::new(cfg.cache_capacity))
            .collect(),
        shutdown: AtomicBool::new(false),
        in_flight: AtomicU64::new(0),
        workers_live: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        deadline_expired: AtomicU64::new(0),
        next_rid: AtomicU64::new(1),
        windows: Windows::new(cfg.window_slots),
        gauges: Gauges::new(),
        access,
        snap_base: Mutex::new(netdag_obs::global().snapshot()),
        max_threads: OnceLock::new(),
    };
    shared.gauges.shards.set(nshards as u64);
    // Warm restart: load the predecessor's cache before accepting any
    // connection, re-routing every entry through *this* daemon's ring.
    if let Some(path) = cfg.cache_snapshot.as_ref() {
        if let Some(snap) = snapshot::load(path)? {
            restore_snapshot(&shared, snap);
        }
    }
    let workers = cfg.workers.max(1);
    let pool = nshards * workers;
    std::thread::scope(|scope| {
        scope.spawn(|| accept_loop(&listener, &shared, scope));
        // The shard pools run on the calling thread's fan-out — worker
        // `i` drains shard `i % nshards` — and return only when
        // shutdown was requested and every queue is drained.
        run_indexed(ExecPolicy::Threads(pool), pool, |i| {
            worker_loop(&shared, &shared.shards[i % nshards]);
        });
    });
    if let Some(log) = shared.access.as_ref() {
        let _ = lock(log).flush();
    }
    // Persist the drained fleet's caches. A write failure is reported
    // but does not fail the daemon: every accepted request was already
    // answered, and the stale-or-absent file is detected on restart.
    if let Some(path) = cfg.cache_snapshot.as_ref() {
        if let Err(e) = snapshot::store(path, &collect_snapshot(&shared)) {
            eprintln!(
                "netdag-serve: cache snapshot to {} failed: {e}",
                path.display()
            );
        }
    }
    let s = aggregate_stats(&shared);
    let deadline_expired = shared.deadline_expired.load(Ordering::Relaxed);
    let slo = if cfg.slo.is_empty() {
        None
    } else {
        let lookups = s.hits + s.misses + s.warm_starts;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            s.hits as f64 / lookups as f64
        };
        Some(cfg.slo.evaluate(&SloInputs {
            p99_us: shared.windows.latency_us.stats().p99,
            hit_rate,
            deadline_expired,
        }))
    };
    Ok(ServeReport {
        requests: shared.requests.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        cache_hits: s.hits,
        cache_misses: s.misses,
        warm_starts: s.warm_starts,
        deadline_expired,
        restored: s.restored,
        slo,
    })
}

/// Routes every snapshot entry of each kind through the current ring
/// and replays each shard's slice into its cache, least- to
/// most-recent, through [`crate::cache::Lru::restore`] (which keeps the
/// newest `cache_capacity` entries when a larger fleet or cache wrote
/// the snapshot).
fn restore_snapshot(shared: &Shared, snap: CacheSnapshot) {
    let solutions = by_shard(&shared.ring, snap.entries, |e| e.structural);
    let modes = by_shard(&shared.ring, snap.mode_entries, |e| e.key);
    let mut restored_total = 0u64;
    let mut entries_total = 0u64;
    for ((shard, solutions), modes) in shared.shards.iter().zip(solutions).zip(modes) {
        let mut cache = lock(&shard.cache);
        let mut restored = cache.lru.restore(solutions);
        entries_total += cache.lru.len() as u64;
        drop(cache);
        restored += lock(&shard.mode_cache).restore(modes);
        shard.restored.fetch_add(restored, Ordering::Relaxed);
        restored_total += restored;
    }
    netdag_obs::global()
        .counter(keys::SERVE_CACHE_RESTORED)
        .add(restored_total);
    shared.gauges.cache_entries.set(entries_total);
}

/// Splits one kind of snapshot entries by owning shard, keeping order.
fn by_shard<E>(ring: &Ring, entries: Vec<E>, route: impl Fn(&E) -> u64) -> Vec<Vec<E>> {
    let mut out: Vec<Vec<E>> = (0..ring.shards()).map(|_| Vec::new()).collect();
    for entry in entries {
        out[ring.route(route(&entry))].push(entry);
    }
    out
}

/// Merges every shard's caches into one snapshot document, shard by
/// shard, each shard's entries in least- to most-recent order.
fn collect_snapshot(shared: &Shared) -> CacheSnapshot {
    let mut snap = CacheSnapshot::new();
    for shard in &shared.shards {
        snap.entries.extend(lock(&shard.cache).lru.export());
        snap.mode_entries.extend(lock(&shard.mode_cache).export());
    }
    snap
}

/// The `cache_stats` aggregate over the whole fleet plus the per-shard
/// breakdown. Everything except the `shards` rows is invariant under
/// the shard count for the same request sequence (absent evictions),
/// because the ring routes each structural family to exactly one
/// shard; `capacity` is the per-shard bound. Mode-cache traffic is not
/// counted, only its live entries.
fn aggregate_stats(shared: &Shared) -> CacheStatsBody {
    let in_flight = shared.in_flight.load(Ordering::SeqCst);
    let mut queued = 0;
    let shards: Vec<ShardCacheStats> = shared
        .shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            queued += lock(&shard.queue).len() as u64;
            let mode_entries = lock(&shard.mode_cache).len() as u64;
            let c = lock(&shard.cache);
            ShardCacheStats {
                shard: i as u64,
                entries: c.lru.len() as u64,
                hits: c.hits,
                misses: c.misses,
                warm_starts: c.warm_starts,
                evictions: c.lru.evictions(),
                restored: shard.restored.load(Ordering::Relaxed),
                mode_entries,
            }
        })
        .collect();
    let sum = |field: fn(&ShardCacheStats) -> u64| shards.iter().map(field).sum();
    CacheStatsBody {
        entries: sum(|r| r.entries),
        capacity: shared.cfg.cache_capacity.max(1) as u64,
        hits: sum(|r| r.hits),
        misses: sum(|r| r.misses),
        warm_starts: sum(|r| r.warm_starts),
        evictions: sum(|r| r.evictions),
        queued,
        in_flight,
        mode_entries: sum(|r| r.mode_entries),
        restored: sum(|r| r.restored),
        shards,
    }
}

fn accept_loop<'scope>(
    listener: &'scope TcpListener,
    shared: &'scope Shared,
    scope: &'scope std::thread::Scope<'scope, '_>,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                scope.spawn(move || handle_connection(stream, shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Blocking reads with a short timeout so the thread notices
    // shutdown even on an idle connection.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // `read_line` may have buffered a partial line before a
        // timeout, so `line` is only cleared after a complete one.
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                if !line.trim().is_empty() {
                    let resp = process_line(shared, &line);
                    let mut text = match serde_json::to_string(&resp) {
                        Ok(t) => t,
                        Err(_) => return,
                    };
                    text.push('\n');
                    if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
                        return;
                    }
                }
                line.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Parses and answers one request line (admitting solve/validate work
/// to the queue and blocking until its worker responds). The read-only
/// probes `metrics` and `health` are answered before any counting so a
/// poller observes identical counters across consecutive probes of an
/// idle daemon.
fn process_line(shared: &Shared, line: &str) -> Response {
    let mut req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            counter!(keys::SERVE_REQUESTS).incr();
            return fail(None, &format!("bad request: {e}"));
        }
    };
    let config_threads = req.config.as_mut().and_then(|c| c.threads.as_mut());
    for threads in req.threads.iter_mut().chain(config_threads) {
        let cap = shared
            .max_threads
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64));
        *threads = clamp_threads(*threads, *cap);
    }
    match req.op.as_str() {
        "metrics" => return handle_metrics(shared, &req),
        "health" => return handle_health(shared, &req),
        _ => {}
    }
    shared.requests.fetch_add(1, Ordering::Relaxed);
    counter!(keys::SERVE_REQUESTS).incr();
    let (route, work) = match req.op.as_str() {
        "cache_stats" => {
            let mut resp = Response::status(req.id, STATUS_OK);
            resp.cache = Some(aggregate_stats(shared));
            return resp;
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.wake_all();
            return Response::status(req.id, STATUS_OK);
        }
        "solve" | "validate" => {
            let Decoded { route, problem } = decode(&req);
            // CPM presolve on the connection thread: a solve whose
            // timing subsystem is provably over-constrained is rejected
            // with a named explanation and zero search nodes, without
            // ever occupying a queue slot or a worker.
            if let (Ok(p), "solve") = (&problem, req.op.as_str()) {
                if let Some(resp) = presolve_reject(req.id, p) {
                    return resp;
                }
            }
            let work = Work::Single {
                req: Box::new(req),
                problem,
            };
            (route, work)
        }
        "mode_solve" => {
            let cfg = config_from(&req);
            let key = req.modes.as_ref().map(|m| mode_fingerprint(m, &cfg));
            // The same screen, run once per mode.
            if let Some(resp) = key.and_then(|key| presolve_reject_modes(&req, &cfg, key)) {
                return resp;
            }
            let work = Work::Modes {
                req: Box::new(req),
                cfg,
                key,
            };
            (key, work)
        }
        "batch_solve" => return handle_batch(shared, req),
        other => return fail(req.id, &format!("unknown op {other:?}")),
    };
    let id = work.id();
    match admit(shared, vec![(shared.shard_for(route), work)]) {
        Ok(mut answers) => answers.remove(0),
        Err(reason) => Response::rejected(id, reason),
    }
}

/// Answers the `metrics` operation: the live `netdag-obs/1` snapshot
/// embedded as JSON plus the rolling-window quantiles. Purely a read —
/// no counter, span, or window is touched.
fn handle_metrics(shared: &Shared, req: &Request) -> Response {
    let snapshot = netdag_obs::global().snapshot();
    let obs = match serde_json::from_str_value(&snapshot.to_json()) {
        Ok(v) => v,
        Err(e) => {
            return Response::error(req.id, &format!("metrics snapshot failed: {e}"));
        }
    };
    let rolling = shared.windows.rolling();
    let ticks = shared.windows.latency_us.stats().ticks;
    let mut resp = Response::status(req.id, STATUS_OK);
    resp.metrics = Some(MetricsBody {
        obs,
        rolling,
        window: WindowMeta {
            slots: shared.cfg.window_slots.max(1) as u64,
            tick_every: shared.cfg.window_tick,
            ticks,
        },
    });
    resp
}

/// Answers the `health` operation: liveness and pressure at a glance.
/// Read-only like `metrics`.
fn handle_health(shared: &Shared, req: &Request) -> Response {
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let mut cache_entries = 0;
    let mut queue_depth = 0;
    for shard in &shared.shards {
        cache_entries += lock(&shard.cache).lru.len() as u64;
        queue_depth += lock(&shard.queue).len() as u64;
    }
    let uptime_ms = shared
        .started
        .elapsed()
        .as_millis()
        .min(u128::from(u64::MAX)) as u64;
    let mut resp = Response::status(req.id, STATUS_OK);
    resp.health = Some(HealthBody {
        status: if draining { "draining" } else { "ok" }.to_owned(),
        uptime_requests: shared.requests.load(Ordering::Relaxed),
        uptime_ms,
        queue_depth,
        in_flight: shared.in_flight.load(Ordering::SeqCst),
        shards: shared.shards.len() as u64,
        workers: shared.cfg.workers.max(1) as u64,
        workers_live: shared.workers_live.load(Ordering::SeqCst),
        cache_entries,
        cache_capacity: shared.cfg.cache_capacity.max(1) as u64,
    });
    resp
}

/// Whether `cfg` asks for the CPM presolve at all (it needs the lower
/// bound and the exact backend).
fn presolves(cfg: &SchedulerConfig) -> bool {
    cfg.lower_bound && cfg.backend != Backend::Greedy
}

/// Runs one mix's CPM timing presolve. `Some(reason)` means the timing
/// is provably infeasible (marked with a `serve.presolve_reject`
/// instant); `None` means "admit normally".
fn timing_reject(
    id: Option<u64>,
    mix: &Mix,
    app: &Application,
    cfg: &SchedulerConfig,
) -> Option<String> {
    let Err(ScheduleError::InfeasibleTiming(e)) = mix.presolve(app, cfg) else {
        return None;
    };
    netdag_trace::instant("serve.presolve_reject", &[("id", id.unwrap_or(0).into())]);
    Some(format!("timing presolve: {e}"))
}

/// The CPM presolve of a decoded solve: `Some(response)` answers a
/// provably infeasible problem.
fn presolve_reject(id: Option<u64>, p: &Problem) -> Option<Response> {
    if !presolves(&p.cfg) {
        return None;
    }
    let reason = timing_reject(id, &p.mixes[0], &p.app, &p.cfg)?;
    Some(infeasible(id, reason, p.fp.hex()))
}

/// Runs the CPM timing presolve once per mode of a `mode_solve`
/// request, on the connection thread. `Some(response)` means one mode's
/// timing subsystem is provably infeasible — the response names that
/// mode in its reason — and the request never occupies a queue slot.
/// `None` admits normally; malformed mode sets are reported by the
/// worker path with its usual diagnostics.
fn presolve_reject_modes(req: &Request, cfg: &SchedulerConfig, key: u64) -> Option<Response> {
    let spec = req.modes.as_ref()?;
    if !presolves(cfg) {
        return None;
    }
    let (app, names) = spec.app.build().ok()?;
    for mode in &spec.modes {
        // An invalid constraint mix is left for the worker to report.
        let mix = mode.mix(&names)?.ok()?;
        if let Some(reason) = timing_reject(req.id, &mix, &app, cfg) {
            let reason = format!("mode '{}': {reason}", mode.name);
            return Some(infeasible(req.id, reason, format!("{key:016x}")));
        }
    }
    None
}

/// The one admission path: enqueues every `(shard, work)` group
/// all-or-nothing and blocks until each group's worker answers,
/// returning the answers in group order. Groups name distinct shards in
/// ascending order, and every destination queue lock is held at once,
/// taken in that order — the only multi-lock site in the daemon, so
/// lock ordering is trivially acyclic. Shutdown or any full queue
/// rejects the whole request, counted once, with the reason returned as
/// `Err` for the caller's structured `rejected` answer: a partial
/// batch would otherwise warm caches with some of its items and not the
/// rest, making responses depend on admission timing.
fn admit(shared: &Shared, groups: Vec<(usize, Work)>) -> Result<Vec<Response>, &'static str> {
    let targets: Vec<usize> = groups.iter().map(|(shard, _)| *shard).collect();
    let slots: Vec<std::sync::Arc<Slot>> = {
        let mut queues: Vec<_> = targets
            .iter()
            .map(|&s| lock(&shared.shards[s].queue))
            .collect();
        let refusal = if shared.shutdown.load(Ordering::SeqCst) {
            Some(REASON_SHUTTING_DOWN)
        } else if queues.iter().any(|q| q.len() >= shared.cfg.queue_capacity) {
            Some(REASON_QUEUE_FULL)
        } else {
            None
        };
        if let Some(reason) = refusal {
            drop(queues);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            counter!(keys::SERVE_REJECTS).incr();
            return Err(reason);
        }
        groups
            .into_iter()
            .zip(queues.iter_mut())
            .map(|((_, work), queue)| {
                let slot = Slot::new();
                queue.push_back(Job {
                    work,
                    rid: shared.next_rid.fetch_add(1, Ordering::Relaxed),
                    accepted_at: Instant::now(),
                    slot: slot.clone(),
                });
                netdag_obs::global().observe(keys::HIST_SERVE_QUEUE_DEPTH, queue.len() as u64);
                shared.gauges.queue_depth.set(queue.len() as u64);
                slot
            })
            .collect()
    };
    for &s in &targets {
        shared.shards[s].ready.notify_one();
    }
    Ok(slots.iter().map(|slot| slot.wait()).collect())
}

/// Answers a `batch_solve` request: every item is decoded and
/// CPM-presolved up front (the presolve verdict memoized per canonical
/// fingerprint, so N structurally identical items pay for one presolve),
/// the survivors are grouped by owning shard and admitted in one
/// all-or-nothing step, and the per-item responses are gathered back
/// into one envelope in request order.
fn handle_batch(shared: &Shared, mut req: Request) -> Response {
    let id = req.id;
    let Some(items) = req.batch.take() else {
        return fail(id, "batch_solve needs a \"batch\" array");
    };
    counter!(keys::SERVE_BATCH_REQUESTS).incr();
    counter!(keys::SERVE_BATCH_ITEMS).add(items.len() as u64);
    let mut answers: Vec<Option<Response>> = vec![None; items.len()];
    // Shard index → (batch positions, decoded items). BTreeMap so the
    // groups reach `admit` in ascending shard order.
    type Group = (Vec<usize>, Vec<Result<Problem, String>>);
    let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
    let mut presolved: BTreeMap<u64, Option<Response>> = BTreeMap::new();
    for (i, item) in items.into_iter().enumerate() {
        if item.app.is_none() {
            answers[i] = Some(fail(id, "batch item needs an \"app\" spec"));
            continue;
        }
        // Each item solves as if it were a standalone `solve` request
        // inheriting the envelope's config.
        let mut sub = Request::op("solve");
        sub.config = req.config.clone();
        sub.app = item.app;
        sub.soft = item.soft;
        sub.weakly_hard = item.weakly_hard;
        sub.stat = item.stat;
        let Decoded { route, problem } = decode(&sub);
        if let Ok(p) = &problem {
            let verdict = presolved
                .entry(p.fp.full)
                .or_insert_with(|| presolve_reject(id, p));
            if let Some(resp) = verdict {
                answers[i] = Some(resp.clone());
                continue;
            }
        }
        let (positions, problems) = groups.entry(shared.shard_for(route)).or_default();
        positions.push(i);
        problems.push(problem);
    }
    if !groups.is_empty() {
        let mut positions = Vec::with_capacity(groups.len());
        let work = groups
            .into_iter()
            .map(|(shard, (at, items))| {
                positions.push(at);
                let deadline_ms = req.deadline_ms;
                (
                    shard,
                    Work::Batch {
                        head_id: id,
                        deadline_ms,
                        items,
                    },
                )
            })
            .collect();
        let replies = match admit(shared, work) {
            Ok(replies) => replies,
            Err(reason) => return Response::rejected(id, reason),
        };
        // Each group's reply carries its items' answers in group order;
        // scatter them back to the items' batch positions.
        for (at, reply) in positions.into_iter().zip(replies) {
            for (i, sub) in at.into_iter().zip(reply.batch.unwrap_or_default()) {
                answers[i] = Some(sub);
            }
        }
    }
    let mut resp = Response::status(id, STATUS_OK);
    resp.batch = Some(
        answers
            .into_iter()
            .map(|a| a.unwrap_or_else(|| Response::error(id, "batch item lost")))
            .collect(),
    );
    resp
}

/// Counts one worker as live, in the daemon's own count and the
/// `serve.workers_live` gauge, and keeps both honest on every exit
/// path, including a panic unwinding out of a handler.
struct LiveWorker<'a>(&'a Shared);

impl Drop for LiveWorker<'_> {
    fn drop(&mut self) {
        self.0.workers_live.fetch_sub(1, Ordering::SeqCst);
        self.0.gauges.workers_live.sub(1);
    }
}

/// Whole microseconds since `start`, saturating.
fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

fn worker_loop(shared: &Shared, shard: &ShardState) {
    shared.workers_live.fetch_add(1, Ordering::SeqCst);
    shared.gauges.workers_live.add(1);
    let _live = LiveWorker(shared);
    loop {
        let job = {
            let mut queue = lock(&shard.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.gauges.queue_depth.set(queue.len() as u64);
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shard.ready.wait_timeout(queue, POLL).expect("queue lock").0;
            }
        };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        shared.gauges.in_flight.add(1);
        let queue_us = micros_since(job.accepted_at);
        let service_started = Instant::now();
        let (resp, nodes) = {
            let _span = netdag_obs::global().span(keys::SPAN_SERVE_REQUEST);
            let _trace = netdag_trace::span_with(
                "serve.request",
                &[
                    ("op", job.work.op().to_owned().into()),
                    ("id", job.work.id().unwrap_or(0).into()),
                    ("rid", job.rid.into()),
                ],
            );
            match &job.work {
                Work::Single { req, problem } if req.op == "solve" => {
                    handle_solve(shared, shard, req.id, req.deadline_ms, problem)
                }
                Work::Single { req, problem } => (handle_validate(req, problem), 0),
                Work::Modes { req, cfg, key } => handle_mode_solve(shard, req, cfg, *key),
                // A sub-batch runs sequentially on its owning shard's
                // worker: items that share a structural family hit or
                // warm-start against each other within the same batch,
                // because each completed solve lands in the shard cache
                // before the next item looks it up.
                Work::Batch {
                    head_id,
                    deadline_ms,
                    items,
                } => {
                    let mut subs = Vec::with_capacity(items.len());
                    let mut total_nodes = 0u64;
                    for problem in items {
                        let (r, n) = handle_solve(shared, shard, *head_id, *deadline_ms, problem);
                        total_nodes += n;
                        subs.push(r);
                    }
                    let mut envelope = Response::status(*head_id, STATUS_OK);
                    envelope.batch = Some(subs);
                    (envelope, total_nodes)
                }
            }
        };
        let service_us = micros_since(service_started);
        let latency = micros_since(job.accepted_at);
        netdag_obs::global().observe(keys::HIST_SERVE_LATENCY_US, latency);
        shared.windows.latency_us.observe(latency);
        shared.windows.queue_wait_us.observe(queue_us);
        shared.windows.service_us.observe(service_us);
        shared.windows.solver_nodes.observe(nodes);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.gauges.in_flight.sub(1);
        if let Some(log) = shared.access.as_ref() {
            write_access_line(log, &job, &resp, nodes, queue_us, service_us);
        }
        let done = shared.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if shared.cfg.window_tick > 0 && done.is_multiple_of(shared.cfg.window_tick) {
            shared.windows.tick();
        }
        if shared.cfg.metrics_interval > 0 && done.is_multiple_of(shared.cfg.metrics_interval) {
            write_interval_snapshot(shared);
        }
        job.slot.fill(resp);
    }
}

/// Appends one structured JSON access-log line for a worker-handled
/// job (one line per job, so a sub-batch logs once). The `rid` here
/// equals the `rid` argument of the request's `serve.request` trace
/// span, so log lines and `--trace` output correlate. Logging failures
/// are swallowed — telemetry must never fail a request — but they are
/// *counted* under `serve.access_log.dropped` so an operator can see
/// that the log is incomplete.
fn write_access_line(
    log: &Mutex<BufWriter<std::fs::File>>,
    job: &Job,
    resp: &Response,
    nodes: u64,
    queue_us: u64,
    service_us: u64,
) {
    use serde::Value;
    let cache_class = if resp.cached == Some(true) {
        "hit"
    } else if resp.warm_started == Some(true) {
        "warm"
    } else if resp.cached == Some(false) {
        "cold"
    } else {
        "-"
    };
    let fp = resp
        .fingerprint
        .as_deref()
        .map_or("-".to_owned(), |hex| hex.chars().take(8).collect());
    let line = Value::Object(vec![
        ("rid".to_owned(), Value::UInt(job.rid)),
        (
            "id".to_owned(),
            job.work.id().map_or(Value::Null, Value::UInt),
        ),
        ("op".to_owned(), Value::String(job.work.op().to_owned())),
        ("status".to_owned(), Value::String(resp.status.clone())),
        ("cache".to_owned(), Value::String(cache_class.to_owned())),
        ("fp".to_owned(), Value::String(fp)),
        ("nodes".to_owned(), Value::UInt(nodes)),
        ("queue_us".to_owned(), Value::UInt(queue_us)),
        ("service_us".to_owned(), Value::UInt(service_us)),
    ]);
    if let Ok(text) = serde_json::to_string(&line) {
        let mut w = lock(log);
        // Flushed per line so tail -f / test readers see complete
        // records as soon as the response is delivered. A failure in
        // either step means this line did not (fully) reach the disk.
        if writeln!(w, "{text}").and_then(|()| w.flush()).is_err() {
            counter!(keys::SERVE_ACCESS_LOG_DROPPED).incr();
        }
    }
}

/// Writes `now - snap_base` to [`ServeConfig::metrics_path`] and
/// advances the baseline, making each file a true delta over its own
/// interval. The document lands under a temp name and is moved into
/// place with `rename`, so a concurrent reader never sees a torn file.
fn write_interval_snapshot(shared: &Shared) {
    let Some(path) = shared.cfg.metrics_path.as_ref() else {
        return;
    };
    let delta = {
        let mut base = lock(&shared.snap_base);
        let now = netdag_obs::global().snapshot();
        let delta = now.delta(&base);
        *base = now;
        delta
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let moved = std::fs::write(&tmp, delta.to_json()).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = moved {
        eprintln!(
            "netdag-serve: interval metrics snapshot to {} failed: {e}",
            path.display()
        );
    }
}

/// Bounds a wire-supplied thread count by `cap`, keeping `0` (auto).
/// Results never depend on the thread count, so this changes no
/// answer; it stops one request from making the daemon start more OS
/// threads than the machine has cores (`run_indexed` starts
/// `min(threads, jobs)`, and a weakly hard validation has
/// `tasks × trials` jobs).
fn clamp_threads(requested: u64, cap: u64) -> u64 {
    requested.min(cap)
}

/// Maps a request's optional [`crate::protocol::ConfigSpec`] to a
/// [`SchedulerConfig`] with exactly the CLI's `netdag schedule`
/// defaults, so an unconfigured request solves the same problem the
/// unconfigured CLI does.
fn config_from(req: &Request) -> SchedulerConfig {
    let spec = req.config.as_ref();
    let greedy = spec.and_then(|c| c.greedy).unwrap_or(false);
    SchedulerConfig {
        beacon_chi: spec.and_then(|c| c.beacon_chi).unwrap_or(2),
        chi_max: spec.and_then(|c| c.chi_max).unwrap_or(8),
        backend: if greedy {
            Backend::Greedy
        } else {
            Backend::Exact {
                node_limit: Some(spec.and_then(|c| c.node_limit).unwrap_or(200_000)),
            }
        },
        round_structure: if spec.and_then(|c| c.per_message_rounds).unwrap_or(false) {
            RoundStructure::PerMessage
        } else {
            RoundStructure::PerLevel
        },
        include_beacons: spec.and_then(|c| c.include_beacons).unwrap_or(false),
        portfolio: spec.and_then(|c| c.portfolio).unwrap_or(0),
        solver_threads: spec.and_then(|c| c.threads).unwrap_or(0) as usize,
        lower_bound: !spec.and_then(|c| c.no_lb).unwrap_or(false),
        ..SchedulerConfig::default()
    }
}

/// An error answer, counted under `serve.errors`.
fn fail(id: Option<u64>, reason: &str) -> Response {
    counter!(keys::SERVE_ERRORS).incr();
    Response::error(id, reason)
}

/// An `infeasible` answer naming its reason and fingerprint.
fn infeasible(id: Option<u64>, reason: String, fingerprint: String) -> Response {
    let mut resp = Response::status(id, STATUS_INFEASIBLE);
    resp.reason = Some(reason);
    resp.fingerprint = Some(fingerprint);
    resp
}

/// A scheduled answer's envelope; the caller attaches the document.
fn scheduled(id: Option<u64>, complete: bool, cached: bool, warm: bool, fp: String) -> Response {
    let mut resp = Response::status(
        id,
        if complete {
            STATUS_OK
        } else {
            STATUS_INCOMPLETE
        },
    );
    resp.complete = Some(complete);
    resp.cached = Some(cached);
    resp.warm_started = Some(warm);
    resp.fingerprint = Some(fp);
    resp
}

/// An exact cache hit's envelope, counted and marked in the trace; the
/// caller attaches the cached document.
fn cache_hit(id: Option<u64>, fp: String) -> Response {
    counter!(keys::SERVE_CACHE_HITS).incr();
    netdag_trace::instant("serve.cache_hit", &[("fingerprint", fp.clone().into())]);
    scheduled(id, true, true, false, fp)
}

/// Answers a solve the scheduler refused: `constraints` names what no
/// χ assignment could meet.
fn refused(id: Option<u64>, e: ScheduleError, fp: String, constraints: &str) -> Response {
    match e {
        ScheduleError::Infeasible | ScheduleError::InfeasibleReliability(_) => infeasible(
            id,
            format!("no χ assignment within chi-max meets {constraints}"),
            fp,
        ),
        // Normally caught pre-admission; kept as the worker-path answer
        // for configurations the connection-thread check skips.
        ScheduleError::InfeasibleTiming(e) => infeasible(id, format!("timing presolve: {e}"), fp),
        e => fail(id, &format!("scheduling failed: {e}")),
    }
}

/// Answers a decoded solve against its owning shard's cache. The second
/// tuple element is the number of search nodes the solve explored (zero
/// for cache hits and error paths), taken from the solve's own
/// [`netdag_solver::SearchStats`] so it is exact per request even with
/// concurrent workers.
fn handle_solve(
    shared: &Shared,
    shard: &ShardState,
    id: Option<u64>,
    deadline_ms: Option<u64>,
    problem: &Result<Problem, String>,
) -> (Response, u64) {
    let p = match problem {
        Ok(p) => p,
        Err(reason) => return (fail(id, reason), 0),
    };
    let hex = p.fp.hex();
    let mut warm_bound = None;
    match lock(&shard.cache).lookup(&p.fp) {
        Lookup::Exact(export) => {
            let mut resp = cache_hit(id, hex);
            resp.result = Some(export);
            return (resp, 0);
        }
        Lookup::Warm(makespan_us) => {
            counter!(keys::SERVE_WARM_STARTS).incr();
            // `+ 1` because the injected bound is strict-improvement:
            // it keeps every schedule with makespan ≤ the cached one
            // reachable, so the warm solve's answer is bit-identical
            // to the cold one's.
            warm_bound = Some(makespan_us as i64 + 1);
        }
        Lookup::Miss => counter!(keys::SERVE_CACHE_MISSES).incr(),
    }

    let deadline = deadline_ms.map(Duration::from_millis);
    let started = Instant::now();
    let mut keep_going = move |_: &netdag_solver::SearchStats| match deadline {
        Some(d) => started.elapsed() < d,
        None => true,
    };
    let mut control = SolveControl::warm(warm_bound, &mut keep_going);
    control.step_nodes = shared.cfg.step_nodes;

    match p.mixes[0].solve(&p.app, &p.cfg, Some(&mut control)) {
        Ok(controlled) => {
            let nodes = controlled.outcome.stats.as_ref().map_or(0, |s| s.nodes);
            let makespan = controlled.outcome.schedule.makespan(&p.app);
            let export = ScheduleExport {
                schedule: controlled.outcome.schedule.clone(),
                makespan_us: makespan,
                bus_us: controlled.outcome.schedule.total_communication_us(),
                optimal: controlled.outcome.optimal,
            };
            if controlled.complete {
                lock(&shard.cache).insert(p.fp, export.clone(), makespan);
                // Fleet-total gauge; the per-shard locks are taken one
                // at a time (never nested), so this cannot deadlock
                // with another worker doing the same.
                let total: usize = shared.shards.iter().map(|s| lock(&s.cache).lru.len()).sum();
                shared.gauges.cache_entries.set(total as u64);
            } else {
                counter!(keys::SERVE_DEADLINE_EXPIRED).incr();
                shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
            }
            let mut resp = scheduled(id, controlled.complete, false, warm_bound.is_some(), hex);
            resp.result = Some(export);
            (resp, nodes)
        }
        Err(ScheduleError::Interrupted) => {
            counter!(keys::SERVE_DEADLINE_EXPIRED).incr();
            shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
            let mut resp = Response::error(
                id,
                "deadline expired before any feasible schedule was found",
            );
            resp.complete = Some(false);
            resp.fingerprint = Some(hex);
            (resp, 0)
        }
        Err(e) => (refused(id, e, hex, "the constraints"), 0),
    }
}

/// Solves a `mode_solve` request: probe the exact-only mode cache, then
/// run the joint multi-mode co-synthesis ([`schedule_modes`]). The
/// answer is the same [`netdag_core::modes::ModeScheduleExport`]
/// document `netdag schedule --modes --out` writes. The second tuple
/// element is the joint solve's search-node count (zero for cache hits
/// and error paths).
fn handle_mode_solve(
    shard: &ShardState,
    req: &Request,
    cfg: &SchedulerConfig,
    key: Option<u64>,
) -> (Response, u64) {
    let id = req.id;
    let (Some(spec), Some(key)) = (req.modes.as_ref(), key) else {
        return (fail(id, "mode_solve needs a \"modes\" spec"), 0);
    };
    if req.app.is_some() || req.soft.is_some() || req.weakly_hard.is_some() {
        let reason = "mode_solve embeds its application and constraints in \"modes\"; \
                      \"app\"/\"soft\"/\"weakly_hard\" must be absent";
        return (fail(id, reason), 0);
    }
    let hex = format!("{key:016x}");
    let hit = lock(&shard.mode_cache).get(&key).map(|e| e.export.clone());
    if let Some(export) = hit {
        let mut resp = cache_hit(id, hex);
        resp.mode_result = Some(export);
        return (resp, 0);
    }
    counter!(keys::SERVE_CACHE_MISSES).incr();
    match schedule_modes(spec, cfg) {
        Ok(outcome) => {
            let export = outcome.export();
            lock(&shard.mode_cache).insert(ModeSnapshotEntry {
                key,
                export: export.clone(),
            });
            let mut resp = scheduled(id, true, false, false, hex);
            resp.mode_result = Some(export);
            (resp, outcome.stats.nodes)
        }
        Err(e) => (refused(id, e, hex, "every mode's constraints"), 0),
    }
}

/// Runs a decoded `validate` request's Monte-Carlo (soft) and
/// adversarial (weakly hard) checks against the given schedule.
fn handle_validate(req: &Request, problem: &Result<Problem, String>) -> Response {
    let id = req.id;
    let p = match problem {
        Ok(p) => p,
        Err(reason) => return fail(id, reason),
    };
    let (kappa, trials) = (req.kappa.unwrap_or(10_000), req.trials.unwrap_or(50));
    if kappa > MAX_VALIDATE_KAPPA {
        return fail(id, &format!("kappa must be at most {MAX_VALIDATE_KAPPA}"));
    }
    if trials > MAX_VALIDATE_TRIALS {
        return fail(id, &format!("trials must be at most {MAX_VALIDATE_TRIALS}"));
    }
    let schedule = &req
        .schedule
        .as_ref()
        .expect("decode requires a schedule")
        .schedule;
    let (mut soft, mut weakly_hard) = (None, None);
    for mix in &p.mixes {
        match mix {
            Mix::Soft(fss, f) => soft = Some((*fss, f)),
            Mix::WeaklyHard(f) => weakly_hard = Some(f),
        }
    }
    let (passed, report) = match validate_schedule(
        &p.app,
        schedule,
        soft,
        weakly_hard,
        kappa as usize,
        trials as usize,
        req.seed.unwrap_or(2020),
        ExecPolicy::from_threads(req.threads.unwrap_or(1) as usize),
    ) {
        Ok(verdict) => verdict,
        Err(reason) => return fail(id, &reason),
    };
    let mut resp = Response::status(id, STATUS_OK);
    resp.validation = Some(ValidationReport { passed, report });
    resp
}

#[cfg(test)]
mod tests {
    use super::clamp_threads;

    #[test]
    fn clamp_threads_caps_at_the_machine_and_keeps_auto() {
        assert_eq!(clamp_threads(0, 4), 0);
        assert_eq!(clamp_threads(1, 4), 1);
        assert_eq!(clamp_threads(4, 4), 4);
        assert_eq!(clamp_threads(5, 4), 4);
        assert_eq!(clamp_threads(u64::MAX, 2), 2);
    }
}
