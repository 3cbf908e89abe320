//! `hot_cache`: two connections re-request a pool of problems solved
//! during set-up, so every answer is an exact cache hit. Exercises
//! socket I/O, the codec, presolve, fingerprinting and cache reads; the
//! solver and validation never run.

use std::io;

use netdag_serve::protocol::{STATUS_INFEASIBLE, STATUS_OK};
use netdag_serve::Client;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::budget::{self, LayerInputs};
use crate::daemon::{self, Daemon};
use crate::layers::{self, Problem};
use crate::loadgen::{self, exchange, CONNECTIONS};
use crate::stats::Report;
use crate::Args;

/// Problems in the pool: all of them fit every shard's cache.
const POOL: u64 = 32;
/// Requests per connection every run makes (the determinism prefix).
const MIN_PER_CONN: u64 = 64;
/// Set-ups per run; each one prefills the pool (about 1.5 s).
const PREFILL_SETUPS: usize = 3;
/// Tasks per layer of the pooled applications (12 tasks).
const SHAPE: &[usize] = &[4, 4, 4];
/// Generator streams of the pool and of each connection's order.
const STREAM_POOL: u64 = 1;
const STREAM_ORDER: u64 = 2;

/// Request ids of the measured window start here; set-up uses the
/// pool index.
fn timed_id(conn: usize, k: u64) -> u64 {
    ((conn as u64 + 1) << 40) | k
}

/// Reply bytes after the leading `{"id":<id>` — equal for every
/// answer to the same problem.
fn after_id(reply: &str, id: u64) -> Option<&str> {
    reply.strip_prefix(&format!("{{\"id\":{id}"))
}

struct Pool {
    problems: Vec<Problem>,
    /// The cache-hit answer of each problem, after its id.
    answers: Vec<String>,
    makespans: Vec<u64>,
    infeasible: u64,
    presolve_rejects: u64,
}

/// A pool candidate the daemon admitted.
struct Admitted {
    problem: Problem,
    answer: String,
    makespan_us: u64,
}

/// A pool candidate the daemon refused; `presolve` when the timing
/// presolve did.
struct Refused {
    presolve: bool,
}

/// Solves candidate `i`, then asks for it again and keeps that
/// cache-hit answer as the reference.
fn prefill_one(client: &mut Client, seed: u64, i: u64) -> io::Result<Result<Admitted, Refused>> {
    let mut tr = crate::trace::Tracer::new(false, std::time::Instant::now());
    let problem = crate::apps::layered(seed, STREAM_POOL, i, SHAPE);
    let cold = exchange(&mut tr, i, client, &problem.solve_request(i))?;
    if cold.resp.status != STATUS_OK {
        let presolve = cold.resp.status == STATUS_INFEASIBLE
            && cold
                .resp
                .reason
                .as_deref()
                .is_some_and(|r| r.starts_with("timing presolve:"));
        return Ok(Err(Refused { presolve }));
    }
    let hit = exchange(&mut tr, i, client, &problem.solve_request(i))?;
    match (after_id(&hit.reply, i), &hit.resp.result) {
        (Some(answer), Some(export))
            if hit.resp.cached == Some(true) && hit.resp.result == cold.resp.result =>
        {
            Ok(Ok(Admitted {
                answer: answer.to_owned(),
                makespan_us: export.makespan_us,
                problem,
            }))
        }
        _ => Err(io::Error::other(format!(
            "pool problem {i} was not served from cache"
        ))),
    }
}

/// Prefills the pool, splitting the candidates over the connections.
fn prefill(daemon: &Daemon, seed: u64) -> io::Result<Pool> {
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(
                    move || -> io::Result<Vec<(u64, Result<Admitted, Refused>)>> {
                        let mut client = Client::connect(daemon.addr)?;
                        (c as u64..POOL)
                            .step_by(CONNECTIONS)
                            .map(|i| Ok((i, prefill_one(&mut client, seed, i)?)))
                            .collect()
                    },
                )
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("prefill thread panicked"))?
            })
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut all: Vec<_> = parts.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    let mut pool = Pool {
        problems: Vec::new(),
        answers: Vec::new(),
        makespans: Vec::new(),
        infeasible: 0,
        presolve_rejects: 0,
    };
    for (_, candidate) in all {
        match candidate {
            Ok(Admitted {
                problem,
                answer,
                makespan_us,
            }) => {
                pool.problems.push(problem);
                pool.answers.push(answer);
                pool.makespans.push(makespan_us);
            }
            Err(Refused { presolve }) => {
                pool.infeasible += 1;
                pool.presolve_rejects += u64::from(presolve);
            }
        }
    }
    if pool.problems.len() < (POOL / 2) as usize {
        return Err(io::Error::other(
            "fewer than half the pool problems were admitted",
        ));
    }
    Ok(pool)
}

struct Rec {
    id: u64,
    k: u64,
    rtt_us: f64,
    failed: bool,
    matches: bool,
    cached: bool,
}

pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let (daemon, pool, setups) = daemon::set_up(
        &format!("hot_cache-s{}", args.seed),
        PREFILL_SETUPS,
        daemon::serve_config,
        |d| prefill(d, args.seed),
    )?;
    report.set(
        "setup_s",
        crate::stats::median(&setups),
        "s",
        setups.len(),
        "daemon start to first answer plus pool prefill",
    );
    report.info("setup_samples_s", format!("{setups:?}"));
    let cache0 = daemon.cache_stats()?;
    let glossy0 = budget::glossy_counters();
    let orders: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = ChaCha8Rng::from_seed(netdag_runtime::derive_seed(
                args.seed,
                STREAM_ORDER,
                c as u64,
            ));
            let mut order: Vec<usize> = (0..pool.problems.len()).collect();
            order.shuffle(&mut rng);
            order
        })
        .collect();

    let (conns, window_s) = loadgen::closed_loop(
        daemon.addr,
        args.trace,
        args.seconds,
        MIN_PER_CONN,
        |c, k, client, tr| {
            let item = orders[c][(k % orders[c].len() as u64) as usize];
            let p = &pool.problems[item];
            let id = timed_id(c, k);
            tr.span("request", id, |tr| {
                let ex = exchange(tr, id, client, &p.solve_request(id))?;
                if tr.on() {
                    layers::presolve(tr, id, p);
                    layers::fingerprint(tr, id, p);
                }
                Ok(Rec {
                    id,
                    k,
                    rtt_us: ex.rtt_us,
                    failed: ex.failed(),
                    matches: after_id(&ex.reply, id) == Some(pool.answers[item].as_str()),
                    cached: ex.resp.cached == Some(true),
                })
            })
        },
    )?;
    report.peak_rss_at_window_end();
    let cache1 = daemon.cache_stats()?;
    let glossy1 = budget::glossy_counters();
    let log_path = daemon.log.clone();
    daemon.stop()?;
    let log = daemon::read_log(&log_path)?;

    let recs: Vec<&Rec> = conns.iter().flat_map(|c| &c.records).collect();
    report.attempted = recs.len() as u64;
    report.failed = recs.iter().filter(|r| r.failed).count() as u64;
    let mismatched = recs.iter().filter(|r| !r.matches).count();
    if mismatched > 0 {
        report.fail_check(format!(
            "{mismatched} of {} answers differ from the prefill answer",
            recs.len()
        ));
    }
    let n = recs.len();
    if !args.trace {
        let rtts: Vec<f64> = recs.iter().map(|r| r.rtt_us).collect();
        let guaranteed = MIN_PER_CONN as usize * CONNECTIONS;
        report.set("ops_per_s", n as f64 / window_s, "1/s", n, "solve requests");
        report.set(
            "scenarios_per_s",
            n as f64 / window_s,
            "1/s",
            n,
            "one scenario is one pooled problem answered",
        );
        report.latency(
            "solve",
            &rtts,
            guaranteed,
            "client round trip of every solve (all cache hits)",
        );
        report.latency(
            "hit",
            &rtts,
            guaranteed,
            "client round trip of every cache-served solve",
        );
        report.latency(
            "validate",
            &rtts,
            guaranteed,
            "no validate ops on this workload: client round trip of every request",
        );
        let ok = recs.iter().filter(|r| !r.failed).count();
        report.set(
            "admitted_frac",
            ok as f64 / n.max(1) as f64,
            "frac",
            n,
            "solves answered ok",
        );
        report.set(
            "makespan_mean_us",
            pool.makespans.iter().sum::<u64>() as f64 / pool.makespans.len() as f64,
            "us",
            pool.makespans.len(),
            "admitted pool schedules",
        );
    }

    let prefill_solves = log
        .iter()
        .filter(|l| l.op == "solve" && l.id.is_some_and(|id| id < POOL));
    let d = &mut report.determinism;
    d.insert("pool_candidates", POOL);
    d.insert("solved", pool.problems.len() as u64);
    d.insert("infeasible", pool.infeasible);
    d.insert("presolve_rejects", pool.presolve_rejects);
    d.insert("makespan_sum_us", pool.makespans.iter().sum());
    d.insert("solver_nodes", prefill_solves.map(|l| l.nodes).sum());
    d.insert("setup_cache_hits", cache0.hits);
    d.insert("setup_cache_misses", cache0.misses);
    d.insert("setup_warm_starts", cache0.warm_starts);
    d.insert(
        "prefix_cache_hits",
        recs.iter()
            .filter(|r| r.k < MIN_PER_CONN && r.cached)
            .count() as u64,
    );

    if args.trace {
        let daemon_us: std::collections::HashMap<u64, u64> = log
            .iter()
            .filter_map(|l| l.id.map(|id| (id, l.queue_us + l.service_us)))
            .collect();
        let mut inputs = LayerInputs {
            requests: n as u64,
            cache: (
                cache1.hits - cache0.hits,
                cache1.misses - cache0.misses,
                cache1.warm_starts - cache0.warm_starts,
            ),
            glossy: (glossy1.0 - glossy0.0, glossy1.1 - glossy0.1),
            log: log
                .iter()
                .filter(|l| l.id.is_some_and(|id| id >= POOL))
                .cloned()
                .collect(),
            ..LayerInputs::default()
        };
        for r in &recs {
            if let Some(&d) = daemon_us.get(&r.id) {
                inputs.wire_total_us += r.rtt_us - d as f64;
                inputs.rtt_total_us += r.rtt_us;
                inputs.wire_count += 1;
            }
        }
        inputs.threads = conns
            .into_iter()
            .map(|c| (c.spans, c.from_ns, c.to_ns))
            .collect();
        budget::fill(
            report,
            inputs,
            "client round trip minus access-log queue_us and service_us, joined by request id",
            &format!("hot_cache-s{}", args.seed),
        );
    }
    Ok(())
}
