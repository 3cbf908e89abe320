//! `cold_admit`: two connections submit unique 16-task layered apps
//! with weakly-hard sinks. No problem repeats and there are more of
//! them than cache entries, so every request misses, inserts and
//! eventually evicts; presolve and search take most of the service
//! time. Every answer is checked against an in-process solve.

use std::collections::HashMap;
use std::io;

use netdag_serve::protocol::{STATUS_INFEASIBLE, STATUS_OK};

use crate::budget::{self, LayerInputs};
use crate::daemon;
use crate::layers::{self, Problem, Solved};
use crate::loadgen::{self, exchange, CONNECTIONS};
use crate::stats::Report;
use crate::trace::Tracer;
use crate::Args;

/// Requests per connection every run makes; admission rate, makespan
/// and the determinism block are taken over them.
const MIN_PER_CONN: u64 = 50;
/// Tasks per layer (16 tasks).
const SHAPE: &[usize] = &[4, 4, 4, 4];
/// Generator stream of connection `c` is `STREAM_BASE + c`.
const STREAM_BASE: u64 = 16;

fn problem(seed: u64, conn: usize, k: u64) -> Problem {
    crate::apps::layered(seed, STREAM_BASE + conn as u64, k, SHAPE)
}

struct Rec {
    id: u64,
    conn: usize,
    k: u64,
    rtt_us: f64,
    failed: bool,
    /// Makespan of an `ok` answer; `None` for `infeasible`.
    makespan: Option<u64>,
    presolve_reject: bool,
    /// The in-process solve, made in the loop by traced runs.
    reference: Option<Solved>,
}

/// Checks one answer against the in-process reference.
fn agrees(rec: &Rec, reference: &Solved) -> bool {
    match (rec.makespan, reference) {
        (Some(m), Solved::Ok { makespan_us, .. }) => m == *makespan_us,
        (None, Solved::Infeasible) => !rec.failed,
        _ => false,
    }
}

pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let (daemon, (), setups) = daemon::set_up(
        &format!("cold_admit-s{}", args.seed),
        daemon::QUICK_SETUPS,
        daemon::serve_config,
        |_| Ok(()),
    )?;
    report.set(
        "setup_s",
        crate::stats::median(&setups),
        "s",
        setups.len(),
        "daemon start to first answer",
    );
    report.info("setup_samples_s", format!("{setups:?}"));
    let cache0 = daemon.cache_stats()?;
    let glossy0 = budget::glossy_counters();

    let seed = args.seed;
    let (conns, window_s) = loadgen::closed_loop(
        daemon.addr,
        args.trace,
        args.seconds,
        MIN_PER_CONN,
        |c, k, client, tr| {
            let id = ((c as u64 + 1) << 40) | k;
            tr.span("request", id, |tr| {
                let p = tr.span("scenario.generate", id, |_| problem(seed, c, k));
                let ex = exchange(tr, id, client, &p.solve_request(id))?;
                let reference = tr.on().then(|| {
                    layers::fingerprint(tr, id, &p);
                    layers::presolve(tr, id, &p);
                    layers::solve(tr, id, &p)
                });
                Ok(Rec {
                    id,
                    conn: c,
                    k,
                    rtt_us: ex.rtt_us,
                    failed: ex.failed(),
                    makespan: (ex.resp.status == STATUS_OK)
                        .then(|| ex.resp.result.as_ref().map(|e| e.makespan_us))
                        .flatten(),
                    presolve_reject: ex.resp.status == STATUS_INFEASIBLE
                        && ex
                            .resp
                            .reason
                            .as_deref()
                            .is_some_and(|r| r.starts_with("timing presolve:")),
                    reference,
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

    let mut recs: Vec<Rec> = Vec::new();
    let mut threads = Vec::new();
    for c in conns {
        threads.push((c.spans, c.from_ns, c.to_ns));
        recs.extend(c.records);
    }
    // Untraced runs check every answer after the window, on as many
    // threads as there were connections.
    if !args.trace {
        let chunk = recs.len().div_ceil(CONNECTIONS).max(1);
        std::thread::scope(|scope| {
            for part in recs.chunks_mut(chunk) {
                scope.spawn(move || {
                    let mut tr = Tracer::new(false, std::time::Instant::now());
                    for r in part {
                        r.reference =
                            Some(layers::solve(&mut tr, r.id, &problem(seed, r.conn, r.k)));
                    }
                });
            }
        });
    }
    let disagree = recs
        .iter()
        .filter(|r| !r.reference.as_ref().is_some_and(|s| agrees(r, s)))
        .count();
    if disagree > 0 {
        report.fail_check(format!(
            "{disagree} of {} answers differ from the in-process solve",
            recs.len()
        ));
    }
    report.attempted = recs.len() as u64;
    report.failed = recs.iter().filter(|r| r.failed).count() as u64;
    let n = recs.len();
    let prefix: Vec<&Rec> = recs.iter().filter(|r| r.k < MIN_PER_CONN).collect();
    let admitted: Vec<u64> = prefix.iter().filter_map(|r| r.makespan).collect();
    if !args.trace {
        let rtts: Vec<f64> = recs.iter().map(|r| r.rtt_us).collect();
        let guaranteed = MIN_PER_CONN as usize * CONNECTIONS;
        report.set("ops_per_s", n as f64 / window_s, "1/s", n, "solve requests");
        report.set(
            "scenarios_per_s",
            n as f64 / window_s,
            "1/s",
            n,
            "one scenario is one generated app admitted or refused",
        );
        report.latency(
            "solve",
            &rtts,
            guaranteed,
            "client round trip of every solve (all cold)",
        );
        report.latency(
            "hit",
            &rtts,
            guaranteed,
            "no cache hits on this workload: client round trip of every solve",
        );
        report.latency(
            "validate",
            &rtts,
            guaranteed,
            "no validate ops on this workload: client round trip of every request",
        );
        report.set(
            "admitted_frac",
            admitted.len() as f64 / prefix.len().max(1) as f64,
            "frac",
            prefix.len(),
            "solves answered ok, prefix requests",
        );
        report.set(
            "makespan_mean_us",
            admitted.iter().sum::<u64>() as f64 / admitted.len().max(1) as f64,
            "us",
            admitted.len(),
            "admitted schedules, prefix requests",
        );
    }

    let prefix_ids: HashMap<u64, ()> = prefix.iter().map(|r| (r.id, ())).collect();
    let prefix_log: Vec<&daemon::LogLine> = log
        .iter()
        .filter(|l| l.id.is_some_and(|id| prefix_ids.contains_key(&id)))
        .collect();
    let class = |c: &str| prefix_log.iter().filter(|l| l.cache == c).count() as u64;
    let d = &mut report.determinism;
    d.insert("requests", prefix.len() as u64);
    d.insert("solved", admitted.len() as u64);
    d.insert(
        "infeasible",
        prefix.iter().filter(|r| r.makespan.is_none()).count() as u64,
    );
    d.insert(
        "presolve_rejects",
        prefix.iter().filter(|r| r.presolve_reject).count() as u64,
    );
    d.insert("makespan_sum_us", admitted.iter().sum());
    d.insert("solver_nodes", prefix_log.iter().map(|l| l.nodes).sum());
    d.insert("cache_hits", class("hit"));
    d.insert("cache_misses", class("cold"));
    d.insert("warm_starts", class("warm"));
    report.info("evictions", cache1.evictions - cache0.evictions);

    if args.trace {
        let daemon_us: HashMap<u64, u64> = log
            .iter()
            .filter_map(|l| l.id.map(|id| (id, l.queue_us + l.service_us)))
            .collect();
        let mut inputs = LayerInputs {
            requests: n as u64,
            presolve_rejects: recs.iter().filter(|r| r.presolve_reject).count() as u64,
            cache: (
                cache1.hits - cache0.hits,
                cache1.misses - cache0.misses,
                cache1.warm_starts - cache0.warm_starts,
            ),
            glossy: (glossy1.0 - glossy0.0, glossy1.1 - glossy0.1),
            generate_base_ns: threads.iter().map(|(_, a, b)| b - a).sum(),
            ..LayerInputs::default()
        };
        for r in &recs {
            if let Some(&d) = daemon_us.get(&r.id) {
                inputs.wire_total_us += r.rtt_us - d as f64;
                inputs.rtt_total_us += r.rtt_us;
                inputs.wire_count += 1;
            }
            if let Some(Solved::Ok { effort: s, .. }) = &r.reference {
                inputs.solver_nodes += s.nodes;
                inputs.solver_backtracks += s.backtracks;
                inputs.solver_propagations += s.propagations;
            }
        }
        inputs.log = log;
        inputs.threads = threads;
        budget::fill(
            report,
            inputs,
            "client round trip minus access-log queue_us and service_us, joined by request id",
            &format!("cold_admit-s{}", args.seed),
        );
    }
    Ok(())
}
