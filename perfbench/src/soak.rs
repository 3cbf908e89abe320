//! `soak`: the scenario corpus through `netdag_scenario::run_soak` on
//! one connection — admission solve, validate, LWB replay with churn
//! and link failures, degraded re-admission and the `batch_solve`
//! revisit. run_soak owns its client, so per-op latencies here are the
//! daemon's service time (access-log `service_us`); with one connection
//! `queue_us` is only the worker's wake-up.
//!
//! Every seed streams the same corpus (run_soak's default master seed)
//! in blocks of [`BLOCK_CHUNKS`] revisit groups; the seed shuffles the
//! order of the groups within each block. A run only stops at the end of
//! a block, so runs with different seeds measure the same scenarios and
//! differ in order and in which groups form the prefix.

use std::io;
use std::time::{Duration, Instant};

use netdag_glossy::NodeId;
use netdag_lwb::LwbExecutor;
use netdag_scenario::{
    generate, run_soak, soak_serve_config, ConstraintSet, Scenario, SoakConfig, SoakReport,
};
use netdag_serve::protocol::{BatchItem, ConfigSpec, Request, StatSpec, STATUS_OK};
use netdag_serve::Client;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::budget::{self, LayerInputs};
use crate::daemon::{self, Daemon, LogLine};
use crate::layers::{self, Problem, Solved};
use crate::loadgen::HARD_CAP;
use crate::stats::Report;
use crate::trace::Tracer;
use crate::Args;

/// Scenarios per run_soak call: one batch-revisit group, so chunked
/// calls revisit exactly the groups one long call would.
const CHUNK: u64 = 8;
/// Chunks per block of the corpus whose order a seed shuffles.
const BLOCK_CHUNKS: u64 = 32;
/// Chunks every run completes; admission rate, makespan and the
/// determinism block are taken over them, so they do not depend on
/// speed.
const PREFIX_CHUNKS: u64 = 16;
/// Minimum work of every run, so the tail percentiles resolve the same
/// way at any speed: at least this many chunks (one `batch_solve`
/// revisit each) and this many admission solves and weakly-hard
/// validate ops that reach a worker.
const MIN_CHUNKS: u64 = BLOCK_CHUNKS;
const MIN_OPS: u64 = 100;
/// Generator stream of the chunk order.
const STREAM_ORDER: u64 = 3;
/// Request id of the post-run makespan readout.
const READOUT_ID: u64 = 3 << 61;

/// The admission problem of a scenario exactly as run_soak sends it.
fn problem(sc: &Scenario, cfg: &SoakConfig) -> Problem {
    let (soft, weakly_hard, stat) = match &sc.constraints {
        ConstraintSet::WeaklyHard { spec, .. } => (None, Some(spec.clone()), None),
        ConstraintSet::Soft { spec, fss, .. } => (
            Some(spec.clone()),
            None,
            Some(StatSpec {
                kind: "eq15".to_owned(),
                fss: Some(*fss),
            }),
        ),
    };
    Problem {
        app: sc.app.clone(),
        soft,
        weakly_hard,
        stat,
        config: ConfigSpec {
            chi_max: Some(cfg.chi_max),
            node_limit: Some(400_000),
            ..ConfigSpec::default()
        },
    }
}

/// The corpus chunk a run sends `n`-th.
fn chunk_at(seed: u64, n: u64) -> u64 {
    let block = n / BLOCK_CHUNKS;
    let mut order: Vec<u64> = (0..BLOCK_CHUNKS).collect();
    order.shuffle(&mut ChaCha8Rng::from_seed(netdag_runtime::derive_seed(
        seed,
        STREAM_ORDER,
        block,
    )));
    block * BLOCK_CHUNKS + order[(n % BLOCK_CHUNKS) as usize]
}

fn chunk_config(chunk: u64) -> SoakConfig {
    SoakConfig {
        start_index: chunk * CHUNK,
        scenarios: CHUNK,
        ..SoakConfig::default()
    }
}

/// Scenario indices of the first [`PREFIX_CHUNKS`] chunks a run sends.
fn prefix_scenarios(seed: u64) -> Vec<u64> {
    (0..PREFIX_CHUNKS)
        .flat_map(|n| {
            let first = chunk_at(seed, n) * CHUNK;
            first..first + CHUNK
        })
        .collect()
}

/// Totals of the traced run's in-process layer calls.
#[derive(Default)]
struct Shadow {
    presolve_rejects: u64,
    nodes: u64,
    backtracks: u64,
    propagations: u64,
    trials: u64,
    windows: Vec<(u32, u32)>,
    rounds: u64,
    transmissions: u64,
}

/// Calls every layer run_soak exercises for scenario `index`, on its
/// inputs: generate, codec, fingerprint, presolve, solve, validate,
/// sampler builds and the bus replay. The replay keeps the admission
/// schedule throughout (run_soak swaps in a re-admitted one after a
/// link failure).
fn shadow_scenario(tr: &mut Tracer, cfg: &SoakConfig, index: u64, acc: &mut Shadow) {
    tr.span("shadow", index, |tr| {
        let sc = tr.span("scenario.generate", index, |_| {
            generate(cfg.master_seed, index, &cfg.params)
        });
        let p = problem(&sc, cfg);
        let req = p.solve_request(index * 8);
        tr.span("serve.codec", index, |_| {
            let line = serde_json::to_string(&req).expect("requests encode");
            let back: Result<Request, _> = serde_json::from_str(&line);
            std::hint::black_box(back.ok());
        });
        layers::fingerprint(tr, index, &p);
        if layers::presolve(tr, index, &p) {
            acc.presolve_rejects += 1;
            return;
        }
        let Solved::Ok {
            schedule, effort, ..
        } = layers::solve(tr, index, &p)
        else {
            return;
        };
        acc.nodes += effort.nodes;
        acc.backtracks += effort.backtracks;
        acc.propagations += effort.propagations;
        let (kappa, trials) = (cfg.validate_kappa as usize, cfg.validate_trials as usize);
        acc.trials += layers::validate(tr, index, &p, &schedule, kappa, trials, sc.validate_seed());
        if p.weakly_hard.is_some() {
            acc.windows
                .extend(layers::sampler_builds(tr, index, &p, &schedule, trials));
        }
        let (app, _) = sc.app.build().expect("generated specs build");
        let topo = sc.topology().expect("generated topologies build");
        let mut total_runs = if sc.mobility.is_empty() {
            cfg.replay_runs
        } else {
            sc.mobility.iter().map(|m| m.runs).sum()
        };
        if let Some(last) = sc.events.last() {
            total_runs = total_runs.max(last.at_run + 2);
        }
        let mut channel = sc.channel();
        let mut rng = sc.replay_rng();
        let mut phase_end = 0u32;
        let mut phases = sc.mobility.iter();
        for run in 0..total_runs {
            if run == phase_end {
                if let Some(phase) = phases.next() {
                    channel.set_phase(&phase.loss);
                    phase_end += phase.runs;
                }
            }
            for event in sc.events.iter().filter(|e| e.at_run == run) {
                channel.apply(&event.kind);
            }
            let exec = tr.span("lwb.executor_new", index, |_| {
                LwbExecutor::new(&app, &schedule, &topo, NodeId(0))
            });
            let Ok(exec) = exec else {
                return;
            };
            let out = tr.span("lwb.run", index, |_| exec.run_once(&mut channel, &mut rng));
            acc.rounds += schedule.rounds().len() as u64;
            acc.transmissions += out.transmissions;
        }
    });
}

/// Sums the counts of a run of chunk reports.
fn add(into: &mut SoakReport, r: &SoakReport) {
    into.scenarios += r.scenarios;
    into.solved += r.solved;
    into.infeasible += r.infeasible;
    into.presolve_rejects += r.presolve_rejects;
    into.validated += r.validated;
    into.replay_runs += r.replay_runs;
    into.rounds_executed += r.rounds_executed;
    into.transmissions += r.transmissions;
    into.readmissions += r.readmissions;
    into.readmitted += r.readmitted;
    into.revisits += r.revisits;
    into.revisit_hits += r.revisit_hits;
    into.violations.extend(r.violations.iter().cloned());
}

/// Asks the daemon for the prefix's admission problems once more, in one
/// `batch_solve`: admitted ones come back from cache with the schedule
/// run_soak was given. Returns the admitted makespans.
fn readout(daemon: &Daemon, seed: u64, report: &mut Report) -> io::Result<Vec<u64>> {
    let cfg = SoakConfig::default();
    let problems: Vec<Problem> = prefix_scenarios(seed)
        .into_iter()
        .map(|i| problem(&generate(cfg.master_seed, i, &cfg.params), &cfg))
        .collect();
    let mut req = Request::op("batch_solve");
    req.id = Some(READOUT_ID);
    req.config = Some(problems[0].config.clone());
    req.batch = Some(
        problems
            .iter()
            .map(|p| BatchItem {
                app: Some(p.app.clone()),
                soft: p.soft.clone(),
                weakly_hard: p.weakly_hard.clone(),
                stat: p.stat.clone(),
            })
            .collect(),
    );
    let resp = Client::connect(daemon.addr)?.send(&req)?;
    let items = resp.batch.unwrap_or_default();
    if resp.status != STATUS_OK || items.len() != problems.len() {
        report.fail_check(format!(
            "makespan readout answered {} with {} of {} items",
            resp.status,
            items.len(),
            problems.len()
        ));
    }
    Ok(items
        .iter()
        .filter(|r| r.status == STATUS_OK)
        .filter_map(|r| r.result.as_ref().map(|e| e.makespan_us))
        .collect())
}

pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    let config = |log| soak_serve_config(daemon::SHARDS, daemon::WORKERS_PER_SHARD, Some(log));
    let (daemon, (), setups) = daemon::set_up(
        &format!("soak-s{}", args.seed),
        daemon::QUICK_SETUPS,
        config,
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
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut shadow = Shadow::default();
    let mut chunks: Vec<SoakReport> = Vec::new();
    let mut soak_ns = 0u64;
    let mut chunk_ms = Vec::new();
    let window = Duration::from_secs_f64(args.seconds);
    let corpus = SoakConfig::default();
    let weakly_hard = |l: &LogLine| {
        l.id.is_some_and(|id| {
            !generate(corpus.master_seed, id / 8, &corpus.params)
                .constraints
                .is_soft()
        })
    };
    // Counted from the access log, which holds every line of a request
    // before its answer is sent.
    let min_done = |chunks: usize| -> io::Result<bool> {
        if (chunks as u64) < MIN_CHUNKS {
            return Ok(false);
        }
        let log = daemon::read_log(&daemon.log)?;
        let count = |keep: &dyn Fn(&LogLine) -> bool| log.iter().filter(|l| keep(l)).count() as u64;
        Ok(count(&|l| l.op == "solve") >= MIN_OPS
            && count(&|l| l.op == "validate" && weakly_hard(l)) >= MIN_OPS)
    };
    while epoch.elapsed() < HARD_CAP
        && (epoch.elapsed() < window
            || !(chunks.len() as u64).is_multiple_of(BLOCK_CHUNKS)
            || !min_done(chunks.len())?)
    {
        let g = chunks.len() as u64;
        let cfg = chunk_config(chunk_at(args.seed, g));
        let started = Instant::now();
        let rep = tr.span("scenario.run_soak", g, |_| run_soak(daemon.addr, &cfg))?;
        soak_ns += started.elapsed().as_nanos() as u64;
        chunk_ms.push((
            cfg.start_index / CHUNK,
            (started.elapsed().as_secs_f64() * 1e3) as u64,
        ));
        if tr.on() {
            for i in cfg.start_index..cfg.start_index + CHUNK {
                shadow_scenario(&mut tr, &cfg, i, &mut shadow);
            }
        }
        chunks.push(rep);
    }
    if !min_done(chunks.len())? {
        report.fail_check(format!(
            "minimum work not done within {HARD_CAP:?} ({} chunks)",
            chunks.len()
        ));
    }
    let window_ns = epoch.elapsed().as_nanos() as u64;
    report.peak_rss_at_window_end();
    let window_s = window_ns as f64 / 1e9;
    let cache1 = daemon.cache_stats()?;
    let glossy1 = budget::glossy_counters();
    let makespans = readout(&daemon, args.seed, report)?;
    let log_path = daemon.log.clone();
    daemon.stop()?;
    let log: Vec<LogLine> = daemon::read_log(&log_path)?
        .into_iter()
        .filter(|l| l.id != Some(READOUT_ID))
        .collect();

    let first = chunks
        .first()
        .ok_or_else(|| io::Error::other("no soak chunk finished"))?;
    let mut total = first.clone();
    let mut prefix = first.clone();
    for (g, c) in chunks.iter().enumerate().skip(1) {
        add(&mut total, c);
        if (g as u64) < PREFIX_CHUNKS {
            add(&mut prefix, c);
        }
    }
    for v in &total.violations {
        report.fail_check(format!("soak invariant: {v}"));
    }
    if total.revisit_hits != total.revisits {
        report.fail_check(format!(
            "{} of {} revisits were not cache hits",
            total.revisits - total.revisit_hits,
            total.revisits
        ));
    }
    if makespans.len() as u64 != prefix.solved {
        report.fail_check(format!(
            "readout admitted {} problems, run_soak admitted {}",
            makespans.len(),
            prefix.solved
        ));
    }

    let validates = log.iter().filter(|l| l.op == "validate").count() as u64;
    report.attempted = total.scenarios + validates + total.readmissions + chunks.len() as u64;
    report.failed = total.violations.len() as u64;
    let service_us = |op: &str| -> Vec<f64> {
        log.iter()
            .filter(|l| l.op == op && (op != "validate" || weakly_hard(l)))
            .map(|l| l.service_us as f64)
            .collect()
    };
    if !args.trace {
        report.set(
            "ops_per_s",
            report.attempted as f64 / window_s,
            "1/s",
            report.attempted as usize,
            "requests run_soak sent",
        );
        report.set(
            "scenarios_per_s",
            total.scenarios as f64 / window_s,
            "1/s",
            total.scenarios as usize,
            "corpus scenarios",
        );
        report.latency(
            "solve",
            &service_us("solve"),
            MIN_OPS as usize,
            "daemon service time of solve ops",
        );
        report.latency(
            "hit",
            &service_us("batch_solve"),
            MIN_CHUNKS as usize,
            "daemon service time of batch_solve revisits",
        );
        report.latency(
            "validate",
            &service_us("validate"),
            MIN_OPS as usize,
            "daemon service time of weakly-hard validate ops",
        );
        report.set(
            "admitted_frac",
            prefix.solved as f64 / prefix.scenarios.max(1) as f64,
            "frac",
            prefix.scenarios as usize,
            "admission solves answered ok, prefix scenarios",
        );
        report.set(
            "makespan_mean_us",
            makespans.iter().sum::<u64>() as f64 / makespans.len().max(1) as f64,
            "us",
            makespans.len(),
            "admitted schedules, prefix scenarios",
        );
    }

    let prefix_ids: std::collections::BTreeSet<u64> =
        prefix_scenarios(args.seed).into_iter().collect();
    let prefix_solves: Vec<&LogLine> = log
        .iter()
        .filter(|l| l.op == "solve" && l.id.is_some_and(|id| prefix_ids.contains(&(id / 8))))
        .collect();
    let d = &mut report.determinism;
    d.insert("scenarios", prefix.scenarios);
    d.insert("solved", prefix.solved);
    d.insert("infeasible", prefix.infeasible);
    d.insert("presolve_rejects", prefix.presolve_rejects);
    d.insert("validated", prefix.validated);
    d.insert("makespan_sum_us", makespans.iter().sum());
    d.insert("solver_nodes", prefix_solves.iter().map(|l| l.nodes).sum());
    d.insert("replay_runs", prefix.replay_runs);
    d.insert("replay_rounds", prefix.rounds_executed);
    d.insert("replay_transmissions", prefix.transmissions);
    d.insert("readmissions", prefix.readmissions);
    d.insert("readmitted", prefix.readmitted);
    d.insert("cache_hits", prefix.revisit_hits);
    d.insert(
        "cache_misses",
        prefix_solves.iter().filter(|l| l.cache == "cold").count() as u64,
    );
    d.insert(
        "warm_starts",
        prefix_solves.iter().filter(|l| l.cache == "warm").count() as u64,
    );
    report.info("chunks", chunks.len());
    report.info("chunk_ms", format!("{chunk_ms:?}"));
    report.info("window_s", window_s);

    if args.trace {
        let daemon_total_us: u64 = log.iter().map(|l| l.queue_us + l.service_us).sum();
        let spans = tr.into_spans();
        let client_ns: u64 = crate::trace::self_times(std::slice::from_ref(&spans))
            .iter()
            .filter(|(n, _)| {
                [
                    "scenario.generate",
                    "serve.codec",
                    "lwb.executor_new",
                    "lwb.run",
                ]
                .contains(n)
            })
            .map(|(_, t)| t.self_ns)
            .sum();
        let soak_us = soak_ns as f64 / 1e3;
        let inputs = LayerInputs {
            threads: vec![(spans, 0, window_ns)],
            requests: report.attempted,
            wire_total_us: (soak_us - daemon_total_us as f64 - client_ns as f64 / 1e3).max(0.0),
            wire_count: report.attempted,
            rtt_total_us: soak_us,
            presolve_rejects: shadow.presolve_rejects,
            solver_nodes: shadow.nodes,
            solver_backtracks: shadow.backtracks,
            solver_propagations: shadow.propagations,
            weakly_hard_trials: shadow.trials,
            sampler_windows: shadow.windows,
            lwb_rounds: shadow.rounds,
            lwb_transmissions: shadow.transmissions,
            cache: (
                cache1.hits - cache0.hits,
                cache1.misses - cache0.misses,
                cache1.warm_starts - cache0.warm_starts,
            ),
            glossy: (glossy1.0 - glossy0.0, glossy1.1 - glossy0.1),
            generate_base_ns: soak_ns,
            log,
        };
        budget::fill(
            report,
            inputs,
            "run_soak wall minus daemon queue+service minus client work, per request",
            &format!("soak-s{}", args.seed),
        );
    }
    Ok(())
}
