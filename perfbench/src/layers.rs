//! The benchmark's own calls into each layer's public functions, on the
//! same inputs a workload sends to the daemon. The traced run wraps
//! each in a span to get per-layer times; `cold_admit` also uses
//! [`solve`] as its in-process reference.

use netdag_core::config::{Backend, RoundStructure, ScheduleError, SchedulerConfig};
use netdag_core::constraints::Deadlines;
use netdag_core::control::SolveControl;
use netdag_core::prelude::Application;
use netdag_core::schedule::Schedule;
use netdag_core::soft::{presolve_soft, schedule_soft_controlled};
use netdag_core::spec::{AppSpec, SoftSpec, WeaklyHardSpec};
use netdag_core::stat::{Eq13Statistic, Eq15Statistic, WeaklyHardStatistic};
use netdag_core::weakly_hard::{presolve_weakly_hard, schedule_weakly_hard_controlled};
use netdag_runtime::ExecPolicy;
use netdag_serve::protocol::{ConfigSpec, Request, StatSpec};
use netdag_solver::SearchStats;
use netdag_weakly_hard::AdversarialSampler;

use crate::trace::Tracer;

/// One scheduling problem as a solve request carries it.
#[derive(Debug, Clone)]
pub struct Problem {
    pub app: AppSpec,
    pub soft: Option<SoftSpec>,
    pub weakly_hard: Option<WeaklyHardSpec>,
    pub stat: Option<StatSpec>,
    pub config: ConfigSpec,
}

impl Problem {
    pub fn solve_request(&self, id: u64) -> Request {
        let mut req = Request::op("solve");
        req.id = Some(id);
        req.app = Some(self.app.clone());
        req.soft = self.soft.clone();
        req.weakly_hard = self.weakly_hard.clone();
        req.stat = self.stat.clone();
        req.config = Some(self.config.clone());
        req
    }

    /// The statistic as the daemon normalizes it (eq. (13) by default).
    fn normalized_stat(&self) -> StatSpec {
        self.stat.clone().unwrap_or(StatSpec {
            kind: "eq13".into(),
            fss: None,
        })
    }

    /// The scheduler configuration the daemon derives from the
    /// request's `config` (the CLI's defaults for absent fields).
    pub fn scheduler_config(&self) -> SchedulerConfig {
        let c = &self.config;
        SchedulerConfig {
            beacon_chi: c.beacon_chi.unwrap_or(2),
            chi_max: c.chi_max.unwrap_or(8),
            backend: if c.greedy.unwrap_or(false) {
                Backend::Greedy
            } else {
                Backend::Exact {
                    node_limit: Some(c.node_limit.unwrap_or(200_000)),
                }
            },
            round_structure: if c.per_message_rounds.unwrap_or(false) {
                RoundStructure::PerMessage
            } else {
                RoundStructure::PerLevel
            },
            include_beacons: c.include_beacons.unwrap_or(false),
            portfolio: c.portfolio.unwrap_or(0),
            solver_threads: c.threads.unwrap_or(0) as usize,
            lower_bound: !c.no_lb.unwrap_or(false),
            ..SchedulerConfig::default()
        }
    }

    fn fss(&self) -> f64 {
        self.stat.as_ref().and_then(|s| s.fss).unwrap_or(0.5)
    }
}

/// Search effort of one solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct Effort {
    pub nodes: u64,
    pub backtracks: u64,
    pub propagations: u64,
}

/// What an in-process solve found.
#[derive(Debug, Clone)]
pub enum Solved {
    Ok {
        makespan_us: u64,
        schedule: Schedule,
        effort: Effort,
    },
    /// Rejected by the timing presolve or infeasible after search.
    Infeasible,
}

/// `serve::fingerprint` as the daemon calls it for routing and caching.
pub fn fingerprint(tr: &mut Tracer, rid: u64, p: &Problem) {
    let stat = p.normalized_stat();
    let cfg = p.scheduler_config();
    tr.span("serve.fingerprint", rid, |_| {
        std::hint::black_box(netdag_serve::fingerprint(
            &p.app,
            p.soft.as_ref(),
            p.weakly_hard.as_ref(),
            &stat,
            &cfg,
        ));
    });
}

/// Builds the application from its spec. [`presolve`] builds inside its
/// span because the daemon builds the spec on that path.
fn build(p: &Problem) -> (Application, Vec<(String, netdag_core::prelude::TaskId)>) {
    p.app.build().expect("generated specs build")
}

/// `presolve_*`: returns `true` when the timing presolve rejects.
pub fn presolve(tr: &mut Tracer, rid: u64, p: &Problem) -> bool {
    let cfg = p.scheduler_config();
    tr.span("core.presolve", rid, |_| {
        let (app, names) = build(p);
        let result = match &p.soft {
            Some(soft) => presolve_soft(
                &app,
                &Eq15Statistic::new(p.fss(), cfg.chi_max),
                &soft.build(&names).expect("generated specs build"),
                &Deadlines::new(),
                &cfg,
            ),
            None => presolve_weakly_hard(
                &app,
                &Eq13Statistic::new(cfg.chi_max),
                &weakly_hard_constraints(p, &names),
                &Deadlines::new(),
                &cfg,
            ),
        };
        matches!(result, Err(ScheduleError::InfeasibleTiming(_)))
    })
}

fn weakly_hard_constraints(
    p: &Problem,
    names: &[(String, netdag_core::prelude::TaskId)],
) -> netdag_core::constraints::WeaklyHardConstraints {
    p.weakly_hard
        .as_ref()
        .map(|wh| wh.build(names).expect("generated specs build"))
        .unwrap_or_default()
}

/// `schedule_*_controlled` with a cold, unbounded controller — the
/// daemon's solve path for a cache miss.
pub fn solve(tr: &mut Tracer, rid: u64, p: &Problem) -> Solved {
    let (app, names) = build(p);
    let cfg = p.scheduler_config();
    tr.span("core.solve", rid, |_| {
        let mut keep_going = |_: &SearchStats| true;
        let mut control = SolveControl::warm(None, &mut keep_going);
        let result = match &p.soft {
            Some(soft) => schedule_soft_controlled(
                &app,
                &Eq15Statistic::new(p.fss(), cfg.chi_max),
                &soft.build(&names).expect("generated specs build"),
                &Deadlines::new(),
                &cfg,
                &mut control,
            ),
            None => schedule_weakly_hard_controlled(
                &app,
                &Eq13Statistic::new(cfg.chi_max),
                &weakly_hard_constraints(p, &names),
                &Deadlines::new(),
                &cfg,
                &mut control,
            ),
        };
        match result {
            Ok(c) => Solved::Ok {
                makespan_us: c.outcome.schedule.makespan(&app),
                schedule: c.outcome.schedule,
                effort: c.outcome.stats.map_or_else(Effort::default, |s| Effort {
                    nodes: s.nodes,
                    backtracks: s.backtracks,
                    propagations: s.propagations,
                }),
            },
            Err(_) => Solved::Infeasible,
        }
    })
}

/// The daemon's `validate` op, in-process: `validate_soft_par` or
/// `validate_weakly_hard_par` with the daemon's statistics and limits.
/// Returns the weakly-hard trials run.
pub fn validate(
    tr: &mut Tracer,
    rid: u64,
    p: &Problem,
    schedule: &Schedule,
    kappa: usize,
    trials: usize,
    seed: u64,
) -> u64 {
    let (app, names) = build(p);
    let policy = ExecPolicy::from_threads(1);
    if let Some(soft) = &p.soft {
        let f = soft.build(&names).expect("generated specs build");
        let stat = Eq15Statistic::new(p.fss(), 16);
        tr.span("validation.soft", rid, |_| {
            std::hint::black_box(netdag_validation::soft::validate_soft_par(
                &app, &stat, &f, schedule, kappa, 0.999, seed, policy,
            ));
        });
    }
    let mut trials_run = 0;
    if p.weakly_hard.is_some() {
        let f = weakly_hard_constraints(p, &names);
        let stat = Eq13Statistic::new(16);
        tr.span("validation.weakly_hard", rid, |_| {
            let reports = netdag_validation::weakly_hard::validate_weakly_hard_par(
                &app,
                &stat,
                &f,
                schedule,
                kappa.min(2_000),
                trials,
                seed,
                policy,
            )
            .expect("generated statistics synthesize");
            trials_run = reports.iter().map(|r| r.trials as u64).sum();
        });
    }
    trials_run
}

/// `AdversarialSampler::for_constraint`, called once per (trial,
/// constrained task, predecessor message) exactly as weakly-hard
/// validation builds samplers. Returns every `(m, K)` window asked for.
pub fn sampler_builds(
    tr: &mut Tracer,
    rid: u64,
    p: &Problem,
    schedule: &Schedule,
    trials: usize,
) -> Vec<(u32, u32)> {
    let (app, names) = build(p);
    let stat = Eq13Statistic::new(16);
    let mut windows = Vec::new();
    for _ in 0..trials {
        for (task, _) in weakly_hard_constraints(p, &names).iter() {
            for m in app.message_predecessors(task) {
                let bound = stat.miss_constraint(schedule.chi(m));
                windows.push((bound.m(), bound.window().unwrap_or(0)));
                tr.span("weakly_hard.sampler_build", rid, |_| {
                    std::hint::black_box(AdversarialSampler::for_constraint(&bound).ok());
                });
            }
        }
    }
    windows
}
