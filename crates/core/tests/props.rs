//! Property tests for the scheduler's structural invariants.

use netdag_core::app::{Application, TaskId};
use netdag_core::config::{RoundStructure, ScheduleError, ScheduleOutcome, SchedulerConfig};
use netdag_core::constraints::{Deadlines, SoftConstraints, WeaklyHardConstraints};
use netdag_core::control::{ControlledOutcome, SolveControl};
use netdag_core::generators::{mimo_app, random_layered_app};
use netdag_core::rounds::{build_rounds, is_valid_round_structure};
use netdag_core::soft::{schedule_soft, schedule_soft_controlled};
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_core::weakly_hard::{schedule_weakly_hard, schedule_weakly_hard_controlled};
use netdag_solver::SearchStats;
use netdag_weakly_hard::Constraint;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both round structures are valid topological partial orders for any
    /// generated application.
    #[test]
    fn round_structures_are_valid(seed in any::<u64>(), layers in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sizes: Vec<usize> = (0..layers + 1).map(|_| 2).collect();
        let app = random_layered_app(&mut rng, &sizes, 100..=1_000, 1..=16);
        for structure in [RoundStructure::PerLevel, RoundStructure::PerMessage] {
            let rounds = build_rounds(&app, structure);
            prop_assert!(is_valid_round_structure(&app, &rounds), "{structure:?}");
        }
    }

    /// The MIMO generator always yields a schedulable application under
    /// loose constraints, for any seed.
    #[test]
    fn mimo_is_always_schedulable(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (app, actuators) = mimo_app(&mut rng);
        let stat = Eq13Statistic::new(8);
        let mut f = WeaklyHardConstraints::new();
        for &a in &actuators {
            f.set(a, Constraint::any_hit(3, 60).expect("valid")).expect("hit form");
        }
        let out = schedule_weakly_hard(&app, &stat, &f, &SchedulerConfig::greedy())
            .expect("loose constraints are feasible");
        out.schedule.check_feasible(&app).expect("feasible");
    }

    /// Makespan is bounded below by the weighted critical path (tasks
    /// alone) and above by full serialization.
    #[test]
    fn makespan_bounds(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let app = random_layered_app(&mut rng, &[2, 2], 100..=2_000, 1..=16);
        let stat = Eq13Statistic::new(8);
        let out = schedule_weakly_hard(
            &app,
            &stat,
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        ).expect("unconstrained is feasible");
        let makespan = out.schedule.makespan(&app);
        let total_wcet: u64 = app.tasks().map(|t| app.task(t).wcet_us).sum();
        let bus: u64 = out.schedule.total_communication_us();
        prop_assert!(makespan <= total_wcet + bus, "{makespan} > {total_wcet} + {bus}");
        let longest_task = app.tasks().map(|t| app.task(t).wcet_us).max().expect("non-empty");
        prop_assert!(makespan >= longest_task.max(bus));
    }

    /// Tightening one task's constraint never reduces the makespan
    /// (greedy backend, which is deterministic).
    #[test]
    fn monotone_in_constraint_strictness(seed in any::<u64>(), m1 in 3u32..10, dm in 1u32..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (app, actuators) = mimo_app(&mut rng);
        let stat = Eq13Statistic::new(8);
        let cfg = SchedulerConfig::greedy();
        let run = |m: u32| {
            let mut f = WeaklyHardConstraints::new();
            f.set(actuators[0], Constraint::any_hit(m, 60).expect("valid")).expect("hit");
            match schedule_weakly_hard(&app, &stat, &f, &cfg) {
                Ok(out) => Ok(Some(out.schedule.makespan(&app))),
                Err(ScheduleError::InfeasibleReliability(_) | ScheduleError::Infeasible) => Ok(None),
                Err(e) => Err(e),
            }
        };
        let loose = run(m1).expect("no internal error");
        let tight = run((m1 + dm).min(60)).expect("no internal error");
        match (loose, tight) {
            (Some(a), Some(b)) => prop_assert!(b >= a, "tight {b} < loose {a}"),
            // Tight infeasible while loose feasible is fine; the converse
            // would violate monotonicity.
            (None, Some(_)) => {
                return Err(TestCaseError::fail("loose infeasible but tight feasible"));
            }
            _ => {}
        }
    }
}

/// The tasks of a layered app's last layer (its sinks).
fn sinks(app: &Application) -> Vec<TaskId> {
    app.tasks()
        .filter(|&t| app.successors(t).is_empty())
        .collect()
}

/// A batch solve and a controlled one of the same problem agree: same
/// error, or the same schedule, optimality and search effort.
fn assert_same(
    batch: &Result<ScheduleOutcome, ScheduleError>,
    steered: &Result<ControlledOutcome, ScheduleError>,
) -> Result<(), TestCaseError> {
    match (batch, steered) {
        (Ok(b), Ok(s)) => {
            prop_assert!(s.complete);
            prop_assert_eq!(&b.schedule, &s.outcome.schedule);
            prop_assert_eq!(b.optimal, s.outcome.optimal);
            let (b, s) = (b.stats.expect("exact"), s.outcome.stats.expect("exact"));
            prop_assert_eq!(b.nodes, s.nodes);
            prop_assert_eq!(b.backtracks, s.backtracks);
            prop_assert_eq!(b.propagations, s.propagations);
            prop_assert_eq!(b.proven_optimal, s.proven_optimal);
        }
        (Err(b), Err(s)) => prop_assert_eq!(b, s),
        (b, s) => {
            return Err(TestCaseError::fail(format!(
                "batch {:?} vs controlled {:?}",
                b.as_ref().map(|o| &o.schedule),
                s.as_ref().map(|o| &o.outcome.schedule)
            )))
        }
    }
    Ok(())
}

/// A warm solve with the bound `makespan + 1`, run to completion.
fn warm_schedule(
    makespan: i64,
    solve: impl FnOnce(&mut SolveControl<'_>) -> Result<ControlledOutcome, ScheduleError>,
) -> ControlledOutcome {
    let mut keep_going = |_: &SearchStats| true;
    let mut control = SolveControl::warm(Some(makespan + 1), &mut keep_going);
    solve(&mut control).expect("a problem solved cold also solves warm")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batch entry points and the steered ones run the same search:
    /// a controlled solve that is never stopped returns the batch
    /// schedule with the same node, backtrack and propagation counts,
    /// and a warm bound of the optimum plus one keeps that schedule.
    #[test]
    fn controlled_solves_match_batch_solves(
        seed in any::<u64>(),
        layers in 2usize..4,
        p in 0.5f64..0.97,
        fss in 0.6f64..1.4,
        m in 2u32..12,
        k in 40u32..80,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sizes: Vec<usize> = (0..layers).map(|_| 2).collect();
        let app = random_layered_app(&mut rng, &sizes, 100..=1_000, 1..=16);
        let cfg = SchedulerConfig::default();
        let none = Deadlines::new();

        let stat = Eq15Statistic::new(fss, cfg.chi_max);
        let mut soft = SoftConstraints::new();
        for t in sinks(&app) {
            soft.set(t, p).expect("probability in (0, 1]");
        }
        let batch = schedule_soft(&app, &stat, &soft, &cfg);
        let mut keep_going = |_: &SearchStats| true;
        let steered = schedule_soft_controlled(
            &app, &stat, &soft, &none, &cfg, &mut SolveControl::warm(None, &mut keep_going),
        );
        assert_same(&batch, &steered)?;
        if let Ok(b) = &batch {
            let warm = warm_schedule(b.schedule.makespan(&app) as i64, |c| {
                schedule_soft_controlled(&app, &stat, &soft, &none, &cfg, c)
            });
            prop_assert_eq!(&warm.outcome.schedule, &b.schedule);
        }

        let stat = Eq13Statistic::new(cfg.chi_max);
        let mut wh = WeaklyHardConstraints::new();
        for t in sinks(&app) {
            wh.set(t, Constraint::any_hit(m, k).expect("m ≤ K")).expect("hit form");
        }
        let batch = schedule_weakly_hard(&app, &stat, &wh, &cfg);
        let mut keep_going = |_: &SearchStats| true;
        let steered = schedule_weakly_hard_controlled(
            &app, &stat, &wh, &none, &cfg, &mut SolveControl::warm(None, &mut keep_going),
        );
        assert_same(&batch, &steered)?;
        if let Ok(b) = &batch {
            let warm = warm_schedule(b.schedule.makespan(&app) as i64, |c| {
                schedule_weakly_hard_controlled(&app, &stat, &wh, &none, &cfg, c)
            });
            prop_assert_eq!(&warm.outcome.schedule, &b.schedule);
        }
    }
}
