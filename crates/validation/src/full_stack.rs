//! Full-stack validation: replay the schedule over the actual bus.
//!
//! The eq. (11)/(12) validations trust the network *statistic*; this mode
//! does not. It executes the schedule's rounds as real Glossy floods over
//! a topology and loss model, records per-task hit/miss traces, and checks
//! the constraints against what actually happened. Discrepancies here mean
//! the statistic was too optimistic for the channel — exactly the failure
//! mode the weakly hard paradigm exists to expose on bursty channels.

use rand::Rng;

use netdag_core::app::{Application, TaskId};
use netdag_core::constraints::{SoftConstraints, WeaklyHardConstraints};
use netdag_core::schedule::Schedule;
use netdag_glossy::link::LossModel;
use netdag_glossy::topology::{NodeId, Topology};
use netdag_lwb::bus::{LwbError, LwbExecutor};
use netdag_lwb::trace::ExecutionTrace;
use netdag_weakly_hard::Constraint;

use crate::soft::hoeffding_margin;

/// Verdict for one task from an on-bus replay.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BusReport {
    /// The checked task.
    pub task: TaskId,
    /// Soft requirement, if any, with its observed rate.
    pub soft: Option<(f64, f64)>,
    /// Weakly hard requirement, if any, with whether the trace modeled it.
    pub weakly_hard: Option<(Constraint, bool)>,
    /// Overall verdict (margin-adjusted soft test and exact WH check).
    pub passed: bool,
}

/// Replays `runs` application executions on the bus and checks every
/// constrained task against its requirement.
///
/// # Errors
///
/// Propagates [`LwbError`] from executor construction.
#[allow(clippy::too_many_arguments)]
pub fn validate_on_bus<L: LossModel, R: Rng + ?Sized>(
    app: &Application,
    schedule: &Schedule,
    topo: &Topology,
    host: NodeId,
    link: &mut L,
    soft: &SoftConstraints,
    weakly_hard: &WeaklyHardConstraints,
    runs: usize,
    rng: &mut R,
) -> Result<Vec<BusReport>, LwbError> {
    let exec = LwbExecutor::new(app, schedule, topo, host)?;
    let trace: ExecutionTrace = exec.run_many(link, runs, rng);
    let margin = hoeffding_margin(runs.max(1), 0.999);
    let mut tasks: Vec<TaskId> = soft
        .iter()
        .map(|(t, _)| t)
        .chain(weakly_hard.iter().map(|(t, _)| t))
        .collect();
    tasks.sort_unstable();
    tasks.dedup();
    Ok(tasks
        .into_iter()
        .map(|task| {
            let soft_part = soft.get(task).map(|req| (req, trace.task_hit_rate(task)));
            let wh_part = weakly_hard
                .get(task)
                .map(|req| (req, trace.task_models(task, &req)));
            let soft_ok = soft_part.is_none_or(|(req, obs)| obs >= req - margin);
            let wh_ok = wh_part.as_ref().is_none_or(|&(_, ok)| ok);
            BusReport {
                task,
                soft: soft_part,
                weakly_hard: wh_part,
                passed: soft_ok && wh_ok,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::soft::schedule_soft;
    use netdag_core::stat::TableSoftStatistic;
    use netdag_glossy::link::{Bernoulli, GilbertElliott};
    use netdag_glossy::{SoftProfile, Topology};
    use netdag_runtime::ExecPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn two_hop() -> (Application, TaskId) {
        let mut b = Application::builder();
        let s = b.task("s", NodeId(0), 400);
        let a = b.task("a", NodeId(1), 300);
        b.edge(s, a, 8).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn profiled_statistic_validates_on_the_same_channel() {
        let (app, a) = two_hop();
        let topo = Topology::line(2).unwrap();
        // Profile the actual channel, schedule against the profile, then
        // replay on the same channel: must pass.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let chan = Bernoulli::new(0.85).unwrap();
        let profile =
            SoftProfile::measure_par(&topo, &chan, NodeId(0), 1..=8, 400, 10, ExecPolicy::Serial)
                .unwrap();
        let stat: TableSoftStatistic = profile.into();
        let mut f = SoftConstraints::new();
        f.set(a, 0.9).unwrap();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::default()).unwrap();
        let reports = validate_on_bus(
            &app,
            &out.schedule,
            &topo,
            NodeId(0),
            &mut Bernoulli::new(0.85).unwrap(),
            &f,
            &WeaklyHardConstraints::new(),
            1_500,
            &mut rng,
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].passed, "{reports:?}");
    }

    #[test]
    fn optimistic_statistic_fails_on_bursty_channel() {
        let (app, a) = two_hop();
        let topo = Topology::line(2).unwrap();
        // Schedule against a wildly optimistic i.i.d. statistic…
        let stat: TableSoftStatistic = SoftProfile::from_table(1, vec![0.99; 8]).unwrap().into();
        let mut f = SoftConstraints::new();
        f.set(a, 0.97).unwrap();
        let out = schedule_soft(&app, &stat, &f, &SchedulerConfig::greedy()).unwrap();
        // …then replay on a nasty bursty channel.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut chan = GilbertElliott::new(0.2, 0.2, 0.95, 0.0).unwrap();
        let reports = validate_on_bus(
            &app,
            &out.schedule,
            &topo,
            NodeId(0),
            &mut chan,
            &f,
            &WeaklyHardConstraints::new(),
            1_000,
            &mut rng,
        )
        .unwrap();
        assert!(!reports[0].passed, "{reports:?}");
        let (req, obs) = reports[0].soft.unwrap();
        assert!(obs < req);
        assert_eq!(reports[0].task, a);
    }

    #[test]
    fn weakly_hard_check_on_bus_trace() {
        let (app, a) = two_hop();
        let topo = Topology::line(2).unwrap();
        let stat: TableSoftStatistic = SoftProfile::from_table(1, vec![0.9; 8]).unwrap().into();
        let out = schedule_soft(
            &app,
            &stat,
            &SoftConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap();
        let mut wh = WeaklyHardConstraints::new();
        // Very loose weakly hard requirement on a near-perfect channel.
        wh.set(a, Constraint::any_hit(1, 20).unwrap()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let reports = validate_on_bus(
            &app,
            &out.schedule,
            &topo,
            NodeId(0),
            &mut Bernoulli::new(0.995).unwrap(),
            &SoftConstraints::new(),
            &wh,
            500,
            &mut rng,
        )
        .unwrap();
        assert_eq!(reports.len(), 1);
        let (req, ok) = reports[0].weakly_hard.unwrap();
        assert_eq!(req, Constraint::any_hit(1, 20).unwrap());
        assert!(ok && reports[0].passed, "{reports:?}");
    }
}
