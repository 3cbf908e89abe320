//! Robustness integration: node churn and beacon budgets.

use netdag::core::prelude::*;
use netdag::core::stat::Eq13Statistic;
use netdag::glossy::link::{Bernoulli, NodeChurn};
use netdag::glossy::{NodeId, Topology};
use netdag::lwb::bus::LwbExecutor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn pipeline() -> Application {
    let mut b = Application::builder();
    let s = b.task("s", NodeId(0), 400);
    let c = b.task("c", NodeId(1), 900);
    let a = b.task("a", NodeId(2), 300);
    b.edge(s, c, 8).unwrap();
    b.edge(c, a, 4).unwrap();
    b.build().unwrap()
}

#[test]
fn node_churn_degrades_application_success_in_bursts() {
    let app = pipeline();
    let stat = Eq13Statistic::new(8);
    let out = schedule_weakly_hard(
        &app,
        &stat,
        &WeaklyHardConstraints::new(),
        &SchedulerConfig::greedy(),
    )
    .unwrap();
    let topo = Topology::line(3).unwrap();
    let exec = LwbExecutor::new(&app, &out.schedule, &topo, NodeId(0)).unwrap();
    let sink = TaskId(2);
    let runs = 1_500;

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut clean = Bernoulli::new(0.98).unwrap();
    let clean_trace = exec.run_many(&mut clean, runs, &mut rng);

    let mut churny = NodeChurn::new(Bernoulli::new(0.98).unwrap(), 0.01, 0.15).unwrap();
    let churn_trace = exec.run_many(&mut churny, runs, &mut rng);

    // Churn lowers the success rate…
    assert!(churn_trace.task_hit_rate(sink) < clean_trace.task_hit_rate(sink));
    // …and concentrates the failures: the worst 20-run window under churn
    // carries more misses than under the clean channel.
    let worst =
        |t: &netdag::lwb::ExecutionTrace| t.task_sequence(sink).max_window_misses(20).unwrap_or(0);
    assert!(
        worst(&churn_trace) > worst(&clean_trace),
        "churn {} vs clean {}",
        worst(&churn_trace),
        worst(&clean_trace)
    );
}

#[test]
fn beacon_budget_flows_through_the_stack() {
    let app = pipeline();
    // Size the beacon from the actual schedule announcement.
    let mut cfg = SchedulerConfig::greedy();
    let draft = schedule_weakly_hard(
        &app,
        &Eq13Statistic::new(8),
        &WeaklyHardConstraints::new(),
        &cfg,
    )
    .unwrap();
    let need = netdag::lwb::required_beacon_width(&app, &draft.schedule);
    cfg.timing.beacon_width = need as u64;
    let out = schedule_weakly_hard(
        &app,
        &Eq13Statistic::new(8),
        &WeaklyHardConstraints::new(),
        &cfg,
    )
    .unwrap();
    let topo = Topology::line(3).unwrap();
    let exec = LwbExecutor::new(&app, &out.schedule, &topo, NodeId(0)).unwrap();
    exec.verify_beacon_budget().unwrap();
    // Larger beacons cost airtime: the resized schedule's rounds are at
    // least as long as the draft's (γ grew from the 8-byte default).
    assert!(out.schedule.total_communication_us() >= draft.schedule.total_communication_us());
}
