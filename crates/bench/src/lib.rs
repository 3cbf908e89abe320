//! Shared fixtures for the NETDAG benchmark harness.
//!
//! Every table and figure of the paper has a corresponding Criterion
//! bench (`benches/`) and a row/series generator in the `figures` binary
//! (`src/bin/figures.rs`); see DESIGN.md §4 for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use netdag_core::app::{Application, TaskId};
use netdag_core::config::{Backend, SchedulerConfig};
use netdag_core::generators::mimo_app;
use netdag_glossy::NodeId;
use netdag_solver::{Model, VarId};
use netdag_weakly_hard::Constraint;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The canonical seed for `A_MIMO` across benches and figures, so every
/// artifact talks about the same application instance.
pub const MIMO_SEED: u64 = 42;

/// The fig. 2 candidate constraints, loosest to strictest (window 60).
pub fn fig2_constraints() -> Vec<Constraint> {
    [3u32, 8, 15, 22]
        .into_iter()
        .map(|m| Constraint::any_hit(m, 60).expect("valid (m, K)"))
        .collect()
}

/// The canonical `A_MIMO` instance and its actuator tasks.
pub fn mimo_fixture() -> (Application, Vec<TaskId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(MIMO_SEED);
    mimo_app(&mut rng)
}

/// The cartpole application DAG at the fig. 3 scale: the four state
/// components (x, ẋ, θ, θ̇) are sensed on separate nodes, fused by the
/// controller, which commands the force actuator. Returns the
/// application and the actuator task.
///
/// # Panics
///
/// Panics if the fixture DAG is rejected by the builder (a fixture bug).
pub fn cartpole_fixture() -> (Application, TaskId) {
    let mut b = Application::builder();
    let sensors: Vec<_> = ["x", "xdot", "theta", "thetadot"]
        .iter()
        .enumerate()
        .map(|(i, n)| b.task(n, NodeId(i as u32), 300 + i as u64 * 40))
        .collect();
    let ctrl = b.task("ctrl", NodeId(4), 800);
    for (i, &s) in sensors.iter().enumerate() {
        b.edge(s, ctrl, 4 + i as u32).expect("distinct tasks");
    }
    let act = b.task("force", NodeId(5), 200);
    b.edge(ctrl, act, 8).expect("distinct tasks");
    let app = b.build().expect("acyclic fixture");
    let act = app.task_by_name("force").expect("just added");
    (app, act)
}

/// Exact-backend configuration with a bench-friendly node budget.
pub fn exact_config() -> SchedulerConfig {
    SchedulerConfig {
        backend: Backend::Exact {
            node_limit: Some(60_000),
        },
        ..SchedulerConfig::default()
    }
}

/// Greedy-backend configuration.
pub fn greedy_config() -> SchedulerConfig {
    SchedulerConfig::greedy()
}

/// The fig. 3 `(m̄, K)` grids: (fixed-window sweep, fixed-miss sweep).
#[allow(clippy::type_complexity)]
pub fn fig3_pairs() -> (Vec<(u32, u32)>, Vec<(u32, u32)>) {
    let fixed_k = [2u32, 6, 10, 12, 14, 16, 18]
        .iter()
        .map(|&m| (m, 20))
        .collect();
    let fixed_m = [14u32, 16, 20, 24, 32, 48]
        .iter()
        .map(|&k| (14, k))
        .collect();
    (fixed_k, fixed_m)
}

/// The fig. 4 TX power grid.
pub fn fig4_powers() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Builds a round-scheduling CSP with the same shape the core encoder
/// produces — per round a retransmission count `χ ∈ [1, chi_max]`, a
/// length coupled to `χ` through a table constraint, a start time, a
/// pairwise bus `no_overlap`, full precedence between consecutive
/// layers, and a global reliability budget `Σχ ≥ target` that keeps the
/// makespan objective in tension with the retransmission counts.
/// Returns the model and the makespan variable to minimize.
///
/// Used by the `ablation_solver` bench to race the trail engine against
/// [`netdag_solver::reference`] on identical inputs without going
/// through the scheduler front end.
///
/// # Panics
///
/// Panics if the generated model is inconsistent with the solver API
/// contracts (a fixture bug, not an input condition).
pub fn solver_round_csp(layers: &[usize], chi_max: i64) -> (Model, VarId) {
    // TelosB-flavoured constants: a round costs a beacon plus one slot
    // per retransmission.
    const BEACON: i64 = 30;
    const SLOT: i64 = 12;
    let rounds: usize = layers.iter().sum();
    let horizon = rounds as i64 * (BEACON + SLOT * chi_max);
    let table: Vec<i64> = (1..=chi_max).map(|chi| BEACON + SLOT * chi).collect();

    let mut m = Model::new();
    let mut starts = Vec::new();
    let mut lens = Vec::new();
    let mut ends = Vec::new();
    let mut chis = Vec::new();
    let mut layer_ends: Vec<Vec<VarId>> = Vec::new();
    let mut r = 0usize;
    for &width in layers {
        let mut this_layer = Vec::new();
        for _ in 0..width {
            let chi = m.new_var(&format!("chi{r}"), 1, chi_max).expect("bounds");
            let len = m.new_var(&format!("len{r}"), 0, horizon).expect("bounds");
            let start = m.new_var(&format!("s{r}"), 0, horizon).expect("bounds");
            let end = m.new_var(&format!("e{r}"), 0, horizon).expect("bounds");
            m.table_fn(chi, len, table.clone()).expect("vars");
            m.linear_eq(&[(1, end), (-1, start), (-1, len)], 0)
                .expect("vars");
            // Single shared bus: no two rounds may overlap.
            for (&s, &l) in starts.iter().zip(&lens) {
                m.no_overlap(s, l, start, len).expect("vars");
            }
            // Every round of the previous layer precedes this one.
            if let Some(prev) = layer_ends.last() {
                for &e in prev {
                    m.linear_le(&[(1, e), (-1, start)], 0).expect("vars");
                }
            }
            starts.push(start);
            lens.push(len);
            ends.push(end);
            chis.push(chi);
            this_layer.push(end);
            r += 1;
        }
        layer_ends.push(this_layer);
    }
    // Reliability budget: the weakly hard constraints force some rounds
    // above the minimal χ, so the optimum is a genuine trade-off.
    let terms: Vec<(i64, VarId)> = chis.iter().map(|&c| (1, c)).collect();
    m.linear_ge(&terms, (rounds as i64) * 5 / 2).expect("vars");
    let makespan = m.new_var("makespan", 0, horizon).expect("bounds");
    m.max_of(&ends, makespan).expect("vars");
    (m, makespan)
}

/// The `A_MIMO`-shaped solver instance under per-message rounds: one
/// round per sensor→control message (18) and per control→actuator
/// message (12), the paper's 13-task application at the encoder's
/// `PerMessage` granularity.
pub fn mimo_solver_csp() -> (Model, VarId) {
    solver_round_csp(&[18, 12], 8)
}

/// The cartpole-shaped solver instance at per-message granularity:
/// each control frame carries the four state components (x, ẋ, θ, θ̇)
/// as parallel sensor messages followed by the force command, unrolled
/// over five frames as the encoder unrolls rounds over the hyperperiod.
pub fn cartpole_solver_csp() -> (Model, VarId) {
    solver_round_csp(&[4, 1, 4, 1, 4, 1, 4, 1, 4, 1], 8)
}

/// Stamps a `BENCH_*.json` document with where it was measured: the git
/// commit (suffixed `-dirty` when the tree has uncommitted changes), the
/// core count and the rustc version. The stamp becomes the document's
/// first field; the documents carry their fast/full mode as `"fast"`.
///
/// # Panics
///
/// Panics if `doc` is not a JSON object.
pub fn stamp_provenance(doc: &str) -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
    };
    let commit = run("git", &["describe", "--always", "--dirty", "--abbrev=40"]);
    let rustc = run("rustc", &["-V"]);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let body = doc.strip_prefix('{').expect("a JSON object");
    format!(
        "{{\n  \"provenance\": {{\"commit\": {commit:?}, \"nproc\": {nproc}, \
         \"rustc\": {rustc:?}}},{body}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_stable() {
        let (app, actuators) = mimo_fixture();
        assert_eq!(app.task_count(), 13);
        assert_eq!(actuators.len(), 4);
        let (cart, act) = cartpole_fixture();
        assert_eq!(cart.task_count(), 6);
        assert!(cart.successors(act).is_empty());
        assert_eq!(fig2_constraints().len(), 4);
        assert_eq!(fig4_powers().len(), 10);
        let (a, b) = fig3_pairs();
        assert!(a.iter().all(|&(_, k)| k == 20));
        assert!(b.iter().all(|&(m, _)| m == 14));
        exact_config().validate().unwrap();
        greedy_config().validate().unwrap();
    }

    #[test]
    fn solver_csps_are_solvable_and_engine_agnostic() {
        use netdag_solver::SearchConfig;
        let cfg = SearchConfig {
            node_limit: Some(20_000),
            ..SearchConfig::default()
        };
        for (m, obj) in [cartpole_solver_csp(), mimo_solver_csp()] {
            let trail = m.minimize_with_stats(obj, &cfg).unwrap();
            let clone = netdag_solver::reference::run(&m, Some(obj), &cfg);
            let t = trail.best.as_ref().expect("feasible").value(obj);
            let c = clone.best.as_ref().expect("feasible").value(obj);
            assert_eq!(t, c, "both engines reach the same best makespan");
            assert_eq!(trail.stats.nodes, clone.stats.nodes);
            assert_eq!(trail.stats.backtracks, clone.stats.backtracks);
        }
    }
}
