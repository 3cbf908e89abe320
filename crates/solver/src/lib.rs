//! A small finite-domain constraint solver with branch-and-bound.
//!
//! The NETDAG paper encodes its scheduling problems into SMT (Z3) and MILP
//! (Gurobi). Neither is available as a pure-Rust offline dependency, so this
//! crate provides the stand-in: an interval-domain CSP solver with
//!
//! * bounds-consistency propagation ([`propagator`]) for linear
//!   inequalities, table-defined functions (`y = f(x)`), and min/max
//!   aggregates — exactly the constraint vocabulary the NETDAG encodings
//!   need (eqs. (3)–(6) and (10) of the paper);
//! * trail-based depth-first search ([`search`]) — single mutable store
//!   with chronological backtracking, event-driven propagation over a
//!   var→propagator watch graph, dom/wdeg conflict-guided branching and
//!   deterministic Luby restarts;
//! * branch-and-bound minimization with optimality proofs;
//! * relaxation lower bounds ([`relax`]) — a difference-bound-matrix
//!   closure of the temporal subsystem prunes bound-dead children
//!   without opening them, and its CPM `[ES, LS]` presolve shaves root
//!   domains or proves infeasibility with a named witness before any
//!   search ([`SearchConfig::lower_bound`]);
//! * a deterministic parallel portfolio race ([`portfolio`],
//!   [`Model::minimize_portfolio`]) — N configs share the incumbent
//!   bound at epoch boundaries and return bit-identical results at any
//!   thread count;
//! * the retired clone-per-node engine ([`reference`](mod@reference)), kept as a
//!   differential-testing oracle and benchmark baseline.
//!
//! The decision spaces NETDAG produces are finite (integral retransmission
//! counts `χ`, integral round indices `l`), so branch-and-bound explores the
//! same space the paper's MILP/SMT encodings do and returns the same
//! optima; only solve time differs. The `ablation_solver` bench quantifies
//! this against the greedy heuristic.
//!
//! Every search additionally publishes its [`SearchStats`] (nodes,
//! decisions, backtracks, propagator wakeups, prunings) to the
//! process-global `netdag_obs` recorder under the `solver.*` keys, so CLI
//! runs can export solver effort via `--metrics`.
//!
//! # Example
//!
//! ```
//! use netdag_solver::{Model, SearchConfig};
//!
//! // minimize y  s.t.  y = x², x ∈ [0, 5], 2x + y ≥ 7
//! let mut m = Model::new();
//! let x = m.new_var("x", 0, 5)?;
//! let y = m.new_var("y", 0, 25)?;
//! m.table_fn(x, y, (0..=5).map(|v| v * v).collect::<Vec<i64>>())?;
//! m.linear_ge(&[(2, x), (1, y)], 7)?;
//! let best = m.minimize(y, &SearchConfig::default())?.expect("feasible");
//! assert_eq!(best.value(x), 2);
//! assert_eq!(best.value(y), 4);
//! # Ok::<(), netdag_solver::SolverError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod model;
pub mod portfolio;
pub mod propagator;
pub mod reference;
pub mod relax;
pub mod search;

pub use domain::{DomainStore, VarId};
pub use model::{Model, SolverError};
pub use netdag_runtime::ExecPolicy;
pub use relax::{PresolveStep, PresolveWitness, Relaxation};
pub use search::{
    portfolio_configs, Engine, ModeObjectives, RestartPolicy, SearchConfig, SearchOutcome,
    SearchStats, Solution, ValueOrder, VarOrder,
};
