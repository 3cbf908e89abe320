//! The one soft / weakly hard switch.
//!
//! [`Mix`] is where a problem's formulation is chosen — soft (eq. (6)
//! under the eq. (15) statistic) or weakly hard (eq. (10) under the
//! eq. (13) statistic). The CLI's `schedule`, the daemon's presolve and
//! solve, and every mode of a multi-mode spec go through it.

use crate::app::Application;
use crate::config::{ScheduleError, SchedulerConfig};
use crate::constraints::{Deadlines, SoftConstraints, WeaklyHardConstraints};
use crate::control::{ControlledOutcome, SolveControl};
use crate::encode::Prepared;
use crate::stat::{Eq13Statistic, Eq15Statistic};

/// The built constraint mix of one problem: exactly one of the paper's
/// two formulations, its statistic sized to the configuration's
/// `chi_max`.
#[derive(Debug, Clone)]
pub enum Mix {
    /// Soft constraints under the eq. (15) statistic with this `fSS̄`.
    Soft(f64, SoftConstraints),
    /// Weakly hard constraints under the eq. (13) statistic.
    WeaklyHard(WeaklyHardConstraints),
}

impl Mix {
    /// The CPM timing presolve; errors as [`crate::soft::presolve_soft`].
    pub fn presolve(&self, app: &Application, cfg: &SchedulerConfig) -> Result<(), ScheduleError> {
        self.prepare(app, cfg, &Deadlines::new())?.presolve()
    }

    /// Solves with the configured backend, steered by `control` when
    /// given and run to completion otherwise; errors as
    /// [`crate::soft::schedule_soft_controlled`].
    pub fn solve(
        &self,
        app: &Application,
        cfg: &SchedulerConfig,
        control: Option<&mut SolveControl<'_>>,
    ) -> Result<ControlledOutcome, ScheduleError> {
        self.prepare(app, cfg, &Deadlines::new())?.solve(control)
    }

    /// Validates and encodes the problem under this mix's statistic.
    pub(crate) fn prepare<'a>(
        &self,
        app: &'a Application,
        cfg: &'a SchedulerConfig,
        deadlines: &'a Deadlines,
    ) -> Result<Prepared<'a>, ScheduleError> {
        match self {
            Mix::Soft(fss, f) => {
                let stat = Eq15Statistic::new(*fss, cfg.chi_max);
                crate::soft::prepare(app, &stat, f, deadlines, cfg)
            }
            Mix::WeaklyHard(f) => {
                let stat = Eq13Statistic::new(cfg.chi_max);
                crate::weakly_hard::prepare(app, &stat, f, deadlines, cfg)
            }
        }
    }
}
