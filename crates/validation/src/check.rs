//! The `validate` procedure shared by `netdag validate` and the serve
//! daemon's `validate` operation.

use netdag_core::app::Application;
use netdag_core::constraints::{SoftConstraints, WeaklyHardConstraints};
use netdag_core::schedule::Schedule;
use netdag_core::stat::{Eq13Statistic, Eq15Statistic};
use netdag_runtime::ExecPolicy;

use crate::soft::validate_soft_par;
use crate::weakly_hard::validate_weakly_hard_par;

/// Validates `schedule` against soft constraints (eq. (15) statistic
/// with the given `fss` and `N_TX ≤ 16`, `kappa` Bernoulli runs, 99.9 %
/// confidence) and/or weakly hard ones (eq. (13) statistic, `trials`
/// adversarial runs of `min(kappa, 2000)` floods), in that order.
/// Returns whether every task passed and one report line per task.
///
/// # Errors
///
/// A message for `kappa == 0` (checked before any simulation) or for a
/// failed adversarial pattern synthesis.
#[allow(clippy::too_many_arguments)]
pub fn validate_schedule(
    app: &Application,
    schedule: &Schedule,
    soft: Option<(f64, &SoftConstraints)>,
    weakly_hard: Option<&WeaklyHardConstraints>,
    kappa: usize,
    trials: usize,
    master_seed: u64,
    policy: ExecPolicy,
) -> Result<(bool, String), String> {
    if kappa == 0 {
        return Err("kappa must be at least 1".into());
    }
    let verdict = |passed: bool| if passed { "PASS" } else { "FAIL" };
    let mut passed = true;
    let mut report = String::new();
    if let Some((fss, f)) = soft {
        let stat = Eq15Statistic::new(fss, 16);
        for r in validate_soft_par(app, &stat, f, schedule, kappa, 0.999, master_seed, policy) {
            passed &= r.passed;
            report.push_str(&format!(
                "soft {}: v = {:.4} vs {:.3} (margin {:.4}) → {}\n",
                app.task(r.task).name,
                r.observed,
                r.required,
                r.margin,
                verdict(r.passed)
            ));
        }
    }
    if let Some(f) = weakly_hard {
        let (stat, runs) = (Eq13Statistic::new(16), kappa.min(2_000));
        let reports =
            validate_weakly_hard_par(app, &stat, f, schedule, runs, trials, master_seed, policy)
                .map_err(|e| format!("adversarial synthesis failed: {e}"))?;
        for r in reports {
            passed &= r.passed;
            report.push_str(&format!(
                "weakly hard {}: {} held in {}/{} adversarial trials → {}\n",
                app.task(r.task).name,
                r.requirement,
                r.satisfied,
                r.trials,
                verdict(r.passed)
            ));
        }
    }
    Ok((passed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::weakly_hard::schedule_weakly_hard;
    use netdag_glossy::NodeId;
    use netdag_weakly_hard::Constraint;

    fn scheduled() -> (
        Application,
        Schedule,
        SoftConstraints,
        WeaklyHardConstraints,
    ) {
        let mut b = Application::builder();
        let s = b.task("sense", NodeId(0), 400);
        let a = b.task("act", NodeId(1), 300);
        b.edge(s, a, 8).unwrap();
        let app = b.build().unwrap();
        // Within reach of the χ the weakly hard schedule picks.
        let mut soft = SoftConstraints::new();
        soft.set(a, 0.4).unwrap();
        let mut wh = WeaklyHardConstraints::new();
        wh.set(a, Constraint::any_hit(10, 40).unwrap()).unwrap();
        let stat = Eq13Statistic::new(16);
        let out = schedule_weakly_hard(&app, &stat, &wh, &SchedulerConfig::default()).unwrap();
        (app, out.schedule, soft, wh)
    }

    #[test]
    fn zero_kappa_is_refused() {
        let (app, schedule, soft, wh) = scheduled();
        for (soft, wh) in [(Some((1.0, &soft)), None), (None, Some(&wh))] {
            let got = validate_schedule(&app, &schedule, soft, wh, 0, 10, 7, ExecPolicy::Serial);
            assert_eq!(got, Err("kappa must be at least 1".to_owned()));
        }
    }

    #[test]
    fn reports_soft_then_weakly_hard_at_any_thread_count() {
        let (app, schedule, soft, wh) = scheduled();
        let run = |policy| {
            validate_schedule(
                &app,
                &schedule,
                Some((1.0, &soft)),
                Some(&wh),
                3_000,
                20,
                7,
                policy,
            )
            .unwrap()
        };
        let (passed, report) = run(ExecPolicy::Serial);
        assert!(passed, "{report}");
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 2, "{report}");
        assert!(lines[0].starts_with("soft act: v = "), "{report}");
        assert!(lines[1].starts_with("weakly hard act: "), "{report}");
        assert!(lines[1].ends_with("held in 20/20 adversarial trials → PASS"));
        for threads in [2, 8] {
            assert_eq!(run(ExecPolicy::Threads(threads)), (passed, report.clone()));
        }
    }
}
