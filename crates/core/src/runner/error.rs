//! The executor's typed error taxonomy.
//!
//! One bad cell in one experiment must not kill the whole report (the
//! harness brittleness MLPerf Training and Milabench both call out), so
//! every way an experiment can fail is a variant of [`ExperimentError`]:
//! the scheduler catches panics, converts simulator errors, enforces
//! cooperative step budgets, and cascades failures to dependents — all
//! through this one type, which the failure appendix then renders.

use mlperf_sim::SimError;
use std::fmt;

/// Why one experiment produced no artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The experiment's code panicked; `message` is the stringified
    /// payload (caught at the executor's unwind boundary).
    Panicked {
        /// The panic payload, as text.
        message: String,
    },
    /// The simulation itself failed (OOM, bad GPU set, routing).
    Sim(SimError),
    /// A model boundary produced NaN/Inf or a degenerate cost; `context`
    /// names the offending (benchmark, system, precision, batch) point.
    NonFiniteOutput {
        /// Human-readable description of the offending point.
        context: String,
    },
    /// The experiment exceeded its cooperative step budget
    /// (`MLPERF_STEP_BUDGET`); counted in simulation requests, not
    /// wall-clock, so the verdict is deterministic.
    DeadlineExceeded {
        /// Simulation requests charged before the budget tripped.
        used: u64,
        /// The configured budget.
        budget: u64,
    },
    /// An upstream experiment failed, so this one never ran.
    DependencyFailed {
        /// Id of the failed dependency.
        dependency: String,
    },
}

impl ExperimentError {
    /// Stable short name of the variant (failure-appendix vocabulary).
    pub fn kind(&self) -> &'static str {
        match self {
            ExperimentError::Panicked { .. } => "panicked",
            ExperimentError::Sim(_) => "sim-error",
            ExperimentError::NonFiniteOutput { .. } => "non-finite",
            ExperimentError::DeadlineExceeded { .. } => "deadline-exceeded",
            ExperimentError::DependencyFailed { .. } => "dependency-failed",
        }
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Panicked { message } => write!(f, "panicked: {message}"),
            ExperimentError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::NonFiniteOutput { context } => {
                write!(f, "non-finite output: {context}")
            }
            ExperimentError::DeadlineExceeded { used, budget } => {
                write!(
                    f,
                    "step budget exceeded: {used} of {budget} simulation requests"
                )
            }
            ExperimentError::DependencyFailed { dependency } => {
                write!(f, "dependency '{dependency}' failed")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::NonFinite { context } => ExperimentError::NonFiniteOutput { context },
            other => ExperimentError::Sim(other),
        }
    }
}

/// A step budget's reading when it trips. The executor unwinds an
/// experiment attempt with it as the payload, without running the panic
/// hook, and downcasts it back into [`ExperimentError::DeadlineExceeded`]
/// at the attempt's unwind boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Simulation requests charged, including the tripping one.
    pub used: u64,
    /// The configured budget.
    pub budget: u64,
}

impl From<BudgetExceeded> for ExperimentError {
    fn from(BudgetExceeded { used, budget }: BudgetExceeded) -> Self {
        ExperimentError::DeadlineExceeded { used, budget }
    }
}

/// Extract a human-readable message from a panic payload (`&str` and
/// `String` payloads verbatim, anything else a fixed placeholder so
/// report bytes stay deterministic).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_non_finite_maps_to_non_finite_output() {
        let e = ExperimentError::from(SimError::NonFinite {
            context: "x".into(),
        });
        assert_eq!(
            e,
            ExperimentError::NonFiniteOutput {
                context: "x".into()
            }
        );
        assert_eq!(e.kind(), "non-finite");
    }

    #[test]
    fn panic_messages_extract_both_string_kinds() {
        let a: Box<dyn std::any::Any + Send> = Box::new("static str");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        let c: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(a.as_ref()), "static str");
        assert_eq!(panic_message(b.as_ref()), "owned");
        assert_eq!(panic_message(c.as_ref()), "non-string panic payload");
    }
}
