//! Error type for the scenario engine.

use sieve_core::SieveError;
use sieve_serve::ServeError;
use sieve_simulator::SimulatorError;

/// Errors produced while generating, running or scoring a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario specification is inconsistent.
    InvalidSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// An error bubbled up from the simulator substrate.
    Simulator(SimulatorError),
    /// An error bubbled up from the analysis pipeline.
    Pipeline(SieveError),
    /// An error bubbled up from the serving layer.
    Serve(ServeError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidSpec { reason } => {
                write!(f, "invalid scenario spec: {reason}")
            }
            ScenarioError::Simulator(e) => write!(f, "simulator error: {e}"),
            ScenarioError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ScenarioError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::InvalidSpec { .. } => None,
            ScenarioError::Simulator(e) => Some(e),
            ScenarioError::Pipeline(e) => Some(e),
            ScenarioError::Serve(e) => Some(e),
        }
    }
}

impl From<SimulatorError> for ScenarioError {
    fn from(e: SimulatorError) -> Self {
        ScenarioError::Simulator(e)
    }
}

impl From<SieveError> for ScenarioError {
    fn from(e: SieveError) -> Self {
        ScenarioError::Pipeline(e)
    }
}

impl From<ServeError> for ScenarioError {
    fn from(e: ServeError) -> Self {
        ScenarioError::Serve(e)
    }
}

impl ScenarioError {
    /// Shorthand for an [`ScenarioError::InvalidSpec`].
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        ScenarioError::InvalidSpec {
            reason: reason.into(),
        }
    }
}
