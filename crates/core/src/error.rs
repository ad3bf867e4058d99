use std::fmt;

use fantom_assign::AssignmentError;
use fantom_boolean::BooleanError;
use fantom_flow::FlowError;

/// Errors produced by the SEANCE synthesis pipeline.
#[derive(Debug)]
pub enum SynthesisError {
    /// The input flow table failed validation (normal mode, connectivity or
    /// stable-column requirements).
    InvalidFlowTable(String),
    /// The state assignment could not be verified as race-free.
    Assignment(AssignmentError),
    /// A Boolean-layer error (function too large, malformed cube, ...).
    Boolean(BooleanError),
    /// A flow-table-layer error.
    Flow(FlowError),
    /// The machine's total states cannot index a `u64` minterm space:
    /// inputs + state variables + fsv exceed
    /// [`MAX_TOTAL_VARS`](crate::MAX_TOTAL_VARS).
    MachineTooLarge {
        /// Input bits plus state variables plus one (for fsv).
        total_vars: usize,
        /// Maximum supported variable count.
        limit: usize,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvalidFlowTable(msg) => write!(f, "invalid flow table: {msg}"),
            SynthesisError::Assignment(e) => write!(f, "state assignment error: {e}"),
            SynthesisError::Boolean(e) => write!(f, "boolean layer error: {e}"),
            SynthesisError::Flow(e) => write!(f, "flow table error: {e}"),
            SynthesisError::MachineTooLarge { total_vars, limit } => {
                write!(
                    f,
                    "machine needs {total_vars} variables, above the supported limit of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Assignment(e) => Some(e),
            SynthesisError::Boolean(e) => Some(e),
            SynthesisError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AssignmentError> for SynthesisError {
    fn from(e: AssignmentError) -> Self {
        SynthesisError::Assignment(e)
    }
}

impl From<BooleanError> for SynthesisError {
    fn from(e: BooleanError) -> Self {
        SynthesisError::Boolean(e)
    }
}

impl From<FlowError> for SynthesisError {
    fn from(e: FlowError) -> Self {
        SynthesisError::Flow(e)
    }
}
