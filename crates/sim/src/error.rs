//! Structured, panic-free simulation errors.

use std::fmt;

use smc::SmcError;

/// Anything that can go wrong in a simulated run.
///
/// [`run_kernel`](crate::run_kernel) returns this instead of panicking, so
/// fault-injection campaigns observe structured failures and the CLI can
/// report them without a backtrace.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The device or system configuration is invalid.
    Config(String),
    /// The memory controller reported a protocol violation, a livelock, or
    /// an exhausted retry budget.
    Controller(SmcError),
    /// The recorded command stream violated the RDRAM timing rules when
    /// replayed through the conformance checker.
    Conformance {
        /// Number of rule violations found.
        violations: usize,
        /// Rendered description of the first violation.
        first: String,
    },
    /// A completed run's cycle attribution did not partition it exactly, or
    /// its timeline replay or attribution diverged from the device's own
    /// counters: a bug in one of the models.
    Audit(String),
    /// The run exceeded its cycle budget without completing.
    Budget {
        /// The kernel that ran.
        kernel: String,
        /// Elements per stream.
        n: u64,
        /// Stride in 64-bit words.
        stride: u64,
        /// The budget that was exhausted, in cycles.
        cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Controller(e) => write!(f, "{e}"),
            SimError::Conformance { violations, first } => write!(
                f,
                "command stream failed timing conformance: {violations} violation(s), first: {first}"
            ),
            SimError::Audit(msg) => write!(f, "run audit failed: {msg}"),
            SimError::Budget {
                kernel,
                n,
                stride,
                cycles,
            } => write!(
                f,
                "{kernel} (n={n}, stride={stride}) exceeded its budget of {cycles} cycles"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Controller(e) => Some(e),
            SimError::Config(_)
            | SimError::Conformance { .. }
            | SimError::Audit(_)
            | SimError::Budget { .. } => None,
        }
    }
}

impl From<SmcError> for SimError {
    fn from(e: SmcError) -> Self {
        SimError::Controller(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = SimError::Budget {
            kernel: "daxpy".into(),
            n: 64,
            stride: 1,
            cycles: 1000,
        };
        let msg = e.to_string();
        assert!(msg.contains("daxpy") && msg.contains("1000"), "{msg}");
        assert!(SimError::Config("bad".into()).to_string().contains("bad"));
    }

    #[test]
    fn controller_errors_convert_and_chain() {
        use std::error::Error;
        let inner = SmcError::RetryExhausted {
            bank: 3,
            addr: 64,
            attempts: 5,
        };
        let e = SimError::from(inner.clone());
        assert_eq!(e, SimError::Controller(inner));
        assert!(e.source().is_some());
    }
}
