//! Error types for the coordinated-attack model.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced when constructing or validating model objects.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A graph was required to have at least this many vertices.
    TooFewProcesses {
        /// Number of vertices provided.
        got: usize,
        /// Minimum required.
        min: usize,
    },
    /// A graph supports at most this many vertices (seen-set bitmask width).
    TooManyProcesses {
        /// Number of vertices provided.
        got: usize,
        /// Maximum supported.
        max: usize,
    },
    /// An edge endpoint referred to a vertex outside the graph.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// Number of vertices in the graph.
        m: usize,
    },
    /// Self-loops are not allowed in the communication graph.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: usize,
    },
    /// A run referenced a message slot that does not exist (a non-edge, or
    /// a slot outside the run's `m × m × N` matrix).
    InvalidMessageSlot {
        /// Reason the slot is invalid.
        reason: &'static str,
    },
    /// A parameter was outside its legal range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::TooFewProcesses { got, min } => {
                write!(
                    f,
                    "graph has {got} processes but at least {min} are required"
                )
            }
            ModelError::TooManyProcesses { got, max } => {
                write!(
                    f,
                    "graph has {got} processes but at most {max} are supported"
                )
            }
            ModelError::VertexOutOfRange { vertex, m } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {m} vertices"
                )
            }
            ModelError::SelfLoop { vertex } => {
                write!(f, "self-loop at vertex {vertex} is not allowed")
            }
            ModelError::InvalidMessageSlot { reason } => {
                write!(f, "invalid message slot: {reason}")
            }
            ModelError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl StdError for ModelError {}

/// Errors produced by fallible execution paths (the `try_*` entry points).
///
/// These are the typed alternatives to the engine's panicking asserts: a
/// hostile schedule or malformed configuration degrades into an `Err` the
/// caller can report, instead of aborting the process. The chaos harness
/// relies on this to survive adversarial schedule search.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CaError {
    /// A random tape ran out of bits mid-draw, or was too short for the
    /// protocol's declared budget.
    TapeExhausted {
        /// Bit position at which the draw failed (or the budget required).
        at_bit: usize,
        /// Total bits available on the tape.
        len_bits: usize,
    },
    /// An execution configuration failed validation.
    MalformedConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A model-construction error surfaced during execution setup.
    Model(ModelError),
}

impl fmt::Display for CaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaError::TapeExhausted { at_bit, len_bits } => {
                write!(
                    f,
                    "random tape exhausted at bit {at_bit} (tape holds {len_bits} bits)"
                )
            }
            CaError::MalformedConfig { reason } => {
                write!(f, "malformed configuration: {reason}")
            }
            CaError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl StdError for CaError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            CaError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CaError {
    fn from(e: ModelError) -> Self {
        CaError::Model(e)
    }
}

impl CaError {
    /// Convenience constructor for [`CaError::MalformedConfig`].
    pub fn malformed(reason: impl Into<String>) -> Self {
        CaError::MalformedConfig {
            reason: reason.into(),
        }
    }
}

/// Largest exponent any exhaustive enumeration accepts: `2^24` (≈ 16M)
/// executions. Shared by [`crate::run::Run::try_enumerate_all`] and the
/// tape-enumeration oracles in `ca-analysis`, so every enumerator states the
/// same unit and trips at the same size.
pub const MAX_ENUMERATION_BITS: usize = 24;

/// Guards an exhaustive enumeration of `2^bits` executions: `Ok(())` when
/// the instance fits under [`MAX_ENUMERATION_BITS`], otherwise a
/// [`CaError::MalformedConfig`] naming `what` is being enumerated.
///
/// ```
/// use ca_core::error::{check_enumeration_bits, CaError};
/// assert!(check_enumeration_bits(24, "tapes").is_ok());
/// assert!(matches!(
///     check_enumeration_bits(25, "tapes"),
///     Err(CaError::MalformedConfig { .. })
/// ));
/// ```
pub fn check_enumeration_bits(bits: usize, what: &str) -> Result<(), CaError> {
    if bits > MAX_ENUMERATION_BITS {
        return Err(CaError::malformed(format!(
            "enumerating 2^{bits} {what} is too large \
             (max 2^{MAX_ENUMERATION_BITS} = 16M executions)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ca_error_display_and_source() {
        let e = CaError::TapeExhausted {
            at_bit: 64,
            len_bits: 64,
        };
        assert_eq!(
            e.to_string(),
            "random tape exhausted at bit 64 (tape holds 64 bits)"
        );
        let e = CaError::malformed("deadline must be positive");
        assert!(e.to_string().contains("deadline must be positive"));
        let e = CaError::from(ModelError::SelfLoop { vertex: 1 });
        assert!(e.to_string().contains("self-loop"));
        assert!(StdError::source(&e).is_some());
    }

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = ModelError::TooFewProcesses { got: 1, min: 2 };
        assert_eq!(
            e.to_string(),
            "graph has 1 processes but at least 2 are required"
        );
        let e = ModelError::SelfLoop { vertex: 3 };
        assert!(e.to_string().contains("self-loop"));
        let e = ModelError::InvalidParameter {
            name: "epsilon",
            reason: "must be positive",
        };
        assert!(e.to_string().contains("epsilon"));
    }

    #[test]
    fn enumeration_guard_trips_past_24_bits_with_the_execution_unit() {
        assert_eq!(check_enumeration_bits(0, "runs"), Ok(()));
        assert_eq!(check_enumeration_bits(24, "runs"), Ok(()));
        let err = check_enumeration_bits(25, "runs").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2^25 runs"), "{msg}");
        assert!(msg.contains("2^24 = 16M executions"), "{msg}");
        // Both enumerators share this guard, so the wording is identical
        // whatever is being enumerated.
        let tapes = check_enumeration_bits(30, "tapes").unwrap_err().to_string();
        assert!(tapes.contains("2^30 tapes"), "{tapes}");
        assert!(tapes.contains("2^24 = 16M executions"), "{tapes}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
        assert_send_sync::<CaError>();
    }
}
