//! The shared error type for the Athena workspace.

use std::error::Error as StdError;
use std::fmt;

/// Convenience alias for results carrying an [`AthenaError`].
pub type Result<T> = std::result::Result<T, AthenaError>;

/// The error type returned by fallible operations across the Athena stack.
///
/// Variants map to the subsystem that produced them, so callers can react
/// differently to, say, a malformed query versus an unavailable store node.
///
/// # Examples
///
/// ```
/// use athena_types::AthenaError;
/// let err = AthenaError::parse("query", "TCP_PORT=!=80");
/// assert!(err.to_string().contains("query"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AthenaError {
    /// Input text could not be parsed as the named kind of value.
    Parse {
        /// What kind of value was being parsed (e.g. `"ipv4"`, `"query"`).
        kind: String,
        /// The offending input.
        input: String,
    },
    /// A message failed wire encoding or decoding.
    Codec(String),
    /// A referenced entity (switch, port, collection, model…) is unknown.
    NotFound {
        /// The entity class (e.g. `"switch"`).
        entity: String,
        /// The identifier that failed to resolve.
        id: String,
    },
    /// An operation was issued against a component in the wrong state.
    InvalidState(String),
    /// A query was syntactically valid but semantically unusable.
    InvalidQuery(String),
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// A distributed-store operation failed.
    Store(String),
    /// A compute-cluster job failed.
    Compute(String),
    /// A machine-learning operation failed (bad shapes, no data, …).
    Ml(String),
    /// A detection-model operation failed.
    Model(String),
    /// A persistence (WAL/checkpoint/snapshot) operation failed.
    Persist(String),
    /// Catch-all for everything else.
    Other(String),
}

impl AthenaError {
    /// Creates a [`AthenaError::Parse`] error.
    pub fn parse(kind: impl Into<String>, input: impl Into<String>) -> Self {
        AthenaError::Parse {
            kind: kind.into(),
            input: input.into(),
        }
    }
}

impl fmt::Display for AthenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AthenaError::Parse { kind, input } => {
                write!(f, "invalid {kind} syntax: {input:?}")
            }
            AthenaError::Codec(msg) => write!(f, "codec error: {msg}"),
            AthenaError::NotFound { entity, id } => write!(f, "{entity} not found: {id}"),
            AthenaError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            AthenaError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            AthenaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AthenaError::Store(msg) => write!(f, "store error: {msg}"),
            AthenaError::Compute(msg) => write!(f, "compute error: {msg}"),
            AthenaError::Ml(msg) => write!(f, "ml error: {msg}"),
            AthenaError::Model(msg) => write!(f, "model error: {msg}"),
            AthenaError::Persist(msg) => write!(f, "persist error: {msg}"),
            AthenaError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl StdError for AthenaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(AthenaError, &str)> = vec![
            (AthenaError::parse("ipv4", "999.1.1.1"), "invalid ipv4"),
            (AthenaError::Codec("short buffer".into()), "codec error"),
            (
                AthenaError::NotFound {
                    entity: "switch".into(),
                    id: "of:01".into(),
                },
                "switch not found",
            ),
            (AthenaError::InvalidQuery("empty".into()), "invalid query"),
            (AthenaError::Store("shard down".into()), "store error"),
        ];
        for (err, prefix) in cases {
            assert!(
                err.to_string().starts_with(prefix),
                "{err} should start with {prefix}"
            );
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: StdError + Send + Sync + 'static>() {}
        assert_bounds::<AthenaError>();
    }
}
