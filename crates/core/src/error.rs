//! Middleware error type, wrapping engine errors with version-control
//! specific failure modes.
//!
//! Errors are structured per command where that helps callers: typed
//! requests that fail validation surface as [`CoreError::BadRequest`]
//! carrying the [`CommandKind`] that raised them, while string front-end
//! failures surface as [`CoreError::Parse`] / [`CoreError::UnknownCommand`]
//! so a REPL can distinguish "bad line" from "bad state".

use std::fmt;

use orpheus_engine::storage::DecodeError;
use orpheus_engine::EngineError;

use crate::ids::Vid;
use crate::request::CommandKind;

pub type Result<T> = std::result::Result<T, CoreError>;

/// Failures surfaced by OrpheusDB commands and APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Underlying engine error.
    Engine(EngineError),
    /// Referenced CVD does not exist.
    CvdNotFound(String),
    /// A CVD with this name already exists.
    CvdExists(String),
    /// Referenced version id does not exist in the CVD.
    VersionNotFound { cvd: String, version: Vid },
    /// The table was not produced by a checkout (no provenance entry).
    NotStaged(String),
    /// Primary-key violation detected during commit.
    PrimaryKeyViolation(String),
    /// Staged table/CSV schema does not match the CVD schema.
    SchemaMismatch(String),
    /// Current user lacks access to the staged table.
    PermissionDenied(String),
    /// The string front-end could not parse a line into a [`crate::request::Request`].
    Parse {
        /// The command being parsed, when it got far enough to know.
        command: Option<CommandKind>,
        message: String,
    },
    /// The command word itself is not recognized by the string front-end.
    UnknownCommand(String),
    /// A typed request failed validation before touching storage.
    BadRequest {
        command: CommandKind,
        reason: String,
    },
    /// File access on behalf of a command (`-f` / `-s` flags) failed.
    Io(String),
    /// CSV parse failure.
    Csv(String),
    /// Snapshot persistence failure (I/O, corruption, version skew).
    Storage(String),
    /// A statement routed by the concurrent executor touches more than one
    /// CVD in a way per-CVD locking cannot serve (non-SELECT statements
    /// spanning CVDs). Carries the CVD names involved.
    CrossCvd(Vec<String>),
    /// A network transport failure: the connection to a remote OrpheusDB
    /// server (or from a client) was lost, refused, or timed out. Raised
    /// by the `orpheus-net` crate's client and server.
    Network(String),
    /// A wire-protocol violation: bad magic, unsupported protocol
    /// version, an oversized or truncated frame, or a payload that does
    /// not decode. Raised by the `orpheus-net` codec; a peer speaking the
    /// protocol correctly never sees this.
    Protocol(String),
    /// Executing a request panicked. The panic was contained to the
    /// request, on the shard named here (`worker` when it struck an async
    /// worker outside any shard): the request fails with this error,
    /// while other requests — to this shard or any other — are
    /// unaffected.
    WorkerPanicked { shard: String },
    /// Catch-all for invalid API usage.
    Invalid(String),
    /// The server-side deadline for one request elapsed before its
    /// outcome was known. The request may still apply after the fact, so
    /// this is **not** retryable: blindly resubmitting a mutation could
    /// double it.
    DeadlineExceeded { elapsed_ms: u64 },
    /// The server shed this request under load *before executing it*, so
    /// retrying after the hinted delay is always safe. The network
    /// client's retry policy honors the hint automatically.
    Overloaded { retry_after_ms: u64 },
    /// The instance is in read-only degraded mode after a write-ahead-log
    /// I/O failure: reads and checkouts keep serving, mutations are
    /// refused without touching state. Retryable once an operator
    /// recovers the instance with a checkpoint (which rotates onto a
    /// fresh segment). Carries the original I/O failure.
    Degraded(String),
    /// A client-side wait for a response outlived its deadline. Distinct
    /// from [`CoreError::Network`] so callers can tell "the connection
    /// died" from "the connection is fine but slow"; `state` carries the
    /// client's last-known link state (session, in-flight count, or the
    /// recorded cause of death). The outcome of the request is unknown.
    ResponseTimeout { waited_ms: u64, state: String },
}

impl CoreError {
    /// Shorthand for a validation failure of one typed command.
    pub fn bad_request(command: CommandKind, reason: impl Into<String>) -> CoreError {
        CoreError::BadRequest {
            command,
            reason: reason.into(),
        }
    }

    /// Shorthand for a parse failure attributed to one command.
    pub fn parse(command: CommandKind, message: impl Into<String>) -> CoreError {
        CoreError::Parse {
            command: Some(command),
            message: message.into(),
        }
    }

    /// Shorthand for a parse failure with no identifiable command.
    pub fn parse_line(message: impl Into<String>) -> CoreError {
        CoreError::Parse {
            command: None,
            message: message.into(),
        }
    }

    /// The command this error is attributable to, when known.
    pub fn command(&self) -> Option<CommandKind> {
        match self {
            CoreError::Parse { command, .. } => *command,
            CoreError::BadRequest { command, .. } => Some(*command),
            _ => None,
        }
    }

    /// Whether the producer guarantees the request did **not** execute,
    /// making a retry of the same request safe. True for load shedding
    /// ([`CoreError::Overloaded`]) and degraded-mode refusals
    /// ([`CoreError::Degraded`]); false for everything whose outcome is
    /// settled or unknown (timeouts and transport failures are resolved
    /// by the client's idempotent replay instead).
    pub fn is_retryable(&self) -> bool {
        matches!(self, CoreError::Overloaded { .. } | CoreError::Degraded(_))
    }

    /// The server's suggested minimum delay before retrying, when it
    /// gave one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            CoreError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "engine error: {e}"),
            CoreError::CvdNotFound(c) => write!(f, "CVD not found: {c}"),
            CoreError::CvdExists(c) => write!(f, "CVD already exists: {c}"),
            CoreError::VersionNotFound { cvd, version } => {
                write!(f, "version {} not found in CVD {cvd}", version.0)
            }
            CoreError::NotStaged(t) => {
                write!(f, "table {t} was not checked out from any CVD")
            }
            CoreError::PrimaryKeyViolation(m) => write!(f, "primary key violation: {m}"),
            CoreError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            CoreError::PermissionDenied(m) => write!(f, "permission denied: {m}"),
            CoreError::Parse {
                command: Some(c),
                message,
            } => write!(f, "{c}: {message}"),
            CoreError::Parse {
                command: None,
                message,
            } => write!(f, "command error: {message}"),
            CoreError::UnknownCommand(c) => write!(f, "unknown command: {c}"),
            CoreError::BadRequest { command, reason } => {
                write!(f, "invalid {command} request: {reason}")
            }
            CoreError::Io(m) => write!(f, "I/O error: {m}"),
            CoreError::Csv(m) => write!(f, "csv error: {m}"),
            CoreError::Storage(m) => write!(f, "storage error: {m}"),
            CoreError::CrossCvd(cvds) => write!(
                f,
                "statement writes across CVDs [{}]; only read-only (SELECT) \
                 statements may span CVDs under per-CVD locking",
                cvds.join(", ")
            ),
            CoreError::Network(m) => write!(f, "network error: {m}"),
            CoreError::Protocol(m) => write!(f, "protocol error: {m}"),
            CoreError::WorkerPanicked { shard } => write!(
                f,
                "a request panicked while executing on shard {shard}; \
                 the request was abandoned"
            ),
            CoreError::Invalid(m) => write!(f, "invalid request: {m}"),
            CoreError::DeadlineExceeded { elapsed_ms } => write!(
                f,
                "request deadline exceeded after {elapsed_ms}ms; the outcome is unknown \
                 (the request may still apply)"
            ),
            CoreError::Overloaded { retry_after_ms } => write!(
                f,
                "server overloaded; request shed before executing, retry after {retry_after_ms}ms"
            ),
            CoreError::Degraded(m) => write!(
                f,
                "instance degraded to read-only after a write-ahead-log failure \
                 (mutations refused until an operator checkpoint): {m}"
            ),
            CoreError::ResponseTimeout { waited_ms, state } => {
                write!(f, "no response after {waited_ms}ms ({state})")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

/// Bytes the codec or the write-ahead log cannot decode are a protocol
/// violation (the instance snapshot reports them as storage corruption
/// instead, see [`crate::persist`]).
impl From<DecodeError> for CoreError {
    fn from(e: DecodeError) -> Self {
        CoreError::Protocol(e.0.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_errors_convert() {
        let e: CoreError = EngineError::TableNotFound("x".into()).into();
        assert!(matches!(e, CoreError::Engine(_)));
        assert!(e.to_string().contains("table not found"));
    }

    #[test]
    fn display_variants() {
        assert_eq!(
            CoreError::VersionNotFound {
                cvd: "protein".into(),
                version: Vid(9)
            }
            .to_string(),
            "version 9 not found in CVD protein"
        );
        assert!(CoreError::NotStaged("t1".into()).to_string().contains("t1"));
        assert_eq!(
            CoreError::bad_request(CommandKind::Checkout, "no versions given").to_string(),
            "invalid checkout request: no versions given"
        );
        assert_eq!(
            CoreError::UnknownCommand("bogus".into()).to_string(),
            "unknown command: bogus"
        );
        assert_eq!(
            CoreError::parse(CommandKind::Diff, "needs two versions").to_string(),
            "diff: needs two versions"
        );
        assert_eq!(
            CoreError::Network("connection reset".into()).to_string(),
            "network error: connection reset"
        );
        assert_eq!(
            CoreError::Protocol("bad magic".into()).to_string(),
            "protocol error: bad magic"
        );
    }

    #[test]
    fn resilience_variants_display_and_classify() {
        let shed = CoreError::Overloaded { retry_after_ms: 75 };
        assert!(shed.to_string().contains("retry after 75ms"));
        assert!(shed.is_retryable());
        assert_eq!(shed.retry_after_ms(), Some(75));

        let degraded = CoreError::Degraded("fsync failed".into());
        assert!(degraded.to_string().contains("read-only"));
        assert!(degraded.is_retryable());
        assert_eq!(degraded.retry_after_ms(), None);

        let deadline = CoreError::DeadlineExceeded { elapsed_ms: 1500 };
        assert!(deadline.to_string().contains("1500ms"));
        assert!(!deadline.is_retryable());

        let timeout = CoreError::ResponseTimeout {
            waited_ms: 200,
            state: "connected, 3 in flight".into(),
        };
        assert!(timeout.to_string().contains("200ms"));
        assert!(timeout.to_string().contains("3 in flight"));
        assert!(!timeout.is_retryable());
        assert!(!CoreError::Network("reset".into()).is_retryable());
    }

    #[test]
    fn errors_know_their_command() {
        assert_eq!(
            CoreError::bad_request(CommandKind::Optimize, "x").command(),
            Some(CommandKind::Optimize)
        );
        assert_eq!(CoreError::parse_line("x").command(), None);
        assert_eq!(CoreError::CvdNotFound("d".into()).command(), None);
    }
}
