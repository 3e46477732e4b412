//! Engine error type shared by all layers (storage, expressions, SQL).

use std::fmt;

/// Convenient result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// All failure modes the engine can report.
///
/// The variants deliberately carry human-readable context (table and column
/// names, offending SQL fragments) because the OrpheusDB middleware surfaces
/// these messages directly to end users of the version-control commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Referenced table does not exist in the catalog.
    TableNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Referenced column cannot be resolved.
    ColumnNotFound(String),
    /// Ambiguous unqualified column reference (present in several tables).
    AmbiguousColumn(String),
    /// A value had the wrong type for the operation.
    TypeMismatch(String),
    /// Primary key or unique index violation.
    UniqueViolation(String),
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// Statement parsed but cannot be planned/executed (unsupported shape).
    Plan(String),
    /// Arity mismatch (INSERT values vs. schema, row widths, ...).
    Arity(String),
    /// Runtime evaluation error (division by zero, bad cast, ...).
    Eval(String),
    /// Referenced index does not exist.
    IndexNotFound(String),
    /// Snapshot persistence failure: I/O error, truncation, checksum
    /// mismatch, or format-version incompatibility.
    Storage(String),
    /// Catch-all for invalid requests against the engine API.
    Invalid(String),
    /// A statement that writes, handed to the read-only entry
    /// ([`crate::Database::query`]).
    NotAQuery(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TableNotFound(t) => write!(f, "table not found: {t}"),
            EngineError::TableExists(t) => write!(f, "table already exists: {t}"),
            EngineError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            EngineError::AmbiguousColumn(c) => write!(f, "ambiguous column reference: {c}"),
            EngineError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            EngineError::UniqueViolation(m) => write!(f, "unique constraint violation: {m}"),
            EngineError::Parse(m) => write!(f, "parse error: {m}"),
            EngineError::Plan(m) => write!(f, "planning error: {m}"),
            EngineError::Arity(m) => write!(f, "arity mismatch: {m}"),
            EngineError::Eval(m) => write!(f, "evaluation error: {m}"),
            EngineError::IndexNotFound(m) => write!(f, "index not found: {m}"),
            EngineError::Storage(m) => write!(f, "storage error: {m}"),
            EngineError::Invalid(m) => write!(f, "invalid request: {m}"),
            EngineError::NotAQuery(m) => write!(f, "not a query: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = EngineError::TableNotFound("protein".into());
        assert_eq!(e.to_string(), "table not found: protein");
        let e = EngineError::UniqueViolation("pk (protein1, protein2)".into());
        assert!(e.to_string().contains("pk (protein1, protein2)"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            EngineError::Parse("x".into()),
            EngineError::Parse("x".into())
        );
        assert_ne!(
            EngineError::Parse("x".into()),
            EngineError::Plan("x".into())
        );
    }
}
