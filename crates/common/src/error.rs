//! Workspace error type.
//!
//! Hand-rolled (no `thiserror`) to stay within the approved dependency set;
//! each variant carries enough context to diagnose a failure without a
//! backtrace.

use std::fmt;
use std::io;

/// Convenience alias used across all `pai-*` crates.
pub type Result<T> = std::result::Result<T, PaiError>;

/// Errors produced anywhere in the partial-adaptive-indexing stack.
#[derive(Debug)]
pub enum PaiError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// Malformed raw-file content (bad CSV line, unparseable number, ...).
    Parse {
        /// 1-based line (or record) number where parsing failed.
        line: u64,
        /// What was malformed.
        message: String,
    },
    /// Malformed raw-file content met mid-file — by a partitioned scan, which
    /// starts at a byte offset and cannot know the line number.
    ParseAt {
        /// Byte offset of the record where parsing failed.
        offset: u64,
        /// What was malformed.
        message: String,
    },
    /// Schema-level misuse (unknown column, axis/non-axis mixup, ...).
    Schema(String),
    /// A query referenced something the engine cannot satisfy
    /// (e.g. an aggregate over an axis column, or no aggregate at all).
    UnsupportedQuery(String),
    /// Invalid configuration (α outside \[0,1\], φ ≤ 0, degenerate grid, ...).
    Config(String),
    /// Internal invariant violation; indicates a bug, not user error.
    Internal(String),
}

impl PaiError {
    /// Shorthand for a schema error.
    pub fn schema(msg: impl Into<String>) -> Self {
        PaiError::Schema(msg.into())
    }

    /// Shorthand for a configuration error.
    pub fn config(msg: impl Into<String>) -> Self {
        PaiError::Config(msg.into())
    }

    /// Shorthand for an unsupported-query error.
    pub fn unsupported(msg: impl Into<String>) -> Self {
        PaiError::UnsupportedQuery(msg.into())
    }

    /// Shorthand for an internal invariant violation.
    pub fn internal(msg: impl Into<String>) -> Self {
        PaiError::Internal(msg.into())
    }

    /// Shorthand for a parse error at a given 1-based line number.
    pub fn parse(line: u64, msg: impl Into<String>) -> Self {
        PaiError::Parse {
            line,
            message: msg.into(),
        }
    }

    /// Shorthand for a parse error in the record at a given byte offset.
    pub fn parse_at(offset: u64, msg: impl Into<String>) -> Self {
        PaiError::ParseAt {
            offset,
            message: msg.into(),
        }
    }
}

impl fmt::Display for PaiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaiError::Io(e) => write!(f, "I/O error: {e}"),
            PaiError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            PaiError::ParseAt { offset, message } => {
                write!(f, "parse error at byte offset {offset}: {message}")
            }
            PaiError::Schema(m) => write!(f, "schema error: {m}"),
            PaiError::UnsupportedQuery(m) => write!(f, "unsupported query: {m}"),
            PaiError::Config(m) => write!(f, "configuration error: {m}"),
            PaiError::Internal(m) => write!(f, "internal error (bug): {m}"),
        }
    }
}

impl std::error::Error for PaiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PaiError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PaiError {
    fn from(e: io::Error) -> Self {
        PaiError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PaiError::schema("bad column")
            .to_string()
            .contains("schema"));
        assert!(PaiError::parse(7, "not a number")
            .to_string()
            .contains("line 7"));
        assert!(PaiError::parse_at(4096, "not a number")
            .to_string()
            .contains("byte offset 4096"));
        assert!(PaiError::config("alpha out of range")
            .to_string()
            .contains("configuration"));
        assert!(PaiError::unsupported("filters")
            .to_string()
            .contains("unsupported query"));
    }

    #[test]
    fn io_source_preserved() {
        let e = PaiError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn internal_has_no_source() {
        let e = PaiError::internal("oops");
        assert!(std::error::Error::source(&e).is_none());
    }
}
