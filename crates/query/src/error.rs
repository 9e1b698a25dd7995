//! Error types for query construction, parsing and evaluation.

use std::fmt;

use ucqa_db::DbError;

/// Errors raised while constructing, parsing, or evaluating conjunctive
/// queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An answer variable does not occur in any body atom.
    UnsafeAnswerVariable {
        /// The name of the unsafe variable.
        variable: String,
    },
    /// An atom references a relation that is not part of the schema, or has
    /// the wrong arity.
    Db(DbError),
    /// The query text could not be parsed.
    Parse {
        /// Human-readable description of the parse failure.
        message: String,
        /// Byte offset in the input where the failure was detected.
        position: usize,
    },
    /// A candidate answer tuple has the wrong arity for the query.
    AnswerArityMismatch {
        /// Number of answer variables of the query.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
    /// A bank was refreshed against a query list other than the one it
    /// was compiled from: another length, or another query or candidate
    /// at some entry.
    BankMismatch {
        /// Number of bank entries.
        entries: usize,
        /// Number of queries supplied.
        queries: usize,
    },
    /// The query is syntactically valid but outside the supported
    /// fragment (e.g. an atom with more than 64 terms).
    Unsupported {
        /// Human-readable description of the unsupported construct.
        message: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeAnswerVariable { variable } => write!(
                f,
                "answer variable `{variable}` does not occur in the query body"
            ),
            QueryError::Db(e) => write!(f, "{e}"),
            QueryError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            QueryError::AnswerArityMismatch { expected, actual } => write!(
                f,
                "query has {expected} answer variables but {actual} values were supplied"
            ),
            QueryError::BankMismatch { entries, queries } => write!(
                f,
                "bank of {entries} entries was compiled from another list than the {queries} queries supplied"
            ),
            QueryError::Unsupported { message } => write!(f, "unsupported query: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<DbError> for QueryError {
    fn from(e: DbError) -> Self {
        QueryError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = QueryError::UnsafeAnswerVariable {
            variable: "x".into(),
        };
        assert!(e.to_string().contains('x'));
        let e = QueryError::Parse {
            message: "expected `)`".into(),
            position: 7,
        };
        assert!(e.to_string().contains('7'));
    }
}
