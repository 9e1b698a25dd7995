//! Error types for the database substrate.

use std::fmt;

/// Errors raised while constructing schemas, databases, or constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A relation name was declared twice in a schema.
    DuplicateRelation {
        /// The offending relation name.
        name: String,
    },
    /// A relation was referenced that is not part of the schema.
    UnknownRelation {
        /// The unknown relation name.
        name: String,
    },
    /// An attribute was referenced that the relation does not have.
    UnknownAttribute {
        /// The relation name.
        relation: String,
        /// The unknown attribute name.
        attribute: String,
    },
    /// A fact was constructed with the wrong number of values.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// The declared arity.
        expected: usize,
        /// The number of values supplied.
        actual: usize,
    },
    /// A relation was declared with arity zero.
    ZeroArity {
        /// The relation name.
        name: String,
    },
    /// A functional dependency was declared with an empty left- or
    /// right-hand side.
    EmptyFdSide {
        /// The relation name of the FD.
        relation: String,
    },
    /// A set of FDs was required to be a set of primary keys but is not.
    NotPrimaryKeys {
        /// Human-readable explanation.
        reason: String,
    },
    /// A fact carried a `RelationId` minted by a different schema (its
    /// index is out of range for this database's schema).
    ForeignRelationId {
        /// The out-of-range relation index carried by the fact.
        index: usize,
        /// The number of relations the schema declares.
        relations: usize,
    },
    /// The dictionary ran out of symbol space: interning one more distinct
    /// constant would overflow the `u32` symbol width and silently alias
    /// an existing symbol.
    DictionaryFull {
        /// The number of distinct constants already interned.
        symbols: usize,
    },
    /// A `FactId` outside the database's id space (or one whose fact was
    /// already deleted) was passed to an operation that requires a live
    /// fact.
    NoSuchFact {
        /// The offending fact id.
        index: usize,
        /// The id-space size of the database (`Database::len`).
        universe: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateRelation { name } => {
                write!(f, "relation `{name}` declared more than once")
            }
            DbError::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            DbError::UnknownAttribute {
                relation,
                attribute,
            } => write!(f, "relation `{relation}` has no attribute `{attribute}`"),
            DbError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "relation `{relation}` has arity {expected}, but {actual} values were supplied"
            ),
            DbError::ZeroArity { name } => {
                write!(f, "relation `{name}` must have arity at least 1")
            }
            DbError::EmptyFdSide { relation } => write!(
                f,
                "functional dependency over `{relation}` has an empty attribute set"
            ),
            DbError::NotPrimaryKeys { reason } => {
                write!(f, "constraint set is not a set of primary keys: {reason}")
            }
            DbError::ForeignRelationId { index, relations } => write!(
                f,
                "fact carries relation index {index}, but the schema declares only {relations} relation(s) — was the RelationId minted by a different schema?"
            ),
            DbError::DictionaryFull { symbols } => write!(
                f,
                "dictionary is full: {symbols} distinct constants are interned and the u32 symbol space is exhausted"
            ),
            DbError::NoSuchFact { index, universe } => write!(
                f,
                "fact id {index} does not name a live fact (id space has {universe} ids)"
            ),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offenders() {
        let e = DbError::ArityMismatch {
            relation: "R".into(),
            expected: 3,
            actual: 2,
        };
        let text = e.to_string();
        assert!(text.contains("R") && text.contains('3') && text.contains('2'));

        let e = DbError::UnknownAttribute {
            relation: "Emp".into(),
            attribute: "salary".into(),
        };
        assert!(e.to_string().contains("salary"));
    }
}
