//! Constants (the set **C** of the paper).

use std::fmt;
use std::sync::Arc;

/// A constant value appearing in a fact.
///
/// The paper works over an abstract countably infinite set of constants
/// **C**; for practical workloads we support integers and interned strings.
/// Values are cheap to clone (`i64` or an `Arc<str>`), hashable and totally
/// ordered so they can serve as block keys and canonical-ordering inputs.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// A string constant (reference-counted, cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Constructs a string constant.
    pub fn str(text: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(text.as_ref()))
    }

    /// Constructs an integer constant.
    pub fn int(value: i64) -> Self {
        Value::Int(value)
    }

    /// Returns the string payload, if this is a string constant.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<i32> for Value {
    fn from(value: i32) -> Self {
        Value::Int(i64::from(value))
    }
}

impl From<u32> for Value {
    fn from(value: u32) -> Self {
        Value::Int(i64::from(value))
    }
}

impl From<usize> for Value {
    fn from(value: usize) -> Self {
        Value::Int(value as i64)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::str(value)
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::str(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn construction_and_accessors() {
        let i = Value::int(42);
        let s = Value::str("alice");
        assert_eq!(i, Value::Int(42));
        assert_eq!(i.as_str(), None);
        assert_eq!(s.as_str(), Some("alice"));
    }

    #[test]
    fn equality_and_hashing() {
        let mut set = HashSet::new();
        set.insert(Value::str("a"));
        set.insert(Value::str("a"));
        set.insert(Value::int(1));
        set.insert(Value::int(1));
        assert_eq!(set.len(), 2);
        assert_ne!(Value::int(1), Value::str("1"));
    }

    #[test]
    fn ordering_is_total() {
        let mut values = vec![
            Value::str("b"),
            Value::int(2),
            Value::str("a"),
            Value::int(1),
        ];
        values.sort();
        assert_eq!(
            values,
            vec![
                Value::int(1),
                Value::int(2),
                Value::str("a"),
                Value::str("b")
            ]
        );
    }

    #[test]
    fn display() {
        assert_eq!(Value::int(7).to_string(), "7");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(format!("{:?}", Value::str("x")), "\"x\"");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::int(3));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::from(5usize), Value::int(5));
    }
}
