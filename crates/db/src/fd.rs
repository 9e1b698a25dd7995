//! Functional dependencies, keys, and primary keys.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::{AttributeId, Database, DbError, Fact, FactSet, RelationId, Schema};

/// Identifier of an FD within an [`FdSet`] (dense, zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FdId(pub(crate) u32);

impl FdId {
    /// Constructs an FD id from a raw index.
    pub fn new(index: usize) -> Self {
        FdId(index as u32)
    }

    /// The raw index of this FD within its [`FdSet`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A functional dependency `φ = R : X → Y` over a schema (Section 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionalDependency {
    relation: RelationId,
    lhs: BTreeSet<AttributeId>,
    rhs: BTreeSet<AttributeId>,
}

impl FunctionalDependency {
    /// Constructs `R : X → Y` from attribute positions.
    ///
    /// Both sides must be non-empty and all positions must be within the
    /// relation's arity.
    pub fn new(
        schema: &Schema,
        relation: RelationId,
        lhs: impl IntoIterator<Item = AttributeId>,
        rhs: impl IntoIterator<Item = AttributeId>,
    ) -> Result<Self, DbError> {
        let lhs: BTreeSet<AttributeId> = lhs.into_iter().collect();
        let rhs: BTreeSet<AttributeId> = rhs.into_iter().collect();
        if lhs.is_empty() || rhs.is_empty() {
            return Err(DbError::EmptyFdSide {
                relation: schema.relation_name(relation).to_string(),
            });
        }
        let arity = schema.arity(relation);
        for attr in lhs.iter().chain(rhs.iter()) {
            if attr.index() >= arity {
                return Err(DbError::UnknownAttribute {
                    relation: schema.relation_name(relation).to_string(),
                    attribute: format!("#{}", attr.index()),
                });
            }
        }
        Ok(FunctionalDependency { relation, lhs, rhs })
    }

    /// Constructs `R : X → Y` from relation and attribute *names*.
    pub fn from_names(
        schema: &Schema,
        relation: &str,
        lhs: &[&str],
        rhs: &[&str],
    ) -> Result<Self, DbError> {
        let rel = schema.relation_id(relation)?;
        let lhs_ids: Result<Vec<_>, _> = lhs.iter().map(|a| schema.attribute_id(rel, a)).collect();
        let rhs_ids: Result<Vec<_>, _> = rhs.iter().map(|a| schema.attribute_id(rel, a)).collect();
        FunctionalDependency::new(schema, rel, lhs_ids?, rhs_ids?)
    }

    /// Constructs the key `R : X → att(R)` from the left-hand side
    /// positions.
    pub fn key(
        schema: &Schema,
        relation: RelationId,
        lhs: impl IntoIterator<Item = AttributeId>,
    ) -> Result<Self, DbError> {
        let all = schema.all_attributes(relation);
        FunctionalDependency::new(schema, relation, lhs, all)
    }

    /// The relation this FD constrains.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The left-hand side `X`.
    pub fn lhs(&self) -> &BTreeSet<AttributeId> {
        &self.lhs
    }

    /// The right-hand side `Y`.
    pub fn rhs(&self) -> &BTreeSet<AttributeId> {
        &self.rhs
    }

    /// Returns `true` iff this FD is a *key*, i.e. `X ∪ Y = att(R)`.
    fn is_key(&self, schema: &Schema) -> bool {
        let mut union = self.lhs.clone();
        union.extend(self.rhs.iter().copied());
        union.len() == schema.arity(self.relation)
    }

    /// Returns `true` iff the two facts *jointly satisfy* this FD, i.e.
    /// `{f, g} ⊨ φ`.  (Facts over other relations satisfy it vacuously.)
    pub fn satisfied_by_pair(&self, f: &Fact, g: &Fact) -> bool {
        if f.relation() != self.relation || g.relation() != self.relation {
            return true;
        }
        let agree_on =
            |attrs: &BTreeSet<AttributeId>| attrs.iter().all(|a| f.value_at(*a) == g.value_at(*a));
        if agree_on(&self.lhs) {
            agree_on(&self.rhs)
        } else {
            true
        }
    }

    /// Renders the FD using the attribute names of `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> FdDisplay<'a> {
        FdDisplay { fd: self, schema }
    }
}

/// Helper for displaying an FD with names resolved against a schema.
pub struct FdDisplay<'a> {
    fd: &'a FunctionalDependency,
    schema: &'a Schema,
}

impl fmt::Display for FdDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |attrs: &BTreeSet<AttributeId>| {
            attrs
                .iter()
                .map(|a| self.schema.attribute_name(self.fd.relation, *a).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "{} : {} -> {}",
            self.schema.relation_name(self.fd.relation),
            names(&self.fd.lhs),
            names(&self.fd.rhs)
        )
    }
}

/// A finite set `Σ` of functional dependencies over a schema.
#[derive(Debug, Clone, Default)]
pub struct FdSet {
    fds: Vec<FunctionalDependency>,
}

impl FdSet {
    /// Creates an empty FD set.
    pub fn new() -> Self {
        FdSet::default()
    }

    /// Adds an FD and returns its id.
    pub fn add(&mut self, fd: FunctionalDependency) -> FdId {
        let id = FdId::new(self.fds.len());
        self.fds.push(fd);
        id
    }

    /// Number of FDs.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// Returns `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// The FD with the given id.
    pub fn fd(&self, id: FdId) -> &FunctionalDependency {
        &self.fds[id.index()]
    }

    /// Iterates over `(id, fd)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FdId, &FunctionalDependency)> + '_ {
        self.fds
            .iter()
            .enumerate()
            .map(|(i, fd)| (FdId::new(i), fd))
    }

    /// Returns `true` iff every FD in the set is a key (`X ∪ Y = att(R)`).
    pub fn is_keys(&self, schema: &Schema) -> bool {
        self.fds.iter().all(|fd| fd.is_key(schema))
    }

    /// Returns `true` iff the set is a set of *primary keys*: every FD is a
    /// key and no relation has more than one key.
    pub fn is_primary_keys(&self, schema: &Schema) -> bool {
        if !self.is_keys(schema) {
            return false;
        }
        let mut seen: HashMap<RelationId, usize> = HashMap::new();
        for fd in &self.fds {
            *seen.entry(fd.relation()).or_insert(0) += 1;
        }
        seen.values().all(|count| *count <= 1)
    }

    /// Validates that this set is a set of primary keys, with a descriptive
    /// error otherwise.
    pub fn require_primary_keys(&self, schema: &Schema) -> Result<(), DbError> {
        if !self.is_keys(schema) {
            return Err(DbError::NotPrimaryKeys {
                reason: "it contains a non-key functional dependency".to_string(),
            });
        }
        let mut seen: HashMap<RelationId, usize> = HashMap::new();
        for fd in &self.fds {
            *seen.entry(fd.relation()).or_insert(0) += 1;
        }
        for (rel, count) in seen {
            if count > 1 {
                return Err(DbError::NotPrimaryKeys {
                    reason: format!("relation `{}` has {count} keys", schema.relation_name(rel)),
                });
            }
        }
        Ok(())
    }

    /// The maximal number of keys/FDs over a single relation name — the
    /// constant `k` of Proposition 7.3 and Lemma D.1.
    pub fn max_fds_per_relation(&self) -> usize {
        let mut counts: HashMap<RelationId, usize> = HashMap::new();
        for fd in &self.fds {
            *counts.entry(fd.relation()).or_insert(0) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Whether a *pair* of facts jointly satisfies every FD of the set, i.e.
    /// `{f, g} ⊨ Σ`.
    fn pair_satisfies(&self, f: &Fact, g: &Fact) -> bool {
        self.fds.iter().all(|fd| fd.satisfied_by_pair(f, g))
    }

    /// Whether the sub-database `subset ⊆ D` satisfies the whole set, i.e.
    /// `D' ⊨ Σ`.
    fn satisfied_by(&self, db: &Database, subset: &FactSet) -> bool {
        // Pairwise check per relation; FDs are binary constraints so this is
        // complete.  Violation detection with indexes lives in
        // `crate::violation`; this method is the simple reference check.
        let facts: Vec<_> = subset.iter().collect();
        for (i, a) in facts.iter().enumerate() {
            for b in facts.iter().skip(i + 1) {
                if !self.pair_satisfies(&db.fact(*a), &db.fact(*b)) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the whole database satisfies the set, i.e. `D ⊨ Σ`.
    pub fn satisfied_by_database(&self, db: &Database) -> bool {
        self.satisfied_by(db, &db.all_facts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn schema_r3() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        schema
    }

    #[test]
    fn construction_and_key_detection() {
        let schema = schema_r3();
        let fd = FunctionalDependency::from_names(&schema, "R", &["A"], &["B"]).unwrap();
        assert!(!fd.is_key(&schema));
        let key = FunctionalDependency::from_names(&schema, "R", &["A"], &["B", "C"]).unwrap();
        assert!(key.is_key(&schema));
        let r = schema.relation_id("R").unwrap();
        let key2 = FunctionalDependency::key(&schema, r, [AttributeId::new(0)]).unwrap();
        assert!(key2.is_key(&schema));
    }

    #[test]
    fn invalid_fds_rejected() {
        let schema = schema_r3();
        assert!(matches!(
            FunctionalDependency::from_names(&schema, "R", &[], &["B"]),
            Err(DbError::EmptyFdSide { .. })
        ));
        assert!(matches!(
            FunctionalDependency::from_names(&schema, "R", &["Z"], &["B"]),
            Err(DbError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            FunctionalDependency::from_names(&schema, "S", &["A"], &["B"]),
            Err(DbError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn pair_satisfaction() {
        let schema = schema_r3();
        let r = schema.relation_id("R").unwrap();
        let fd = FunctionalDependency::from_names(&schema, "R", &["A"], &["B"]).unwrap();
        let f1 = Fact::new(r, vec![Value::int(1), Value::int(1), Value::int(1)]);
        let f2 = Fact::new(r, vec![Value::int(1), Value::int(2), Value::int(2)]);
        let f3 = Fact::new(r, vec![Value::int(2), Value::int(9), Value::int(9)]);
        assert!(!fd.satisfied_by_pair(&f1, &f2));
        assert!(fd.satisfied_by_pair(&f1, &f3));
        assert!(fd.satisfied_by_pair(&f1, &f1));
    }

    #[test]
    fn primary_keys_and_keys_classification() {
        let schema = schema_r3();
        let mut pk = FdSet::new();
        pk.add(FunctionalDependency::from_names(&schema, "R", &["A"], &["B", "C"]).unwrap());
        assert!(pk.is_primary_keys(&schema));
        assert!(pk.is_keys(&schema));
        assert!(pk.require_primary_keys(&schema).is_ok());

        let mut keys = FdSet::new();
        keys.add(FunctionalDependency::from_names(&schema, "R", &["A"], &["B", "C"]).unwrap());
        keys.add(FunctionalDependency::from_names(&schema, "R", &["B"], &["A", "C"]).unwrap());
        assert!(keys.is_keys(&schema));
        assert!(!keys.is_primary_keys(&schema));
        assert!(keys.require_primary_keys(&schema).is_err());
        assert_eq!(keys.max_fds_per_relation(), 2);

        let mut fds = FdSet::new();
        fds.add(FunctionalDependency::from_names(&schema, "R", &["A"], &["B"]).unwrap());
        assert!(!fds.is_keys(&schema));
    }

    #[test]
    fn running_example_is_inconsistent() {
        // Example 3.6: D = {R(a1,b1,c1), R(a1,b2,c2), R(a2,b1,c2)},
        // Σ = {A→B, C→B}.  D does not satisfy Σ.
        let schema = schema_r3();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::str("a1"), Value::str("b1"), Value::str("c1")])
            .unwrap();
        db.insert_values("R", [Value::str("a1"), Value::str("b2"), Value::str("c2")])
            .unwrap();
        db.insert_values("R", [Value::str("a2"), Value::str("b1"), Value::str("c2")])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
        assert!(!sigma.satisfied_by_database(&db));
        // Removing f2 = R(a1,b2,c2) restores consistency.
        let mut subset = db.all_facts();
        subset.remove(crate::FactId::new(1));
        assert!(sigma.satisfied_by(&db, &subset));
    }

    #[test]
    fn fd_display() {
        let schema = schema_r3();
        let fd = FunctionalDependency::from_names(&schema, "R", &["A"], &["B"]).unwrap();
        assert_eq!(fd.display(&schema).to_string(), "R : A -> B");
    }
}
