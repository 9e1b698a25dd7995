//! Abstract syntax of conjunctive queries.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use ucqa_db::{RelationId, Schema, Value};

use crate::QueryError;

/// A query variable, identified by name.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(Arc<str>);

impl Variable {
    /// Constructs a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Variable(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Variable {
    fn from(name: &str) -> Self {
        Variable::new(name)
    }
}

/// A term of an atom: either a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A query variable.
    Var(Variable),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl AsRef<str>) -> Self {
        Term::Var(Variable::new(name))
    }

    /// Convenience constructor for a constant term.
    pub fn constant(value: impl Into<Value>) -> Self {
        Term::Const(value.into())
    }

    /// Returns the variable, if this term is one.
    pub fn as_var(&self) -> Option<&Variable> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v:?}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A relational atom `R(t₁, …, tₙ)` over a schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    relation: RelationId,
    terms: Vec<Term>,
}

impl Atom {
    /// Constructs an atom; arity is validated against the schema when the
    /// atom is added to a [`ConjunctiveQuery`].
    pub fn new(relation: RelationId, terms: Vec<Term>) -> Self {
        Atom { relation, terms }
    }

    /// The relation of this atom.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The terms of this atom, in positional order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The variables occurring in this atom.
    pub fn variables(&self) -> impl Iterator<Item = &Variable> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }
}

/// A conjunctive query `Ans(x̄) :- R₁(ȳ₁), …, Rₙ(ȳₙ)`.
///
/// Invariants (enforced by [`ConjunctiveQuery::new`]):
/// * every atom's arity matches its relation's arity in the schema;
/// * every answer variable occurs in at least one body atom (safety).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    answer_vars: Vec<Variable>,
    atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Constructs a conjunctive query, validating arities and safety.
    pub fn new(
        schema: &Schema,
        answer_vars: Vec<Variable>,
        atoms: Vec<Atom>,
    ) -> Result<Self, QueryError> {
        for atom in &atoms {
            let expected = schema.arity(atom.relation());
            if atom.terms().len() != expected {
                return Err(QueryError::Db(ucqa_db::DbError::ArityMismatch {
                    relation: schema.relation_name(atom.relation()).to_string(),
                    expected,
                    actual: atom.terms().len(),
                }));
            }
        }
        let body_vars: BTreeSet<&Variable> = atoms.iter().flat_map(|a| a.variables()).collect();
        for var in &answer_vars {
            if !body_vars.contains(var) {
                return Err(QueryError::UnsafeAnswerVariable {
                    variable: var.name().to_string(),
                });
            }
        }
        Ok(ConjunctiveQuery { answer_vars, atoms })
    }

    /// Constructs a *Boolean* conjunctive query (no answer variables).
    pub fn boolean(schema: &Schema, atoms: Vec<Atom>) -> Result<Self, QueryError> {
        ConjunctiveQuery::new(schema, Vec::new(), atoms)
    }

    /// The answer variables `x̄`.
    pub fn answer_vars(&self) -> &[Variable] {
        &self.answer_vars
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Returns `true` iff the query is Boolean (no answer variables).
    pub fn is_boolean(&self) -> bool {
        self.answer_vars.is_empty()
    }

    /// Returns `true` iff the query is atomic (single body atom).
    pub fn is_atomic(&self) -> bool {
        self.atoms.len() == 1
    }

    /// Number of body atoms — the `|Q|` of the lower-bound lemmas.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The set of variables occurring in the query (`var(Q)`).
    pub fn variables(&self) -> BTreeSet<Variable> {
        self.atoms
            .iter()
            .flat_map(|a| a.variables().cloned())
            .collect()
    }

    /// The set of constants occurring in the query (`const(Q)`).
    pub fn constants(&self) -> BTreeSet<Value> {
        self.atoms
            .iter()
            .flat_map(|a| a.terms().iter())
            .filter_map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(_) => None,
            })
            .collect()
    }

    /// Renders the query using the relation names of `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> QueryDisplay<'a> {
        QueryDisplay {
            query: self,
            schema,
        }
    }
}

/// Helper for displaying a query with relation names resolved.
pub struct QueryDisplay<'a> {
    query: &'a ConjunctiveQuery,
    schema: &'a Schema,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ans(")?;
        for (i, v) in self.query.answer_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.query.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.schema.relation_name(atom.relation()))?;
            for (j, t) in atom.terms().iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("E", &["S", "T"]).unwrap();
        schema.add_relation("V", &["N", "C"]).unwrap();
        schema
    }

    #[test]
    fn construction_and_accessors() {
        let schema = schema();
        let e = schema.relation_id("E").unwrap();
        let v = schema.relation_id("V").unwrap();
        let q = ConjunctiveQuery::new(
            &schema,
            vec![Variable::new("x")],
            vec![
                Atom::new(e, vec![Term::var("x"), Term::var("y")]),
                Atom::new(v, vec![Term::var("y"), Term::constant(1)]),
            ],
        )
        .unwrap();
        assert_eq!(q.answer_vars().len(), 1);
        assert_eq!(q.atom_count(), 2);
        assert!(!q.is_boolean());
        assert!(!q.is_atomic());
        assert_eq!(q.variables().len(), 2);
        assert_eq!(q.constants().len(), 1);
        assert_eq!(q.display(&schema).to_string(), "Ans(x) :- E(x, y), V(y, 1)");
    }

    #[test]
    fn unsafe_answer_variable_rejected() {
        let schema = schema();
        let e = schema.relation_id("E").unwrap();
        let err = ConjunctiveQuery::new(
            &schema,
            vec![Variable::new("z")],
            vec![Atom::new(e, vec![Term::var("x"), Term::var("y")])],
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::UnsafeAnswerVariable { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = schema();
        let e = schema.relation_id("E").unwrap();
        let err = ConjunctiveQuery::boolean(&schema, vec![Atom::new(e, vec![Term::var("x")])])
            .unwrap_err();
        assert!(matches!(err, QueryError::Db(_)));
    }

    #[test]
    fn boolean_atomic_query() {
        let schema = schema();
        let v = schema.relation_id("V").unwrap();
        let q = ConjunctiveQuery::boolean(
            &schema,
            vec![Atom::new(v, vec![Term::constant("n"), Term::constant(0)])],
        )
        .unwrap();
        assert!(q.is_boolean());
        assert!(q.is_atomic());
        assert!(q.variables().is_empty());
    }
}
