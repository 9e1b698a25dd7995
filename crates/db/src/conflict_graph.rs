//! Conflict graphs `CG(D, Σ)`.

use crate::{Database, FactId, FactSet, FdSet, ViolationSet};

/// The conflict graph `CG(D, Σ)`: nodes are the facts of `D`, and there is
/// an edge between `f` and `g` iff `{f, g} ⊭ Σ`.
///
/// The conflict graph drives the independent-set correspondences of
/// Lemmas 5.4 and E.4 and the reductions of Appendix B.3/E.1.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    adjacency: Vec<Vec<FactId>>,
    edge_count: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph of `D` w.r.t. `Σ`.
    pub fn build(db: &Database, sigma: &FdSet) -> Self {
        let violations = ViolationSet::of_database(db, sigma);
        Self::from_violations(db.len(), &violations)
    }

    /// Builds a conflict graph over `universe` facts from a precomputed
    /// violation set.
    fn from_violations(universe: usize, violations: &ViolationSet) -> Self {
        // Push violation endpoints directly (no intermediate deduplicated
        // pair vector); the per-node sort/dedup below removes duplicate
        // edges from pairs violating several FDs.
        let mut adjacency = vec![Vec::new(); universe];
        for v in violations.iter() {
            let (a, b) = v.pair();
            adjacency[a.index()].push(b);
            adjacency[b.index()].push(a);
        }
        for neighbours in &mut adjacency {
            neighbours.sort();
            neighbours.dedup();
        }
        let edge_count = adjacency.iter().map(Vec::len).sum::<usize>() / 2;
        ConflictGraph {
            adjacency,
            edge_count,
        }
    }

    /// Number of nodes (= facts of `D`).
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges (= conflicting pairs).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The neighbours of a fact.
    pub fn neighbours(&self, fact: FactId) -> &[FactId] {
        &self.adjacency[fact.index()]
    }

    /// The degree of a fact.
    pub fn degree(&self, fact: FactId) -> usize {
        self.adjacency[fact.index()].len()
    }

    /// The maximum degree Δ of the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.adjacency[i].len())
            .max()
            .unwrap_or(0)
    }

    /// All edges as canonical `(smaller, larger)` pairs.
    pub fn edges(&self) -> Vec<(FactId, FactId)> {
        let mut edges = Vec::with_capacity(self.edge_count);
        for (i, neighbours) in self.adjacency.iter().enumerate() {
            let a = FactId::new(i);
            for &b in neighbours {
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    /// Returns `true` iff the graph is connected (vacuously true for the
    /// empty graph and single nodes).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut seen = 1usize;
        while let Some(node) = stack.pop() {
            for &next in &self.adjacency[node] {
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    seen += 1;
                    stack.push(next.index());
                }
            }
        }
        seen == n
    }

    /// Returns `true` iff the graph is *non-trivially connected*: it has at
    /// least two nodes and is connected (Appendix B.3).
    pub fn is_non_trivially_connected(&self) -> bool {
        self.node_count() >= 2 && self.is_connected()
    }

    /// The connected components, each as a sorted list of fact ids.
    pub fn connected_components(&self) -> Vec<Vec<FactId>> {
        let n = self.node_count();
        let mut visited = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut component = Vec::new();
            let mut stack = vec![start];
            visited[start] = true;
            while let Some(node) = stack.pop() {
                component.push(FactId::new(node));
                for &next in &self.adjacency[node] {
                    if !visited[next.index()] {
                        visited[next.index()] = true;
                        stack.push(next.index());
                    }
                }
            }
            component.sort();
            components.push(component);
        }
        components
    }

    /// Returns `true` iff `subset` is an independent set of the graph.
    pub fn is_independent_set(&self, subset: &FactSet) -> bool {
        subset.iter().all(|fact| {
            self.adjacency[fact.index()]
                .iter()
                .all(|neighbour| !subset.contains(*neighbour))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, FunctionalDependency, Schema, Value};

    fn running_example() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
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
        (db, sigma)
    }

    #[test]
    fn running_example_graph_is_a_path() {
        let (db, sigma) = running_example();
        let cg = ConflictGraph::build(&db, &sigma);
        assert_eq!(cg.node_count(), 3);
        assert_eq!(cg.edge_count(), 2);
        assert_eq!(cg.degree(FactId::new(1)), 2); // f2 conflicts with both
        assert_eq!(cg.max_degree(), 2);
        assert!(cg.is_connected());
        assert!(cg.is_non_trivially_connected());
        assert_eq!(cg.connected_components().len(), 1);
    }

    #[test]
    fn independent_set_check() {
        let (db, sigma) = running_example();
        let cg = ConflictGraph::build(&db, &sigma);
        let independent = FactSet::from_iter(db.len(), [FactId::new(0), FactId::new(2)]); // {f1, f3}
        assert!(cg.is_independent_set(&independent));
        let dependent = FactSet::from_iter(db.len(), [FactId::new(0), FactId::new(1)]);
        assert!(!cg.is_independent_set(&dependent));
        assert!(cg.is_independent_set(&FactSet::empty(db.len())));
    }

    #[test]
    fn disconnected_graph_components() {
        // Two independent conflicting pairs (different key values).
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.insert_values("R", [Value::int(2), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(2), Value::int(2)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        let cg = ConflictGraph::build(&db, &sigma);
        assert_eq!(cg.edge_count(), 2);
        assert!(!cg.is_connected());
        assert!(!cg.is_non_trivially_connected());
        assert_eq!(cg.connected_components().len(), 2);
    }

    #[test]
    fn empty_and_singleton_graphs_are_trivially_connected() {
        let cg = ConflictGraph::from_violations(0, &ViolationSet::default());
        assert!(cg.is_connected());
        assert!(!cg.is_non_trivially_connected());
        let cg = ConflictGraph::from_violations(1, &ViolationSet::default());
        assert!(cg.is_connected());
        assert!(!cg.is_non_trivially_connected());
    }
}
