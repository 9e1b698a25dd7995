//! Set-up steps both kinds of workload share: timed ingestion of the
//! generated facts, and the traced run's conflict-component counts.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use ucqa_db::{ConflictIndex, Database, Fact, FdSet, Schema};
use ucqa_query::LineageBank;

use crate::stats::ms;
use crate::trace::{Tracer, SETUP};

/// Set-up timings, one entry per set-up.
#[derive(Default)]
pub struct SetupTimes {
    /// Whole set-ups, in seconds.
    pub total: Vec<f64>,
    /// `Database::extend`, in milliseconds.
    pub ingest: Vec<f64>,
    /// The first `Database::relation_index()`, in milliseconds.
    pub relation_index: Vec<f64>,
}

impl SetupTimes {
    /// Ingests `facts` into a fresh database and builds its relation
    /// index, recording both times; returns the database and the time
    /// since the ingest began.
    pub fn ingest(&mut self, schema: &Schema, facts: Vec<Fact>) -> (Database, Instant) {
        let start = Instant::now();
        let mut db = Database::with_schema(schema.clone());
        db.extend(facts)
            .expect("generated facts match their schema");
        let ingested = start.elapsed();
        db.relation_index();
        let indexed = start.elapsed();
        self.ingest.push(ms(ingested));
        self.relation_index.push(ms(indexed - ingested));
        (db, start)
    }

    /// Records the end of a set-up that began at `start`.
    pub fn finish(&mut self, start: Instant) {
        self.total.push(start.elapsed().as_secs_f64());
    }

    /// The `db.ingest_ms` and `db.relation_index_ms` medians.
    pub fn insert_layers(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("db.ingest_ms", crate::stats::median(&self.ingest));
        layer.insert(
            "db.relation_index_ms",
            crate::stats::median(&self.relation_index),
        );
    }
}

/// Maps each fact id of `db` to its conflict component.
pub struct Components {
    component_of: Vec<Option<usize>>,
}

impl Components {
    /// Builds the conflict index of `db` once more under a `db` span and
    /// inserts `db.conflict_index_ms`, `db.conflict_pairs` and
    /// `db.components`; returns the index and the component map.
    pub fn traced(
        db: &Database,
        sigma: &FdSet,
        tracer: &mut Tracer,
        layer: &mut BTreeMap<&'static str, f64>,
    ) -> (ConflictIndex, Self) {
        let start = Instant::now();
        let index = ConflictIndex::build(db, sigma);
        let built: Duration = start.elapsed();
        tracer.record(SETUP, "db", "conflict_index", None, built, 1);
        let components = index.components();
        let mut component_of = vec![None; db.len()];
        for (c, component) in components.iter().enumerate() {
            for fact in component {
                component_of[fact.index()] = Some(c);
            }
        }
        layer.insert("db.conflict_index_ms", ms(built));
        layer.insert("db.conflict_pairs", index.pairs().len() as f64);
        layer.insert("db.components", components.len() as f64);
        (index, Components { component_of })
    }

    /// Conflict components meeting a witness fact of a compiled entry.
    pub fn relevant(&self, bank: &LineageBank) -> usize {
        let mut touched = BTreeSet::new();
        for entry in 0..bank.len() {
            for witness in bank.witnesses_of(entry).unwrap_or_default() {
                touched.extend(
                    witness
                        .iter()
                        .filter_map(|fact| self.component_of[fact.index()]),
                );
            }
        }
        touched.len()
    }
}
