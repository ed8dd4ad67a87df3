//! The owner-side growing logical database `D = {u_i}`.
//!
//! A growing database is an insert-only collection of timestamped logical updates
//! (Definition in Section 4.1). The workload generators fill one of these per relation;
//! the framework replays it step by step, and the query module evaluates logical
//! ground-truth answers `q_t(D_t)` against it.

use crate::schema::{RecordId, Relation, Schema};
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// One timestamped logical update (an inserted record).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogicalUpdate {
    /// Unique record id (used for contribution accounting).
    pub id: RecordId,
    /// Which relation the record belongs to.
    pub relation: Relation,
    /// Arrival time step (the paper multiplexes the domain timestamp as arrival time).
    pub arrival: u64,
    /// The record's column values (matching the relation's schema).
    pub fields: Vec<u32>,
}

/// A growing database for one relation.
///
/// Equality and serialization cover the schema, the relation and the updates; the
/// arrival index is derived from the updates and built on first use.
#[derive(Debug, Clone)]
pub struct GrowingDatabase {
    /// The relation's schema.
    pub schema: Schema,
    /// Which side of the view definition this relation plays.
    pub relation: Relation,
    updates: Vec<LogicalUpdate>,
    /// Positions into `updates`, stably sorted by arrival: the updates of one step
    /// are a contiguous run, in insertion order. Built by the first
    /// [`Self::arrivals_at`] after an insert.
    by_arrival: OnceLock<Vec<u32>>,
}

impl PartialEq for GrowingDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.relation == other.relation
            && self.updates == other.updates
    }
}

impl Serialize for GrowingDatabase {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), self.schema.serialize()),
            ("relation".to_string(), self.relation.serialize()),
            ("updates".to_string(), self.updates.serialize()),
        ])
    }
}

impl Deserialize for GrowingDatabase {}

impl GrowingDatabase {
    /// Empty growing database.
    #[must_use]
    pub fn new(schema: Schema, relation: Relation) -> Self {
        Self {
            schema,
            relation,
            updates: Vec::new(),
            by_arrival: OnceLock::new(),
        }
    }

    /// Insert a logical update.
    ///
    /// # Panics
    /// Panics when the record arity does not match the schema or the relation tag
    /// disagrees with the database's relation.
    pub fn insert(&mut self, update: LogicalUpdate) {
        assert_eq!(update.fields.len(), self.schema.arity(), "arity mismatch");
        assert_eq!(update.relation, self.relation, "relation mismatch");
        self.updates.push(update);
        self.by_arrival.take();
    }

    /// All updates, in insertion order.
    #[must_use]
    pub fn updates(&self) -> &[LogicalUpdate] {
        &self.updates
    }

    /// Give up the updates, in insertion order.
    #[must_use]
    pub fn into_updates(self) -> Vec<LogicalUpdate> {
        self.updates
    }

    /// Total number of logical updates ever inserted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when no update has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The database instance `D_t`: every update with arrival time ≤ `t`.
    #[must_use]
    pub fn instance_at(&self, t: u64) -> Vec<&LogicalUpdate> {
        self.updates.iter().filter(|u| u.arrival <= t).collect()
    }

    /// Updates arriving exactly at step `t` (the delta the owner uploads at `t`), in
    /// insertion order. Two binary searches over the arrival index: `O(log N)` plus
    /// the arrivals, instead of a scan of every update per step.
    #[must_use]
    pub fn arrivals_at(&self, t: u64) -> Vec<&LogicalUpdate> {
        let by_arrival = self.by_arrival.get_or_init(|| {
            let len = u32::try_from(self.updates.len()).expect("at most u32::MAX updates");
            let mut positions: Vec<u32> = (0..len).collect();
            // Stable, and linear when the updates were inserted in arrival order.
            positions.sort_by_key(|&p| self.updates[p as usize].arrival);
            positions
        });
        let arrival = |p: &u32| self.updates[*p as usize].arrival;
        let from = by_arrival.partition_point(|p| arrival(p) < t);
        let to = from + by_arrival[from..].partition_point(|p| arrival(p) == t);
        by_arrival[from..to]
            .iter()
            .map(|&p| &self.updates[p as usize])
            .collect()
    }

    /// Updates arriving in the half-open interval `(from, to]`.
    #[must_use]
    pub fn arrivals_between(&self, from: u64, to: u64) -> Vec<&LogicalUpdate> {
        self.updates
            .iter()
            .filter(|u| u.arrival > from && u.arrival <= to)
            .collect()
    }

    /// The largest arrival time present (0 for an empty database).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.updates.iter().map(|u| u.arrival).max().unwrap_or(0)
    }

    /// Average number of arrivals per step over the horizon, used to derive the
    /// `sDPANT` threshold ⇄ `sDPTimer` interval correspondence of the evaluation.
    #[must_use]
    pub fn mean_arrival_rate(&self) -> f64 {
        let horizon = self.horizon();
        if horizon == 0 {
            return 0.0;
        }
        self.updates.len() as f64 / horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn update(id: u64, arrival: u64) -> LogicalUpdate {
        LogicalUpdate {
            id,
            relation: Relation::Left,
            arrival,
            fields: vec![id as u32, arrival as u32],
        }
    }

    proptest! {
        #[test]
        fn prop_indexed_arrivals_equal_the_filter_scan(
            arrivals in proptest::collection::vec(0u64..12, 0..60),
            late in proptest::collection::vec(0u64..14, 0..10),
        ) {
            let schema = Schema::new("x", &["id", "t"], 0, 1);
            let mut db = GrowingDatabase::new(schema, Relation::Left);
            for (i, &arrival) in arrivals.iter().enumerate() {
                db.insert(update(i as u64, arrival));
            }
            let check = |db: &GrowingDatabase| {
                for t in 0..16 {
                    let scan: Vec<&LogicalUpdate> =
                        db.updates().iter().filter(|u| u.arrival == t).collect();
                    prop_assert_eq!(db.arrivals_at(t), scan);
                }
            };
            check(&db);
            // Inserts after a lookup rebuild the index, and clones carry it.
            for (i, &arrival) in late.iter().enumerate() {
                db.insert(update(1000 + i as u64, arrival));
            }
            check(&db);
            check(&db.clone());
        }
    }

    #[test]
    fn equality_and_serialization_ignore_the_index() {
        let mut a = sample_db();
        let b = sample_db();
        let _ = a.arrivals_at(4);
        assert_eq!(a, b);
        assert_eq!(a.serialize(), b.serialize());
        let Value::Object(fields) = a.serialize() else {
            panic!("a database serializes to an object");
        };
        let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["schema", "relation", "updates"]);
        a.insert(update(99, 9));
        assert_ne!(a, b);
    }

    fn sample_db() -> GrowingDatabase {
        let schema = Schema::new("sales", &["pid", "date"], 0, 1);
        let mut db = GrowingDatabase::new(schema, Relation::Left);
        for (i, arrival) in [1u64, 1, 2, 4, 4, 4].iter().enumerate() {
            db.insert(LogicalUpdate {
                id: i as u64,
                relation: Relation::Left,
                arrival: *arrival,
                fields: vec![i as u32, *arrival as u32],
            });
        }
        db
    }

    #[test]
    fn instances_and_arrivals() {
        let db = sample_db();
        assert_eq!(db.len(), 6);
        assert!(!db.is_empty());
        assert_eq!(db.instance_at(0).len(), 0);
        assert_eq!(db.instance_at(1).len(), 2);
        assert_eq!(db.instance_at(3).len(), 3);
        assert_eq!(db.instance_at(10).len(), 6);
        assert_eq!(db.arrivals_at(4).len(), 3);
        assert_eq!(db.arrivals_at(3).len(), 0);
        assert_eq!(db.arrivals_between(1, 4).len(), 4);
        assert_eq!(db.horizon(), 4);
        assert!((db.mean_arrival_rate() - 1.5).abs() < 1e-12);
        assert_eq!(db.updates().len(), 6);
    }

    #[test]
    fn empty_database_properties() {
        let schema = Schema::new("x", &["a", "t"], 0, 1);
        let db = GrowingDatabase::new(schema, Relation::Right);
        assert!(db.is_empty());
        assert_eq!(db.horizon(), 0);
        assert_eq!(db.mean_arrival_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_rejected() {
        let mut db = sample_db();
        db.insert(LogicalUpdate {
            id: 99,
            relation: Relation::Left,
            arrival: 5,
            fields: vec![1],
        });
    }

    #[test]
    #[should_panic(expected = "relation mismatch")]
    fn relation_mismatch_rejected() {
        let mut db = sample_db();
        db.insert(LogicalUpdate {
            id: 99,
            relation: Relation::Right,
            arrival: 5,
            fields: vec![1, 2],
        });
    }
}
