//! Hash partitioning of a growing workload across shard pipelines.
//!
//! The materialized views of both evaluation queries are equi-joins, so a join pair
//! can only form between records that agree on the join key. Partitioning every
//! relation by a hash of its join-key column therefore splits the workload into `S`
//! *independent* sub-workloads: every view entry of the global run is a view entry of
//! exactly one shard, and the global counting answer is the sum of the per-shard
//! answers. [`ShardRouter`] performs that split on the owner side — each upload is
//! routed to the shard pipeline owning its key — which is what makes the per-shard
//! Transform joins and view scans shrink roughly by a factor of `S`.

use incshrink_storage::{GrowingDatabase, LogicalUpdate, Schema};
use incshrink_workload::Dataset;

/// The shard a join key belongs to, for a cluster of `shards` pipelines.
///
/// Delegates to [`incshrink_oblivious::shuffle::destination_of`] — a SplitMix64
/// mix of the key (raw join keys are often sequential, so routing on `key % S`
/// would put systematically correlated load on shards). Sharing one
/// implementation with the shuffle operator is load-bearing: the shuffle's
/// in-MPC routing tag and the router's plaintext ownership partition *must*
/// agree, or re-routed records land on shards that do not own their join key.
///
/// # Panics
/// Panics when `shards` is zero.
#[must_use]
pub fn shard_of(key: u32, shards: usize) -> usize {
    assert!(shards > 0, "cluster needs at least one shard");
    incshrink_oblivious::shuffle::destination_of(key, shards)
}

/// Routes owner uploads to shard pipelines by hashing the join-key column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router for a cluster of `shards` pipelines.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        Self { shards }
    }

    /// Number of shards this router spreads keys over.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    #[must_use]
    pub fn shard_of(&self, key: u32) -> usize {
        shard_of(key, self.shards)
    }

    /// Per-shard padded upload batch size. The rate-proportional part of the global
    /// batch is split evenly across shards, but the additive cushion the workload
    /// generators build in (they size batches as `rate·factor + 2`) must *not* be
    /// divided: it is what absorbs arrival bursts so the padded size keeps dominating
    /// the per-shard Poisson arrivals, and a batch that overflows its padded size
    /// would leak the true upload count. A zero batch (public relations are never
    /// uploaded) stays zero, and a single shard keeps the global size unchanged.
    #[must_use]
    pub fn shard_batch_size(&self, global: usize) -> usize {
        if global == 0 || self.shards == 1 {
            global
        } else {
            global.div_ceil(self.shards) + 2
        }
    }

    /// Partition one relation's records by the value in `column`.
    ///
    /// # Panics
    /// Panics when a record does not carry the routing column — routing such a
    /// record to an arbitrary shard (the old `unwrap_or(0)` behaviour) silently
    /// corrupts that shard's ground truth on schema drift, which is strictly worse
    /// than failing fast.
    fn partition_relation_by(&self, db: GrowingDatabase, column: usize) -> Vec<GrowingDatabase> {
        let shard_of = |update: &LogicalUpdate| {
            let key = update.fields.get(column).copied().unwrap_or_else(|| {
                panic!(
                    "record {} of relation '{}' is missing routing column {} \
                     (arity {}): refusing to misroute it",
                    update.id,
                    db.schema.name,
                    column,
                    update.fields.len()
                )
            });
            self.shard_of(key)
        };
        if self.shards == 1 {
            db.updates().iter().for_each(|update| {
                shard_of(update);
            });
            return vec![db];
        }
        let routes: Vec<usize> = db.updates().iter().map(shard_of).collect();
        let mut parts: Vec<GrowingDatabase> = (0..self.shards)
            .map(|_| GrowingDatabase::new(db.schema.clone(), db.relation))
            .collect();
        for (update, shard) in db.into_updates().into_iter().zip(routes) {
            parts[shard].insert(update);
        }
        parts
    }

    /// Split an owned workload into `S` parts, each relation by the column
    /// `column` picks from its schema. Records move into their part, in arrival
    /// order, instead of being copied; a single shard gets the workload back.
    fn split(&self, dataset: Dataset, column: fn(&Schema) -> usize) -> Vec<Dataset> {
        let Dataset {
            kind,
            left,
            right,
            right_is_public,
            upload_interval,
            left_batch_size,
            right_batch_size,
            join_window,
            params,
        } = dataset;
        let left_column = column(&left.schema);
        let right_column = column(&right.schema);
        let lefts = self.partition_relation_by(left, left_column);
        let rights = self.partition_relation_by(right, right_column);
        lefts
            .into_iter()
            .zip(rights)
            .map(|(left, right)| Dataset {
                kind,
                left,
                right,
                right_is_public,
                upload_interval,
                left_batch_size: self.shard_batch_size(left_batch_size),
                right_batch_size: self.shard_batch_size(right_batch_size),
                join_window,
                params,
            })
            .collect()
    }

    /// Split a workload into `S` *arrival* shard workloads: each relation is
    /// partitioned by its schema's arrival-partition column. For co-partitioned
    /// workloads (the default — partition column *is* the join key, including a
    /// public right relation: a shard only ever joins against keys it owns) this is
    /// the lossless equi-join split, arrival order is preserved within each shard,
    /// and upload batch sizes are scaled by `1/S`. For non-co-partitioned workloads
    /// the parts describe where records *arrive*, not which shard owns their join
    /// key — maintaining a view then requires the shuffle phase
    /// ([`crate::shuffle`]).
    ///
    /// With a single shard this returns the input workload unchanged, which is what
    /// lets a 1-shard cluster reproduce the single-pair simulation exactly.
    #[must_use]
    pub fn partition(&self, dataset: &Dataset) -> Vec<Dataset> {
        self.partition_owned(dataset.clone())
    }

    /// [`Self::partition`] of an owned workload: the records move into their
    /// shard instead of being copied.
    #[must_use]
    pub(crate) fn partition_owned(&self, dataset: Dataset) -> Vec<Dataset> {
        self.split(dataset, |schema| schema.partition_column)
    }

    /// Split a workload into `S` *ownership* shard workloads: both relations
    /// partitioned by their join-key column regardless of how records arrive. This
    /// is the partition the shuffle phase routes records into, and the one per-shard
    /// ground truths are evaluated against (shard truths sum to the global truth for
    /// equi-join views).
    #[must_use]
    pub fn partition_by_join_key(&self, dataset: &Dataset) -> Vec<Dataset> {
        self.partition_by_join_key_owned(dataset.clone())
    }

    /// [`Self::partition_by_join_key`] of an owned workload: the records move
    /// into their shard instead of being copied.
    #[must_use]
    pub(crate) fn partition_by_join_key_owned(&self, dataset: Dataset) -> Vec<Dataset> {
        self.split(dataset, |schema| schema.key_column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_workload::{
        logical_join_count, DatasetKind, JoinQuery, TpcDsGenerator, WorkloadParams,
    };
    use proptest::prelude::*;

    fn dataset() -> Dataset {
        TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate()
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn single_shard_partition_is_identity() {
        let ds = dataset();
        let parts = ShardRouter::new(1).partition(&ds);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].left, ds.left);
        assert_eq!(parts[0].right, ds.right);
        assert_eq!(parts[0].left_batch_size, ds.left_batch_size);
        assert_eq!(parts[0].right_batch_size, ds.right_batch_size);
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let ds = dataset();
        for shards in [2usize, 4, 8] {
            let parts = ShardRouter::new(shards).partition(&ds);
            assert_eq!(parts.len(), shards);
            let left_total: usize = parts.iter().map(|p| p.left.len()).sum();
            let right_total: usize = parts.iter().map(|p| p.right.len()).sum();
            assert_eq!(left_total, ds.left.len());
            assert_eq!(right_total, ds.right.len());
            // Every record landed on the shard its key hashes to.
            for (s, part) in parts.iter().enumerate() {
                for u in part.left.updates() {
                    assert_eq!(shard_of(u.fields[part.left.schema.key_column], shards), s);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "missing routing column")]
    fn missing_key_column_fails_fast_instead_of_misrouting() {
        // Simulate schema drift: the schema claims a key column the records do not
        // carry. The old behaviour routed every such record to shard_of(0), silently
        // corrupting shard truths; now the router refuses.
        let mut ds = dataset();
        ds.left.schema.key_column = 7;
        ds.left.schema.partition_column = 7;
        let _ = ShardRouter::new(4).partition(&ds);
    }

    #[test]
    fn ownership_partition_equals_arrival_partition_when_co_partitioned() {
        let ds = dataset();
        let router = ShardRouter::new(4);
        let arrival = router.partition(&ds);
        let ownership = router.partition_by_join_key(&ds);
        for (a, o) in arrival.iter().zip(&ownership) {
            assert_eq!(a.left, o.left);
            assert_eq!(a.right, o.right);
        }
    }

    #[test]
    fn shard_truths_sum_to_global_truth() {
        let ds = dataset();
        let query = JoinQuery { window: 10 };
        for shards in [2usize, 3, 5] {
            let parts = ShardRouter::new(shards).partition(&ds);
            for t in [1u64, 17, 60] {
                let global = logical_join_count(&ds, &query, t);
                let sharded: u64 = parts.iter().map(|p| logical_join_count(p, &query, t)).sum();
                assert_eq!(sharded, global, "t={t} shards={shards}");
            }
        }
    }

    #[test]
    fn batch_sizes_scale_with_shard_count_but_keep_the_burst_cushion() {
        let router = ShardRouter::new(4);
        assert_eq!(router.shard_batch_size(0), 0, "public side stays zero");
        assert_eq!(router.shard_batch_size(8), 4, "8/4 split + 2 cushion");
        assert_eq!(router.shard_batch_size(9), 5, "rounds up");
        assert_eq!(ShardRouter::new(1).shard_batch_size(7), 7, "S=1 identity");
        // TPC-ds left batch is 7 at rate 2.7: even at S=8 the per-shard padded size
        // must comfortably dominate the ~Poisson(0.34) per-shard arrivals.
        assert!(ShardRouter::new(8).shard_batch_size(7) >= 3);
    }

    #[test]
    fn sharding_does_not_increase_padded_batch_overflows() {
        // Fixed-size uploads are what hide the true arrival counts; `UploadBatch`
        // tolerates bursts past the padded size (the generators size batches to
        // dominate the *average* rate), but sharding must not make those leaks more
        // frequent than the single-pair run. Keeping the generators' additive burst
        // cushion per shard (instead of dividing it by S) is what achieves this.
        let ds = dataset();
        let overflow_steps = |db: &GrowingDatabase, batch: usize| -> usize {
            (1..=ds.params.steps)
                .filter(|&t| db.arrivals_at(t).len() > batch)
                .count()
        };
        let global = overflow_steps(&ds.left, ds.left_batch_size)
            + overflow_steps(&ds.right, ds.right_batch_size);
        for shards in [2usize, 4, 8] {
            let parts = ShardRouter::new(shards).partition(&ds);
            let sharded: usize = parts
                .iter()
                .map(|p| {
                    overflow_steps(&p.left, p.left_batch_size)
                        + overflow_steps(&p.right, p.right_batch_size)
                })
                .sum();
            assert!(
                sharded <= global,
                "S={shards}: {sharded} overflowing shard-steps vs {global} in the single-pair run"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_shard_of_is_stable_and_in_range(key: u32, shards in 1usize..16) {
            let s = shard_of(key, shards);
            prop_assert!(s < shards);
            prop_assert_eq!(s, shard_of(key, shards), "routing is deterministic");
        }

        #[test]
        fn prop_hashing_spreads_sequential_keys(shards in 2usize..9, base: u32) {
            // Sequential key ranges (the common generator pattern) must not all land
            // on one shard.
            let hit: std::collections::HashSet<usize> = (0..64u32)
                .map(|i| shard_of(base.wrapping_add(i), shards))
                .collect();
            prop_assert!(hit.len() > 1, "64 sequential keys on one shard");
        }
    }
}
