//! The cluster step loop, written once for the sequential and the threaded
//! driver.
//!
//! Every cluster run replays the paper's per-step protocol (Algorithm 1,
//! Figure 2) over `S` shard pipelines: owners upload — straight to the shard
//! owning the arrival partition, or through the [`crate::shuffle`] phase —
//! Transform appends to each shard's secure cache, Shrink synchronizes its
//! view, the analyst's count is scatter-gathered across the views, and the
//! elastic control plane's planned migrations run last. [`ClusterSimulation`]
//! writes that sequence once, in `StepLoop::drive`, over a crate-private
//! *shard set* that carries only what differs between the two drivers:
//!
//! ```text
//!                       ClusterSimulation::run ── StepLoop::drive (this module)
//!                           │  per step: set.step(t) → snapshots + bucket moves
//!                           │            set.query(count, t) → partials → merge
//!                           │            StepRecorder (StepRecord + Summary)
//!                           │            set.export / set.import per move
//!              ┌────────────┴─────────────┐
//!     in-thread shard set          threaded shard set
//!     (crate::sharded)             (crate::runtime)
//!     Vec<ShardPipeline> +         S shard actor threads +
//!     shuffle state, stepped       1 broker thread owning the
//!     on the caller's thread       shuffle state
//! ```
//!
//! The loop owns everything the drivers share: the per-step maxima and sums
//! (through `incshrink::metrics::StepRecorder`, the same bookkeeping the
//! single-pair `incshrink::Simulation` records with), the merge of the query
//! partials, the migration schedule, the [`ClusterRunReport`] and the host
//! timers. Because both drivers run this one body, `sequential == threaded`
//! checks only the two shard-set implementations.

use crate::elastic::{group_moves, BucketMove, ElasticConfig, ElasticRouting, ViewMigrator};
use crate::executor::ScatterGatherExecutor;
use crate::router::ShardRouter;
use crate::runtime::RuntimeStats;
use crate::sharded::{
    assert_elastic_viable, assert_routable, build_pipelines, shard_config, ClusterPrivacy,
    ClusterRunReport, ShardReport,
};
use crate::shuffle::{ClusterShuffler, RoutingPolicy, ShuffleFinal, ShuffleState};
use incshrink::metrics::StepRecorder;
use incshrink::query::{Query, QueryOutcome};
use incshrink::{IncShrinkConfig, MigratedPartition, ShardPipeline, StepSnapshot};
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::PartyMode;
use incshrink_workload::{Dataset, DatasetKind};
use std::time::Instant;

/// How a driver executes its shard pipelines: the operations of one step loop
/// that differ between in-thread and threaded execution. Every method answers
/// in shard order.
pub(crate) trait ShardSet {
    /// Step every shard through `t`: each shard's snapshot, plus the bucket
    /// moves the elastic control plane planned when closing the step.
    fn step(&mut self, t: u64) -> (Vec<StepSnapshot>, Vec<BucketMove>);
    /// Every shard's partial answer to `query` at step `t`.
    fn query(&mut self, query: &Query, t: u64) -> Vec<QueryOutcome>;
    /// Extract the listed virtual buckets' state from `shard`
    /// ([`export_buckets`]).
    fn export(&mut self, shard: usize, buckets: Vec<usize>) -> (MigratedPartition, usize);
    /// Adopt a (DP-padded) partition on `shard`, re-sharing it with
    /// randomness seeded by `seed`.
    fn import(&mut self, shard: usize, partition: MigratedPartition, seed: u64);
    /// End the run: per-shard statistics, the shuffle phase's figures, and the
    /// worker threads joined.
    fn finish(self) -> Finished;
}

/// What a shard set reports when the run ends.
pub(crate) struct Finished {
    /// Every shard's end-of-run report and host Transform seconds.
    pub(crate) shards: Vec<(ShardReport, f64)>,
    pub(crate) shuffle: ShuffleFinal,
    /// Worker threads joined at teardown (none for in-thread shards).
    pub(crate) threads_joined: usize,
}

/// Shard `shard`'s end-of-run report and host Transform seconds.
pub(crate) fn shard_final(shard: usize, pipeline: &ShardPipeline) -> (ShardReport, f64) {
    let report = ShardReport {
        shard,
        sync_count: pipeline.view().sync_count(),
        view_len: pipeline.view().len(),
        view_real: pipeline.view().true_cardinality(),
        cache_len: pipeline.cache_len(),
        truncation_losses: pipeline.truncation_losses(),
        mpc_secs: pipeline.elapsed().as_secs_f64(),
        view_fingerprint: pipeline.view().fingerprint(),
    };
    (report, pipeline.host_transform_secs())
}

/// Elastic migration's export half: extract `buckets` from `pipeline`, with
/// the (public, padded) view length the extraction scanned, for the
/// migrator's cost accounting.
pub(crate) fn export_buckets(
    pipeline: &mut ShardPipeline,
    buckets: &[usize],
) -> (MigratedPartition, usize) {
    let view_len = pipeline.view().len();
    (pipeline.export_partition(buckets), view_len)
}

/// A cluster simulation: `S` hash-partitioned shard pipelines stepped in
/// lockstep with a scatter-gather query executor on top, optionally behind a
/// shuffle phase re-routing non-co-partitioned arrivals to their join-key
/// owners. The mode `M` selects how the shards execute —
/// [`crate::ShardedSimulation`] steps them on the caller's thread,
/// [`crate::ParallelShardedSimulation`] on one OS thread each — and the two
/// replay the same trajectory bit for bit.
pub struct ClusterSimulation<M> {
    dataset: Dataset,
    config: IncShrinkConfig,
    shards: usize,
    seed: u64,
    cost_model: CostModel,
    routing: RoutingPolicy,
    party_mode: PartyMode,
    elastic: Option<ElasticConfig>,
    pub(crate) mode: M,
}

impl<M: Default> ClusterSimulation<M> {
    /// Create a cluster simulation over a workload.
    ///
    /// # Panics
    /// Panics when `shards` is zero or the configuration fails
    /// `IncShrinkConfig::validate` (before or after the ε/S split).
    #[must_use]
    pub fn new(dataset: Dataset, config: IncShrinkConfig, shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        for cfg in [&config, &shard_config(&config, shards)] {
            if let Some(problem) = cfg.validate() {
                panic!("invalid IncShrink cluster configuration: {problem}");
            }
        }
        Self {
            dataset,
            config,
            shards,
            seed,
            cost_model: CostModel::default(),
            routing: RoutingPolicy::CoPartitioned,
            party_mode: PartyMode::from_env(),
            elastic: None,
            mode: M::default(),
        }
    }
}

impl<M> ClusterSimulation<M> {
    /// Use a non-default cost model (e.g. WAN) for the simulated timings.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Select how each shard's two MPC servers execute
    /// ([`incshrink_mpc::PartyMode`]): in-process struct calls (the default),
    /// actor threads over in-memory channels, or actor threads over a loopback
    /// TCP socket. The simulated trajectory is mode-invariant by contract.
    #[must_use]
    pub fn with_party_mode(mut self, party_mode: PartyMode) -> Self {
        self.party_mode = party_mode;
        self
    }

    /// Select how uploads are routed to shard pipelines. The default,
    /// [`RoutingPolicy::CoPartitioned`], requires a workload whose arrival
    /// partition *is* the join key and keeps the pre-shuffle run loop bit for bit
    /// (see its rustdoc for the one deliberate cadence difference);
    /// [`RoutingPolicy::Shuffled`] inserts the [`crate::shuffle`] phase and also
    /// handles workloads partitioned by a non-join attribute.
    ///
    /// # Panics
    /// Panics when the policy fails [`RoutingPolicy::validate`] (e.g. a
    /// `Shuffled` cushion of zero).
    #[must_use]
    pub fn with_routing_policy(mut self, routing: RoutingPolicy) -> Self {
        routing.validate();
        self.routing = routing;
        self
    }

    /// Attach the elastic sharding control plane ([`crate::elastic`]):
    /// skew-aware split/merge rebalancing of the bucket-ownership table with
    /// ε-accounted oblivious view migration, plus DP-sized ingest cuts. Only
    /// meaningful together with [`RoutingPolicy::Shuffled`] — `run` panics
    /// otherwise. Identical seed and config produce the identical trajectory,
    /// ledger and migration schedule in every mode and party mode.
    ///
    /// # Panics
    /// Panics when the configuration fails [`ElasticConfig::validate`].
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        elastic.validate();
        self.elastic = Some(elastic);
        self
    }

    /// Validate the run and build what either shard set starts from: the shard
    /// pipelines, the shuffle state (shuffled routing only; its owner streams
    /// are staged in chunks drawn from `chunk_seed` when set), the step loop,
    /// and the mode.
    ///
    /// # Panics
    /// Panics when the workload is *not* co-partitioned (its arrival-partition
    /// column differs from the join key) but the routing policy is
    /// [`RoutingPolicy::CoPartitioned`] — maintaining such a view shard-locally
    /// would silently lose every cross-shard join pair — or when the elastic
    /// control plane cannot run with this routing and batching.
    pub(crate) fn prepare(
        self,
        chunk_seed: Option<u64>,
    ) -> (StepLoop, Vec<ShardPipeline>, Option<ShuffleState>, M) {
        let Self {
            dataset,
            config,
            shards,
            seed,
            cost_model,
            routing,
            party_mode,
            elastic,
            mode,
        } = self;
        assert_routable(&dataset, shards, routing);
        assert_elastic_viable(&config, routing, elastic.as_ref());
        let per_shard_config = shard_config(&config, shards);
        let router = ShardRouter::new(shards);

        // Co-partitioned pipelines own their arrival shard's workload and
        // build their own uploads (the historical path, bit for bit). Shuffled
        // pipelines own the *join-key* partition (their ground truth), while
        // the shuffle state owns the arrival streams and re-routes them each
        // step.
        let (kind, steps) = (dataset.kind, dataset.params.steps);
        let (parts, shuffle) = match routing {
            RoutingPolicy::CoPartitioned => (router.partition_owned(dataset), None),
            RoutingPolicy::Shuffled { bucket_cushion } => {
                // The elastic control plane lives with the shuffler it drives;
                // its releases derive from the cluster seed.
                let mut shuffler = ClusterShuffler::new(shards, bucket_cushion, cost_model, seed);
                if let Some(cfg) = elastic {
                    shuffler.enable_elastic(ElasticRouting::new(
                        shards,
                        per_shard_config.epsilon,
                        seed,
                        cfg,
                    ));
                }
                let shuffle = ShuffleState::new(&dataset, &router, shuffler, seed, chunk_seed);
                (router.partition_by_join_key_owned(dataset), Some(shuffle))
            }
        };
        let pipelines = build_pipelines(parts, per_shard_config, seed, cost_model, party_mode);
        // The migration executor belongs to the loop: its rng derives from the
        // cluster seed, never from party or thread randomness, so elastic
        // trajectories are identical across drivers and party modes.
        let migrator = elastic.map(|cfg| {
            ViewMigrator::new(
                cfg.migrate_slice * per_shard_config.epsilon,
                seed,
                cost_model,
            )
        });
        let steps = StepLoop {
            kind,
            steps,
            config,
            shards,
            routing,
            cost_model,
            migrator,
        };
        (steps, pipelines, shuffle, mode)
    }
}

/// The run-wide state of the step loop.
pub(crate) struct StepLoop {
    kind: DatasetKind,
    steps: u64,
    config: IncShrinkConfig,
    shards: usize,
    routing: RoutingPolicy,
    cost_model: CostModel,
    migrator: Option<ViewMigrator>,
}

impl StepLoop {
    /// Run every step over `set`, finish it, and assemble the cluster report
    /// plus the measured wall-clock (which starts after the shard set exists
    /// and ends after its teardown).
    pub(crate) fn drive<S: ShardSet>(mut self, mut set: S) -> (ClusterRunReport, RuntimeStats) {
        let merger = ScatterGatherExecutor::new(self.cost_model);
        let count = Query::count();
        let mut recorder = StepRecorder::new(self.steps);
        let mut max_shard_qet_sum = 0.0;
        let mut aggregation_sum = 0.0;
        let mut step_wall_secs = Vec::with_capacity(self.steps as usize);
        let run_started = Instant::now();

        for t in 1..=self.steps {
            let step_started = Instant::now();
            let (snapshots, moves) = set.step(t);

            // Scatter-gather query: every shard has finished step `t`, so the
            // partials cannot race the step; the merge sees them in shard
            // order whichever shard answered first.
            let answer = (t % self.config.query_interval == 0).then(|| {
                let gathered = recorder.query(t, || merger.merge(&count, &set.query(&count, t)));
                let breakdown = gathered.shards.expect("scatter-gather breakdown");
                max_shard_qet_sum += breakdown.max_shard_qet.as_secs_f64();
                aggregation_sum += breakdown.aggregation_qet.as_secs_f64();
                (gathered.value.expect_scalar(), gathered.qet)
            });
            recorder.record_step(t, &snapshots, answer);

            // Execute planned migrations after the step's maintenance and
            // query: export the moving buckets from each source shard,
            // DP-pad/price/re-seed the transfer, import at the destination.
            // Each edge completes before the next starts, so the sorted
            // `group_moves` order fixes the migrator's rng draw sequence.
            if !moves.is_empty() {
                let migrator = self
                    .migrator
                    .as_mut()
                    .expect("moves imply an elastic migrator");
                for ((from, to), buckets) in group_moves(&moves) {
                    let (part, view_len) = set.export(from, buckets);
                    let (part, import_seed) = migrator.prepare(t, to, part, view_len);
                    set.import(to, part, import_seed);
                }
            }
            step_wall_secs.push(step_started.elapsed().as_secs_f64());
        }

        let Finished {
            shards: finals,
            shuffle,
            threads_joined,
        } = set.finish();
        let total_wall_secs = run_started.elapsed().as_secs_f64();

        let (shard_reports, host_transform): (Vec<ShardReport>, Vec<f64>) =
            finals.into_iter().unzip();
        let (trace, summary) = recorder.finish(
            shard_reports.iter().map(|r| r.sync_count).sum(),
            shard_reports.iter().map(|r| r.truncation_losses).sum(),
            host_transform.iter().sum(),
            shuffle.host_secs,
        );
        let per_query = |sum: f64| match summary.queries_issued {
            0 => 0.0,
            queries => sum / queries as f64,
        };
        let elastic = shuffle.elastic.map(|mut routing_side| {
            if let Some(m) = &self.migrator {
                routing_side.merge(&m.report());
            }
            routing_side
        });
        let report = ClusterRunReport {
            dataset: self.kind,
            config: self.config,
            shards: self.shards,
            routing: self.routing,
            steps: trace,
            summary,
            shard_reports,
            privacy: ClusterPrivacy::compose(&self.config, self.shards),
            avg_max_shard_qet_secs: per_query(max_shard_qet_sum),
            avg_aggregation_secs: per_query(aggregation_sum),
            avg_shuffle_secs: match self.steps {
                0 => 0.0,
                steps => shuffle.stats.total_secs / steps as f64,
            },
            shuffle: shuffle.stats,
            elastic,
        };
        let runtime = RuntimeStats {
            shards: self.shards,
            threads_joined,
            step_wall_secs,
            total_wall_secs,
        };
        (report, runtime)
    }
}
