//! Golden trajectories: three small fixed-seed cluster runs whose canonical
//! observable trace (server-visible sizes + ε-ledger) and per-shard view
//! contents are pinned to constants, through the sequential and the threaded
//! driver alike.
//!
//! Every other replay test compares two execution modes of the *same* build,
//! so a kernel change that moves a single comparator of an oblivious sort — and
//! with it which real tuples a Shrink cache read fetches, or where they land in
//! the view — would pass all of them. These constants were captured before the
//! Batcher network was rewritten as a run walker and the `isView` sort moved to
//! one packed lane; a physical-kernel change must reproduce them exactly. A
//! change that *intends* to alter trajectories (a new random stream, a
//! different workload generator) re-captures them and says so.
//!
//! Both drivers run one step loop over two shard sets, so threaded ==
//! sequential only checks the shard sets; these constants are what pins the
//! loop itself across commits.

use std::sync::Arc;

use incshrink::prelude::*;
use incshrink_cluster::{
    ClusterRunReport, ElasticConfig, ParallelShardedSimulation, RoutingPolicy, ShardedSimulation,
};
use incshrink_telemetry::audit::canonical_trace_fingerprint;
use incshrink_telemetry::{install, InMemory};
use incshrink_workload::{to_store_partitioned, to_zipf_skewed};

const STEPS: u64 = 200;

fn tpcds(seed: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps: STEPS,
        view_entries_per_step: 2.7,
        seed,
    })
    .generate()
}

/// Run one cluster simulation under an in-memory collector; return the
/// report, the canonical trace fingerprint and every shard's view fingerprint.
fn fingerprints(run: impl FnOnce() -> ClusterRunReport) -> (ClusterRunReport, u64, Vec<u64>) {
    let sink = Arc::new(InMemory::new());
    let guard = install(sink.clone());
    let report = run();
    drop(guard);
    let views = report
        .shard_reports
        .iter()
        .map(|s| s.view_fingerprint)
        .collect();
    (report, canonical_trace_fingerprint(&sink.take()), views)
}

#[test]
fn tpcds_timer_single_shard_replays_the_golden_trajectory() {
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    for (report, trace, views) in [
        fingerprints(|| ShardedSimulation::new(tpcds(7), config, 1, 7).run()),
        fingerprints(|| {
            ParallelShardedSimulation::new(tpcds(7), config, 1, 7)
                .run()
                .report
        }),
    ] {
        assert!(report.summary.sync_count > 0, "the run must read the cache");
        assert_eq!(trace, 0x08b9_434a_5177_1a70, "trace fingerprint {trace:#x}");
        assert_eq!(
            views,
            vec![0x28c3_e411_f905_f53d],
            "view fingerprints {views:#x?}"
        );
    }
}

#[test]
fn ant_shuffled_elastic_two_shards_replays_the_golden_trajectory() {
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpAnt { threshold: 30.0 });
    let dataset = to_store_partitioned(&to_zipf_skewed(&tpcds(11), 1.2, 11), 8, 0.5, 77);
    for (report, trace, views) in [
        fingerprints(|| {
            ShardedSimulation::new(dataset.clone(), config, 2, 11)
                .with_routing_policy(RoutingPolicy::shuffled())
                .with_elastic(ElasticConfig::default())
                .run()
        }),
        fingerprints(|| {
            ParallelShardedSimulation::new(dataset.clone(), config, 2, 11)
                .with_routing_policy(RoutingPolicy::shuffled())
                .with_elastic(ElasticConfig::default())
                .run()
                .report
        }),
    ] {
        assert!(report.summary.sync_count > 0, "the run must read the cache");
        assert_eq!(trace, 0x25d9_432d_c187_b4de, "trace fingerprint {trace:#x}");
        assert_eq!(
            views,
            vec![0x5d92_e7f7_4e5c_b003, 0x5396_fbc2_d9cc_1a4c],
            "view fingerprints {views:#x?}"
        );
    }
}

/// CPDB (public right relation) under sDPANT with a deferred Transform batch
/// of 4 on four co-partitioned shards: the public-right upload path, ANT's
/// forced `k = 1` and a multi-shard scatter-gather, none of which the two
/// cases above cover.
#[test]
fn cpdb_ant_batched_four_shards_replays_the_golden_trajectory() {
    let config = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 })
        .with_transform_batch(4);
    let dataset = CpdbGenerator::new(WorkloadParams {
        steps: STEPS,
        view_entries_per_step: 9.8,
        seed: 13,
    })
    .generate();
    for (report, trace, views) in [
        fingerprints(|| ShardedSimulation::new(dataset.clone(), config, 4, 13).run()),
        fingerprints(|| {
            ParallelShardedSimulation::new(dataset.clone(), config, 4, 13)
                .run()
                .report
        }),
    ] {
        assert_eq!(report.summary.sync_count, 152, "sync count");
        assert_eq!(trace, 0xd89a_98f1_c0a1_c6d5, "trace fingerprint {trace:#x}");
        assert_eq!(
            views,
            vec![
                0x9fcb_5755_bbf1_be5b,
                0x51cd_6678_848d_2ef4,
                0xbf5e_a8c7_44ab_67de,
                0x7885_5afc_73aa_996b,
            ],
            "view fingerprints {views:#x?}"
        );
    }
}
