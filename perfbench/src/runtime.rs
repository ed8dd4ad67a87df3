//! The `ingest` and `skew_tcp` workloads: upload epochs replayed back to back
//! through the threaded `ParallelShardedSimulation`, each run checked against
//! the sequential in-process `ShardedSimulation` of the same seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use incshrink::prelude::*;
use incshrink_cluster::{
    shard_config, ClusterRunReport, ElasticConfig, ParallelRunReport, ParallelShardedSimulation,
    RoutingPolicy, ShardRouter, ShardedSimulation,
};
use incshrink_mpc::PartyMode;
use incshrink_telemetry::Event;
use incshrink_workload::{logical_join_counts_per_step, to_store_partitioned, to_zipf_skewed};

use crate::metrics::{put, Values};
use crate::stats::{derive_seed, median, quantile, ratio};
use crate::{trace, Outcome, Run};

/// One threaded-runtime workload.
pub struct Spec {
    /// The workload's inputs, from one input seed.
    dataset: fn(u64) -> Dataset,
    /// Independent datasets per run: the modeled metrics average over them,
    /// so a small workload's figures do not hinge on one draw of its data.
    datasets: u64,
    config: IncShrinkConfig,
    shards: usize,
    routing: RoutingPolicy,
    elastic: Option<ElasticConfig>,
    party_mode: PartyMode,
}

/// TPC-ds at three times the paper's view rate (8.1 entries/step, so the
/// sDPTimer interval is ⌊30/9⌋ = 3) over 2000 steps: the horizon reaches the
/// first cache flush at f = 2000. One co-partitioned shard keeps a single
/// CPU-bound shard thread.
pub fn ingest() -> Spec {
    const RATE: f64 = 8.1;
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, RATE);
    Spec {
        dataset: |seed| tpcds(2000, RATE, seed),
        datasets: 1,
        config: IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval }),
        shards: 1,
        routing: RoutingPolicy::CoPartitioned,
        elastic: None,
        party_mode: PartyMode::InProcess,
    }
}

/// Store-partitioned TPC-ds (8 stores, half the returns cross-store) with
/// Zipf(1.2) key skew at the paper rate, sDPANT θ = 30, shuffled routing with
/// the elastic control plane, two shards whose parties talk over loopback TCP.
/// Eight 1000-step datasets per run.
pub fn skew_tcp() -> Spec {
    Spec {
        dataset: |seed| {
            let base = tpcds(1000, 2.7, seed);
            let skewed = to_zipf_skewed(&base, 1.2, derive_seed(seed, 2));
            to_store_partitioned(&skewed, 8, 0.5, derive_seed(seed, 3))
        },
        datasets: 8,
        config: IncShrinkConfig::tpcds_default(UpdateStrategy::DpAnt { threshold: 30.0 }),
        shards: 2,
        routing: RoutingPolicy::shuffled(),
        elastic: Some(ElasticConfig::default()),
        party_mode: PartyMode::Tcp,
    }
}

fn tpcds(steps: u64, rate: f64, seed: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: rate,
        seed: derive_seed(seed, 1),
    })
    .generate()
}

/// The seed of the system under test (shard pipelines, DP noise, shuffles)
/// for one input seed.
fn system_seed(seed: u64) -> u64 {
    derive_seed(seed, 4)
}

impl Spec {
    fn sequential(&self, dataset: Dataset, seed: u64) -> ClusterRunReport {
        let sim = ShardedSimulation::new(dataset, self.config, self.shards, system_seed(seed))
            .with_routing_policy(self.routing)
            .with_party_mode(PartyMode::InProcess);
        match self.elastic {
            Some(cfg) => sim.with_elastic(cfg),
            None => sim,
        }
        .run()
    }

    fn threaded(&self, dataset: Dataset, seed: u64) -> ParallelShardedSimulation {
        let sim =
            ParallelShardedSimulation::new(dataset, self.config, self.shards, system_seed(seed))
                .with_routing_policy(self.routing)
                .with_party_mode(self.party_mode);
        match self.elastic {
            Some(cfg) => sim.with_elastic(cfg),
            None => sim,
        }
    }
}

/// One dataset of a run with its sequential in-process reference.
struct Input {
    seed: u64,
    uploads: f64,
    reference: ClusterRunReport,
}

fn uploads(dataset: &Dataset) -> f64 {
    (dataset.left.updates().len() + dataset.right.updates().len()) as f64
}

/// Steps of `measured` that differ from the reference, plus one when the
/// steps agree but anything else in the report (summary, shard views, ε
/// composition, shuffle and elastic statistics) does not.
fn mismatches(measured: &ClusterRunReport, reference: &ClusterRunReport) -> u64 {
    let steps = measured
        .steps
        .iter()
        .zip(&reference.steps)
        .filter(|(a, b)| a != b)
        .count()
        + measured.steps.len().abs_diff(reference.steps.len());
    if steps == 0 && measured != reference {
        1
    } else {
        steps as u64
    }
}

/// Measured figures of the untraced replays of one run, one entry per replay.
#[derive(Default)]
struct Replays {
    generate_s: Vec<f64>,
    startup_s: Vec<f64>,
    loop_s: Vec<f64>,
    uploads_per_s: Vec<f64>,
    step_ms_p50: Vec<f64>,
    step_ms_p99: Vec<f64>,
    steps: usize,
}

struct Replay {
    generate_s: f64,
    startup_s: f64,
    run: ParallelRunReport,
    events: Vec<Event>,
}

/// One threaded run from a freshly generated dataset, checked against the
/// reference. A panic counts every step of the run as failed.
fn replay(spec: &Spec, input: &Input, traced: bool, out: &mut Outcome) -> Option<Replay> {
    let steps = input.reference.steps.len() as u64;
    out.attempted += steps;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let dataset = (spec.dataset)(input.seed);
        let generate_s = started.elapsed().as_secs_f64();
        let sim = spec.threaded(dataset, input.seed);
        let run_started = Instant::now();
        let (run, events) = if traced {
            trace::collect(|| sim.run())
        } else {
            (sim.run(), Vec::new())
        };
        let startup_s = run_started.elapsed().as_secs_f64() - run.runtime.total_wall_secs;
        Replay {
            generate_s,
            startup_s,
            run,
            events,
        }
    }));
    let Ok(replay) = result else {
        out.fail(steps, "the threaded run panicked".into());
        return None;
    };
    let failed = mismatches(&replay.run.report, &input.reference);
    if failed > 0 {
        out.fail(
            failed,
            format!("{failed} step(s) differ from the sequential reference"),
        );
    }
    Some(replay)
}

/// Replay every input back to back, round after round, until the next round
/// would end past `seconds` (at least one round).
fn replays(spec: &Spec, inputs: &[Input], seconds: f64, out: &mut Outcome) -> Replays {
    let mut r = Replays::default();
    let started = Instant::now();
    for round in 1.. {
        for input in inputs {
            let Some(replay) = replay(spec, input, false, out) else {
                return r;
            };
            r.generate_s.push(replay.generate_s);
            r.startup_s.push(replay.startup_s);
            let runtime = &replay.run.runtime;
            r.loop_s.push(runtime.total_wall_secs);
            r.uploads_per_s
                .push(ratio(input.uploads, runtime.total_wall_secs));
            r.step_ms_p50
                .push(quantile(&runtime.step_wall_secs, 0.50) * 1e3);
            r.step_ms_p99
                .push(quantile(&runtime.step_wall_secs, 0.99) * 1e3);
            r.steps += runtime.step_wall_secs.len();
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(round) > seconds {
            break;
        }
    }
    r
}

fn end_to_end(inputs: &[Input], r: &Replays) -> Values {
    let mut v = Values::new();
    let mean = |f: fn(&ClusterRunReport) -> f64| {
        inputs.iter().map(|i| f(&i.reference)).sum::<f64>() / inputs.len() as f64
    };
    let setup_s: Vec<f64> = r
        .generate_s
        .iter()
        .zip(&r.startup_s)
        .map(|(g, s)| g + s)
        .collect();
    put(&mut v, "setup_s", median(&setup_s));
    put(
        &mut v,
        "modeled_qet_ms",
        mean(|r| r.summary.avg_qet_secs) * 1e3,
    );
    put(&mut v, "modeled_mpc_s", mean(|r| r.summary.total_mpc_secs));
    put(&mut v, "l1_error", mean(|r| r.summary.avg_l1_error));
    put(
        &mut v,
        "view_pad_ratio",
        mean(|r| {
            let last = r.steps.last().expect("the workload has steps");
            ratio(last.view_len as f64, last.view_real as f64)
        }),
    );
    v
}

/// Time the ground truth the shard pipelines compute at construction, on the
/// same per-shard inputs the runtime partitions.
fn truth_secs(spec: &Spec, dataset: &Dataset) -> f64 {
    let router = ShardRouter::new(spec.shards);
    let parts = match spec.routing {
        RoutingPolicy::CoPartitioned => router.partition(dataset),
        RoutingPolicy::Shuffled { .. } => router.partition_by_join_key(dataset),
    };
    let started = Instant::now();
    for part in &parts {
        let query = ViewDefinition::for_dataset(part).as_query();
        std::hint::black_box(logical_join_counts_per_step(
            part,
            &query,
            part.params.steps,
        ));
    }
    started.elapsed().as_secs_f64()
}

pub fn run(spec: &Spec, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let inputs: Vec<Input> = (0..spec.datasets)
        .map(|k| {
            let seed = derive_seed(run.seed, 16 + k);
            let dataset = (spec.dataset)(seed);
            Input {
                seed,
                uploads: uploads(&dataset),
                reference: spec.sequential(dataset, seed),
            }
        })
        .collect();
    println!(
        "reference: sequential in-process ShardedSimulation, {} dataset(s) of {} steps, S = {}",
        inputs.len(),
        inputs[0].reference.steps.len(),
        spec.shards
    );
    // A traced run halves the untraced replays: they only give the baseline
    // for the tracing overhead.
    let seconds = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let r = replays(spec, &inputs, seconds, &mut out);
    println!(
        "measured: {} threaded replay(s) in {} party mode, {} step samples",
        r.loop_s.len(),
        spec.party_mode,
        r.steps,
    );
    if r.loop_s.is_empty() {
        return out;
    }
    out.e2e = end_to_end(&inputs, &r);
    // Medians over replays: a replay slowed by a burst of host noise moves
    // them less than it would move pooled figures.
    put(
        &mut out.layers,
        "throughput_per_s",
        median(&r.uploads_per_s),
    );
    put(&mut out.layers, "latency_ms_p50", median(&r.step_ms_p50));
    put(&mut out.layers, "latency_ms_p99", median(&r.step_ms_p99));
    if !run.trace {
        return out;
    }

    // The traced replay of the first dataset.
    let input = &inputs[0];
    let Some(traced) = replay(spec, input, true, &mut out) else {
        return out;
    };
    let events = &traced.events;
    out.attempted += 2;
    for failure in trace::audit(events, &shard_config(&spec.config, spec.shards)) {
        out.fail(1, failure);
    }

    let mut v = trace::layer_values(events);
    put(&mut v, "workload.generate_s", median(&r.generate_s));
    put(
        &mut v,
        "workload.truth_s",
        truth_secs(spec, &(spec.dataset)(input.seed)),
    );
    put(&mut v, "runtime.startup_s", median(&r.startup_s));
    let padded = v["upload.padded"];
    put(&mut v, "upload.real", input.uploads);
    put(&mut v, "upload.pad_ratio", ratio(padded, input.uploads));

    let (_, timed) = trace::spans(events);
    let query_ms: Vec<f64> = timed
        .iter()
        .filter(|s| s.name == "query" && s.shard.is_none())
        .map(|s| s.incl_ns as f64 * 1e-6)
        .collect();
    let report = &traced.run.report;
    let scanned: f64 = report
        .steps
        .iter()
        .filter(|s| s.answer.is_some())
        .map(|s| s.view_len as f64)
        .sum();
    put(&mut v, "query.count.ms_p50", median(&query_ms));
    put(&mut v, "query.entries_scanned", scanned);
    put(
        &mut v,
        "query.ns_per_entry",
        ratio(query_ms.iter().sum::<f64>() * 1e6, scanned),
    );

    put(
        &mut v,
        "shuffle.overflows",
        report.shuffle.overflow_events as f64,
    );
    put(
        &mut v,
        "shuffle.bucket_padded",
        report.shuffle.padded_dummy_records as f64,
    );
    if let Some(elastic) = &report.elastic {
        put(&mut v, "elastic.splits", elastic.splits as f64);
        put(&mut v, "elastic.migrations", elastic.migrations as f64);
        put(
            &mut v,
            "elastic.migrated_records",
            elastic.migrated_records as f64,
        );
        put(&mut v, "elastic.migration_s", elastic.migration_secs);
    }

    // The untraced baseline is the first dataset's replays.
    let untraced: Vec<f64> = r.loop_s.iter().step_by(inputs.len()).copied().collect();
    let runtime = &traced.run.runtime;
    put(
        &mut v,
        "trace.overhead",
        ratio(runtime.total_wall_secs, median(&untraced)),
    );
    put(
        &mut v,
        "trace.unexplained_share",
        1.0 - ratio(
            trace::blocking_path_secs(&timed),
            runtime.step_wall_secs.iter().sum(),
        ),
    );
    out.layers.extend(v);
    out
}
