//! The `analyst` workload: one closed-loop analyst issuing a seeded mix of
//! typed queries through `ScatterGatherExecutor` over a frozen two-shard view.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use incshrink::prelude::*;
use incshrink_cluster::{shard_config, shard_pipelines, ScatterGatherExecutor, ShardRouter};
use incshrink_mpc::cost::{CostModel, SimDuration};
use incshrink_telemetry::Event;
use incshrink_workload::logical_join_counts_per_step;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{put, Values};
use crate::stats::{derive_seed, median, quantile, ratio};
use crate::{trace, Outcome, Run};

/// Growth horizon and view rate: 20 view entries/step (7.4× the paper's
/// TPC-ds rate, so T = 1) over 1000 steps grows the two shard views to about
/// 25 K entries.
const STEPS: u64 = 1000;
const RATE: f64 = 20.0;
const SHARDS: usize = 2;
/// Distinct queries in the analyst's mix; each is checked against its
/// plaintext answer.
const POOL: usize = 64;

#[derive(Clone, Copy)]
enum Kind {
    Count,
    FilterCount,
    FilterSum,
    GroupCount,
}

const KINDS: [Kind; 4] = [
    Kind::Count,
    Kind::FilterCount,
    Kind::FilterSum,
    Kind::GroupCount,
];

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Count => "query.count.ms_p50",
            Kind::FilterCount => "query.filter_count.ms_p50",
            Kind::FilterSum => "query.filter_sum.ms_p50",
            Kind::GroupCount => "query.group_count.ms_p50",
        }
    }

    /// A query of this kind over the view `(pid, sale_date, pid, return_date)`
    /// with seeded bounds on the sale date.
    fn query(self, rng: &mut StdRng) -> Query {
        let day = rng.gen_range(1..=STEPS as u32);
        match self {
            Kind::Count => Query::count(),
            Kind::FilterCount => Query::count().filter(FilterExpr::le(1, day)),
            Kind::FilterSum => Query::sum(3).filter(FilterExpr::ge(1, day)),
            Kind::GroupCount => {
                let domain = (1..=16u32).map(|i| i * STEPS as u32 / 16).collect();
                Query::group_count(1, domain)
            }
        }
    }
}

/// The grown cluster state the analyst reads.
struct Grown {
    pipelines: Vec<ShardPipeline>,
    generate_s: f64,
    startup_s: f64,
    setup_s: f64,
    l1_error: f64,
    modeled_mpc_s: f64,
    dataset: Dataset,
}

/// Set-up: generate the workload, build the shard pipelines and step them
/// through the growth horizon. Also tracks, per step, the count answer's L1
/// error against the logical truth (an oblivious count returns exactly the
/// views' real cardinality) and the modeled Transform + Shrink time the
/// cluster drivers report (slowest shard per phase, summed over steps).
fn grow(seed: u64) -> Grown {
    let started = Instant::now();
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: STEPS,
        view_entries_per_step: RATE,
        seed: derive_seed(seed, 1),
    })
    .generate();
    let generate_s = started.elapsed().as_secs_f64();
    let built = Instant::now();
    let mut pipelines = shard_pipelines(
        &dataset,
        &config(),
        SHARDS,
        derive_seed(seed, 4),
        CostModel::default(),
    );
    let startup_s = built.elapsed().as_secs_f64();
    let mut l1_sum = 0.0;
    let mut mpc = SimDuration::ZERO;
    for t in 1..=STEPS {
        let outcomes: Vec<PipelineStepOutcome> =
            pipelines.iter_mut().map(|p| p.advance(t)).collect();
        let slowest = |phase: fn(&PipelineStepOutcome) -> Option<SimDuration>| {
            outcomes.iter().filter_map(phase).max()
        };
        mpc = mpc
            + slowest(|o| o.transform_duration).unwrap_or(SimDuration::ZERO)
            + slowest(|o| o.shrink_duration).unwrap_or(SimDuration::ZERO);
        let answer: usize = pipelines.iter().map(|p| p.view().true_cardinality()).sum();
        let truth: u64 = pipelines.iter().map(|p| p.true_count(t)).sum();
        l1_sum += (answer as u64).abs_diff(truth) as f64;
    }
    Grown {
        pipelines,
        generate_s,
        startup_s,
        setup_s: started.elapsed().as_secs_f64(),
        l1_error: l1_sum / STEPS as f64,
        modeled_mpc_s: mpc.as_secs_f64(),
        dataset,
    }
}

fn config() -> IncShrinkConfig {
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, RATE);
    IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval })
}

/// Length of one closed-loop window: long enough that each window's p99 has
/// more than ten samples beyond it.
const WINDOW_S: f64 = 2.0;

/// Latency samples of one closed loop, per query kind and per window.
#[derive(Default)]
struct Loop {
    latency_s: Vec<f64>,
    by_kind: [Vec<f64>; 4],
    qet_s: Vec<f64>,
    /// (queries per second, p50 ms, p99 ms) of each window.
    windows: Vec<(f64, f64, f64)>,
}

impl Loop {
    /// Median over windows of one window figure: a window hit by a burst of
    /// host noise moves it less than it would move pooled figures.
    fn median_of(&self, figure: fn(&(f64, f64, f64)) -> f64) -> f64 {
        median(&self.windows.iter().map(figure).collect::<Vec<_>>())
    }
}

/// The closed loop: issue the next query as soon as the previous one returns,
/// for `seconds` split into windows, and check every answer.
fn closed_loop(
    executor: &ScatterGatherExecutor<'_>,
    pool: &[(usize, Query, QueryValue)],
    rng: &mut StdRng,
    seconds: f64,
    out: &mut Outcome,
) -> Loop {
    let mut l = Loop::default();
    let windows = (seconds / WINDOW_S).floor().max(1.0);
    for _ in 0..windows as usize {
        let first = l.latency_s.len();
        let wall_s = window(executor, pool, rng, seconds / windows, out, &mut l);
        let latency = &l.latency_s[first..];
        l.windows.push((
            ratio(latency.len() as f64, wall_s),
            quantile(latency, 0.50) * 1e3,
            quantile(latency, 0.99) * 1e3,
        ));
    }
    l
}

/// One window of the closed loop; returns its wall time.
fn window(
    executor: &ScatterGatherExecutor<'_>,
    pool: &[(usize, Query, QueryValue)],
    rng: &mut StdRng,
    seconds: f64,
    out: &mut Outcome,
    l: &mut Loop,
) -> f64 {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let (kind, query, expected) = &pool[rng.gen_range(0..pool.len())];
        out.attempted += 1;
        let issued = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| executor.execute(query)));
        let latency = issued.elapsed().as_secs_f64();
        match outcome {
            Ok(outcome) if outcome.value == *expected => {
                l.latency_s.push(latency);
                l.by_kind[*kind].push(latency);
                l.qet_s.push(outcome.qet.as_secs_f64());
            }
            Ok(outcome) => out.fail(
                1,
                format!(
                    "`{}` answered {:?}, the plaintext view gives {:?}",
                    query.label(),
                    outcome.value,
                    expected
                ),
            ),
            Err(_) => out.fail(1, format!("`{}` panicked", query.label())),
        }
    }
    started.elapsed().as_secs_f64()
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    // The growth is set-up; in a traced run its events feed the leakage audit
    // and the ε-ledger reconciliation.
    let (grown, growth_events) = if run.trace {
        trace::collect(|| grow(run.seed))
    } else {
        (grow(run.seed), Vec::new())
    };
    let views: Vec<&MaterializedView> = grown.pipelines.iter().map(ShardPipeline::view).collect();
    let entries: usize = views.iter().map(|v| v.len()).sum();
    let real: usize = views.iter().map(|v| v.true_cardinality()).sum();
    println!(
        "set-up: {SHARDS} shard views grown over {STEPS} steps, {entries} entries ({real} real)"
    );

    // The oracle: every query in the mix answered in plaintext over the real
    // view rows both shards hold.
    let rows: Vec<Vec<u32>> = views
        .iter()
        .flat_map(|v| v.entries().recover_all())
        .filter(|r| r.is_view)
        .map(|r| r.fields)
        .collect();
    let mut rng = StdRng::seed_from_u64(derive_seed(run.seed, 5));
    let pool: Vec<(usize, Query, QueryValue)> = (0..POOL)
        .map(|i| {
            let query = KINDS[i % KINDS.len()].query(&mut rng);
            let expected = query.evaluate_plaintext(&rows);
            (i % KINDS.len(), query, expected)
        })
        .collect();

    let executor = ScatterGatherExecutor::over(CostModel::default(), views);
    let seconds = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let untraced = closed_loop(&executor, &pool, &mut rng, seconds, &mut out);
    println!(
        "measured: {} queries in a closed loop over {} windows",
        untraced.latency_s.len(),
        untraced.windows.len()
    );

    let mut e2e = Values::new();
    put(&mut e2e, "setup_s", grown.setup_s);
    put(
        &mut e2e,
        "modeled_qet_ms",
        ratio(
            untraced.qet_s.iter().sum::<f64>(),
            untraced.qet_s.len() as f64,
        ) * 1e3,
    );
    put(&mut e2e, "modeled_mpc_s", grown.modeled_mpc_s);
    put(&mut e2e, "l1_error", grown.l1_error);
    put(
        &mut e2e,
        "view_pad_ratio",
        ratio(entries as f64, real as f64),
    );
    out.e2e = e2e;
    put(
        &mut out.layers,
        "throughput_per_s",
        untraced.median_of(|w| w.0),
    );
    put(
        &mut out.layers,
        "latency_ms_p50",
        untraced.median_of(|w| w.1),
    );
    put(
        &mut out.layers,
        "latency_ms_p99",
        untraced.median_of(|w| w.2),
    );
    if !run.trace {
        return out;
    }

    out.attempted += 2;
    let split = shard_config(&config(), SHARDS);
    for failure in trace::audit(&growth_events, &split) {
        out.fail(1, failure);
    }
    let (traced, events) =
        trace::collect(|| closed_loop(&executor, &pool, &mut rng, seconds, &mut out));
    out.layers
        .extend(layers(&grown, &untraced, &traced, &events, entries));
    out
}

fn layers(
    grown: &Grown,
    untraced: &Loop,
    traced: &Loop,
    events: &[Event],
    entries: usize,
) -> Values {
    let mut v = trace::layer_values(events);
    put(&mut v, "workload.generate_s", grown.generate_s);
    let parts = ShardRouter::new(SHARDS).partition(&grown.dataset);
    let started = Instant::now();
    for part in &parts {
        let query = ViewDefinition::for_dataset(part).as_query();
        std::hint::black_box(logical_join_counts_per_step(part, &query, STEPS));
    }
    put(&mut v, "workload.truth_s", started.elapsed().as_secs_f64());
    put(&mut v, "runtime.startup_s", grown.startup_s);
    for kind in KINDS {
        put(
            &mut v,
            kind.metric(),
            median(&traced.by_kind[kind as usize]) * 1e3,
        );
    }
    let queries = traced.latency_s.len() as f64;
    let busy_s: f64 = traced.latency_s.iter().sum();
    let scanned = queries * entries as f64;
    put(&mut v, "query.entries_scanned", scanned);
    put(&mut v, "query.ns_per_entry", ratio(busy_s * 1e9, scanned));
    let mean = |l: &Loop| ratio(l.latency_s.iter().sum(), l.latency_s.len() as f64);
    put(
        &mut v,
        "trace.overhead",
        ratio(mean(traced), mean(untraced)),
    );
    // Inside `execute` only `query.merge` is spanned; the shard scans are not.
    let (spans, _) = trace::spans(events);
    let explained = spans.values().map(trace::SpanAgg::self_s).sum::<f64>();
    put(
        &mut v,
        "trace.unexplained_share",
        1.0 - ratio(explained, busy_s),
    );
    v
}
