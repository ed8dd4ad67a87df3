//! Per-layer figures from the spans, observable sizes and ε-ledger entries the
//! program already emits, collected by the telemetry `InMemory` collector.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_telemetry::audit::{check_trace, Expectations};
use incshrink_telemetry::{CostDelta, Event, InMemory, LedgerEntry, ObserveKind};

use crate::metrics::{put, Values};
use crate::stats::{median, ratio};

const NS: f64 = 1e-9;

/// DP mechanism labels the ε-ledger uses; any other label counts as `laplace`.
const MECHANISMS: &[&str] = &[
    "timer.sync",
    "ant.threshold",
    "ant.counter",
    "ant.sync",
    "elastic.cut",
    "elastic.migrate",
];

/// Run `f` with an in-memory collector installed on this thread (worker
/// threads the program spawns inherit it) and return its result with the
/// collected events.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let sink = Arc::new(InMemory::new());
    let guard = incshrink_telemetry::install(sink.clone());
    let out = f();
    drop(guard);
    (out, sink.take())
}

/// Aggregate of every span of one name.
#[derive(Default, Clone)]
pub struct SpanAgg {
    pub calls: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
    pub sim_ns: u64,
    pub cost: CostDelta,
}

impl SpanAgg {
    pub fn incl_s(&self) -> f64 {
        self.incl_ns as f64 * NS
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * NS
    }

    /// Measured host time over the cost model's time for the same work.
    pub fn host_over_modeled(&self) -> f64 {
        ratio(self.incl_ns as f64, self.sim_ns as f64)
    }
}

/// One span's identity and inclusive host time, in emission order.
pub struct TimedSpan {
    pub name: String,
    pub step: Option<u64>,
    pub shard: Option<u64>,
    pub depth: u32,
    pub incl_ns: u64,
}

/// Aggregate spans by name with self time: a span's inclusive time minus its
/// children one depth deeper in the same shard's stream. Spans are emitted
/// when they close, so a parent follows its children in its stream.
pub fn spans(events: &[Event]) -> (BTreeMap<String, SpanAgg>, Vec<TimedSpan>) {
    let mut by_name: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut timed = Vec::new();
    let mut child_ns: HashMap<Option<u64>, Vec<u64>> = HashMap::new();
    for event in events {
        let Event::Span(s) = event else { continue };
        let depth = s.depth as usize;
        let acc = child_ns.entry(s.shard).or_default();
        if acc.len() < depth + 2 {
            acc.resize(depth + 2, 0);
        }
        let children = std::mem::take(&mut acc[depth + 1]);
        acc[depth] += s.host_nanos;
        let agg = by_name.entry(s.name.clone()).or_default();
        agg.calls += 1;
        agg.incl_ns += s.host_nanos;
        agg.self_ns += s.host_nanos.saturating_sub(children);
        agg.sim_ns += s.sim_nanos.unwrap_or(0);
        if let Some(cost) = s.cost {
            agg.cost.accumulate(cost);
        }
        timed.push(TimedSpan {
            name: s.name.clone(),
            step: s.step,
            shard: s.shard,
            depth: s.depth,
            incl_ns: s.host_nanos,
        });
    }
    (by_name, timed)
}

pub fn ledger(events: &[Event]) -> Vec<LedgerEntry> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Epsilon(entry) => Some(entry.clone()),
            _ => None,
        })
        .collect()
}

fn observe_index(kind: ObserveKind) -> usize {
    match kind {
        ObserveKind::UploadBatch => 0,
        ObserveKind::CacheAppend => 1,
        ObserveKind::ViewSync => 2,
        ObserveKind::CacheFlush => 3,
        ObserveKind::ShuffleBucket => 4,
        ObserveKind::PartyBytes => 5,
    }
}

/// The per-layer figures every workload derives the same way from its trace.
pub fn layer_values(events: &[Event]) -> Values {
    let (by_name, timed) = spans(events);
    let span = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let mut v = Values::new();

    let broker = span("broker.route");
    put(&mut v, "broker.route.calls", broker.calls as f64);
    put(&mut v, "broker.route.self_s", broker.self_s());
    put(&mut v, "runtime.step.self_s", span("runtime.step").self_s());
    put(
        &mut v,
        "pipeline.step.self_s",
        span("pipeline.step").self_s(),
    );

    let transform = span("transform");
    put(&mut v, "transform.calls", transform.calls as f64);
    put(&mut v, "transform.self_s", transform.self_s());
    put(&mut v, "transform.compares", transform.cost.compares as f64);
    put(
        &mut v,
        "transform.ns_per_compare",
        ratio(transform.incl_ns as f64, transform.cost.compares as f64),
    );
    put(
        &mut v,
        "transform.host_over_modeled",
        transform.host_over_modeled(),
    );
    put(
        &mut v,
        "join.nested_loop.self_s",
        span("join.nested_loop").self_s(),
    );
    put(
        &mut v,
        "join.sort_merge.self_s",
        span("join.sort_merge").self_s(),
    );

    let shrink = span("shrink");
    put(&mut v, "shrink.calls", shrink.calls as f64);
    put(&mut v, "shrink.self_s", shrink.self_s());
    put(&mut v, "shrink.swaps", shrink.cost.swaps as f64);
    put(
        &mut v,
        "shrink.ns_per_swap",
        ratio(shrink.incl_ns as f64, shrink.cost.swaps as f64),
    );
    put(
        &mut v,
        "shrink.host_over_modeled",
        shrink.host_over_modeled(),
    );

    put(&mut v, "query.merge.self_s", span("query.merge").self_s());

    let send = span("party.send");
    let recv = span("party.recv");
    put(&mut v, "party.rounds", recv.calls as f64);
    put(&mut v, "party.send.self_s", send.self_s());
    put(&mut v, "party.recv.wait_s", recv.incl_s());
    put(
        &mut v,
        "party.us_per_round",
        ratio(
            (send.incl_ns + recv.incl_ns) as f64 * 1e-3,
            recv.calls as f64,
        ),
    );

    let shuffle = span("shuffle.route");
    put(&mut v, "shuffle.route.calls", shuffle.calls as f64);
    put(&mut v, "shuffle.route.self_s", shuffle.self_s());

    // Observable sizes: what the servers see.
    let mut synced_at = std::collections::HashSet::new();
    let (mut sizes, mut counts) = ([0u64; 6], [0u64; 6]);
    for event in events {
        if let Event::Observe(o) = event {
            let k = observe_index(o.kind);
            sizes[k] += o.count;
            counts[k] += 1;
            if o.kind == ObserveKind::ViewSync {
                synced_at.insert((o.step, o.shard));
            }
        }
    }
    let total = |k: ObserveKind| sizes[observe_index(k)] as f64;
    let count = |k: ObserveKind| counts[observe_index(k)] as f64;
    put(&mut v, "upload.padded", total(ObserveKind::UploadBatch));
    put(
        &mut v,
        "cache.append_padded",
        total(ObserveKind::CacheAppend),
    );
    put(&mut v, "party.bytes", total(ObserveKind::PartyBytes));
    put(&mut v, "shrink.syncs", count(ObserveKind::ViewSync));
    put(&mut v, "shrink.flushes", count(ObserveKind::CacheFlush));

    // Shrink calls on the steps (and shards) that synchronized the view.
    let sync_ms: Vec<f64> = timed
        .iter()
        .filter(|s| s.name == "shrink")
        .filter(|s| s.step.is_some_and(|t| synced_at.contains(&(t, s.shard))))
        .map(|s| s.incl_ns as f64 * 1e-6)
        .collect();
    put(&mut v, "shrink.sync_ms_p50", median(&sync_ms));

    let entries = ledger(events);
    for label in MECHANISMS {
        let draws = entries.iter().filter(|e| e.mechanism == *label).count();
        put(&mut v, &format!("dp.draws.{label}"), draws as f64);
    }
    let other = entries
        .iter()
        .filter(|e| !MECHANISMS.contains(&e.mechanism.as_str()))
        .count();
    put(&mut v, "dp.draws.laplace", other as f64);
    put(
        &mut v,
        "dp.epsilon_spent",
        entries.iter().fold(0.0, |sum, e| sum + e.epsilon),
    );
    v
}

/// Host time along each step's blocking path: the broker's routing, the
/// slowest shard's `runtime.step`, and the driver's scatter-gather `query`.
/// Everything else inside the step loop is time no span explains.
pub fn blocking_path_secs(timed: &[TimedSpan]) -> f64 {
    let mut per_step: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for s in timed.iter().filter(|s| s.depth == 0) {
        let Some(step) = s.step else { continue };
        let entry = per_step.entry(step).or_default();
        match (s.name.as_str(), s.shard) {
            ("broker.route", None) => entry.0 += s.incl_ns,
            ("runtime.step", Some(_)) => entry.1 = entry.1.max(s.incl_ns),
            ("query", None) => entry.2 += s.incl_ns,
            _ => {}
        }
    }
    per_step
        .values()
        .map(|(b, s, q)| (b + s + q) as f64 * NS)
        .sum()
}

/// Correctness gate on a traced run: the leakage audit and the ε-ledger
/// reconciliation against the per-shard budget each shard claims. Returns
/// one message per violated check.
pub fn audit(events: &[Event], shard_config: &incshrink::prelude::IncShrinkConfig) -> Vec<String> {
    let mut failures = Vec::new();
    let expect = Expectations {
        flush_interval: Some(shard_config.flush_interval),
        timer_interval: match shard_config.strategy {
            incshrink::prelude::UpdateStrategy::DpTimer { interval } => Some(interval),
            _ => None,
        },
        max_epsilon: Some(shard_config.epsilon),
        ..Expectations::default()
    };
    if let Err(e) = check_trace(events, &expect) {
        failures.push(e.to_string());
    }
    let mut claimed = PrivacyAccountant::new();
    claimed.record(MechanismApplication {
        mechanism_epsilon: shard_config.epsilon,
        stability: 1,
        disjoint: false,
    });
    if !claimed.reconciles_with_ledger(&ledger(events), shard_config.contribution_budget) {
        failures.push("the ε-ledger does not reconcile with the claimed per-shard budget".into());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_telemetry::SpanRecord;

    fn span(name: &str, shard: Option<u64>, depth: u32, host_nanos: u64) -> Event {
        Event::Span(SpanRecord {
            name: name.into(),
            step: Some(1),
            shard,
            depth,
            host_nanos,
            sim_nanos: None,
            cost: None,
        })
    }

    #[test]
    fn self_time_subtracts_children_of_the_same_shard_only() {
        let events = vec![
            span("transform", Some(0), 1, 30),
            span("transform", Some(1), 1, 50),
            span("shrink", Some(0), 1, 20),
            span("pipeline.step", Some(0), 0, 100),
            span("pipeline.step", Some(1), 0, 70),
        ];
        let (by_name, _) = spans(&events);
        assert_eq!(by_name["pipeline.step"].self_ns, (100 - 50) + (70 - 50));
        assert_eq!(by_name["pipeline.step"].incl_ns, 170);
        assert_eq!(by_name["transform"].self_ns, 80);
        assert_eq!(by_name["transform"].calls, 2);
    }
}
