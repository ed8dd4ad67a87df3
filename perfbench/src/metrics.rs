//! The benchmark's metric vocabulary: every end-to-end and per-layer metric
//! with its unit, in the order they are printed. `BENCHMARK.json` lists the
//! same names; a workload that produces a name missing here is a bug.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// The name of the same figure in the issue-level vocabulary, when the
    /// benchmark's name is workload-neutral.
    pub aliases: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        aliases: "",
    }
}

const fn aliased(name: &'static str, unit: &'static str, aliases: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        aliases,
    }
}

/// What a data owner or analyst sees, each with a regression bound in
/// `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("modeled_qet_ms", "ms"),
    m("modeled_mpc_s", "s"),
    m("l1_error", "count"),
    m("view_pad_ratio", "ratio"),
    m("peak_rss_mb", "MiB"),
];

/// Reported by the traced run; a layer a workload bypasses reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end host timings, measured with tracing off and reported by
    // every run, but carrying no regression bound: on a shared 2-vCPU host
    // their spread over ten seeds reaches or exceeds the largest bound a
    // metric may have.
    aliased(
        "throughput_per_s",
        "1/s",
        "uploads_per_s on ingest/skew_tcp, queries_per_s on analyst",
    ),
    aliased(
        "latency_ms_p50",
        "ms",
        "step_ms_p50 on ingest/skew_tcp, query_ms_p50 on analyst",
    ),
    aliased(
        "latency_ms_p99",
        "ms",
        "step_ms_p99 on ingest/skew_tcp, query_ms_p99 on analyst",
    ),
    // workload
    m("workload.generate_s", "s"),
    m("workload.truth_s", "s"),
    // cluster.runtime
    m("runtime.startup_s", "s"),
    m("broker.route.calls", "count"),
    m("broker.route.self_s", "s"),
    m("runtime.step.self_s", "s"),
    // core.framework
    m("pipeline.step.self_s", "s"),
    m("upload.real", "count"),
    m("upload.padded", "count"),
    m("upload.pad_ratio", "ratio"),
    // core.transform + oblivious.join
    m("transform.calls", "count"),
    m("transform.self_s", "s"),
    m("transform.compares", "count"),
    m("transform.ns_per_compare", "ns"),
    m("join.nested_loop.self_s", "s"),
    m("join.sort_merge.self_s", "s"),
    m("cache.append_padded", "count"),
    m("transform.host_over_modeled", "ratio"),
    // core.shrink + storage.cache + oblivious.sort
    m("shrink.calls", "count"),
    m("shrink.syncs", "count"),
    m("shrink.flushes", "count"),
    m("shrink.self_s", "s"),
    m("shrink.sync_ms_p50", "ms"),
    m("shrink.swaps", "count"),
    m("shrink.ns_per_swap", "ns"),
    m("shrink.host_over_modeled", "ratio"),
    // core.query + oblivious filter/aggregate + cluster.executor
    m("query.count.ms_p50", "ms"),
    m("query.filter_count.ms_p50", "ms"),
    m("query.filter_sum.ms_p50", "ms"),
    m("query.group_count.ms_p50", "ms"),
    m("query.merge.self_s", "s"),
    m("query.entries_scanned", "count"),
    m("query.ns_per_entry", "ns"),
    // mpc transport
    m("party.rounds", "count"),
    m("party.send.self_s", "s"),
    m("party.recv.wait_s", "s"),
    m("party.bytes", "bytes"),
    m("party.us_per_round", "us"),
    // dp (ε-ledger)
    m("dp.draws.timer.sync", "count"),
    m("dp.draws.ant.threshold", "count"),
    m("dp.draws.ant.counter", "count"),
    m("dp.draws.ant.sync", "count"),
    m("dp.draws.elastic.cut", "count"),
    m("dp.draws.elastic.migrate", "count"),
    m("dp.draws.laplace", "count"),
    m("dp.epsilon_spent", "eps"),
    // cluster.shuffle
    m("shuffle.route.calls", "count"),
    m("shuffle.route.self_s", "s"),
    m("shuffle.overflows", "count"),
    m("shuffle.bucket_padded", "count"),
    // cluster.elastic
    m("elastic.splits", "count"),
    m("elastic.migrations", "count"),
    m("elastic.migrated_records", "count"),
    m("elastic.migration_s", "s"),
    // trace
    m("trace.overhead", "ratio"),
    m("trace.unexplained_share", "ratio"),
    // host noise
    m("host.cpu_s", "s"),
    m("host.steal_share", "ratio"),
];

/// Metric values by name, as a workload produced them.
pub type Values = BTreeMap<String, f64>;

/// Insert `value` under `name`.
pub fn put(values: &mut Values, name: &str, value: f64) {
    values.insert(name.to_string(), value);
}

/// Every name a workload produced must be in `table`; a stray name is a typo.
pub fn check_names(values: &Values, table: &[MetricDef]) {
    for name in values.keys() {
        assert!(
            table.iter().any(|d| d.name == name),
            "metric `{name}` is not in the benchmark's metric table"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
        }
    }
}
