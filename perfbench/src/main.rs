//! IncShrink benchmark: three workloads driven through the workspace's public
//! entry points, end-to-end metrics from untraced runs and per-layer metrics
//! from a traced run.
//!
//! ```text
//! perfbench --workload <ingest|analyst|skew_tcp> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). `--out` also writes every
//! metric of the run, host noise included, for `run.py compare`. The exit code
//! is non-zero when any step or answer differs from its reference, a check on
//! the trace fails, or the program panics.

mod analyst;
mod host;
mod metrics;
mod runtime;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use metrics::{check_names, put, MetricDef, Values, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["ingest", "analyst", "skew_tcp"];

/// The command line of one benchmark run.
pub struct Run {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    out: Option<String>,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Values,
    pub layers: Values,
    /// Steps and queries checked against their reference, plus the checks on
    /// a traced run.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out" => out = Some(value.clone()),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Run {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        out,
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `tables`, in table order;
/// a name in more than one table appears once.
fn json_metrics(values: &Values, tables: &[&[MetricDef]]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let fields: Vec<String> = tables
        .iter()
        .flat_map(|t| t.iter())
        .filter(|d| seen.insert(d.name))
        .filter_map(|d| {
            let v = values.get(d.name)?;
            Some(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(d.name),
                json_string(d.unit)
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_table(title: &str, values: &Values, table: &[MetricDef]) {
    println!("{title}");
    for d in table {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let alias = if d.aliases.is_empty() {
            String::new()
        } else {
            format!("  ({})", d.aliases)
        };
        println!("  {:<28} {:>16.6} {:<6}{alias}", d.name, v, d.unit);
    }
}

/// Host-noise and failure figures every run reports next to its metrics.
const HOST: &[MetricDef] = &[
    MetricDef {
        name: "host.cpu_s",
        unit: "s",
        aliases: "",
    },
    MetricDef {
        name: "host.steal_share",
        unit: "ratio",
        aliases: "",
    },
    MetricDef {
        name: "host.wall_s",
        unit: "s",
        aliases: "",
    },
    MetricDef {
        name: "ops_failed_ratio",
        unit: "ratio",
        aliases: "",
    },
];

fn main() {
    let run = parse_args();
    println!(
        "perfbench · workload {} · seed {} · {} s · trace {}",
        run.workload,
        run.seed,
        run.seconds,
        if run.trace { "on" } else { "off" }
    );
    let host = host::HostSample::now();
    let mut outcome = catch_unwind(AssertUnwindSafe(|| match run.workload.as_str() {
        "ingest" => runtime::run(&runtime::ingest(), &run),
        "skew_tcp" => runtime::run(&runtime::skew_tcp(), &run),
        _ => analyst::run(&run),
    }))
    .unwrap_or_else(|_| {
        let mut out = Outcome::default();
        out.fail(1, "the workload panicked".into());
        out
    });
    let noise = host.since();
    put(&mut outcome.e2e, "peak_rss_mb", host::peak_rss_mib());
    check_names(&outcome.e2e, END_TO_END);
    check_names(&outcome.layers, PER_LAYER);
    if run.trace {
        put(&mut outcome.layers, "host.cpu_s", noise.cpu_s);
        put(&mut outcome.layers, "host.steal_share", noise.steal_share);
        // A layer the workload bypasses did no work: it reports 0.
        for d in PER_LAYER {
            outcome.layers.entry(d.name.to_string()).or_insert(0.0);
        }
    }
    outcome.attempted = outcome.attempted.max(1);
    for (name, value) in outcome.e2e.iter().chain(&outcome.layers) {
        if !value.is_finite() {
            outcome
                .failures
                .push(format!("metric {name} is not finite"));
            outcome.failed += 1;
        }
    }
    let mut extra = Values::new();
    put(&mut extra, "host.cpu_s", noise.cpu_s);
    put(&mut extra, "host.steal_share", noise.steal_share);
    put(&mut extra, "host.wall_s", noise.wall_s);
    put(
        &mut extra,
        "ops_failed_ratio",
        outcome.failed as f64 / outcome.attempted as f64,
    );

    print_table("end-to-end:", &outcome.e2e, END_TO_END);
    let title = if run.trace {
        "per-layer (traced run):"
    } else {
        "host timings (tracing off, no regression bound):"
    };
    print_table(title, &outcome.layers, PER_LAYER);
    print_table("host and checks:", &extra, HOST);
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }

    let correct = outcome.failed == 0;
    if let Some(path) = &run.out {
        let mut all = outcome.e2e.clone();
        all.extend(outcome.layers.clone());
        all.extend(extra);
        let failures: Vec<String> = outcome.failures.iter().map(|f| json_string(f)).collect();
        let file = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {correct}, \
             \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}\n",
            json_string(&run.workload),
            run.seed,
            run.seconds,
            u8::from(run.trace),
            outcome.attempted,
            outcome.failed,
            failures.join(", "),
            json_metrics(&all, &[END_TO_END, PER_LAYER, HOST]),
        );
        if let Err(e) = std::fs::write(path, file) {
            eprintln!("perfbench: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    let reported = if run.trace {
        json_metrics(&outcome.layers, &[PER_LAYER])
    } else {
        json_metrics(&outcome.e2e, &[END_TO_END])
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {reported}}}",
        outcome.attempted, outcome.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
