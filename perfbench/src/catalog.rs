//! The benchmark's definition: its command, workloads and metric
//! names, in one place.
//!
//! `BENCHMARK.json` at the repository root is rendered from this module
//! ([`benchmark_json`]) and a self-test keeps the two byte-identical,
//! so the metrics the binary prints and the metrics the file declares
//! cannot drift apart. Run
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --print-spec`
//! to regenerate the file after editing this module.

/// Whether a larger value of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit ratios).
    Higher,
    /// Smaller is better (times, memory).
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: its name, unit and better-direction, plus the
/// regression bound for end-to-end metrics.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed next to every value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected. `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The program and arguments that run one benchmark run; the caller
/// appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 38;

/// Workload names and why each was chosen (one line each).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fleet-uniform-sealed",
        "Fleet, downtown, uniform pairs, sealed, cold sessions: ~99% cache misses, each a flat plan \
         + X25519/HKDF derive; core.secure ~50%. speedup_2w is per-layer: 2-worker rates too noisy.",
    ),
    (
        "metro-hier",
        "Fleet engine, 4x4 tiled metro (21,927 buildings), hier planner: core.pipeline planning \
         dominates (~89%), setup ~1.1 s; cache hits bypassed. 10x10 took 58 s to prepare.",
    ),
    (
        "stream-churn",
        "Stream engine, downtown blackouts, Poisson at 1.0x probed capacity, 8 mid-stream events: \
         sole user of admission, degradation, barriers, retries; core.sim ~66% in an off-engine replay.",
    ),
];

/// End-to-end metrics: printed by every untraced run, on every
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("flows_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.05),
    e2e("delivery_rate", "ratio", Higher, 0.05),
];

/// Per-layer metrics: printed by every traced run, on every workload.
///
/// Layer names are the repository's module names. Timings (`_s`,
/// `_ns`) are measured on every workload — on the flow path where the
/// workload uses the layer, off it otherwise. Counts and ratios come
/// from the workload's own path only, so a layer the workload bypasses
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // World build, re-timed call by call through the public entry points.
    layer("map.gen_s", "s", Lower),
    layer("core.placement.place_aps_s", "s", Lower),
    layer("core.placement.postbox_s", "s", Lower),
    layer("core.apgraph.build_s", "s", Lower),
    layer("core.apgraph.bytes", "bytes", Lower),
    layer("core.buildgraph.build_s", "s", Lower),
    layer("core.buildgraph.bytes", "bytes", Lower),
    layer("core.hier.build_s", "s", Lower),
    layer("core.hier.bytes", "bytes", Lower),
    layer("core.secure.registry_s", "s", Lower),
    layer("dynamics.timeline_s", "s", Lower),
    // The replayed per-flow path.
    layer("fleet.flow_ns.p50", "ns", Lower),
    layer("fleet.flow_ns.p99", "ns", Lower),
    layer("fleet.flow_ns.samples", "count", Higher),
    layer("fleet.cache.lookup_ns.p50", "ns", Lower),
    layer("fleet.cache.lookup_ns.p99", "ns", Lower),
    layer("fleet.cache.lookup_ns.samples", "count", Higher),
    layer("fleet.cache.hits", "count", Higher),
    layer("fleet.cache.misses", "count", Lower),
    layer("fleet.cache.hit_ratio", "ratio", Higher),
    layer("fleet.cache.entries", "count", Lower),
    layer("core.pipeline.plan_ns.p50", "ns", Lower),
    layer("core.pipeline.plan_ns.p99", "ns", Lower),
    layer("core.pipeline.plan_ns.samples", "count", Higher),
    layer("core.pipeline.plan_share", "ratio", Lower),
    layer("core.hier.route_ns.p50", "ns", Lower),
    layer("core.hier.route_ns.p99", "ns", Lower),
    layer("core.hier.route_ns.samples", "count", Higher),
    layer("core.hier.queries", "count", Lower),
    layer("core.apgraph.ideal_hops_ns.p50", "ns", Lower),
    layer("core.apgraph.ideal_hops_ns.p99", "ns", Lower),
    layer("core.apgraph.ideal_hops_ns.samples", "count", Higher),
    layer("core.sim.deliver_ns.p50", "ns", Lower),
    layer("core.sim.deliver_ns.p99", "ns", Lower),
    layer("core.sim.deliver_ns.samples", "count", Higher),
    layer("core.sim.share", "ratio", Lower),
    layer("core.sim.broadcasts_per_flow", "count", Lower),
    layer("core.sim.attempts_per_flow", "count", Lower),
    layer("core.sim.delivered_per_attempt", "ratio", Higher),
    layer("core.secure.session_ns.p50", "ns", Lower),
    layer("core.secure.session_ns.p99", "ns", Lower),
    layer("core.secure.session_ns.samples", "count", Higher),
    layer("core.secure.share", "ratio", Lower),
    layer("core.secure.derived", "count", Lower),
    layer("core.secure.hit_ratio", "ratio", Higher),
    layer("core.secure.sessions", "count", Lower),
    layer("crypto.seal_open_ns.p50", "ns", Lower),
    layer("crypto.seal_open_ns.p99", "ns", Lower),
    layer("crypto.seal_open_ns.samples", "count", Higher),
    layer("fleet.report.absorb_ns.p50", "ns", Lower),
    layer("fleet.report.absorb_ns.p99", "ns", Lower),
    layer("fleet.report.absorb_ns.samples", "count", Higher),
    // Stream-engine counters (StreamReport and its opt-in MetricSet);
    // sojourn and wait are modeled virtual time, not wall time.
    layer("stream.shed_backpressure", "count", Lower),
    layer("stream.shed_deadline", "count", Lower),
    layer("stream.shed_rate", "ratio", Lower),
    layer("stream.emergency_shed_rate", "ratio", Lower),
    layer("stream.degraded_tracing", "count", Lower),
    layer("stream.degraded_retry", "count", Lower),
    layer("stream.max_depth", "count", Lower),
    layer("stream.wait_ms_p99", "model_ms", Lower),
    layer("stream.sojourn_ms_p50", "model_ms", Lower),
    layer("stream.sojourn_ms_p99", "model_ms", Lower),
    layer("dynamics.events_applied", "count", Lower),
    layer("dynamics.routes_evicted", "count", Lower),
    layer("core.faults.retried", "count", Lower),
    layer("core.faults.recovered", "count", Higher),
    // Engine-level figures measured in the traced process.
    layer("fleet.engine.speedup_2w", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The per-layer counts only the stream engine produces; 0 on the fleet
/// workloads, which bypass admission, degradation and churn.
pub const STREAM_COUNTS: &[&str] = &[
    "stream.shed_backpressure",
    "stream.shed_deadline",
    "stream.shed_rate",
    "stream.emergency_shed_rate",
    "stream.degraded_tracing",
    "stream.degraded_retry",
    "stream.max_depth",
    "stream.wait_ms_p99",
    "stream.sojourn_ms_p50",
    "stream.sojourn_ms_p99",
    "dynamics.events_applied",
    "dynamics.routes_evicted",
];

/// Pairs every metric of `defs` with its value from `values`, in
/// catalogue order, as `(name, value, unit)`.
///
/// # Panics
/// Panics when a metric of `defs` has no value, or a value names no
/// metric of `defs`: either is a benchmark bug, caught by the
/// self-tests.
pub fn emit(defs: &[MetricDef], values: &[(&str, f64)]) -> Vec<(String, f64, &'static str)> {
    for (name, _) in values {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "value for unknown metric {name}"
        );
    }
    defs.iter()
        .map(|d| {
            let matches: Vec<f64> = values
                .iter()
                .filter(|(name, _)| *name == d.name)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(
                matches.len(),
                1,
                "metric {} needs exactly one value",
                d.name
            );
            (d.name.to_string(), matches[0], d.unit)
        })
        .collect()
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders `BENCHMARK.json` from this module.
pub fn benchmark_json() -> String {
    let q = |s: &str| crate::json::quote(s);
    let list = |items: &[&str]| items.iter().map(|s| q(s)).collect::<Vec<_>>().join(", ");
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", list(COMMAND));
    out += &format!("  \"paths\": [{}],\n", list(PATHS));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", q(name), q(why)))
        .collect();
    out += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let metrics = |defs: &[MetricDef]| {
        defs.iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map(|b| format!(", \"bound\": {b}"))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    q(m.name),
                    q(m.unit),
                    q(m.better.label())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out += &format!("  \"end_to_end\": [\n{}\n  ],\n", metrics(END_TO_END));
    out += &format!("  \"per_layer\": [\n{}\n  ]\n", metrics(PER_LAYER));
    out += "}\n";
    out
}
