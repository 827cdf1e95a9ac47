//! The traced run: per-layer metrics.
//!
//! The fleet engine's serial per-flow loop is replayed from the public
//! per-layer calls — `RouteCache::get_or_plan`, `plan_flow_into` or
//! `plan_flow_hier_into` on a miss, `SecureState::session` on the
//! sealed workload, `simulate_flow_with` or `simulate_flow_secure_with`
//! on the flow's own `DOMAIN_MSG`/`DOMAIN_SIM` sub-streams, and
//! `FleetReport::absorb_outcome` — with one in-memory span per call.
//! On the fleet workloads the replay folds to the engine's own digest,
//! which proves it did the same work.
//!
//! The stream engine has no public per-flow boundary. Its counts come
//! from its `StreamReport` and its opt-in `MetricSet`; its per-layer
//! times come from the same replay over its offered flows against its
//! starting world, which is off the engine's path and is not
//! digest-checked.
//!
//! Calls that are not on a flow's path are re-timed outside the flow
//! spans: each world-build call, `HierPlanner::plan_route_into` and
//! `ApGraph::ideal_hops_to_building_with` on the pairs the replay
//! planned, and `SessionKey::seal_into`/`open_into`. So every timing
//! exists on every workload; counts and ratios come from the
//! workload's own path and read 0 for a layer it bypasses.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use citymesh_core::{
    place_aps, postbox_ap, ApGraph, BuildingGraph, CityExperiment, DeliveryScratch, HierParams,
    HierPlanScratch, HierPlanner, PlanScratch, PlannedFlow, SecureState,
};
use citymesh_fleet::{FleetReport, RouteCache, DOMAIN_MSG, DOMAIN_SIM};
use citymesh_graph::PlannerScratch;
use citymesh_simcore::{split_seed, substream_seed, SimRng};
use citymesh_telemetry::metrics as tm;

use crate::catalog::{self, PER_LAYER};
use crate::measure::{DigestCheck, Outcome, RunOptions};
use crate::stats::{median, quantile_sorted, ratio};
use crate::workload::{self, Prepared, WORLD_SEED};

/// Sub-stream domain `CityExperiment::try_prepare` draws AP placement
/// from; the placement re-timing uses the same one, so it places the
/// same APs.
const DOMAIN_PLACEMENT: u64 = 0xA9;

/// 1-worker/2-worker call pairs behind `fleet.engine.speedup_2w`.
const SPEEDUP_PAIRS: usize = 2;

/// Upper bound on off-path re-timing samples per call kind.
const RETIME_SAMPLES: usize = 2_000;

/// Seal/open round trips re-timed.
const SEAL_SAMPLES: usize = 10_000;

/// Bytes sealed per message, as on the fleet's secure path.
const PAYLOAD_LEN: usize = 64;

/// A layer boundary the replay records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole flow (the root span).
    Flow,
    /// `RouteCache::get_or_plan`.
    Cache,
    /// `plan_flow_into` / `plan_flow_hier_into` on a cache miss.
    Plan,
    /// `SecureState::session` (sealed workload only).
    Session,
    /// `simulate_flow_with` / `simulate_flow_secure_with`.
    Sim,
    /// `FleetReport::absorb_outcome`.
    Absorb,
}

impl Layer {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Flow => "fleet.flow",
            Layer::Cache => "fleet.cache.get_or_plan",
            Layer::Plan => "core.pipeline.plan",
            Layer::Session => "core.secure.session",
            Layer::Sim => "core.sim.deliver",
            Layer::Absorb => "fleet.report.absorb",
        }
    }
}

/// One recorded call: which flow, which layer, which span caused it,
/// and when it ran (ns since the replay began).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Flow id; every span of one flow shares it.
    pub flow: u64,
    /// The layer called.
    pub layer: Layer,
    /// Index of the parent span, `None` for a flow's root span.
    pub parent: Option<u32>,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One replay pass over a workload's flows.
pub struct Replay {
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// The outcomes folded exactly as the fleet engine folds them.
    pub report: FleetReport,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Route-cache hits, misses and final entries.
    pub cache: (u64, u64, u64),
    /// Hierarchical planner queries.
    pub hier_queries: u64,
    /// `(source AP, delivery target, src, dst)` of every planned pair
    /// whose source building has an AP, in planning order.
    pub planned: Vec<(u32, u32, u32, u32)>,
    /// Session calls made and how many of them derived a key.
    pub sessions: (u64, u64),
    /// Sum over flows of broadcasts.
    pub broadcasts: u64,
    /// Sum over flows of send attempts.
    pub attempts: u64,
}

/// Replays the fleet engine's serial loop over `p`'s flows.
pub fn replay(p: &Prepared) -> Replay {
    let exp = &p.exp;
    let cfg = p.fleet_config(1);
    p.clear_sessions();
    let secure = exp.secure_state().filter(|_| cfg.encrypted);
    let cache = RouteCache::new();
    let mut plan_scratch = PlanScratch::new();
    let mut scratch = DeliveryScratch::new();
    let mut report = FleetReport::empty();
    let mut spans: Vec<Span> = Vec::with_capacity(p.flows.len() * 5);
    let mut planned = Vec::new();
    let (mut session_calls, mut derived) = (0u64, 0u64);
    let (mut broadcasts, mut attempts) = (0u64, 0u64);

    let base = Instant::now();
    let now = || base.elapsed().as_nanos() as u64;
    for flow in &p.flows {
        let mut span = |layer, parent, start_ns, end_ns| {
            spans.push(Span {
                flow: flow.id,
                layer,
                parent,
                start_ns,
                end_ns,
            });
            spans.len() as u32 - 1
        };
        let root = span(Layer::Flow, None, now(), 0);

        let mut plan_time = None;
        let cache_start = now();
        let plan = cache.get_or_plan(flow.src, flow.dst, || {
            let start = now();
            let mut plan = PlannedFlow::empty(flow.src, flow.dst);
            if cfg.use_hier_planner {
                exp.plan_flow_hier_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            } else {
                exp.plan_flow_into(flow.src, flow.dst, &mut plan_scratch, &mut plan);
            }
            plan_time = Some((start, now()));
            plan
        });
        let cache_span = span(Layer::Cache, Some(root), cache_start, now());
        if let Some((start, end)) = plan_time {
            span(Layer::Plan, Some(cache_span), start, end);
            if let Some(src_ap) = plan.src_ap {
                planned.push((src_ap, plan.delivery_dst(), plan.src, plan.dst));
            }
        }

        if let Some(secure) = secure {
            let start = now();
            let (_, fresh) = secure.session(flow.src, flow.dst);
            span(Layer::Session, Some(root), start, now());
            session_calls += 1;
            derived += u64::from(fresh);
        }

        let msg_id = substream_seed(cfg.seed, DOMAIN_MSG, flow.id);
        let mut rng = SimRng::new(substream_seed(cfg.seed, DOMAIN_SIM, flow.id));
        let start = now();
        let outcome = if cfg.encrypted {
            exp.simulate_flow_secure_with(&plan, msg_id, &mut rng, &mut scratch)
        } else {
            exp.simulate_flow_with(&plan, msg_id, &mut rng, &mut scratch)
        };
        span(Layer::Sim, Some(root), start, now());
        broadcasts += outcome.broadcasts;
        attempts += u64::from(outcome.attempts);

        let start = now();
        report.absorb_outcome(flow, &outcome);
        span(Layer::Absorb, Some(root), start, now());
        spans[root as usize].end_ns = now();
    }
    let wall_s = base.elapsed().as_secs_f64();
    Replay {
        spans,
        report,
        wall_s,
        cache: (cache.hits(), cache.misses(), cache.len() as u64),
        hier_queries: plan_scratch.hier_stats().queries,
        planned,
        sessions: (session_calls, derived),
        broadcasts,
        attempts,
    }
}

/// Per-layer samples gathered over replay passes: each layer's own
/// time per call (its span minus its child spans), in ns.
#[derive(Default)]
struct SelfTimes {
    by_layer: [Vec<u64>; 6],
}

impl SelfTimes {
    fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(parent) = s.parent {
                child_ns[parent as usize] += s.ns();
            }
        }
        for (s, children) in spans.iter().zip(&child_ns) {
            // The flow span keeps its full duration: it is the whole
            // flow, the denominator of every share.
            let own = if s.layer == Layer::Flow {
                s.ns()
            } else {
                s.ns().saturating_sub(*children)
            };
            self.by_layer[s.layer as usize].push(own);
        }
    }

    fn samples(&self, layer: Layer) -> &[u64] {
        &self.by_layer[layer as usize]
    }

    fn total(&self, layer: Layer) -> f64 {
        self.samples(layer).iter().sum::<u64>() as f64
    }

    fn share(&self, layer: Layer) -> f64 {
        ratio(self.total(layer), self.total(Layer::Flow))
    }
}

/// Pushes `<prefix>.p50`, `.p99` and `.samples` for a set of timings.
fn timing(out: &mut Vec<(&'static str, f64)>, names: [&'static str; 3], samples: &[u64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    out.push((names[0], quantile_sorted(&sorted, 0.5) as f64));
    out.push((names[1], quantile_sorted(&sorted, 0.99) as f64));
    out.push((names[2], sorted.len() as f64));
}

/// Median seconds of up to three calls of `f`, stopping early once a
/// second has gone; returns it with the last call's value.
fn retime<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() == 3 || started.elapsed().as_secs_f64() > 1.0 {
            return (median(&times), value);
        }
    }
}

/// Times `f` once per item, in ns.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> Vec<u64> {
    items
        .iter()
        .map(|item| {
            let t = Instant::now();
            f(item);
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Re-times each public world-build call on the workload's world, and
/// returns the pieces the off-path re-timings need.
fn world_build(
    p: &Prepared,
    out: &mut Vec<(&'static str, f64)>,
) -> (BuildingGraph, HierPlanner, SecureState) {
    let w = p.workload;
    let cfg = w.experiment_config();
    let (gen_s, map) = retime(|| w.map(p.scale));
    let (place_s, aps) = retime(|| {
        let mut rng = SimRng::new(split_seed(cfg.seed, DOMAIN_PLACEMENT));
        place_aps(&map, cfg.m2_per_ap, &mut rng)
    });
    assert_eq!(
        aps.len(),
        p.exp.aps().len(),
        "re-timed placement must match the world's"
    );
    let (postbox_s, _) = retime(|| {
        (0..map.len() as u32)
            .map(|b| postbox_ap(&aps, &map, b))
            .collect::<Vec<_>>()
    });
    let (apg_s, apg) = retime(|| ApGraph::build(&aps, cfg.range_m));
    let (bg_s, bg) = retime(|| BuildingGraph::build(&map, cfg.graph));
    let (hier_s, hier) = retime(|| HierPlanner::build(&bg, &HierParams::default()));
    let (registry_s, secure) = retime(|| SecureState::new(WORLD_SEED, map.len()));
    let (timeline_s, _) = retime(|| workload::stream_timeline(&p.exp, &p.flows));
    out.extend([
        ("map.gen_s", gen_s),
        ("core.placement.place_aps_s", place_s),
        ("core.placement.postbox_s", postbox_s),
        ("core.apgraph.build_s", apg_s),
        ("core.apgraph.bytes", apg.memory_bytes() as f64),
        ("core.buildgraph.build_s", bg_s),
        ("core.buildgraph.bytes", bg.memory_bytes() as f64),
        ("core.hier.build_s", hier_s),
        ("core.hier.bytes", hier.memory_bytes() as f64),
        ("core.secure.registry_s", registry_s),
        ("dynamics.timeline_s", timeline_s),
    ]);
    (bg, hier, secure)
}

/// Re-times the calls that are not on a flow's path, on the pairs the
/// first replay pass planned.
fn off_path(
    exp: &CityExperiment,
    first: &Replay,
    bg: &BuildingGraph,
    hier: &HierPlanner,
    secure: &SecureState,
    on_path_sessions: bool,
    out: &mut Vec<(&'static str, f64)>,
) -> Vec<u64> {
    let pairs = &first.planned[..first.planned.len().min(RETIME_SAMPLES)];

    let planner = exp.hier_planner().unwrap_or(hier);
    let (mut hier_scratch, mut route) = (HierPlanScratch::new(), Vec::new());
    let hier_ns = time_each(pairs, |&(_, target, src, _)| {
        // Unroutable pairs are timed too: the planner did the search.
        black_box(planner.plan_route_into(bg, src, target, &mut hier_scratch, &mut route)).ok();
    });
    timing(
        out,
        [
            "core.hier.route_ns.p50",
            "core.hier.route_ns.p99",
            "core.hier.route_ns.samples",
        ],
        &hier_ns,
    );

    let mut search = PlannerScratch::new();
    let hops_ns = time_each(pairs, |&(src_ap, target, _, _)| {
        black_box(
            exp.ap_graph()
                .ideal_hops_to_building_with(src_ap, target, &mut search),
        );
    });
    timing(
        out,
        [
            "core.apgraph.ideal_hops_ns.p50",
            "core.apgraph.ideal_hops_ns.p99",
            "core.apgraph.ideal_hops_ns.samples",
        ],
        &hops_ns,
    );

    // On the plaintext workloads the session layer is off the path:
    // derive each planned pair's key from a fresh registry.
    let session_ns = if on_path_sessions {
        Vec::new()
    } else {
        time_each(pairs, |&(_, _, src, dst)| {
            black_box(secure.session(src, dst));
        })
    };

    let (key, _) = secure.session(0, 1);
    let payload = vec![0x5Au8; PAYLOAD_LEN];
    let aad = [0u8; 16];
    let (mut sealed, mut opened) = (Vec::new(), Vec::new());
    let ids: Vec<u64> = (0..SEAL_SAMPLES as u64).collect();
    let seal_ns = time_each(&ids, |&id| {
        key.seal_into(id, &aad, black_box(&payload), &mut sealed);
        key.open_into(id, &aad, black_box(&sealed), &mut opened)
            .expect("a fresh seal opens");
    });
    timing(
        out,
        [
            "crypto.seal_open_ns.p50",
            "crypto.seal_open_ns.p99",
            "crypto.seal_open_ns.samples",
        ],
        &seal_ns,
    );
    session_ns
}

/// Writes spans as tab-separated `span parent flow layer start_ns end_ns`
/// to `<dir>/<workload>-seed<seed>.tsv`.
fn write_spans(dir: &Path, p: &Prepared, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", p.workload.name(), p.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "span\tparent\tflow\tlayer\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            f,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.flow,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()
}

/// The traced run: the per-layer metrics.
///
/// Like the untraced run it fits in `--seconds`: after the fixed part
/// (engine calls, one replay pass, the off-path re-timings), replay
/// passes repeat only while the window has room for one more.
pub fn run(opts: &RunOptions) -> Outcome {
    let started = Instant::now();
    let p = opts.workload.prepare(opts.scale, opts.seed);
    let mut check = DigestCheck::new(&p);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Untraced engine calls: the digest to reproduce, the baseline wall
    // time, and the 2-worker speedup.
    check.call(p.run(1).digest);
    let (mut one_wall, mut speedups) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_PAIRS {
        let one = p.run(1);
        let two = p.run(2);
        check.call(one.digest);
        check.call(two.digest);
        one_wall.push(one.elapsed_secs);
        speedups.push(ratio(two.flows_per_s(), one.flows_per_s()));
    }
    let untraced_wall = median(&one_wall);
    out.push(("fleet.engine.speedup_2w", median(&speedups)));

    let mut times = SelfTimes::default();
    let mut pass = || {
        let pass_started = Instant::now();
        let r = replay(&p);
        if !p.workload.is_stream() {
            check.call(r.report.digest());
        }
        times.add(&r.spans);
        (r, pass_started.elapsed())
    };
    let (first, mut last) = pass();

    let (bg, hier, secure) = world_build(&p, &mut out);
    let sealed = p.fleet_config(1).encrypted;
    let off_path_sessions = off_path(&p.exp, &first, &bg, &hier, &secure, sealed, &mut out);

    while started.elapsed() + last < opts.window() {
        last = pass().1;
    }

    let session_ns = if sealed {
        times.samples(Layer::Session)
    } else {
        &off_path_sessions
    };
    for (names, samples) in [
        (
            [
                "fleet.flow_ns.p50",
                "fleet.flow_ns.p99",
                "fleet.flow_ns.samples",
            ],
            times.samples(Layer::Flow),
        ),
        (
            [
                "fleet.cache.lookup_ns.p50",
                "fleet.cache.lookup_ns.p99",
                "fleet.cache.lookup_ns.samples",
            ],
            times.samples(Layer::Cache),
        ),
        (
            [
                "core.pipeline.plan_ns.p50",
                "core.pipeline.plan_ns.p99",
                "core.pipeline.plan_ns.samples",
            ],
            times.samples(Layer::Plan),
        ),
        (
            [
                "core.sim.deliver_ns.p50",
                "core.sim.deliver_ns.p99",
                "core.sim.deliver_ns.samples",
            ],
            times.samples(Layer::Sim),
        ),
        (
            [
                "core.secure.session_ns.p50",
                "core.secure.session_ns.p99",
                "core.secure.session_ns.samples",
            ],
            session_ns,
        ),
        (
            [
                "fleet.report.absorb_ns.p50",
                "fleet.report.absorb_ns.p99",
                "fleet.report.absorb_ns.samples",
            ],
            times.samples(Layer::Absorb),
        ),
    ] {
        timing(&mut out, names, samples);
    }
    out.extend([
        ("core.pipeline.plan_share", times.share(Layer::Plan)),
        ("core.sim.share", times.share(Layer::Sim)),
        ("core.secure.share", times.share(Layer::Session)),
    ]);

    // Counts and ratios from the workload's own path.
    let overhead = match &p.stream {
        None => {
            let r = &first.report;
            let (hits, misses, entries) = first.cache;
            let (calls, derived) = first.sessions;
            out.extend([
                ("fleet.cache.hits", hits as f64),
                ("fleet.cache.misses", misses as f64),
                (
                    "fleet.cache.hit_ratio",
                    ratio(hits as f64, (hits + misses) as f64),
                ),
                ("fleet.cache.entries", entries as f64),
                ("core.hier.queries", first.hier_queries as f64),
                (
                    "core.sim.broadcasts_per_flow",
                    ratio(first.broadcasts as f64, r.flows as f64),
                ),
                (
                    "core.sim.attempts_per_flow",
                    ratio(first.attempts as f64, r.flows as f64),
                ),
                (
                    "core.sim.delivered_per_attempt",
                    ratio(r.delivered as f64, first.attempts as f64),
                ),
                ("core.secure.derived", derived as f64),
                (
                    "core.secure.hit_ratio",
                    ratio((calls - derived) as f64, calls as f64),
                ),
                (
                    "core.secure.sessions",
                    p.exp.secure_state().map_or(0, |s| s.sessions()) as f64,
                ),
                ("core.faults.retried", r.retried as f64),
                ("core.faults.recovered", r.recovered as f64),
            ]);
            out.extend(catalog::STREAM_COUNTS.iter().map(|&name| (name, 0.0)));
            ratio(first.wall_s, untraced_wall)
        }
        Some(_) => {
            let (r, m) = p.run_stream_with_metrics();
            check.call(r.digest());
            let f = &r.fleet;
            let flows = m.counter(tm::FLOWS) as f64;
            let attempts = m.counter(tm::ATTEMPTS) as f64;
            let derived = m.counter(tm::KEYS_DERIVED);
            out.extend([
                ("fleet.cache.hits", f.cache_hits as f64),
                ("fleet.cache.misses", f.cache_misses as f64),
                (
                    "fleet.cache.hit_ratio",
                    ratio(f.cache_hits as f64, (f.cache_hits + f.cache_misses) as f64),
                ),
                // One worker: every miss inserted one entry, every
                // eviction removed one.
                (
                    "fleet.cache.entries",
                    f.cache_misses.saturating_sub(r.routes_evicted) as f64,
                ),
                ("core.hier.queries", m.counter(tm::HIER_QUERIES) as f64),
                (
                    "core.sim.broadcasts_per_flow",
                    ratio(m.counter(tm::BROADCASTS) as f64, flows),
                ),
                ("core.sim.attempts_per_flow", ratio(attempts, flows)),
                (
                    "core.sim.delivered_per_attempt",
                    ratio(m.counter(tm::DELIVERED) as f64, attempts),
                ),
                ("core.secure.derived", derived as f64),
                ("core.secure.hit_ratio", 0.0),
                ("core.secure.sessions", 0.0),
                ("core.faults.retried", f.retried as f64),
                ("core.faults.recovered", f.recovered as f64),
                ("stream.shed_backpressure", r.shed_backpressure as f64),
                ("stream.shed_deadline", r.shed_deadline as f64),
                ("stream.shed_rate", r.shed_rate()),
                ("stream.emergency_shed_rate", r.emergency_shed_rate()),
                ("stream.degraded_tracing", r.degraded_tracing as f64),
                ("stream.degraded_retry", r.degraded_retry as f64),
                ("stream.max_depth", r.max_depth as f64),
                (
                    "stream.wait_ms_p99",
                    r.wait_ms.quantile(0.99).unwrap_or(0.0),
                ),
                (
                    "stream.sojourn_ms_p50",
                    r.sojourn_quantile(0.5).unwrap_or(0.0),
                ),
                (
                    "stream.sojourn_ms_p99",
                    r.sojourn_quantile(0.99).unwrap_or(0.0),
                ),
                ("dynamics.events_applied", r.events_applied as f64),
                ("dynamics.routes_evicted", r.routes_evicted as f64),
            ]);
            // Tracing overhead of the stream engine's own opt-in
            // metric set.
            ratio(r.elapsed_secs, untraced_wall)
        }
    };
    out.push(("trace.overhead_ratio", overhead));

    if let Some(dir) = &opts.spans_dir {
        if let Err(e) = write_spans(dir, &p, &first.spans) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }

    let correct = check.failed == 0;
    Outcome {
        correct,
        attempted: check.attempted,
        failed: check.failed,
        digest: check.first,
        metrics: if correct {
            catalog::emit(PER_LAYER, &out)
        } else {
            Vec::new()
        },
    }
}
