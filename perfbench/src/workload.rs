//! The three workloads: how each builds its world and its inputs, and
//! how it drives its engine through the public entry points.
//!
//! The world (map, AP placement, key registry) is fixed by
//! [`WORLD_SEED`], so every run builds the same city and `setup_s`
//! measures the same work. The workload seed drives only the inputs:
//! the generated flows, the per-flow simulation sub-streams and the
//! stream's arrivals. Two things that hinge on a handful of draws are
//! part of the world instead: the stream's event timeline and its
//! capacity probe. The engines receive nothing but the generated inputs.

use citymesh_core::{CityExperiment, ExperimentConfig, FaultScenario, HierParams};
use citymesh_dynamics::{ChurnConfig, Timeline};
use citymesh_fleet::{
    generate_flows, run_fleet, FleetConfig, FleetReport, FlowModel, FlowSpec, WorkloadConfig,
};
use citymesh_map::{generate_metro, CityArchetype, CityMap, MetroParams};
use citymesh_stream::{
    generate_stream_flows, run_stream, ArrivalProcess, StreamConfig, StreamReport, StreamWorkload,
};
use citymesh_telemetry::{MetricSet, TelemetryConfig};

/// The seed whose report digests are pinned in [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 42;

/// Seed of every world. Fixed, so that only the inputs vary by run.
pub const WORLD_SEED: u64 = 42;

/// Metro tiles per side at full scale. A 10x10 metro took 58 s to
/// prepare and ran at 37 flows/s, too slow for a repeated run.
const METRO_TILES: usize = 4;

/// Events on the stream's mid-stream timeline.
const STREAM_EVENTS: (usize, usize, usize) = (3, 3, 2);

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fleet engine, downtown, uniform pairs, sealed, cold session cache.
    FleetUniformSealed,
    /// Fleet engine, tiled metro, hierarchical planner.
    MetroHier,
    /// Stream engine, downtown under district blackouts, with churn.
    StreamChurn,
}

/// Input size: the benchmark's own, or a tiny one for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few hundred flows (and a 1x1 metro), for fast self-tests.
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetUniformSealed,
        Workload::MetroHier,
        Workload::StreamChurn,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetUniformSealed => "fleet-uniform-sealed",
            Workload::MetroHier => "metro-hier",
            Workload::StreamChurn => "stream-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Flows per engine call.
    pub fn flows(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::FleetUniformSealed, Scale::Full) => 4_000,
            (Workload::MetroHier, Scale::Full) => 2_000,
            (Workload::StreamChurn, Scale::Full) => 20_000,
            (_, Scale::Tiny) => 300,
        }
    }

    /// The report digest of a 1-worker run at [`DEFAULT_SEED`]: the
    /// behaviour the benchmark holds the engines to.
    pub fn pinned_digest(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Workload::FleetUniformSealed, Scale::Full) => 0x42e6_791f_5924_f2c2,
            (Workload::MetroHier, Scale::Full) => 0xfc20_7e7b_b005_9b4d,
            (Workload::StreamChurn, Scale::Full) => 0x32f1_4854_b01d_da96,
            (Workload::FleetUniformSealed, Scale::Tiny) => 0x562a_47ce_a46e_65e7,
            (Workload::MetroHier, Scale::Tiny) => 0x73d4_8c62_807f_0e9c,
            (Workload::StreamChurn, Scale::Tiny) => 0x95fe_7120_a4fa_4578,
        }
    }

    /// Whether the workload runs the stream engine (else the fleet
    /// engine).
    pub fn is_stream(self) -> bool {
        self == Workload::StreamChurn
    }

    /// Generates the workload's map.
    pub fn map(self, scale: Scale) -> CityMap {
        match self {
            Workload::MetroHier => {
                let tiles = if scale == Scale::Full { METRO_TILES } else { 1 };
                generate_metro(&MetroParams::with_tiles(tiles, tiles), WORLD_SEED)
            }
            _ => CityArchetype::SurveyDowntown.generate(WORLD_SEED),
        }
    }

    /// The experiment configuration the world is prepared with.
    pub fn experiment_config(self) -> ExperimentConfig {
        ExperimentConfig {
            seed: WORLD_SEED,
            faults: self
                .is_stream()
                .then(|| FaultScenario::district_blackouts(1, 100.0)),
            ..ExperimentConfig::default()
        }
    }

    /// Builds the world and the inputs: the whole of what `setup_s`
    /// times.
    pub fn prepare(self, scale: Scale, seed: u64) -> Prepared {
        let mut exp = CityExperiment::prepare(self.map(scale), self.experiment_config());
        match self {
            Workload::FleetUniformSealed => exp.enable_encryption(),
            Workload::MetroHier => exp.enable_hier(&HierParams::default()),
            _ => {}
        }
        let n = self.flows(scale);
        let buildings = exp.map().len();
        let (flows, stream) = match self {
            Workload::FleetUniformSealed | Workload::MetroHier => (
                generate_flows(
                    buildings,
                    &WorkloadConfig {
                        flows: n,
                        model: FlowModel::UniformPairs { rate_hz: 1000.0 },
                        seed,
                    },
                ),
                None,
            ),
            Workload::StreamChurn => {
                let cfg = StreamConfig {
                    workers: 1,
                    servers: 4,
                    seed,
                    queue_capacity: 16,
                    deadline_ms: 60.0,
                    emergency_fraction: 0.1,
                    priority_reserve: 2,
                    ..StreamConfig::default()
                };
                let capacity_hz = probe_capacity_hz(&exp, &cfg);
                let flows = generate_stream_flows(
                    buildings,
                    &StreamWorkload {
                        flows: n,
                        process: ArrivalProcess::Poisson {
                            rate_hz: capacity_hz,
                        },
                        seed,
                    },
                );
                let timeline = stream_timeline(&exp, &flows);
                (flows, Some(StreamInputs { timeline, cfg }))
            }
        };
        Prepared {
            workload: self,
            scale,
            seed,
            exp,
            flows,
            stream,
        }
    }
}

/// The stream's mid-stream events: [`STREAM_EVENTS`] aftershocks,
/// battery waves and crew repairs spread over the arrival span of
/// `flows`. Like the blackout districts, where the events strike is
/// part of the world, drawn from [`WORLD_SEED`]: with only eight
/// events, a per-run draw would swing delivery by more than any change
/// a later PR is asked to detect.
pub fn stream_timeline(exp: &CityExperiment, flows: &[FlowSpec]) -> Timeline {
    let (aftershocks, battery_waves, crew_repairs) = STREAM_EVENTS;
    Timeline::materialize(
        exp,
        &ChurnConfig {
            aftershocks,
            battery_waves,
            crew_repairs,
            horizon_ms: flows.last().map_or(1.0, |f| f.arrival_ms),
            seed: WORLD_SEED,
            ..ChurnConfig::default()
        },
    )
}

/// Estimates the stream's saturation rate with an underload probe:
/// a deep queue and no deadline admit every probe flow, so the modeled
/// mean service time covers the whole sample and
/// `capacity = servers / mean service`. Capacity is a property of the
/// world, so the probe draws from [`WORLD_SEED`]: at 1.0x capacity a
/// per-run probe's few-percent error moved shedding, and with it cost
/// per flow and delivery, from seed to seed.
fn probe_capacity_hz(exp: &CityExperiment, cfg: &StreamConfig) -> f64 {
    let probe_cfg = StreamConfig {
        queue_capacity: 4096,
        deadline_ms: f64::INFINITY,
        seed: WORLD_SEED,
        ..*cfg
    };
    let flows = generate_stream_flows(
        exp.map().len(),
        &StreamWorkload {
            flows: 256,
            process: ArrivalProcess::Poisson { rate_hz: 200.0 },
            seed: WORLD_SEED,
        },
    );
    let empty = Timeline::materialize(
        exp,
        &ChurnConfig {
            aftershocks: 0,
            battery_waves: 0,
            crew_repairs: 0,
            ..ChurnConfig::default()
        },
    );
    let (report, _) = run_stream(exp, &flows, &empty, &probe_cfg, &TelemetryConfig::off());
    let mean_service_ms = report
        .service_ms
        .mean()
        .unwrap_or(probe_cfg.service.base_ms);
    cfg.servers as f64 * 1000.0 / mean_service_ms.max(1e-9)
}

/// The stream engine's extra inputs.
pub struct StreamInputs {
    /// Mid-stream world events.
    pub timeline: Timeline,
    /// Engine configuration (1 worker; callers override `workers`).
    pub cfg: StreamConfig,
}

/// A built world plus the generated inputs of one workload.
pub struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// Its input size.
    pub scale: Scale,
    /// The workload seed the inputs were generated from.
    pub seed: u64,
    /// The prepared world.
    pub exp: CityExperiment,
    /// The generated flows, ascending id.
    pub flows: Vec<FlowSpec>,
    /// The stream engine's timeline and config (stream workloads only).
    pub stream: Option<StreamInputs>,
}

/// What the benchmark reads from an engine call's report.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// The engine's own report digest.
    pub digest: u64,
    /// Flows offered to the engine.
    pub offered: u64,
    /// Flows delivered (and, when sealed, opened). Shed, unroutable,
    /// undelivered and auth-failed flows are all missing from it.
    pub delivered: u64,
    /// Wall seconds inside the engine call, as the engine timed it.
    pub elapsed_secs: f64,
}

impl Report {
    fn fleet(r: &FleetReport) -> Self {
        Report {
            digest: r.digest(),
            offered: r.flows,
            delivered: r.delivered,
            elapsed_secs: r.elapsed_secs,
        }
    }

    fn stream(r: &StreamReport) -> Self {
        Report {
            digest: r.digest(),
            offered: r.offered,
            delivered: r.fleet.delivered,
            elapsed_secs: r.elapsed_secs,
        }
    }

    /// Offered flows per wall second inside the engine call.
    pub fn flows_per_s(&self) -> f64 {
        crate::stats::ratio(self.offered as f64, self.elapsed_secs)
    }
}

impl Prepared {
    /// The fleet engine configuration for `workers` threads.
    pub fn fleet_config(&self, workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            seed: self.seed,
            use_hier_planner: self.workload == Workload::MetroHier,
            encrypted: self.workload == Workload::FleetUniformSealed,
        }
    }

    /// Empties the session-key cache, so a sealed run starts cold.
    pub fn clear_sessions(&self) {
        if let Some(secure) = self.exp.secure_state() {
            secure.clear_sessions();
        }
    }

    /// One untraced engine call on `workers` threads.
    pub fn run(&self, workers: usize) -> Report {
        match &self.stream {
            Some(s) => {
                let cfg = StreamConfig { workers, ..s.cfg };
                let tel = TelemetryConfig::off();
                Report::stream(&run_stream(&self.exp, &self.flows, &s.timeline, &cfg, &tel).0)
            }
            None => {
                self.clear_sessions();
                Report::fleet(&run_fleet(
                    &self.exp,
                    &self.flows,
                    &self.fleet_config(workers),
                ))
            }
        }
    }

    /// One 1-worker stream call with the engine's opt-in metric set on.
    ///
    /// # Panics
    /// Panics on a fleet workload.
    pub fn run_stream_with_metrics(&self) -> (StreamReport, MetricSet) {
        let s = self.stream.as_ref().expect("stream workload");
        let (report, tel) = run_stream(
            &self.exp,
            &self.flows,
            &s.timeline,
            &s.cfg,
            &TelemetryConfig::metrics_only(),
        );
        (report, tel.expect("metrics requested").metrics)
    }
}
