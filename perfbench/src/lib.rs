//! citymesh-perfbench: the repository's benchmark.
//!
//! Three workloads drive the CityMesh engines through their public entry
//! points (`run_fleet`, `run_stream`) and check every engine call's
//! report digest. An untraced run ([`measure::run`]) reports the
//! end-to-end metrics; a traced run ([`trace::run`]) replays the fleet
//! engine's per-flow loop from the public per-layer calls and reports
//! per-layer metrics. [`catalog`] names them all, and `BENCHMARK.json`
//! is rendered from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod json;
pub mod measure;
pub mod stats;
pub mod trace;
pub mod workload;
