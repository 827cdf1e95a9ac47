//! Self-tests of the benchmark: its definition is well formed and
//! matches `BENCHMARK.json`, and a tiny size of every workload runs,
//! untraced and traced, and passes its output check.

use citymesh_perfbench::catalog::{
    self, benchmark_json, valid_name, valid_unit, END_TO_END, PER_LAYER, WORKLOADS,
};
use citymesh_perfbench::measure::{self, RunOptions};
use citymesh_perfbench::trace;
use citymesh_perfbench::workload::{Scale, Workload, DEFAULT_SEED};

#[test]
fn every_metric_has_a_valid_name_a_unit_and_a_direction() {
    let mut seen = std::collections::HashSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(
            ["higher", "lower"].contains(&m.better.label()),
            "{} needs a direction",
            m.name
        );
        assert!(seen.insert(m.name), "metric {} is listed twice", m.name);
    }
    for name in catalog::STREAM_COUNTS {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is no per-layer metric"
        );
    }
}

#[test]
fn bounds_and_workloads_are_well_formed() {
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.label()), ("s", "lower"));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));

    assert_eq!(WORKLOADS.len(), Workload::ALL.len());
    for ((name, why), w) in WORKLOADS.iter().zip(Workload::ALL) {
        assert_eq!(*name, w.name());
        assert!(valid_name(name));
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
}

#[test]
fn benchmark_json_is_rendered_from_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate BENCHMARK.json with `-- --print-spec`"
    );
}

fn tiny(workload: Workload, seed: u64) -> RunOptions {
    RunOptions {
        workload,
        scale: Scale::Tiny,
        seed,
        seconds: 0.0,
        spans_dir: None,
    }
}

/// The pinned digest at the default seed; equal 1- and 2-worker
/// digests at another.
#[test]
fn tiny_workloads_pass_their_output_check() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, 7] {
            let out = measure::run(&tiny(w, seed));
            assert!(
                out.correct,
                "{} seed {seed}: digest {:x?}, {} of {} calls failed",
                w.name(),
                out.digest,
                out.failed,
                out.attempted
            );
            assert_eq!(out.metrics.len(), END_TO_END.len());
            for (name, value, _) in &out.metrics {
                assert!(*value > 0.0, "{} {name} = {value}", w.name());
            }
        }
    }
}

/// The replay folds to the engine's digest on the fleet workloads, and
/// every per-layer metric is reported on every workload.
#[test]
fn tiny_traced_runs_report_every_layer() {
    for w in Workload::ALL {
        let out = trace::run(&tiny(w, 7));
        assert!(
            out.correct,
            "{}: {} of {} calls failed",
            w.name(),
            out.failed,
            out.attempted
        );
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (name, value, unit) in &out.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{} {name} = {value}",
                w.name()
            );
            if *unit == "ns" || *unit == "s" {
                assert!(*value > 0.0, "{} timing {name} must be measured", w.name());
            }
        }
    }
}

#[test]
fn the_result_line_has_the_four_keys() {
    let line = citymesh_perfbench::json::result_line(
        true,
        3,
        0,
        &[("flows_per_s".to_string(), 1234.5, "1/s")],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"flows_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
    );
}
