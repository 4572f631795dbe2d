//! Schema validation of the `metrics.json` artifact.
//!
//! The document contract (`sops-metrics-v1`, see `docs/OBSERVABILITY.md`)
//! is checked by `sops_telemetry::validate_metrics` — a hand-rolled JSON
//! parser, so CI needs no external tooling. The same checker doubles as
//! CI's artifact gate: when the `SOPS_METRICS_CHECK` environment variable
//! points at a file, [`ci_metrics_artifact_is_valid`] validates it.

use sops_engine::{run_sweep, EngineConfig, GridSpec};
use sops_telemetry::{parse, validate_metrics};

fn report_json() -> String {
    run_sweep(
        GridSpec {
            ns: vec![10],
            lambdas: vec![4.0],
            algorithms: vec![
                "chain".parse().unwrap(),
                "local".parse().unwrap(),
                "local-sharded".parse().unwrap(),
            ],
            steps: 2_000,
            samples: 2,
            ..GridSpec::default()
        }
        .build(5),
        &EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .metrics_json()
}

#[test]
fn sweep_metrics_json_validates_against_the_schema() {
    let json = report_json();
    validate_metrics(&json).expect("schema-valid metrics.json");
}

#[test]
fn sweep_metrics_json_carries_the_documented_keys() {
    let json = report_json();
    let doc = parse(&json).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|v| match v {
            sops_telemetry::Value::Str(s) => Some(s.as_str()),
            _ => None,
        }),
        Some(sops_telemetry::SCHEMA)
    );
    let counters = doc.get("counters").expect("counters section");
    for key in [
        "sweep.jobs",
        "chain.jobs",
        "chain.work",
        "chain.accepted",
        "local.jobs",
        "local.work",
        "local.activations",
        "time.step.chain_ns",
        "time.step.local_ns",
        "local-sharded.work",
        "time.step.local-sharded_ns",
        "phase.setup_calls",
    ] {
        assert!(
            counters.get(key).is_some(),
            "metrics.json must carry counter {key}; got:\n{json}"
        );
    }
    let gauges = doc.get("gauges").expect("gauges section");
    for key in [
        "local.sim_time",
        "rate.chain.steps_per_sec",
        "rate.chain.acceptance",
        "rate.local.steps_per_sec",
        "rate.local-sharded.steps_per_sec",
    ] {
        assert!(
            gauges.get(key).is_some(),
            "metrics.json must carry gauge {key}; got:\n{json}"
        );
    }
    let hists = doc.get("histograms").expect("histograms section");
    let delta = hists.get("chain.accepted_delta").expect("accepted_delta");
    let count = delta.get("count").and_then(sops_telemetry::Value::as_f64);
    assert!(
        count.is_some_and(|c| c > 0.0),
        "accepted moves were observed"
    );
    // Acceptance rate is a probability.
    let rate = gauges
        .get("rate.chain.acceptance")
        .and_then(sops_telemetry::Value::as_f64)
        .unwrap();
    assert!(rate > 0.0 && rate <= 1.0, "acceptance in (0,1]: {rate}");
}

/// CI hook: `SOPS_METRICS_CHECK=<path> cargo test -p sops-engine
/// ci_metrics_artifact` validates an on-disk `metrics.json` produced by a
/// real CLI run. A no-op when the variable is unset (local runs).
#[test]
fn ci_metrics_artifact_is_valid() {
    let Ok(path) = std::env::var("SOPS_METRICS_CHECK") else {
        return;
    };
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("SOPS_METRICS_CHECK={path}: {e}"));
    validate_metrics(&text).unwrap_or_else(|e| panic!("{path} violates the schema: {e}"));
    let doc = parse(&text).unwrap();
    let counters = doc.get("counters").expect("counters section");
    assert!(
        counters.get("sweep.jobs").is_some(),
        "{path} must record sweep.jobs"
    );
}
