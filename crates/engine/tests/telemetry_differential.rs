//! Differential tests pinning the telemetry determinism contract: every
//! simulation artifact — CSV, JSONL job-line sets, snapshots, done-records,
//! resume behavior — is **byte-identical** with telemetry collection on,
//! off, or with the progress heartbeat running, at any thread count.
//!
//! Telemetry may only ever *add* artifacts (`metrics.json`, `progress` and
//! `sink_errors` events, the stderr line); it may never change one.

use std::collections::BTreeSet;
use std::path::PathBuf;

use sops_engine::testkit::{not_progress, sweep_artifacts, tmp_dir};
use sops_engine::{
    run_sweep, CheckpointConfig, EngineConfig, GridSpec, JobSpec, SweepReport, TelemetryConfig,
};

/// A small mixed-algorithm grid exercising every probe family.
fn grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![12],
        lambdas: vec![4.0],
        algorithms: vec![
            "chain".parse().unwrap(),
            "chain-kmc".parse().unwrap(),
            "local".parse().unwrap(),
        ],
        steps: 3_000,
        samples: 3,
        reps: 2,
        ..GridSpec::default()
    }
    .build(11)
}

/// Runs the grid and returns `(report, csv, jsonl line set)`. Line *order*
/// interleaves at >1 thread (stated sink contract), so the set view is the
/// comparable one; progress heartbeats are the one sanctioned addition and
/// are stripped by the filter.
fn run(
    telemetry: TelemetryConfig,
    threads: usize,
    tag: &str,
) -> (SweepReport, String, BTreeSet<String>) {
    sweep_artifacts(
        grid(),
        &EngineConfig {
            threads,
            telemetry,
            ..EngineConfig::default()
        },
        &format!("tel_diff_{tag}"),
        not_progress,
    )
}

#[test]
fn csv_and_jsonl_are_byte_identical_with_telemetry_on_off_and_progress() {
    let (ref_report, ref_csv, ref_lines) = run(TelemetryConfig::disabled(), 1, "ref");
    assert!(ref_report.metrics.is_empty(), "disabled => empty metrics");
    for threads in [1, 2, 4] {
        let (on, csv_on, lines_on) =
            run(TelemetryConfig::default(), threads, &format!("on{threads}"));
        assert_eq!(
            ref_csv, csv_on,
            "CSV must not change (collect, t={threads})"
        );
        assert_eq!(
            ref_lines, lines_on,
            "JSONL set must not change (t={threads})"
        );
        assert!(!on.metrics.is_empty(), "collection must record something");

        let progress = TelemetryConfig {
            progress: true,
            // Long heartbeat: the immediate first beat plus the final beat
            // still cover the emit path without spamming test stderr.
            heartbeat_ms: 60_000,
            ..TelemetryConfig::default()
        };
        let (_, csv_p, lines_p) = run(progress, threads, &format!("prog{threads}"));
        assert_eq!(
            ref_csv, csv_p,
            "CSV must not change (progress, t={threads})"
        );
        assert_eq!(ref_lines, lines_p, "non-progress JSONL set must not change");
    }
}

#[test]
fn progress_mode_emits_progress_events() {
    let dir = tmp_dir("tel_prog_events");
    let events = dir.join("events.jsonl");
    let report = run_sweep(
        grid(),
        &EngineConfig {
            threads: 2,
            events_path: Some(events.clone()),
            telemetry: TelemetryConfig {
                progress: true,
                heartbeat_ms: 60_000,
                ..TelemetryConfig::default()
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(report.is_complete());
    let text = std::fs::read_to_string(&events).unwrap();
    let beats: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"event\":\"progress\""))
        .collect();
    assert!(!beats.is_empty(), "heartbeat must emit progress events");
    let last = beats.last().unwrap();
    assert!(
        last.contains("\"jobs_done\":6,\"jobs_total\":6"),
        "final beat reports the finished sweep: {last}"
    );
    assert!(last.contains("\"work_done\":"), "beats carry work counters");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots (mid-flight checkpoints) and done-records must be bitwise
/// identical with telemetry on and off, and a sweep interrupted with
/// telemetry on must resume (with it off, even) to the reference CSV.
#[test]
fn checkpoints_and_resume_are_byte_identical_with_telemetry_on_and_off() {
    let make_grid = || {
        GridSpec {
            ns: vec![10],
            lambdas: vec![4.0],
            algorithms: vec!["chain".parse().unwrap(), "chain-kmc".parse().unwrap()],
            steps: 4_000,
            samples: 2,
            ..GridSpec::default()
        }
        .build(3)
    };
    let reference = run_sweep(
        make_grid(),
        &EngineConfig {
            threads: 1,
            telemetry: TelemetryConfig::disabled(),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let ref_csv = reference.to_table().to_csv();

    // Interrupt deterministically after 2 checkpoints, once per telemetry
    // setting; the persisted state must match byte for byte.
    let interrupted = |telemetry: TelemetryConfig, tag: &str| -> PathBuf {
        let dir = tmp_dir(tag);
        let report = run_sweep(
            make_grid(),
            &EngineConfig {
                threads: 1,
                checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 1_000)),
                stop_after_checkpoints: Some(2),
                telemetry,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(report.interrupted);
        dir
    };
    let dir_on = interrupted(TelemetryConfig::default(), "tel_ck_on");
    let dir_off = interrupted(TelemetryConfig::disabled(), "tel_ck_off");
    for sub in ["ckpt", "done"] {
        let read_all = |root: &PathBuf| -> Vec<(String, String)> {
            let mut files = Vec::new();
            if let Ok(entries) = std::fs::read_dir(root.join("ckpt").join(sub)) {
                for entry in entries {
                    let path = entry.unwrap().path();
                    files.push((
                        path.file_name().unwrap().to_string_lossy().into_owned(),
                        std::fs::read_to_string(&path).unwrap(),
                    ));
                }
            }
            files.sort();
            files
        };
        let on = read_all(&dir_on);
        assert_eq!(on, read_all(&dir_off), "{sub} files must be bit-identical");
        if sub == "ckpt" {
            assert!(!on.is_empty(), "the interrupt must leave a checkpoint");
        }
    }

    // Resume the telemetry-on interrupt with telemetry *off*: converges to
    // the uninterrupted reference bytes.
    let resumed = run_sweep(
        make_grid(),
        &EngineConfig {
            threads: 1,
            checkpoint: Some(CheckpointConfig::new(dir_on.join("ckpt"), 1_000)),
            telemetry: TelemetryConfig::disabled(),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(ref_csv, resumed.to_table().to_csv());
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
}

/// The merged metrics are themselves deterministic where they promise to
/// be: counters and histograms (integer merges) are identical at any
/// thread count; only wall-clock timers vary run to run.
#[test]
fn metric_counters_are_thread_count_invariant() {
    let (r1, _, _) = run(TelemetryConfig::default(), 1, "inv1");
    let (r4, _, _) = run(TelemetryConfig::default(), 4, "inv4");
    for family in ["chain", "kmc", "local"] {
        assert_eq!(
            r1.metrics.counter(&format!("{family}.jobs")),
            r4.metrics.counter(&format!("{family}.jobs")),
            "{family}.jobs"
        );
        assert_eq!(
            r1.metrics.counter(&format!("{family}.work")),
            r4.metrics.counter(&format!("{family}.work")),
            "{family}.work"
        );
    }
    assert_eq!(r1.metrics.counter("chain.jobs"), 2);
    assert_eq!(r1.metrics.counter("kmc.jobs"), 2);
    assert_eq!(r1.metrics.counter("local.jobs"), 2);
    for hist in [
        "chain.accepted_delta",
        "kmc.dwell",
        "kmc.revalidation_fanout",
    ] {
        let h1 = r1.metrics.histogram(hist).expect(hist);
        let h4 = r4.metrics.histogram(hist).expect(hist);
        assert_eq!(h1.count(), h4.count(), "{hist} count");
        assert_eq!(h1.sum(), h4.sum(), "{hist} sum");
        assert_eq!(h1.min(), h4.min(), "{hist} min");
        assert_eq!(h1.max(), h4.max(), "{hist} max");
    }
    assert!(
        r1.metrics.counter("local.activations") > 0,
        "local probes must flow into the registry"
    );
    assert!(
        r1.metrics.gauge("local.sim_time") > 0.0,
        "local simulated time must be exposed"
    );
}

#[test]
fn sink_error_counts_surface_in_the_report() {
    // Happy path: no errors, no sink_errors event.
    let dir = tmp_dir("tel_sink_ok");
    let events = dir.join("events.jsonl");
    let report = run_sweep(
        GridSpec {
            ns: vec![8],
            steps: 500,
            samples: 1,
            ..GridSpec::default()
        }
        .build(1),
        &EngineConfig {
            threads: 1,
            events_path: Some(events.clone()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.sink_errors, 0);
    let text = std::fs::read_to_string(&events).unwrap();
    assert!(!text.contains("\"event\":\"sink_errors\""));
    assert_eq!(
        report.metrics.counter("sink.errors"),
        0,
        "absent key reads 0"
    );
    assert!(report.metrics.counter("sink.events") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault subsystem obeys the same differential contract as telemetry:
/// an *armed* plan whose rules never match (here: scoped to a job id the
/// sweep doesn't have) leaves every artifact byte-identical to `faults:
/// None`, and the robustness counters stay entirely absent from
/// `metrics.json` — zero adds are dropped, so fault-free documents don't
/// change either.
#[test]
fn an_unmatched_fault_plan_changes_no_artifact() {
    let run_with = |faults: Option<sops_engine::FaultSpec>,
                    tag: &str|
     -> (SweepReport, String, BTreeSet<String>) {
        // Every line counts here (an unmatched plan may not add events
        // either), so keep the full set rather than filtering.
        let (report, csv, lines) = sweep_artifacts(
            grid(),
            &EngineConfig {
                threads: 2,
                faults,
                ..EngineConfig::default()
            },
            &format!("tel_{tag}"),
            |_| true,
        );
        assert!(report.failed.is_empty());
        (report, csv, lines)
    };
    let (ref_report, ref_csv, ref_lines) = run_with(None, "nofault");
    let armed = sops_engine::FaultSpec::new().with(
        "job.step",
        Some(999),
        1..=u64::MAX,
        sops_engine::FaultKind::Panic,
    );
    let (report, csv, lines) = run_with(Some(armed), "armed");
    assert_eq!(ref_csv, csv, "CSV must not change under an unmatched plan");
    assert_eq!(ref_lines, lines, "JSONL set must not change");
    let json = report.metrics_json();
    for key in [
        "fault.injected",
        "job.failed",
        "job.retried",
        "ckpt.retry",
        "ckpt.corrupt_discarded",
    ] {
        assert!(
            !json.contains(key),
            "fault-free metrics.json must not carry {key}"
        );
        assert!(!ref_report.metrics_json().contains(key));
    }
    assert_eq!(
        report.metrics.counter("sink.events"),
        ref_report.metrics.counter("sink.events")
    );
}

#[cfg(target_os = "linux")]
#[test]
fn dropped_event_lines_are_counted_not_swallowed() {
    // /dev/full fails every write with ENOSPC: the whole event stream drops
    // and the report must say so.
    let report = run_sweep(
        GridSpec {
            ns: vec![8],
            steps: 500,
            samples: 1,
            ..GridSpec::default()
        }
        .build(1),
        &EngineConfig {
            threads: 1,
            events_path: Some(PathBuf::from("/dev/full")),
            ..EngineConfig::default()
        },
    );
    let Ok(report) = report else {
        return; // sandboxes may forbid opening device files
    };
    assert!(
        report.is_complete(),
        "a lossy sink must not abort the sweep"
    );
    assert!(report.sink_errors > 0, "dropped lines must be counted");
    assert_eq!(report.metrics.counter("sink.errors"), report.sink_errors);
}
