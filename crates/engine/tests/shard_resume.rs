//! Checkpoint/resume across shard counts: the shard worker count is an
//! execution detail, not simulation state. A `local-sharded` job
//! checkpointed mid-flight at one shard count must resume at any *other*
//! shard count and land on byte-identical final artifacts, because the
//! snapshot format (`sops-sharded-snapshot v1`) carries no RNG state and
//! no shard count — the trajectory is a pure function of the spec.
//!
//! A `local` job on two shard workers pipelines its Poisson-clock schedule
//! with its activations; its CSV, counters and checkpoints are the same
//! bytes as inline, and its checkpoints resume at either count.

use std::collections::BTreeMap;
use std::path::Path;

use sops_engine::testkit::tmp_dir;
use sops_engine::{
    run_sweep, Algorithm, CheckpointConfig, EngineConfig, GridSpec, JobSpec, SweepReport,
};

/// Two sharded jobs plus a chain sibling: enough to catch a resume that
/// mixes up per-job state, small enough to re-run at several shard counts.
fn grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![18, 30],
        lambdas: vec![4.0],
        algorithms: vec![Algorithm::LocalSharded, Algorithm::CHAIN],
        steps: 2_000,
        burnin: 400,
        samples: 3,
        ..GridSpec::default()
    }
    .build(31)
}

fn cfg(shards: usize) -> EngineConfig {
    EngineConfig {
        threads: 2,
        shards,
        ..EngineConfig::default()
    }
}

/// Completed sweeps are byte-identical at any shard count — the whole
/// point of the checkerboard-synchronous schedule.
#[test]
fn complete_sweeps_are_byte_identical_at_any_shard_count() {
    let reference = run_sweep(grid(), &cfg(1)).unwrap();
    assert!(reference.is_complete());
    let ref_csv = reference.to_table().to_csv();
    for shards in [2, 3, 8] {
        let report = run_sweep(grid(), &cfg(shards)).unwrap();
        assert!(report.is_complete());
        assert_eq!(
            report.to_table().to_csv(),
            ref_csv,
            "CSV bytes differ at {shards} shard workers"
        );
    }
}

/// Interrupt at 4 shard workers, resume at 2, compare against an
/// uninterrupted 1-worker run: all three paths converge to the same bytes,
/// and the persisted snapshot mentions no worker count it could pin.
#[test]
fn resume_at_a_different_shard_count_is_byte_identical() {
    let reference = run_sweep(grid(), &cfg(1)).unwrap();
    assert!(reference.is_complete());
    let ref_csv = reference.to_table().to_csv();

    let dir = tmp_dir("shard_resume");
    let interrupted = run_sweep(
        grid(),
        &EngineConfig {
            checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 500)),
            stop_after_checkpoints: Some(2),
            ..cfg(4)
        },
    )
    .unwrap();
    assert!(interrupted.interrupted, "stop_after must interrupt");

    // The sharded jobs' snapshots are portable: versioned header, no shard
    // or worker count anywhere in the text. (Which jobs checkpointed first
    // is scheduling-dependent, so scan the store rather than pinning ids.)
    let snaps: Vec<String> = std::fs::read_dir(dir.join("ckpt").join("ckpt"))
        .expect("the interrupt must leave checkpoints")
        .map(|e| std::fs::read_to_string(e.unwrap().path()).unwrap())
        .filter(|s| s.contains("sops-sharded-snapshot v1"))
        .collect();
    assert!(
        !snaps.is_empty(),
        "a sharded job must have checkpointed mid-flight"
    );
    for snap in &snaps {
        assert!(
            !snap.contains("shards=") && !snap.contains("workers"),
            "snapshots must not record an execution-only worker count:\n{snap}"
        );
    }

    let resumed = run_sweep(
        grid(),
        &EngineConfig {
            checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 500)),
            ..cfg(2)
        },
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert!(
        resumed.reused < grid().len(),
        "at least one job must actually resume from mid-flight state"
    );
    assert_eq!(
        resumed.to_table().to_csv(),
        ref_csv,
        "resuming at 2 workers must reproduce the 1-worker bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two `local` jobs, whose stepping chunks of 500 rounds hold enough
/// events to pipeline on two workers, and a chain sibling.
fn local_grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![30, 60],
        lambdas: vec![4.0],
        algorithms: vec!["local".parse().unwrap(), Algorithm::CHAIN],
        steps: 1_000,
        samples: 2,
        ..GridSpec::default()
    }
    .build(37)
}

/// One worker thread, so that which jobs have checkpointed at an
/// interrupt does not depend on scheduling.
fn local_cfg(shards: usize, store: Option<&Path>) -> EngineConfig {
    EngineConfig {
        threads: 1,
        checkpoint: store.map(|dir| CheckpointConfig::new(dir, 500)),
        ..cfg(shards)
    }
}

/// The sweep's counters, wall-clock timers left out.
fn counters(report: &SweepReport) -> BTreeMap<String, u64> {
    report
        .metrics
        .counters()
        .filter(|(key, _)| !key.ends_with("_ns"))
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

/// Every file of a checkpoint store's `ckpt/` and `done/`, by path.
fn store_files(store: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for sub in ["ckpt", "done"] {
        for entry in std::fs::read_dir(store.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            let name = format!("{sub}/{}", path.file_name().unwrap().to_string_lossy());
            files.insert(name, std::fs::read(&path).unwrap());
        }
    }
    files
}

#[test]
fn local_jobs_are_byte_identical_inline_and_pipelined() {
    let inline = run_sweep(local_grid(), &local_cfg(1, None)).unwrap();
    let pipelined = run_sweep(local_grid(), &local_cfg(2, None)).unwrap();
    assert!(inline.is_complete() && pipelined.is_complete());
    let ref_csv = inline.to_table().to_csv();
    assert_eq!(pipelined.to_table().to_csv(), ref_csv, "CSV bytes differ");
    assert_eq!(counters(&pipelined), counters(&inline), "counters differ");
    assert!(counters(&inline)["local.activations"] > 0);
    assert_eq!(
        pipelined.metrics.gauge("local.sim_time").to_bits(),
        inline.metrics.gauge("local.sim_time").to_bits()
    );

    // Interrupted at the same checkpoint, both leave the same store bytes.
    let dir = tmp_dir("shard_resume_local");
    let mut stores = Vec::new();
    for shards in [1, 2] {
        let store = dir.join(format!("ckpt{shards}"));
        let interrupted = run_sweep(
            local_grid(),
            &EngineConfig {
                stop_after_checkpoints: Some(3),
                ..local_cfg(shards, Some(&store))
            },
        )
        .unwrap();
        assert!(interrupted.interrupted, "stop_after must interrupt");
        stores.push(store);
    }
    let files = store_files(&stores[0]);
    assert!(
        files
            .values()
            .any(|f| String::from_utf8_lossy(f).contains("sops-local-snapshot v1")),
        "a local job must have checkpointed mid-flight"
    );
    assert_eq!(store_files(&stores[1]), files, "checkpoint bytes differ");

    // Each store resumes at the other count to the uninterrupted bytes.
    for (store, shards) in [(&stores[0], 2), (&stores[1], 1)] {
        let resumed = run_sweep(local_grid(), &local_cfg(shards, Some(store))).unwrap();
        assert!(resumed.is_complete());
        assert!(resumed.reused < local_grid().len());
        assert_eq!(
            resumed.to_table().to_csv(),
            ref_csv,
            "resumed at {shards} shard workers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
