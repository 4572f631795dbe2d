//! Integration tests for the execution engine's two core guarantees:
//! thread-count independence and interruption transparency.

use std::path::PathBuf;

use sops::prelude::*;
use sops_engine::ablation::{AblationChain, Guards};
use sops_engine::testkit::fnv;
use sops_engine::{run_sweep, Algorithm, CheckpointConfig, EngineConfig, GridSpec, JobSpec, Shape};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sops_engine_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but diverse grid: all simulators (including the rejection-free
/// sampler) plus an ablated chain, two biases, crash scenario included.
fn mixed_grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![12],
        lambdas: vec![2.0, 4.0],
        algorithms: vec![
            Algorithm::CHAIN,
            Algorithm::CHAIN_KMC,
            Algorithm::Local,
            Algorithm::Ablation(Guards::without_properties()),
        ],
        shapes: vec![Shape::Line],
        steps: 3_000,
        burnin: 500,
        samples: 6,
        ..GridSpec::default()
    }
    .build(2016)
}

#[test]
fn one_and_four_threads_produce_byte_identical_results() {
    let grid = mixed_grid();
    let single = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let pooled = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(single.is_complete() && pooled.is_complete());
    // Full structural equality (including the exact sample bits) ...
    assert_eq!(single.results, pooled.results);
    // ... and byte-identical CSV output.
    assert_eq!(single.to_table().to_csv(), pooled.to_table().to_csv());
}

/// Three jobs: one each of the three simulators, at one n and λ.
fn three_job_grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![12],
        lambdas: vec![4.0],
        algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC, Algorithm::Local],
        shapes: vec![Shape::Line],
        steps: 3_000,
        burnin: 500,
        samples: 6,
        ..GridSpec::default()
    }
    .build(29)
}

/// The CSV of a complete sweep of `grid` at `threads`.
fn csv_at(grid: Vec<JobSpec>, threads: usize) -> String {
    let report = run_sweep(
        grid,
        &EngineConfig {
            threads,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(report.is_complete(), "threads = {threads}");
    report.to_table().to_csv()
}

#[test]
fn zero_threads_and_more_threads_than_jobs_match_one_thread() {
    let grid = three_job_grid();
    assert_eq!(grid.len(), 3);
    let single = csv_at(grid.clone(), 1);
    // 0 runs inline like 1; 8 runs the three jobs on the caller and two
    // helpers.
    for threads in [0, 8] {
        assert_eq!(csv_at(grid.clone(), threads), single, "threads = {threads}");
    }
}

#[test]
fn a_rerun_with_every_job_reused_matches_one_thread() {
    let grid = three_job_grid();
    let dir = tmp_dir("all_reused");
    let checkpointed = EngineConfig {
        threads: 2,
        checkpoint: Some(CheckpointConfig::new(dir.clone(), 1_000)),
        ..EngineConfig::default()
    };
    assert!(run_sweep(grid.clone(), &checkpointed)
        .unwrap()
        .is_complete());
    // Nothing is left pending: the crew gets no items at all.
    let rerun = run_sweep(grid.clone(), &checkpointed).unwrap();
    assert!(rerun.is_complete());
    assert_eq!(rerun.reused, grid.len());
    assert_eq!(rerun.to_table().to_csv(), csv_at(grid, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_and_resumed_sweep_matches_uninterrupted() {
    let grid = mixed_grid();
    let reference = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();

    let dir = tmp_dir("resume");
    let events = dir.join("events.jsonl");
    let checkpointed = |stop: Option<u64>| EngineConfig {
        threads: 2,
        checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 700)),
        events_path: Some(events.clone()),
        stop_after_checkpoints: stop,
        experiment: None,
        ..EngineConfig::default()
    };

    // "Kill" the sweep deterministically after two checkpoints, possibly
    // repeatedly, then let it run to completion.
    let first = run_sweep(grid.clone(), &checkpointed(Some(2))).unwrap();
    assert!(first.interrupted);
    assert!(!first.is_complete());
    let resumed = run_sweep(grid.clone(), &checkpointed(None)).unwrap();
    assert!(resumed.is_complete());

    assert_eq!(resumed.results, reference.results);
    assert_eq!(resumed.to_table().to_csv(), reference.to_table().to_csv());

    // The event stream recorded the interruption machinery.
    let log = std::fs::read_to_string(&events).unwrap();
    assert!(log.contains("\"event\":\"checkpoint\""));
    assert!(log.contains("\"event\":\"job_resumed\""));
    assert!(log.contains("\"event\":\"sweep_complete\""));
    for line in log.lines() {
        assert!(
            line.starts_with("{\"event\":") && line.ends_with('}'),
            "{line}"
        );
    }

    // Running once more reuses every done-record without re-simulating.
    let reused = run_sweep(grid.clone(), &checkpointed(None)).unwrap();
    assert_eq!(reused.reused, grid.len());
    assert_eq!(reused.results, reference.results);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_dir_rejects_a_different_sweep() {
    let dir = tmp_dir("foreign");
    let cfg = |grid_dir: PathBuf| EngineConfig {
        threads: 1,
        checkpoint: Some(CheckpointConfig::new(grid_dir, 1_000)),
        ..EngineConfig::default()
    };
    run_sweep(
        GridSpec {
            ns: vec![8],
            steps: 100,
            samples: 1,
            ..GridSpec::default()
        }
        .build(1),
        &cfg(dir.clone()),
    )
    .unwrap();
    let err = run_sweep(
        GridSpec {
            ns: vec![9],
            steps: 100,
            samples: 1,
            ..GridSpec::default()
        }
        .build(2),
        &cfg(dir.clone()),
    )
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn first_hit_mode_matches_run_until_compressed() {
    let grid = GridSpec {
        ns: vec![15],
        lambdas: vec![5.0],
        steps: 2_000_000,
        samples: 0,
        until_alpha: Some(2.5),
        ..GridSpec::default()
    }
    .build(5);
    let report = run_sweep(
        grid,
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let result = &report.results[0];
    let spec = report.specs[0];

    // Replay by hand with the same derived child seed: the engine's
    // first-hit step must equal CompressionChain::run_until_compressed.
    let start = ParticleSystem::connected(shapes::line(15)).unwrap();
    let mut chain = CompressionChain::from_seed(start, 5.0, spec.seed).unwrap();
    let expected = chain.run_until_compressed(2.5, 2_000_000);
    assert_eq!(result.first_hit, expected);
    assert!(result.first_hit.is_some(), "λ=5 must compress n=15");
    assert!(result.samples.is_empty(), "first-hit mode takes no samples");
}

#[test]
fn first_hit_mode_survives_interrupt_resume() {
    // Checkpoints land off the n-step probe grid (every=333 vs chunk=20);
    // the resumed job must still probe only at the canonical grid points
    // and record the same first hit as the uninterrupted run.
    let grid = GridSpec {
        ns: vec![20],
        lambdas: vec![4.0],
        steps: 400_000,
        samples: 0,
        until_alpha: Some(1.7),
        ..GridSpec::default()
    }
    .build(11);
    let reference = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(reference.results[0].first_hit.is_some());

    let dir = tmp_dir("fh_resume");
    let cfg = |stop: Option<u64>| EngineConfig {
        threads: 1,
        checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 333)),
        events_path: None,
        stop_after_checkpoints: stop,
        experiment: None,
        ..EngineConfig::default()
    };
    let first = run_sweep(grid.clone(), &cfg(Some(3))).unwrap();
    assert!(first.interrupted);
    let resumed = run_sweep(grid.clone(), &cfg(None)).unwrap();
    assert_eq!(resumed.results, reference.results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kmc_first_hit_mode_matches_run_until_compressed() {
    let grid = GridSpec {
        ns: vec![15],
        lambdas: vec![5.0],
        algorithms: vec![Algorithm::CHAIN_KMC],
        steps: 2_000_000,
        samples: 0,
        until_alpha: Some(2.5),
        ..GridSpec::default()
    }
    .build(5);
    let report = run_sweep(
        grid,
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let result = &report.results[0];
    let spec = report.specs[0];

    // Replay by hand with the same derived child seed: the engine's
    // first-hit step must equal KmcChain::run_until_compressed.
    let start = ParticleSystem::connected(shapes::line(15)).unwrap();
    let mut kmc = KmcChain::from_seed(start, 5.0, spec.seed).unwrap();
    let expected = kmc.run_until_compressed(2.5, 2_000_000);
    assert_eq!(result.first_hit, expected);
    assert!(result.first_hit.is_some(), "λ=5 must compress n=15");
    assert!(result.samples.is_empty(), "first-hit mode takes no samples");
}

#[test]
fn step_counters_reach_the_results_layer() {
    let report = run_sweep(
        mixed_grid(),
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let csv = report.to_table().to_csv();
    assert!(csv.contains("accept rate"), "CSV must carry acceptance");
    for (spec, result) in report.iter() {
        match spec.algorithm {
            Algorithm::Chain(_) => {
                let total = result.counts.total().expect("chain counts");
                assert_eq!(total, result.work_done);
                assert!(result.counts.accepted().unwrap() > 0);
                assert!(result.counts.max_jump().is_none());
            }
            Algorithm::ChainKmc(_) => {
                assert_eq!(result.counts.total(), Some(result.work_done));
                assert!(result.counts.accepted().unwrap() > 0);
                let rate = result.counts.acceptance_rate().unwrap();
                assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
                assert!(result.counts.max_jump().is_some());
            }
            _ => assert_eq!(result.counts.accepted(), None),
        }
    }
}

#[test]
fn crash_scenarios_freeze_the_chosen_victims() {
    let grid = GridSpec {
        ns: vec![20],
        lambdas: vec![4.0],
        steps: 5_000,
        samples: 5,
        crashes: vec![Some(sops_engine::CrashSpec {
            percent: 20,
            after_burnin: false,
        })],
        ..GridSpec::default()
    }
    .build(77);
    let report = run_sweep(
        grid,
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let result = &report.results[0];
    assert!(result.final_connected, "crashes must not disconnect a line");
    // 20% of 20 particles anchored along the initial line keeps the
    // perimeter well above the crash-free optimum.
    assert!(result.final_perimeter > metrics::pmin(20));
}

/// A recorded ablation snapshot (Property 1/2 guard off), taken after its
/// first disconnection: restoring it must re-encode to the same bytes, and
/// 10⁴ more steps must reach the recorded state. Pins the ablation chain's
/// snapshot format and its Metropolis filter across releases.
#[test]
fn ablation_snapshot_after_a_violation_resumes() {
    const ENTRY: &str =
        include_str!("../../../tests/data/snapshots/ablation-no-prop-violated.snap");
    assert!(ENTRY.contains("first_violation=2000\n"));
    let mut chain = AblationChain::restore(ENTRY).unwrap();
    assert_eq!(chain.snapshot(), ENTRY);
    chain.run(10_000);
    assert!(!chain.halted());
    assert_eq!(fnv(chain.snapshot().as_bytes()), 0xdacb_40ad_5ccf_2f6b);
}
