//! The chaos matrix: every fault point × failure kind × thread count,
//! plus torn-file (truncate-at-every-byte) drills — asserting the
//! robustness contract of `docs/ROBUSTNESS.md`:
//!
//! * a failing job is isolated (the sweep finishes every healthy job),
//! * failures are durable (quarantine records) and recoverable
//!   (`retry_failed` / recompute), and
//! * recovery converges to artifacts **byte-identical** to a run that
//!   never failed: same CSV, same done-records, same set of `job_done`
//!   JSONL lines.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use sops_engine::{
    run_sweep, Algorithm, CheckpointConfig, EngineConfig, FaultKind, FaultSpec, GridSpec, JobSpec,
    SweepReport,
};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sops_chaos_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three jobs across all three simulator families — enough diversity that
/// isolation failures (a panic poisoning a sibling) would show up.
fn matrix_grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![10],
        lambdas: vec![3.0],
        algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC, Algorithm::Local],
        steps: 1_200,
        burnin: 200,
        samples: 2,
        ..GridSpec::default()
    }
    .build(2016)
}

/// One chain job, small enough to re-run hundreds of times in the
/// torn-file loops.
fn single_grid() -> Vec<JobSpec> {
    GridSpec {
        ns: vec![10],
        lambdas: vec![3.0],
        steps: 600,
        burnin: 200,
        samples: 2,
        ..GridSpec::default()
    }
    .build(7)
}

fn cfg(dir: &Path, threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 300)),
        events_path: Some(dir.join("events.jsonl")),
        ..EngineConfig::default()
    }
}

/// The `job_done` lines of the run's event stream, as a set: line *order*
/// is scheduling-dependent above one thread, the line *set* is not.
fn job_done_lines(dir: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(dir.join("events.jsonl"))
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"event\":\"job_done\""))
        .map(str::to_string)
        .collect()
}

/// Raw bytes of every durable done-record, keyed by file name.
fn done_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("ckpt").join("done"))
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// A counter from the run's `metrics.json` (absent counters were zero:
/// `Sheet::add` drops zero adds to keep fault-free artifacts byte-stable).
fn counter(report: &SweepReport, key: &str) -> Option<f64> {
    let json = report.metrics_json();
    let doc = sops_telemetry::parse(&json).unwrap();
    doc.get("counters")
        .and_then(|c| c.get(key))
        .and_then(sops_telemetry::Value::as_f64)
}

/// Everything a recovered run must reproduce byte-for-byte.
struct Reference {
    csv: String,
    job_done: BTreeSet<String>,
    done_files: BTreeMap<String, Vec<u8>>,
}

fn reference(name: &str) -> Reference {
    let dir = tmp_dir(&format!("ref_{name}"));
    let report = run_sweep(matrix_grid(), &cfg(&dir, 2)).unwrap();
    assert!(report.is_complete() && report.failed.is_empty());
    let reference = Reference {
        csv: report.to_table().to_csv(),
        job_done: job_done_lines(&dir),
        done_files: done_files(&dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    reference
}

/// The core matrix: {ckpt.read, job.step, ckpt.write, done.write} ×
/// {io, panic} × {1, 2, 4} threads. Each cell fails job 1 persistently,
/// asserts the sweep degrades to exactly that one failure, then retries
/// fault-free and asserts byte-convergence to the reference artifacts.
#[test]
fn fault_matrix_isolates_fails_and_recovers_byte_identically() {
    let reference = reference("matrix");
    for threads in [1, 2, 4] {
        for kind in [FaultKind::Io, FaultKind::Panic] {
            for point in ["ckpt.read", "job.step", "ckpt.write", "done.write"] {
                let label = format!("{point} {kind:?} x{threads}");
                let dir = tmp_dir(&format!(
                    "matrix_{}_{kind:?}_{threads}",
                    point.replace('.', "_")
                ));

                let mut broken = cfg(&dir, threads);
                broken.faults = Some(FaultSpec::new().with(point, Some(1), 1..=u64::MAX, kind));
                let degraded = run_sweep(matrix_grid(), &broken).unwrap();
                assert!(!degraded.interrupted, "{label}");
                assert_eq!(degraded.results.len(), 2, "{label}: healthy jobs finish");
                assert_eq!(degraded.failed.len(), 1, "{label}");
                assert_eq!(degraded.failed[0].job, 1, "{label}");
                assert!(!degraded.failed[0].quarantined, "{label}");
                assert!(
                    counter(&degraded, "fault.injected").unwrap_or(0.0) >= 1.0,
                    "{label}: injections must be counted"
                );
                assert!(
                    dir.join("ckpt").join("failed").join("job-1.txt").exists(),
                    "{label}: failure must be durably quarantined"
                );

                let mut retry = cfg(&dir, threads);
                retry.retry_failed = true;
                let recovered = run_sweep(matrix_grid(), &retry).unwrap();
                assert!(recovered.is_complete(), "{label}");
                assert!(recovered.failed.is_empty(), "{label}");
                assert_eq!(counter(&recovered, "job.retried"), Some(1.0), "{label}");
                assert_eq!(recovered.to_table().to_csv(), reference.csv, "{label}");
                assert_eq!(done_files(&dir), reference.done_files, "{label}");
                // The stream accumulated across both runs; the union of its
                // job_done lines must equal the unfailed run's set exactly.
                assert_eq!(job_done_lines(&dir), reference.job_done, "{label}");
                assert!(
                    !dir.join("ckpt").join("failed").join("job-1.txt").exists(),
                    "{label}: recovery must clear the quarantine record"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// `sink.emit` io faults make the event stream lossy — and change nothing
/// else: the sweep completes, and CSV plus done-records match the
/// reference bytes.
#[test]
fn sink_emit_io_faults_degrade_the_stream_not_the_sweep() {
    let reference = reference("sink_io");
    for threads in [1, 2, 4] {
        let dir = tmp_dir(&format!("sink_io_{threads}"));
        let mut broken = cfg(&dir, threads);
        broken.faults = Some(FaultSpec::new().with("sink.emit", None, 1..=u64::MAX, FaultKind::Io));
        let report = run_sweep(matrix_grid(), &broken).unwrap();
        assert!(report.is_complete(), "x{threads}");
        assert!(report.failed.is_empty(), "x{threads}");
        assert!(report.sink_errors > 0, "x{threads}");
        assert_eq!(report.to_table().to_csv(), reference.csv, "x{threads}");
        assert_eq!(done_files(&dir), reference.done_files, "x{threads}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A panic *inside an emit* happens on a worker thread (the first emit is
/// the first job's `job_start`), so it takes out exactly that job; retry
/// converges to the reference bytes.
#[test]
fn sink_emit_panic_is_isolated_and_recoverable() {
    let reference = reference("sink_panic");
    let dir = tmp_dir("sink_panic");
    let mut broken = cfg(&dir, 1);
    broken.faults = Some(FaultSpec::new().with("sink.emit", None, 1..=1, FaultKind::Panic));
    let degraded = run_sweep(matrix_grid(), &broken).unwrap();
    assert_eq!(degraded.failed.len(), 1);
    assert_eq!(degraded.failed[0].job, 0);
    assert!(degraded.failed[0].error.starts_with("panic:"));

    let mut retry = cfg(&dir, 1);
    retry.retry_failed = true;
    let recovered = run_sweep(matrix_grid(), &retry).unwrap();
    assert!(recovered.is_complete() && recovered.failed.is_empty());
    assert_eq!(recovered.to_table().to_csv(), reference.csv);
    assert_eq!(job_done_lines(&dir), reference.job_done);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `meta.open` faults are sweep-level setup failures (there is no job to
/// isolate yet): an io fault surfaces as `run_sweep`'s error, a panic
/// propagates — and a clean rerun of the same directory converges.
#[test]
fn meta_open_faults_fail_the_sweep_cleanly() {
    let reference = reference("meta");
    let dir = tmp_dir("meta_open");

    let mut broken = cfg(&dir, 2);
    broken.faults = Some(FaultSpec::new().with("meta.open", None, 1..=1, FaultKind::Io));
    let err = run_sweep(matrix_grid(), &broken).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");

    let mut panicking = cfg(&dir, 2);
    panicking.faults = Some(FaultSpec::new().with("meta.open", None, 1..=1, FaultKind::Panic));
    let caught = catch_unwind(AssertUnwindSafe(|| run_sweep(matrix_grid(), &panicking)));
    assert!(caught.is_err(), "a meta.open panic must propagate");

    let clean = run_sweep(matrix_grid(), &cfg(&dir, 2)).unwrap();
    assert!(clean.is_complete() && clean.failed.is_empty());
    assert_eq!(clean.to_table().to_csv(), reference.csv);
    assert_eq!(done_files(&dir), reference.done_files);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tearing a checkpoint snapshot at **every byte boundary**: each cut is
/// detected (header-first checksum — truncation always damages the body),
/// demotes exactly that job to recompute, and still converges to the
/// uninterrupted CSV. The intact file (cut == len) resumes checksummed.
#[test]
fn torn_ckpt_files_demote_to_recompute_at_every_cut() {
    let grid = single_grid();
    let ref_csv = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .to_table()
    .to_csv();

    let dir = tmp_dir("torn_ckpt");
    let run = |stop: Option<u64>| {
        run_sweep(
            grid.clone(),
            &EngineConfig {
                threads: 1,
                checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 250)),
                stop_after_checkpoints: stop,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };
    assert!(run(Some(1)).interrupted);
    let ckpt_path = dir.join("ckpt").join("ckpt").join("job-0.txt");
    let done_path = dir.join("ckpt").join("done").join("job-0.txt");
    let full = std::fs::read(&ckpt_path).unwrap();
    assert!(full.len() > 40, "expected a sealed snapshot");

    for cut in 0..=full.len() {
        std::fs::write(&ckpt_path, &full[..cut]).unwrap();
        let _ = std::fs::remove_file(&done_path);
        let resumed = run(None);
        assert!(
            resumed.is_complete() && resumed.failed.is_empty(),
            "cut {cut}"
        );
        assert_eq!(resumed.to_table().to_csv(), ref_csv, "cut {cut}");
        let discarded = counter(&resumed, "ckpt.corrupt_discarded");
        if cut < full.len() {
            assert_eq!(discarded, Some(1.0), "cut {cut} must be caught and counted");
        } else {
            assert_eq!(discarded, None, "the intact snapshot must resume");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tearing a done-record at every byte boundary: each cut is discarded
/// (never parsed as a shorter-but-valid record), the job recomputes, and
/// the CSV matches; only the intact record is reused.
#[test]
fn torn_done_records_recompute_at_every_cut() {
    let grid = single_grid();
    let dir = tmp_dir("torn_done");
    let run = || {
        run_sweep(
            grid.clone(),
            &EngineConfig {
                threads: 1,
                checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 250)),
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };
    let ref_csv = run().to_table().to_csv();
    let done_path = dir.join("ckpt").join("done").join("job-0.txt");
    let full = std::fs::read(&done_path).unwrap();

    for cut in 0..=full.len() {
        std::fs::write(&done_path, &full[..cut]).unwrap();
        let resumed = run();
        assert!(
            resumed.is_complete() && resumed.failed.is_empty(),
            "cut {cut}"
        );
        assert_eq!(resumed.to_table().to_csv(), ref_csv, "cut {cut}");
        if cut < full.len() {
            assert_eq!(resumed.reused, 0, "cut {cut} must recompute");
            assert_eq!(counter(&resumed, "ckpt.corrupt_discarded"), Some(1.0));
        } else {
            assert_eq!(resumed.reused, 1, "the intact record must be reused");
        }
    }

    // Well-formed garbage (a foreign, headerless text file) is discarded
    // the same way, not trusted as legacy.
    std::fs::write(&done_path, "sops-engine-result v1\njunk=1\n").unwrap();
    let resumed = run();
    assert_eq!(resumed.reused, 0);
    assert_eq!(resumed.to_table().to_csv(), ref_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `meta.txt` stays strict: a truncated meta is indistinguishable from a
/// foreign sweep and must refuse to resume rather than guess.
#[test]
fn truncated_meta_refuses_to_resume() {
    let grid = single_grid();
    let dir = tmp_dir("torn_meta");
    let cfg = EngineConfig {
        threads: 1,
        checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 250)),
        ..EngineConfig::default()
    };
    run_sweep(grid.clone(), &cfg).unwrap();
    let meta_path = dir.join("ckpt").join("meta.txt");
    let full = std::fs::read(&meta_path).unwrap();
    std::fs::write(&meta_path, &full[..full.len() / 2]).unwrap();
    let err = run_sweep(grid.clone(), &cfg).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quarantine semantics: a failed job is *skipped* on plain resume (so a
/// deterministic crasher cannot wedge resume into re-failing forever) and
/// only re-runs under `retry_failed`.
#[test]
fn quarantined_jobs_are_skipped_until_retry_failed() {
    let reference = reference("quarantine");
    let dir = tmp_dir("quarantine");

    let mut broken = cfg(&dir, 2);
    broken.faults =
        Some(FaultSpec::new().with("job.step", Some(1), 1..=u64::MAX, FaultKind::Panic));
    let degraded = run_sweep(matrix_grid(), &broken).unwrap();
    assert_eq!(degraded.failed.len(), 1);
    assert!(degraded.failed[0].error.starts_with("panic:"));

    // Resume with the fault STILL armed: the job is quarantined, never
    // re-entered, so nothing injects.
    let rerun = run_sweep(matrix_grid(), &broken).unwrap();
    assert_eq!(rerun.failed.len(), 1);
    assert!(rerun.failed[0].quarantined);
    assert_eq!(rerun.reused, 2);
    assert_eq!(counter(&rerun, "fault.injected"), None);
    let log = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(log.contains("\"event\":\"job_quarantined\",\"job\":1"));

    // retry_failed (fault disarmed) recovers to the reference bytes.
    let mut retry = cfg(&dir, 2);
    retry.retry_failed = true;
    let recovered = run_sweep(matrix_grid(), &retry).unwrap();
    assert!(recovered.is_complete() && recovered.failed.is_empty());
    assert_eq!(counter(&recovered, "job.retried"), Some(1.0));
    assert_eq!(recovered.to_table().to_csv(), reference.csv);
    assert_eq!(done_files(&dir), reference.done_files);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Intra-run sharding inherits the whole robustness contract: a panic
/// injected into a `local-sharded` job while it runs on a multi-worker
/// shard executor is caught like any other job failure — the job is
/// quarantined, the healthy siblings finish, and `retry_failed` converges
/// to the bytes of a sweep that never failed. The reference deliberately
/// runs at a *different* shard count, pinning that the recovery bytes are
/// shard-count-invariant too.
#[test]
fn sharded_job_panic_is_quarantined_and_recovers_byte_identically() {
    let sharded_grid = || {
        GridSpec {
            ns: vec![24],
            lambdas: vec![3.0],
            algorithms: vec![Algorithm::CHAIN, Algorithm::LocalSharded, Algorithm::Local],
            steps: 1_200,
            burnin: 200,
            samples: 2,
            ..GridSpec::default()
        }
        .build(4242)
    };
    // Reference: one shard worker (the sharded executor, run inline).
    let ref_dir = tmp_dir("shard_ref");
    let reference = run_sweep(sharded_grid(), &cfg(&ref_dir, 2)).unwrap();
    assert!(reference.is_complete() && reference.failed.is_empty());
    let ref_csv = reference.to_table().to_csv();
    let ref_done = done_files(&ref_dir);
    let ref_lines = job_done_lines(&ref_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Job 1 is the local-sharded one (algorithm is the outermost grid
    // axis); panic it at every stepping chunk while it shards over two
    // workers.
    let dir = tmp_dir("shard_panic");
    let mut broken = cfg(&dir, 2);
    broken.shards = 2;
    broken.faults =
        Some(FaultSpec::new().with("job.step", Some(1), 1..=u64::MAX, FaultKind::Panic));
    let degraded = run_sweep(sharded_grid(), &broken).unwrap();
    assert!(!degraded.interrupted);
    assert_eq!(degraded.results.len(), 2, "healthy jobs must finish");
    assert_eq!(degraded.failed.len(), 1);
    assert_eq!(degraded.failed[0].job, 1);
    assert!(degraded.failed[0].error.starts_with("panic:"));
    assert!(
        dir.join("ckpt").join("failed").join("job-1.txt").exists(),
        "the sharded job's failure must be durably quarantined"
    );

    // Recover, still sharded: byte-identical to the one-worker reference.
    let mut retry = cfg(&dir, 2);
    retry.shards = 2;
    retry.retry_failed = true;
    let recovered = run_sweep(sharded_grid(), &retry).unwrap();
    assert!(recovered.is_complete() && recovered.failed.is_empty());
    assert_eq!(counter(&recovered, "job.retried"), Some(1.0));
    assert_eq!(recovered.to_table().to_csv(), ref_csv);
    assert_eq!(done_files(&dir), ref_done);
    assert_eq!(job_done_lines(&dir), ref_lines);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a checkpoint store there is no durability — but isolation and
/// reporting still hold: one panicking job, two results, a `job_failed`
/// event, a `sweep_degraded` event, and the `job.failed` counter.
#[test]
fn panic_isolation_without_a_store() {
    let dir = tmp_dir("storeless");
    std::fs::create_dir_all(&dir).unwrap();
    let report = run_sweep(
        matrix_grid(),
        &EngineConfig {
            threads: 2,
            events_path: Some(dir.join("events.jsonl")),
            faults: Some(FaultSpec::new().with(
                "job.step",
                Some(1),
                1..=u64::MAX,
                FaultKind::Panic,
            )),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(!report.is_complete());
    assert_eq!(report.results.len(), 2);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(counter(&report, "job.failed"), Some(1.0));
    let log = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(log.contains("\"event\":\"job_failed\",\"job\":1"));
    assert!(log.contains("\"event\":\"sweep_degraded\",\"jobs\":3,\"completed\":2,\"failed\":1"));
    assert!(!log.contains("\"event\":\"sweep_complete\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient write errors are absorbed by the bounded retry: two injected
/// failures on the first checkpoint write never reach the job, and the
/// artifacts match a fault-free run byte-for-byte.
#[test]
fn transient_ckpt_write_errors_are_retried_invisibly() {
    let grid = single_grid();
    let ref_csv = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap()
    .to_table()
    .to_csv();

    let dir = tmp_dir("transient");
    let report = run_sweep(
        grid.clone(),
        &EngineConfig {
            threads: 1,
            checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 250)),
            faults: Some(FaultSpec::new().with("ckpt.write", Some(0), 1..=2, FaultKind::Io)),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(report.is_complete() && report.failed.is_empty());
    assert_eq!(report.to_table().to_csv(), ref_csv);
    assert_eq!(counter(&report, "fault.injected"), Some(2.0));
    assert_eq!(counter(&report, "ckpt.retry"), Some(2.0));
    assert_eq!(counter(&report, "job.failed"), None);
    let _ = std::fs::remove_dir_all(&dir);
}
