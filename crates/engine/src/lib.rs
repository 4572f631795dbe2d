//! `sops-engine` — a deterministic, parallel, checkpointable
//! experiment-execution subsystem.
//!
//! Every quantitative claim this repository reproduces is a Monte-Carlo
//! estimate over many independent runs of Markov chain `M`, the local
//! algorithm `A`, or an ablated variant. This crate is the single execution
//! layer those experiments share, replacing the per-binary scoped-thread
//! fan-out the harness used to hand-roll:
//!
//! * **Sweep model** ([`grid`]) — a sweep is a list of independent
//!   [`grid::JobSpec`]s; a [`grid::GridSpec`] — plain data, built alike
//!   from `sops-cli sweep` flags and experiment files — expands into the
//!   cross product over (algorithm (× Hamiltonian) × shape × n × λ ×
//!   crash scenario × repetition).
//! * **Worker pool** ([`pool`]) — the engine's one `std::thread` pool: the
//!   calling thread and helper threads that live for a whole call drain a
//!   shared queue and return outputs in input order. Sweeps run their
//!   pending jobs on it at [`EngineConfig::threads`] workers. No external
//!   dependencies.
//! * **Intra-run sharding** ([`shard`]) — the [`shard::PoolExecutor`] runs
//!   one `local-sharded` simulation on the same pool at
//!   [`EngineConfig::shards`] workers, its helpers living as long as the
//!   executor; byte-identical at any worker count.
//! * **Checkpoint/resume** ([`checkpoint`], plus the snapshot APIs in
//!   `sops_core::snapshot`) — sweeps periodically persist each in-flight
//!   job (simulator snapshot + sampling state) and reuse completed-job
//!   records, so an interrupted sweep resumes instead of restarting.
//! * **Streaming sinks** ([`sink`], [`result`]) — JSONL events while the
//!   sweep runs, durable per-job done-records, and a final CSV-able table
//!   with online mean/variance aggregation from `sops_analysis`.
//! * **Declarative experiments** ([`experiment`]) — sweeps as *data*: a
//!   documented TOML-subset file format (`sops-cli run experiment.toml`)
//!   whose grids parse into [`grid::GridSpec`]s. The format
//!   reference is `docs/EXPERIMENTS.md`.
//!
//! # Determinism: the seeding design
//!
//! Reproducibility at any thread count falls out of two rules:
//!
//! 1. **Jobs own their randomness.** Job `i` of a sweep with base seed `B`
//!    uses the child seed [`seed::child_seed`]`(B, i)` — a SplitMix64
//!    stream element, O(1) to compute, independent of which worker runs the
//!    job or when. Crash-victim selection uses a further derived stream
//!    (`seed ^ 0xc4a5`) so fault injection never perturbs the simulation
//!    stream.
//! 2. **Aggregation is scheduling-blind.** Workers return results keyed by
//!    job id; tables and CSVs are emitted in id order from per-job data
//!    only. Event *streams* interleave by scheduling, final artifacts do
//!    not.
//!
//! Together: a sweep with `--threads 1` and `--threads 64` produces
//! byte-identical CSV output.
//!
//! # Determinism: the checkpoint design
//!
//! A job's timeline — crash points, burn-in boundary, sample positions,
//! first-hit probe positions — is a pure function of its spec, and the
//! simulators snapshot their *exact* state (configuration, counters, and
//! the ChaCha key/counter/index of the RNG; floats round-trip as IEEE bit
//! patterns, never decimal). Resuming therefore replays precisely the
//! steps the uninterrupted run would have taken, and an interrupted sweep
//! converges to byte-identical final artifacts. Checkpoint writes are
//! atomic and fsynced (per-process `.tmp` + rename + directory sync),
//! records carry FNV checksums, completed jobs become durable
//! done-records, and `meta.txt` refuses to resume a directory belonging
//! to a different sweep.
//!
//! # Failure model
//!
//! Process-level faults degrade instead of aborting: a job that panics or
//! hits an unretryable I/O error is isolated ([`SweepSession::run_pending`]
//! catches the job's panic), durably quarantined (`failed/job-<id>.txt`), and reported in
//! [`SweepReport::failed`] while every healthy job finishes. Corrupt or
//! truncated checkpoint files demote their one job to recompute-from-
//! scratch. Transient write errors get a bounded, wall-clock-free retry.
//! Every failure path is reachable deterministically through the [`fault`]
//! module (`SOPS_FAULTS`); `docs/ROBUSTNESS.md` is the reference.
//!
//! # Example
//!
//! ```
//! use sops_engine::{EngineConfig, GridSpec};
//!
//! let grid = GridSpec {
//!     ns: vec![12],
//!     lambdas: vec![2.0, 4.0],
//!     steps: 2_000,
//!     samples: 4,
//!     ..GridSpec::default()
//! };
//! let report = sops_engine::run_sweep(grid.build(7), &EngineConfig {
//!     threads: 2,
//!     ..EngineConfig::default()
//! })
//! .unwrap();
//! assert!(report.is_complete());
//! assert_eq!(report.results.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
pub mod experiment;
pub mod fault;
pub mod grid;
mod job;
pub mod pool;
pub mod result;
mod run;
pub mod seed;
pub mod shard;
pub mod sink;
pub mod telemetry;
pub mod testkit;

pub use checkpoint::CheckpointConfig;
pub use experiment::{CheckpointSpec, ExperimentSpec};
pub use fault::{FaultKind, FaultPlan, FaultSpec, POINTS as FAULT_POINTS};
pub use grid::{Algorithm, CrashSpec, GridSpec, JobSpec, Shape, ORIENT_SALT};
pub use pool::default_threads;
pub use result::{JobFailure, JobResult, StepRecord};
pub use run::{run_sweep, EngineConfig, SweepReport, SweepSession};
pub use shard::PoolExecutor;
pub use sink::EventSink;
pub use sops::core::hamiltonian::HamiltonianSpec;
pub use telemetry::TelemetryConfig;
