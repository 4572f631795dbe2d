//! Shared infrastructure for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! `docs/EXPERIMENTS.md` indexes them (experiments E1–E15 and the
//! ablation) with the claim, command, artifact and expected outcome of
//! each. This library provides
//! the tiny pieces they share: a flag parser, a results directory, and the
//! *ablation chain* — a deliberately weakened variant of Markov chain `M`
//! used to demonstrate why the paper's move conditions are necessary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod help;
pub mod out;

/// The ablation chain, which lives in the execution engine so sweeps can
/// schedule it next to chain and local jobs.
pub use sops_engine::ablation;

/// Re-export so binaries only need `sops_bench` and `sops`.
pub use cli::Args;
