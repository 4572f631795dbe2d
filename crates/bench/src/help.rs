//! The shared `--help` text: one source of truth for the algorithm and
//! Hamiltonian descriptions.
//!
//! Before this module the four experiment binaries and `sops-cli` each
//! carried their own (drifting) copies of what `chain`, `chain-kmc`,
//! `local` and the Hamiltonians mean. These consts are now the single
//! copy: every binary's `--help` prints them via [`maybe_help`],
//! `sops-cli help` embeds them, and `docs/EXPERIMENTS.md` quotes them
//! verbatim (pinned by a docs-sync test).

use crate::Args;

/// The algorithm axis, as spelled in `--algo` flags and the `algorithms`
/// key of experiment files.
pub const ALGO_HELP: &str =
    "  chain          the paper's Markov chain M over the selected Hamiltonian;
                 work units are chain steps
  chain-kmc      rejection-free kinetic sampler of M: the same distribution
                 step-for-step, but work per accepted move only — fastest in
                 strongly-rejecting regimes (high lambda equilibrium)
  local          the asynchronous local algorithm A; work units are rounds.
                 A different chain from M: its tails do not sample pi
                 (total-variation distance 2e-2 to 7e-2 at n = 3..5);
                 --shards 2 pipelines its clocks with its moves, with
                 byte-identical results
  local-sharded  checkerboard-synchronous variant of A built for intra-run
                 sharding (--shards runs one simulation across cores);
                 byte-identical results at any worker count; work units are
                 rounds
  ablation-full / ablation-no-five / ablation-no-prop
                 deliberately weakened chain variants demonstrating why the
                 paper's move conditions are necessary";

/// The Hamiltonian axis, as spelled in `--hamiltonian` flags, `chain+<h>`
/// algorithm suffixes, and the `hamiltonians` key of experiment files.
pub const HAMILTONIAN_HELP: &str =
    "  edges          the paper's compression bias: H counts nearest-neighbor
                 edges and pi(sigma) is proportional to lambda^H(sigma)
  alignment[:q]  bias toward like-oriented neighbors over q quenched
                 orientations (default q = 3); an alignment job's lambda
                 drives the alignment order parameter a/e, reported as
                 \"aligned\" in JSONL job_done events";

/// The shared telemetry flags on every engine-backed binary (`sops-cli
/// sweep|run` and the experiment binaries). All of them are pure side
/// channels: simulation artifacts are byte-identical at any setting (see
/// `docs/OBSERVABILITY.md`).
pub const TELEMETRY_HELP: &str =
    "  --metrics      write a metrics.json summary (counters, histograms, phase
                 timers, rates) next to the CSV under results/
  --progress     live heartbeat on stderr (jobs, steps/s, eta) plus periodic
                 \"progress\" events in the JSONL stream
  --quiet        suppress status chatter and the progress heartbeat; stdout
                 carries only the result table";

/// The robustness flags on `sops-cli sweep|run`. Failures are job-local by
/// default: a panicking or I/O-failing job is quarantined and the sweep
/// finishes every healthy job, exiting 3 (see `docs/ROBUSTNESS.md`).
pub const ROBUSTNESS_HELP: &str =
    "  --strict-io    treat a lossy JSONL event stream (dropped lines counted in
                 sink_errors) as a failure: exit 4 instead of a warning
  --retry-failed re-run jobs quarantined by a previous run of this checkpoint
                 directory (requires a checkpoint); converges to the
                 byte-identical artifacts of an unfailed sweep
  SOPS_FAULTS    deterministic fault injection for drills and tests, e.g.
                 SOPS_FAULTS='ckpt.write#1@2=io;job.step#0@5=panic'";

/// Prints a binary's usage plus the shared axis descriptions and exits
/// when `--help` was passed; a no-op otherwise. Call first thing in every
/// experiment binary's `main`.
pub fn maybe_help(args: &Args, usage: &str) {
    if args.flag("help") {
        println!(
            "{usage}\n\nALGORITHMS (--algo / algorithms =):\n{ALGO_HELP}\n\n\
             HAMILTONIANS (--hamiltonian / hamiltonians =):\n{HAMILTONIAN_HELP}\n\n\
             TELEMETRY:\n{TELEMETRY_HELP}"
        );
        std::process::exit(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_text_names_every_algorithm_and_hamiltonian() {
        for name in [
            "chain",
            "chain-kmc",
            "local",
            "local-sharded",
            "ablation-full",
        ] {
            assert!(ALGO_HELP.contains(name), "ALGO_HELP must mention {name}");
        }
        for name in ["edges", "alignment"] {
            assert!(
                HAMILTONIAN_HELP.contains(name),
                "HAMILTONIAN_HELP must mention {name}"
            );
        }
    }

    #[test]
    fn maybe_help_is_a_no_op_without_the_flag() {
        let args = Args::from_iter(["--n", "5"].map(String::from));
        maybe_help(&args, "usage"); // must not exit
    }
}
