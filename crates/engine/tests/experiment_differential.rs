//! Experiment files vs CLI flags: the two paths must be byte-identical.
//!
//! The acceptance bar for the declarative format (`docs/EXPERIMENTS.md`):
//! for existing sweeps, `sops-cli run <file.toml>` produces CSV and JSONL
//! done-record bytes identical to the equivalent flag invocation, at any
//! `--threads`. These tests pin that differentially — the checked-in
//! example files under `examples/experiments/` are parsed, compared
//! job-for-job against the hand-built [`GridSpec`] the flag path would
//! construct, and executed on the engine at several thread counts.
//!
//! Round-trip property tests (spec → text → spec ≡ id, single-grid spec →
//! jobs ≡ its grid's jobs) ride along using the vendored proptest shim.

use std::collections::BTreeSet;
use std::path::PathBuf;

use proptest::prelude::*;
use sops_engine::experiment::{CheckpointSpec, ExperimentSpec};
use sops_engine::testkit::{job_done_only, sweep_artifacts, tmp_dir};
use sops_engine::{Algorithm, CrashSpec, EngineConfig, GridSpec, HamiltonianSpec, JobSpec, Shape};

/// Absolute path of a checked-in example experiment.
fn example(name: &str) -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/experiments"
    ))
    .join(name)
}

fn parse_example(name: &str) -> ExperimentSpec {
    let path = example(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Runs a job list and returns (CSV bytes, job_done JSONL line set).
///
/// The JSONL *line set* is the cross-thread-deterministic view: line order
/// interleaves by scheduling at `threads > 1` (a documented contract), the
/// set of emitted lines does not.
fn run_to_artifacts(
    spec: &ExperimentSpec,
    threads: usize,
    tag: &str,
) -> (String, BTreeSet<String>) {
    let (_, csv, done_lines) = sweep_artifacts(
        spec.jobs(),
        &EngineConfig {
            threads,
            experiment: Some(spec.name.clone()),
            ..EngineConfig::default()
        },
        &format!("exp_diff_{tag}"),
        job_done_only,
    );
    (csv, done_lines)
}

/// Runs the *flag path* — the jobs of a hand-built [`GridSpec`], no
/// experiment provenance, exactly what `sops-cli sweep` constructs — and
/// returns the same artifacts.
fn run_flag_grid(jobs: Vec<JobSpec>, threads: usize, tag: &str) -> (String, BTreeSet<String>) {
    let (_, csv, done_lines) = sweep_artifacts(
        jobs,
        &EngineConfig {
            threads,
            ..EngineConfig::default()
        },
        &format!("exp_diff_{tag}"),
        job_done_only,
    );
    (csv, done_lines)
}

#[test]
fn every_checked_in_example_parses_and_resolves_to_jobs() {
    for (file, name, jobs) in [
        ("fig2_compression.toml", "fig2-compression", 1),
        ("alignment_order.toml", "alignment-order", 3),
        ("kmc_vs_chain.toml", "kmc-vs-chain", 4),
        ("crash_fault_tolerance.toml", "crash-fault-tolerance", 8),
    ] {
        let spec = parse_example(file);
        assert_eq!(spec.name, name, "{file}");
        assert_eq!(spec.jobs().len(), jobs, "{file}");
        // Canonical serialization of a real file round-trips too.
        assert_eq!(
            spec,
            ExperimentSpec::parse(&spec.to_toml()).unwrap(),
            "{file}"
        );
    }
}

/// `kmc_vs_chain.toml` ≡ `sops-cli sweep --n 40 --lambda 2,4
/// --algo chain,chain-kmc --steps 200000 --samples 40 --seed 21`:
/// identical jobs, identical CSV bytes, identical done-record line sets,
/// at 1, 2 and 4 threads.
#[test]
fn kmc_vs_chain_file_matches_flag_sweep_at_any_thread_count() {
    let spec = parse_example("kmc_vs_chain.toml");
    let flag_grid = GridSpec {
        ns: vec![40],
        lambdas: vec![2.0, 4.0],
        algorithms: vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC],
        steps: 200_000,
        samples: 40,
        ..GridSpec::default()
    }
    .build(21);
    assert_eq!(spec.jobs(), flag_grid, "resolved job lists differ");

    let (flag_csv, flag_done) = run_flag_grid(flag_grid, 1, "kmc_flags");
    for threads in [1usize, 2, 4] {
        let (csv, done) = run_to_artifacts(&spec, threads, &format!("kmc_file_{threads}"));
        assert_eq!(csv, flag_csv, "CSV bytes differ at {threads} threads");
        assert_eq!(
            done, flag_done,
            "job_done lines differ at {threads} threads"
        );
    }
}

/// `alignment_order.toml` ≡ the equivalent flag sweep over the alignment
/// Hamiltonian axis.
#[test]
fn alignment_order_file_matches_flag_sweep_at_any_thread_count() {
    let spec = parse_example("alignment_order.toml");
    let flag_grid = GridSpec {
        ns: vec![40],
        lambdas: vec![1.0, 3.0, 5.0],
        algorithms: vec![Algorithm::CHAIN_KMC],
        hamiltonians: Some(vec![HamiltonianSpec::Alignment { q: 3 }]),
        steps: 300_000,
        samples: 50,
        ..GridSpec::default()
    }
    .build(11);
    assert_eq!(spec.jobs(), flag_grid, "resolved job lists differ");

    let (flag_csv, flag_done) = run_flag_grid(flag_grid, 1, "align_flags");
    for threads in [1usize, 4] {
        let (csv, done) = run_to_artifacts(&spec, threads, &format!("align_file_{threads}"));
        assert_eq!(csv, flag_csv, "CSV bytes differ at {threads} threads");
        assert_eq!(
            done, flag_done,
            "job_done lines differ at {threads} threads"
        );
    }
}

/// Experiment provenance: the JSONL stream leads with a `sweep_start`
/// event naming the experiment, and a checkpointed run records an
/// `experiment=` line first in `meta.txt`. Flag sweeps (no provenance)
/// emit neither — that keeps their artifacts byte-identical to
/// pre-experiment-format versions (pinned by the golden-bytes test in
/// `hamiltonian_differential.rs`).
#[test]
fn provenance_reaches_jsonl_and_checkpoint_meta() {
    let spec = ExperimentSpec::parse(
        "name = \"prov-check\"\nseed = 5\nns = [10]\nsteps = 500\nsamples = 2",
    )
    .unwrap();
    let dir = tmp_dir("exp_diff_provenance");
    let events = dir.join("events.jsonl");
    let ck = dir.join("ckpt");
    let report = sops_engine::run_sweep(
        spec.jobs(),
        &EngineConfig {
            threads: 1,
            checkpoint: Some(sops_engine::CheckpointConfig::new(&ck, 250)),
            events_path: Some(events.clone()),
            stop_after_checkpoints: None,
            experiment: Some(spec.name.clone()),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(report.is_complete());
    let jsonl = std::fs::read_to_string(&events).unwrap();
    assert_eq!(
        jsonl.lines().next().unwrap(),
        "{\"event\":\"sweep_start\",\"experiment\":\"prov-check\",\"jobs\":1}",
    );
    let meta = std::fs::read_to_string(ck.join("meta.txt")).unwrap();
    assert!(
        meta.starts_with("experiment=prov-check\n"),
        "meta.txt must lead with provenance, got:\n{meta}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Round-trip property tests
// ---------------------------------------------------------------------------

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    (0usize..6, 2u8..10).prop_map(|(pick, q)| match pick {
        0 => Algorithm::CHAIN,
        1 => Algorithm::CHAIN_KMC,
        2 => Algorithm::Chain(HamiltonianSpec::Alignment { q }),
        3 => Algorithm::ChainKmc(HamiltonianSpec::Alignment { q }),
        4 => Algorithm::Local,
        _ => "ablation-no-five".parse().unwrap(),
    })
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (0usize..4, 1u32..6).prop_map(|(pick, r)| match pick {
        0 => Shape::Line,
        1 => Shape::Spiral,
        2 => Shape::Annulus(r),
        _ => Shape::Random,
    })
}

fn arb_crash() -> impl Strategy<Value = Option<CrashSpec>> {
    (0usize..3, 0usize..=100).prop_map(|(pick, percent)| match pick {
        0 => None,
        pick => Some(CrashSpec {
            percent,
            after_burnin: pick == 2,
        }),
    })
}

/// Positive finite lambdas with short exact decimal forms.
fn arb_lambda() -> impl Strategy<Value = f64> {
    (1u32..80).prop_map(|x| f64::from(x) / 8.0)
}

fn arb_grid() -> impl Strategy<Value = GridSpec> {
    let axes = (
        proptest::collection::vec(arb_algorithm(), 1..3),
        proptest::collection::vec(arb_shape(), 1..3),
        proptest::collection::vec(1usize..200, 1..3),
        proptest::collection::vec(arb_lambda(), 1..3),
        (0usize..3, 2u8..6).prop_map(|(pick, q)| match pick {
            0 => None,
            1 => Some(vec![HamiltonianSpec::Edges]),
            _ => Some(vec![
                HamiltonianSpec::Edges,
                HamiltonianSpec::Alignment { q },
            ]),
        }),
        proptest::collection::vec(arb_crash(), 1..3),
    );
    let budgets = (
        1u64..4,
        0u64..1000,
        1u64..100_000,
        0u64..50,
        (0u32..3, 1u32..40).prop_map(|(pick, x)| (pick > 0).then(|| f64::from(x) / 4.0)),
    );
    (axes, budgets).prop_map(
        |(
            (algorithms, shapes, ns, lambdas, hamiltonians, crashes),
            (reps, burnin, steps, samples, until_alpha),
        )| GridSpec {
            algorithms,
            shapes,
            ns,
            lambdas,
            hamiltonians,
            crashes,
            reps,
            burnin,
            steps,
            samples,
            until_alpha,
        },
    )
}

/// Experiment names exercising the string escapes the format supports.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..8, 0usize..26), 1..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, letter)| match class {
                0 => '"',
                1 => '\\',
                2 => '\t',
                3 => '#',
                4 => ' ',
                5 => char::from(b'0' + (letter % 10) as u8),
                _ => char::from(b'a' + letter as u8),
            })
            .collect()
    })
}

fn arb_spec() -> impl Strategy<Value = ExperimentSpec> {
    (
        arb_name(),
        any::<u64>(),
        proptest::collection::vec(arb_grid(), 1..3),
        (0u32..2, 1u64..5000, 0usize..26).prop_map(|(pick, every, letter)| {
            (pick > 0).then(|| CheckpointSpec {
                dir: PathBuf::from(format!("ck-{}", char::from(b'a' + letter as u8))),
                every,
            })
        }),
        (0usize..2, 0usize..26).prop_map(|(pick, letter)| {
            (pick > 0).then(|| format!("out-{}", char::from(b'a' + letter as u8)))
        }),
        // Shard worker counts: mostly the default 1 (whose canonical form
        // omits the key), sometimes a real fan-out.
        (0usize..3, 2usize..9).prop_map(|(pick, k)| if pick == 0 { k } else { 1 }),
    )
        .prop_map(
            |(name, seed, grids, checkpoint, output, shards)| ExperimentSpec {
                output: output.unwrap_or_else(|| name.clone()),
                name,
                seed,
                grids,
                checkpoint,
                shards,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// spec → canonical text → spec is the identity.
    #[test]
    fn canonical_text_round_trips(spec in arb_spec()) {
        let text = spec.to_toml();
        let reparsed = ExperimentSpec::parse(&text)
            .unwrap_or_else(|e| panic!("canonical text must reparse: {e}\n---\n{text}"));
        prop_assert_eq!(&reparsed, &spec, "round trip changed the spec\n---\n{}", text);
        // Serialization is a fixed point: to_toml(parse(to_toml(s))) == to_toml(s).
        prop_assert_eq!(reparsed.to_toml(), text);
    }

    /// A single-grid spec resolves to exactly the jobs its grid builds
    /// (the flag path): concatenation re-assigns the same ids and seeds.
    #[test]
    fn single_grid_spec_equals_hand_built_grid(grid in arb_grid(), seed in any::<u64>()) {
        let spec = ExperimentSpec {
            name: "prop".into(),
            seed,
            grids: vec![grid.clone()],
            checkpoint: None,
            output: "prop".into(),
            shards: 1,
        };
        prop_assert_eq!(spec.jobs(), grid.build(seed));
    }
}
