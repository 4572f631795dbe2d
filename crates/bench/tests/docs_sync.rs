//! Keeps `docs/EXPERIMENTS.md` and `docs/OBSERVABILITY.md` in sync with
//! the shared `--help` consts.
//!
//! The algorithm, Hamiltonian and telemetry vocabularies have exactly one
//! prose description each (`sops_bench::help`); the docs quote them
//! verbatim. If a const changes, these tests fail until the docs are
//! updated — the documentation cannot silently drift from what `--help`
//! prints.

use sops_bench::help::{ALGO_HELP, HAMILTONIAN_HELP, ROBUSTNESS_HELP, TELEMETRY_HELP};

fn doc(name: &str) -> String {
    let path = format!("{}/../../docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn experiments_md() -> String {
    doc("EXPERIMENTS.md")
}

#[test]
fn experiments_doc_quotes_algo_help_verbatim() {
    let docs = experiments_md();
    assert!(
        docs.contains(ALGO_HELP),
        "docs/EXPERIMENTS.md must contain sops_bench::help::ALGO_HELP verbatim;\n\
         update the ALGORITHMS code block to:\n{ALGO_HELP}"
    );
}

#[test]
fn experiments_doc_quotes_hamiltonian_help_verbatim() {
    let docs = experiments_md();
    assert!(
        docs.contains(HAMILTONIAN_HELP),
        "docs/EXPERIMENTS.md must contain sops_bench::help::HAMILTONIAN_HELP verbatim;\n\
         update the HAMILTONIANS code block to:\n{HAMILTONIAN_HELP}"
    );
}

#[test]
fn observability_doc_quotes_telemetry_help_verbatim() {
    let docs = doc("OBSERVABILITY.md");
    assert!(
        docs.contains(TELEMETRY_HELP),
        "docs/OBSERVABILITY.md must contain sops_bench::help::TELEMETRY_HELP verbatim;\n\
         update the Flags code block to:\n{TELEMETRY_HELP}"
    );
}

#[test]
fn robustness_doc_quotes_robustness_help_verbatim() {
    let docs = doc("ROBUSTNESS.md");
    assert!(
        docs.contains(ROBUSTNESS_HELP),
        "docs/ROBUSTNESS.md must contain sops_bench::help::ROBUSTNESS_HELP verbatim;\n\
         update the flags code block to:\n{ROBUSTNESS_HELP}"
    );
}

#[test]
fn robustness_doc_names_every_fault_point() {
    // Both directions: a point missing from the table, or a stale row for
    // a point the code no longer has, fails until the docs are updated.
    let docs = doc("ROBUSTNESS.md");
    let documented: Vec<&str> = docs
        .lines()
        .skip_while(|line| !line.starts_with("| fault point |"))
        .skip(2) // header and separator
        .take_while(|line| line.starts_with('|'))
        .map(|row| row.split('|').nth(1).unwrap_or_default().trim().trim_matches('`'))
        .collect();
    assert_eq!(
        documented,
        sops_engine::FAULT_POINTS,
        "docs/ROBUSTNESS.md's fault-point table must list exactly \
         sops_engine::FAULT_POINTS, in order"
    );
}

#[test]
fn experiments_doc_names_every_checked_in_example() {
    let docs = experiments_md();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/experiments");
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("examples/experiments exists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".toml") {
            assert!(
                docs.contains(&name),
                "docs/EXPERIMENTS.md must mention example {name}"
            );
            count += 1;
        }
    }
    assert!(
        count >= 4,
        "expected at least 4 example files, found {count}"
    );
}
