//! `sops-cli` rejects malformed flags with a usage error — exit code 2 and
//! a message — never a panic.

use std::process::Command;

/// Runs `sops-cli` with `args` and returns `(exit code, stderr)`.
fn sops_cli(args: &[&str]) -> (Option<i32>, String) {
    let results = std::env::temp_dir().join(format!("sops_cli_usage_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_sops-cli"))
        .args(args)
        .env("SOPS_RESULTS_DIR", &results)
        .output()
        .expect("sops-cli runs");
    let _ = std::fs::remove_dir_all(&results);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn sweep_rejects_an_empty_list_flag() {
    for (flag, value) in [("--hamiltonian", ","), ("--n", ","), ("--lambda", "")] {
        let (code, stderr) = sops_cli(&[
            "sweep",
            "--n",
            "10",
            "--steps",
            "100",
            "--samples",
            "1",
            flag,
            value,
            "--quiet",
        ]);
        assert_eq!(code, Some(2), "{flag} {value:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value:?}: {stderr}");
        assert!(
            stderr.contains("expects at least one value"),
            "{flag} {value:?}: {stderr}"
        );
    }
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    let cases: [(&[&str], &str); 2] = [
        (&["sweep", "--steps", "x"], "--steps expects an integer"),
        (&["local", "--rounds", "x"], "--rounds expects an integer"),
    ];
    for (args, message) in cases {
        let (code, stderr) = sops_cli(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn zero_threads_is_a_usage_error() {
    let (code, stderr) = sops_cli(&["sweep", "--threads", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("--threads expects a positive integer"),
        "{stderr}"
    );
}

#[test]
fn sweep_rejects_a_grid_no_job_can_run() {
    for (flag, value, message) in [
        ("--reps", "0", "--reps: at least one repetition"),
        ("--n", "0", "--n: particle counts must be positive"),
        ("--lambda", "inf", "--lambda: the bias lambda must be"),
    ] {
        let (code, stderr) = sops_cli(&["sweep", "--steps", "100", flag, value, "--quiet"]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(message), "{flag} {value}: {stderr}");
    }
}
