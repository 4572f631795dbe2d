//! The experiment binaries reject malformed `--algo` and `--hamiltonian`
//! flags with a usage error — exit code 2 and a message — never a panic.

use std::process::Command;

/// Runs `scaling_time` with `args` and returns `(exit code, stderr)`.
fn scaling_time(args: &[&str]) -> (Option<i32>, String) {
    let results = std::env::temp_dir().join(format!("sops_bench_usage_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_scaling_time"))
        .args(args)
        .env("SOPS_RESULTS_DIR", &results)
        .output()
        .expect("scaling_time runs");
    let _ = std::fs::remove_dir_all(&results);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_algorithm_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 4] = [
        (&["--algo", "warp"], "--algo:"),
        (&["--hamiltonian", "bogus"], "--hamiltonian:"),
        (
            &["--algo", "local", "--hamiltonian", "alignment"],
            "--hamiltonian only applies to the chain samplers",
        ),
        (&["--algo", "local"], "--algo must be chain or chain-kmc"),
    ];
    for (args, message) in cases {
        let (code, stderr) = scaling_time(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
