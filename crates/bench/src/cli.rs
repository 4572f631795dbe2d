//! A minimal `--key value` argument parser for experiment binaries.

use std::collections::BTreeMap;

/// Parsed command-line arguments: `--key value` pairs plus bare flags.
///
/// A flag may repeat (`--override a=1 --override b=2`): the scalar getters
/// return the **last** value, [`Args::get_strings`] returns all of them in
/// order.
///
/// # Example
///
/// ```
/// use sops_bench::Args;
///
/// let args = Args::from_iter(["--n", "100", "--quick"].map(String::from));
/// assert_eq!(args.get_usize("n", 50), 100);
/// assert!(args.flag("quick"));
/// assert_eq!(args.get_f64("lambda", 4.0), 4.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name).
    #[must_use]
    pub fn from_env() -> Args {
        Args::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator of argument strings.
    ///
    /// Not the `FromIterator` trait method: this performs flag parsing, not
    /// collection, and is deliberately an inherent constructor.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Args {
        let mut parsed = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    parsed
                        .values
                        .entry(key.to_string())
                        .or_default()
                        .push(value);
                }
                _ => parsed.flags.push(key.to_string()),
            }
        }
        parsed
    }

    /// Whether a bare flag like `--quick` was passed.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A `usize` value with a default. A value that does not parse is a
    /// usage error: the process prints `--<name> expects an integer` and
    /// exits with status 2.
    #[must_use]
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.parse_or(name, default, "an integer")
    }

    /// A `u64` value with a default; a malformed value is a usage error, as
    /// for [`Args::get_usize`].
    #[must_use]
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.parse_or(name, default, "an integer")
    }

    /// The value of `--name` parsed as `T`, or `default` when absent. A
    /// value that does not parse exits the process with status 2 and the
    /// message `--<name> expects <what>`.
    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T, what: &str) -> T {
        match self.get_string(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("--{name} expects {what}"))),
        }
    }

    /// A string value, if present (the last one when the flag repeats).
    #[must_use]
    pub fn get_string(&self, name: &str) -> Option<String> {
        self.values
            .get(name)
            .and_then(|values| values.last().cloned())
    }

    /// Every value passed for a repeatable flag, in order (empty when the
    /// flag was never passed) — e.g. `sops-cli run`'s `--override`.
    #[must_use]
    pub fn get_strings(&self, name: &str) -> Vec<String> {
        self.values.get(name).cloned().unwrap_or_default()
    }

    /// The shared `--threads N` flag: worker-thread count for parallel
    /// experiment binaries, defaulting to the machine's available
    /// parallelism. Engine-backed sweeps produce identical results at any
    /// value; only wall-clock time changes. A malformed or zero value is a
    /// usage error (`--threads expects a positive integer`, status 2).
    #[must_use]
    pub fn threads(&self) -> usize {
        let what = "a positive integer";
        match self.parse_or("threads", sops_engine::default_threads(), what) {
            0 => usage_error(&format!("--threads expects {what}")),
            threads => threads,
        }
    }

    /// The shared `--algo NAME` flag combined with the optional
    /// `--hamiltonian SPEC` flag: parses the algorithm (defaulting to
    /// `default`), then swaps in the requested Hamiltonian on the chain
    /// samplers (`--hamiltonian alignment:3` ≡ `--algo chain+alignment:3`).
    ///
    /// Either flag failing to parse, or `--hamiltonian` given with an
    /// algorithm that does not take one, is a usage error (status 2).
    #[must_use]
    pub fn algorithm(&self, default: &str) -> sops_engine::Algorithm {
        let algo: sops_engine::Algorithm = self
            .get_string("algo")
            .unwrap_or_else(|| default.into())
            .parse()
            .unwrap_or_else(|err| usage_error(&format!("--algo: {err}")));
        match self.get_string("hamiltonian") {
            None => algo,
            Some(raw) => {
                let hamiltonian = raw
                    .parse()
                    .unwrap_or_else(|err| usage_error(&format!("--hamiltonian: {err}")));
                if !algo.is_chain_sampler() {
                    usage_error(&format!(
                        "--hamiltonian only applies to the chain samplers, not {algo}"
                    ));
                }
                algo.with_hamiltonian(hamiltonian)
            }
        }
    }

    /// The shared telemetry flags, shaped into an engine
    /// [`sops_engine::TelemetryConfig`]:
    ///
    /// * `--progress` — live progress heartbeat: a `jobs · steps · steps/s
    ///   · eta` line on **stderr** plus periodic `progress` JSONL events;
    /// * `--quiet` — suppress the heartbeat and status chatter (and wins
    ///   over `--progress`).
    ///
    /// Metric *collection* stays on either way — it is free on the hot path
    /// and `--metrics` (checked separately, see [`crate::out::write_metrics`])
    /// only controls whether the `metrics.json` artifact is written.
    #[must_use]
    pub fn telemetry(&self) -> sops_engine::TelemetryConfig {
        sops_engine::TelemetryConfig {
            progress: self.flag("progress") && !self.flag("quiet"),
            ..sops_engine::TelemetryConfig::default()
        }
    }

    /// An `f64` value with a default; a malformed value is a usage error
    /// (`--<name> expects a number`, status 2).
    #[must_use]
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.parse_or(name, default, "a number")
    }
}

/// Prints `message` and exits with status 2, the usage-error code of every
/// binary that parses its flags with [`Args`].
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_args() {
        let args =
            Args::from_iter(["--steps", "1000", "--quick", "--lambda", "2.5"].map(String::from));
        assert_eq!(args.get_u64("steps", 1), 1000);
        assert!((args.get_f64("lambda", 0.0) - 2.5).abs() < 1e-12);
        assert!(args.flag("quick"));
        assert!(!args.flag("verbose"));
    }

    #[test]
    fn defaults_apply() {
        let args = Args::from_iter(std::iter::empty());
        assert_eq!(args.get_usize("n", 42), 42);
    }

    #[test]
    fn repeated_flags_keep_every_value_in_order() {
        let args = Args::from_iter(
            ["--override", "a=1", "--n", "5", "--override", "b=2"].map(String::from),
        );
        assert_eq!(args.get_strings("override"), ["a=1", "b=2"]);
        assert_eq!(args.get_string("override").as_deref(), Some("b=2"));
        assert_eq!(args.get_strings("absent"), Vec::<String>::new());
        // Scalar getters see the last value of a repeated flag.
        let args = Args::from_iter(["--n", "5", "--n", "9"].map(String::from));
        assert_eq!(args.get_usize("n", 0), 9);
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let args = Args::from_iter(["--quick"].map(String::from));
        assert!(args.flag("quick"));
    }

    #[test]
    fn threads_defaults_to_available_parallelism() {
        let args = Args::from_iter(std::iter::empty());
        assert_eq!(args.threads(), sops_engine::default_threads());
        let args = Args::from_iter(["--threads", "3"].map(String::from));
        assert_eq!(args.threads(), 3);
    }
}
