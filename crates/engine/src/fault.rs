//! Deterministic fault injection: named fault points threaded through the
//! engine's I/O and stepping paths.
//!
//! Real crash testing (kill -9, full disks) is nondeterministic and slow;
//! this module makes every failure path *reachable on purpose*. A
//! [`FaultSpec`] — built in tests or parsed from the `SOPS_FAULTS`
//! environment variable — names which [fault points](POINTS) should fail,
//! for which job, on which hits, and how (an injected `io::Error` or a
//! panic). Arming the spec ([`FaultSpec::arm`]) produces a [`FaultPlan`]
//! whose hit counters make the schedule deterministic: the Nth time a
//! matching point is checked, it trips.
//!
//! The subsystem is a pure side channel when disarmed: with no plan (or a
//! plan whose rules never match), every sweep artifact is byte-identical to
//! a build without fault checks — the telemetry differential tests pin
//! this.
//!
//! # Spec grammar
//!
//! Clauses separated by `;`, each:
//!
//! ```text
//! point[#job][@from[..[to]]]=kind
//! ```
//!
//! * `point` — one of the names in [`POINTS`],
//! * `#job` — restrict to one job id (omitted: any job),
//! * `@from..to` — trip on hits `from..=to` (1-based; `@N` is hit `N`
//!   only, `@N..` is every hit from `N` on; omitted: every hit),
//! * `kind` — `io` (injected `io::Error`) or `panic`.
//!
//! Hits are counted per `(rule, job)` pair, so a rule without `#job`
//! still trips each job at the *same* point of its own timeline — the
//! schedule stays deterministic at any thread count. The exception is
//! `sink.emit`, which is checked without a job id: its global hit count
//! is only deterministic on one thread.
//!
//! Example: `SOPS_FAULTS='ckpt.write#0@1..2=io;job.step#1=panic'` fails
//! job 0's first two checkpoint-write attempts (exercising retry) and
//! panics job 1 at every stepping chunk (exercising quarantine).

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::pool::relock;

/// Every named fault point, in the order they appear in a sweep's life
/// cycle. Pinned verbatim in `docs/ROBUSTNESS.md` by the docs-sync test.
pub const POINTS: [&str; 6] = [
    "meta.open",
    "ckpt.read",
    "job.step",
    "ckpt.write",
    "done.write",
    "sink.emit",
];

/// Attempts made for a retryable operation (checkpoint/done/sink writes,
/// checkpoint reads): the first try plus two retries. Deterministic — the
/// backoff between attempts is cooperative (`yield_now`), never wall-clock,
/// so retried runs stay byte-reproducible.
pub const RETRY_ATTEMPTS: u32 = 3;

/// How a tripped fault point fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation returns an injected `io::Error`.
    Io,
    /// The operation panics (exercises worker isolation).
    Panic,
}

/// One parsed clause of a fault spec.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultRule {
    point: String,
    /// Restrict to this job id (`None`: any job).
    job: Option<usize>,
    /// Trip on hits `from..=to`, 1-based.
    from: u64,
    to: u64,
    kind: FaultKind,
}

/// A declarative fault-injection plan: which points fail, when, and how.
///
/// Plain data (`Clone`), carried by `EngineConfig`; [`FaultSpec::arm`]
/// creates the runtime hit counters fresh for each sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    rules: Vec<FaultRule>,
}

impl FaultSpec {
    /// An empty spec (no faults).
    #[must_use]
    pub fn new() -> FaultSpec {
        FaultSpec::default()
    }

    /// True when the spec holds no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Test-API builder: adds a rule tripping `point` (for `job`, or every
    /// job when `None`) on 1-based hits `from..=to` with failure `kind`.
    ///
    /// # Panics
    ///
    /// On an unknown point name or an empty/zero-based hit window — both
    /// are construction bugs, not runtime conditions.
    #[must_use]
    pub fn with(
        mut self,
        point: &str,
        job: Option<usize>,
        hits: std::ops::RangeInclusive<u64>,
        kind: FaultKind,
    ) -> FaultSpec {
        assert!(
            POINTS.contains(&point),
            "unknown fault point {point:?} (see fault::POINTS)"
        );
        let (from, to) = (*hits.start(), *hits.end());
        assert!(
            from >= 1 && from <= to,
            "hit window must be 1-based and nonempty"
        );
        self.rules.push(FaultRule {
            point: point.to_string(),
            job,
            from,
            to,
            kind,
        });
        self
    }

    /// Parses the `SOPS_FAULTS` grammar (module docs).
    ///
    /// # Errors
    ///
    /// A description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut rules = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            rules.push(parse_clause(clause)?);
        }
        Ok(FaultSpec { rules })
    }

    /// Reads a spec from the `SOPS_FAULTS` environment variable.
    /// `Ok(None)` when unset or empty.
    ///
    /// # Errors
    ///
    /// Same as [`FaultSpec::parse`] (a CLI treats this as a usage error).
    pub fn from_env() -> Result<Option<FaultSpec>, String> {
        match std::env::var("SOPS_FAULTS") {
            Ok(raw) if !raw.trim().is_empty() => {
                let spec = FaultSpec::parse(&raw)?;
                Ok((!spec.is_empty()).then_some(spec))
            }
            _ => Ok(None),
        }
    }

    /// Arms the spec: fresh hit counters, ready to be checked.
    #[must_use]
    pub fn arm(&self) -> FaultPlan {
        FaultPlan {
            rules: self.rules.clone(),
            hits: Mutex::new(BTreeMap::new()),
            injected: AtomicU64::new(0),
        }
    }
}

fn parse_clause(clause: &str) -> Result<FaultRule, String> {
    let (lhs, kind) = match clause.split_once('=') {
        Some((lhs, "io")) => (lhs, FaultKind::Io),
        Some((lhs, "panic")) => (lhs, FaultKind::Panic),
        Some((_, other)) => return Err(format!("unknown fault kind {other:?} (io|panic)")),
        None => (clause, FaultKind::Io),
    };
    let (head, window) = match lhs.split_once('@') {
        Some((head, window)) => (head, Some(window)),
        None => (lhs, None),
    };
    let (point, job) = match head.split_once('#') {
        Some((point, job)) => {
            let id = job
                .parse::<usize>()
                .map_err(|_| format!("bad job id {job:?} in {clause:?}"))?;
            (point, Some(id))
        }
        None => (head, None),
    };
    if !POINTS.contains(&point) {
        return Err(format!(
            "unknown fault point {point:?} (one of: {})",
            POINTS.join(", ")
        ));
    }
    let (from, to) = match window {
        None => (1, u64::MAX),
        Some(w) => match w.split_once("..") {
            None => {
                let n = parse_hit(w, clause)?;
                (n, n)
            }
            Some((a, "")) => (parse_hit(a, clause)?, u64::MAX),
            Some((a, b)) => (parse_hit(a, clause)?, parse_hit(b, clause)?),
        },
    };
    if from > to {
        return Err(format!("empty hit window in {clause:?}"));
    }
    Ok(FaultRule {
        point: point.to_string(),
        job,
        from,
        to,
        kind,
    })
}

fn parse_hit(raw: &str, clause: &str) -> Result<u64, String> {
    match raw.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad hit index {raw:?} in {clause:?} (1-based)")),
    }
}

/// An armed [`FaultSpec`]: rules plus deterministic per-`(rule, job)` hit
/// counters. One plan lives for one sweep; the engine checks it at every
/// named fault point.
#[derive(Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    hits: Mutex<BTreeMap<(usize, Option<usize>), u64>>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// Checks fault point `point` for `job`. Counts a hit on every matching
    /// rule; a hit inside a rule's window trips it — `Err` for
    /// [`FaultKind::Io`], a panic for [`FaultKind::Panic`].
    ///
    /// # Errors
    ///
    /// The injected `io::Error` when an `io` rule trips.
    ///
    /// # Panics
    ///
    /// When a `panic` rule trips (that is its job).
    pub fn check(&self, point: &str, job: Option<usize>) -> io::Result<()> {
        for (idx, rule) in self.rules.iter().enumerate() {
            if rule.point != point || (rule.job.is_some() && rule.job != job) {
                continue;
            }
            let hit = {
                let mut hits = relock(&self.hits);
                let h = hits.entry((idx, job)).or_insert(0);
                *h += 1;
                *h
            };
            if hit < rule.from || hit > rule.to {
                continue;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
            let at = match job {
                Some(id) => format!("{point} (job {id}, hit {hit})"),
                None => format!("{point} (hit {hit})"),
            };
            match rule.kind {
                FaultKind::Io => return Err(io::Error::other(format!("injected fault at {at}"))),
                FaultKind::Panic => panic!("injected panic at fault point {at}"),
            }
        }
        Ok(())
    }

    /// Total faults injected so far (both kinds). Surfaced as the
    /// `fault.injected` metric.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// Checks an optional plan — the engine-internal convenience for the
/// `Option<Arc<FaultPlan>>` handles threaded through the stack.
pub(crate) fn check(plan: Option<&FaultPlan>, point: &str, job: Option<usize>) -> io::Result<()> {
    match plan {
        Some(plan) => plan.check(point, job),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_jobs_windows_and_kinds() {
        let spec =
            FaultSpec::parse("ckpt.write#0@1..2=io; job.step#2=panic;sink.emit@3..").unwrap();
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(
            spec.rules[0],
            FaultRule {
                point: "ckpt.write".into(),
                job: Some(0),
                from: 1,
                to: 2,
                kind: FaultKind::Io,
            }
        );
        assert_eq!(spec.rules[1].job, Some(2));
        assert_eq!(spec.rules[1].kind, FaultKind::Panic);
        assert_eq!((spec.rules[1].from, spec.rules[1].to), (1, u64::MAX));
        assert_eq!(spec.rules[2].job, None);
        assert_eq!((spec.rules[2].from, spec.rules[2].to), (3, u64::MAX));
        // Kind defaults to io; single-hit windows pin from == to.
        let spec = FaultSpec::parse("done.write@4").unwrap();
        assert_eq!((spec.rules[0].from, spec.rules[0].to), (4, 4));
        assert_eq!(spec.rules[0].kind, FaultKind::Io);
        assert!(FaultSpec::parse(" ;; ").unwrap().is_empty());
    }

    #[test]
    fn malformed_clauses_are_rejected_with_context() {
        for bad in [
            "ckpt.writ=io",    // unknown point
            "ckpt.write=boom", // unknown kind
            "ckpt.write@0",    // hits are 1-based
            "ckpt.write@5..2", // empty window
            "ckpt.write#x=io", // bad job id
            "ckpt.write@a..b", // bad hit index
        ] {
            let err = FaultSpec::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad} must fail");
        }
        assert!(FaultSpec::parse("ckpt.writ")
            .unwrap_err()
            .contains("unknown fault point"));
    }

    #[test]
    fn windows_trip_deterministically_per_rule_and_job() {
        let plan = FaultSpec::new()
            .with("ckpt.write", Some(0), 2..=3, FaultKind::Io)
            .arm();
        assert!(plan.check("ckpt.write", Some(0)).is_ok(), "hit 1 passes");
        assert!(plan.check("ckpt.write", Some(0)).is_err(), "hit 2 trips");
        assert!(plan.check("ckpt.write", Some(0)).is_err(), "hit 3 trips");
        assert!(plan.check("ckpt.write", Some(0)).is_ok(), "hit 4 passes");
        assert!(plan.check("ckpt.write", Some(1)).is_ok(), "other job");
        assert!(plan.check("done.write", Some(0)).is_ok(), "other point");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn unscoped_rules_count_hits_per_job() {
        let plan = FaultSpec::new()
            .with("job.step", None, 2..=2, FaultKind::Io)
            .arm();
        // Each job owns its own hit counter: both trip on *their* second hit.
        for job in [0, 1] {
            assert!(plan.check("job.step", Some(job)).is_ok());
            assert!(plan.check("job.step", Some(job)).is_err());
            assert!(plan.check("job.step", Some(job)).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "injected panic at fault point job.step")]
    fn panic_rules_panic() {
        let plan = FaultSpec::new()
            .with("job.step", None, 1..=1, FaultKind::Panic)
            .arm();
        let _ = plan.check("job.step", Some(7));
    }

    #[test]
    fn env_parsing_is_optional_and_validated() {
        // Not set in the test environment (the chaos CI job sets it for
        // subprocesses only), so the unset path is what's coverable here.
        if std::env::var_os("SOPS_FAULTS").is_none() {
            assert_eq!(FaultSpec::from_env(), Ok(None));
        }
    }
}
