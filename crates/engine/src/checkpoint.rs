//! Durable sweep state: done-records, mid-job checkpoints, and failed-job
//! quarantine records.
//!
//! Layout of a checkpoint directory:
//!
//! ```text
//! <dir>/meta.txt            canonical description of every job in the sweep
//! <dir>/done/job-<id>.txt   one JobResult per completed job
//! <dir>/ckpt/job-<id>.txt   mid-flight engine state + simulator snapshot
//! <dir>/failed/job-<id>.txt quarantine record of a failed (panicked/errored) job
//! ```
//!
//! Durability model: every record write goes through a per-process `.tmp`
//! file, `sync_all`, rename, and a parent-directory fsync, so a kill at any
//! instant leaves either the old state or the new state, never a torn file
//! under the final name. Stale `.tmp` files from killed processes are
//! swept when the directory is opened. Done- and checkpoint-records carry
//! an FNV-1a checksum header; a record that fails its checksum (or fails
//! to parse — e.g. written by a pre-checksum version and then truncated)
//! is *discarded*, demoting that one job to recompute-from-scratch instead
//! of aborting the sweep. Headerless records parse leniently so
//! pre-checksum checkpoint directories stay resumable.
//!
//! Transient write/read errors get a bounded deterministic retry
//! ([`crate::fault::RETRY_ATTEMPTS`] attempts, cooperative backoff — no
//! wall-clock, so outputs stay reproducible). `meta.txt` stays strict: it
//! guards against resuming a directory holding a *different* sweep, and
//! any mismatch in the job list is an error, not silent reuse.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fault::{self, FaultPlan, RETRY_ATTEMPTS};
use crate::grid::JobSpec;
use crate::result::JobResult;

/// Where and how often a sweep checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// The checkpoint directory (created on demand; reused to resume).
    pub dir: PathBuf,
    /// Work units (steps/rounds) between mid-job checkpoints.
    pub every: u64,
}

impl CheckpointConfig {
    /// A config checkpointing under `dir` every `every` work units.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every: every.max(1),
        }
    }
}

/// FNV-1a 64 over raw bytes — the checksum sealing engine records.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const CHECKSUM_KEY: &str = "checksum=fnv1a64:";

/// Prepends the checksum header line; [`unseal`] strips and verifies it.
/// The header-first layout means any truncation of the stored file damages
/// the body (never just the checksum), so torn writes are always caught.
///
/// Public so other writers of durable records (benchmark drivers, tools
/// that prepare checkpoint directories) use the store's exact format.
#[must_use]
pub fn seal(content: &str) -> String {
    format!(
        "{CHECKSUM_KEY}{:016x}\n{content}",
        fnv1a64(content.as_bytes())
    )
}

/// Verifies and strips a [`seal`] header. Headerless text is accepted
/// unchanged (pre-checksum records); a present-but-wrong checksum is an
/// error described by the returned reason.
///
/// # Errors
///
/// A present-but-damaged header or a checksum mismatch, described by the
/// returned reason string.
pub fn unseal(text: &str) -> Result<&str, String> {
    let Some(rest) = text.strip_prefix(CHECKSUM_KEY) else {
        return Ok(text);
    };
    let Some((hex, body)) = rest.split_once('\n') else {
        return Err("truncated checksum header".to_string());
    };
    let expected =
        u64::from_str_radix(hex, 16).map_err(|_| format!("malformed checksum {hex:?}"))?;
    let actual = fnv1a64(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checksum mismatch (stored {expected:016x}, computed {actual:016x})"
        ));
    }
    Ok(body)
}

/// Writes `content` under `path` atomically *and durably*: a per-process
/// `.tmp` sibling (`<name>.<pid>.tmp`, so concurrent processes can never
/// collide and leftovers can never shadow a real `.txt` record), fsynced,
/// renamed over the target, with a parent-directory fsync so the rename
/// itself survives a crash.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing or renaming the file.
pub fn write_atomic(path: &Path, content: &str) -> io::Result<()> {
    use std::io::Write as _;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!("{name}.{}.tmp", std::process::id()));
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(content.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Fsyncs `path`'s parent directory so a just-renamed entry is durable.
/// Directory handles are only fsync-able on unix; elsewhere the rename
/// alone is the best available.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::File::open(parent)?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// A mid-flight checkpoint, as loaded from disk.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CkptLoad {
    /// No checkpoint for this job.
    None,
    /// The checkpoint failed its checksum and was discarded; the job
    /// recomputes from scratch. Carries the reason for the warning event.
    Corrupt(String),
    /// The verified checkpoint body.
    Snapshot(String),
}

/// A corrupt record discarded while loading done-records.
#[derive(Debug)]
pub(crate) struct Discarded {
    /// Job id recovered from the filename, when it follows `job-<id>.txt`.
    pub(crate) job: Option<usize>,
    pub(crate) file: String,
    pub(crate) reason: String,
}

/// Handle to an open (validated) checkpoint directory.
#[derive(Debug)]
pub(crate) struct Store {
    dir: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    /// Write/read attempts retried after a transient error (`ckpt.retry`).
    retries: AtomicU64,
    /// Corrupt records discarded and demoted to recompute
    /// (`ckpt.corrupt_discarded`).
    corrupt_discarded: AtomicU64,
}

impl Store {
    /// Opens (or initializes) `dir` for the given sweep. Returns the store
    /// and whether the directory already existed (i.e. this is a resume).
    /// Opening also sweeps stale `.tmp` files left by killed processes.
    ///
    /// When the sweep carries experiment provenance (it was launched from an
    /// experiment file, see [`crate::experiment`]), `meta.txt` leads with an
    /// `experiment=<name>` line; provenance participates in the
    /// foreign-sweep check like every other line.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` when the directory belongs to a
    /// different sweep.
    pub(crate) fn open(
        dir: &Path,
        specs: &[JobSpec],
        experiment: Option<&str>,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<(Store, bool)> {
        fault::check(faults.as_deref(), "meta.open", None)?;
        let store = Store {
            dir: dir.to_path_buf(),
            faults,
            retries: AtomicU64::new(0),
            corrupt_discarded: AtomicU64::new(0),
        };
        fs::create_dir_all(dir.join("done"))?;
        fs::create_dir_all(dir.join("ckpt"))?;
        fs::create_dir_all(dir.join("failed"))?;
        store.sweep_stale_tmp()?;
        let provenance = experiment.map_or(String::new(), |name| format!("experiment={name}\n"));
        let meta: String = provenance
            + &specs
                .iter()
                .map(|s| s.describe() + "\n")
                .collect::<String>();
        let meta_path = dir.join("meta.txt");
        let resuming = meta_path.exists();
        if resuming {
            let existing = fs::read_to_string(&meta_path)?;
            if existing != meta {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint directory {} holds a different sweep; \
                         delete it or pick another directory",
                        dir.display()
                    ),
                ));
            }
        } else {
            write_atomic(&meta_path, &meta)?;
        }
        Ok((store, resuming))
    }

    /// Deletes leftover `.tmp` files (from this or any earlier process) in
    /// the store's directories, so an interrupted atomic write can never
    /// accumulate garbage or confuse later tooling.
    fn sweep_stale_tmp(&self) -> io::Result<()> {
        for sub in ["", "done", "ckpt", "failed"] {
            let dir = if sub.is_empty() {
                self.dir.clone()
            } else {
                self.dir.join(sub)
            };
            for entry in fs::read_dir(&dir)? {
                let path = entry?.path();
                if path.is_file() && path.extension().is_some_and(|e| e == "tmp") {
                    remove_if_exists(&path)?;
                }
            }
        }
        Ok(())
    }

    fn fault(&self, point: &str, job: Option<usize>) -> io::Result<()> {
        fault::check(self.faults.as_deref(), point, job)
    }

    /// Runs `op` up to [`RETRY_ATTEMPTS`] times. The backoff is cooperative
    /// (`yield_now`, escalating with the attempt) — never wall-clock, so a
    /// retried run produces byte-identical artifacts.
    fn with_retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 1;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < RETRY_ATTEMPTS => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..attempt {
                        std::thread::yield_now();
                    }
                    attempt += 1;
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Retried attempts so far (the `ckpt.retry` metric).
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Corrupt records discarded so far (`ckpt.corrupt_discarded`).
    pub(crate) fn corrupt_discarded(&self) -> u64 {
        self.corrupt_discarded.load(Ordering::Relaxed)
    }

    fn done_path(&self, id: usize) -> PathBuf {
        self.dir.join("done").join(format!("job-{id}.txt"))
    }

    fn ckpt_path(&self, id: usize) -> PathBuf {
        self.dir.join("ckpt").join(format!("job-{id}.txt"))
    }

    fn failed_path(&self, id: usize) -> PathBuf {
        self.dir.join("failed").join(format!("job-{id}.txt"))
    }

    /// Loads every persisted done-record, sorted by job id. Corrupt records
    /// (checksum or parse failure) are deleted and reported as [`Discarded`]
    /// — those jobs recompute from scratch instead of aborting the sweep.
    pub(crate) fn load_done(&self) -> io::Result<(Vec<JobResult>, Vec<Discarded>)> {
        let mut results = Vec::new();
        let mut discarded = Vec::new();
        for entry in fs::read_dir(self.dir.join("done"))? {
            let path = entry?.path();
            if !path.extension().is_some_and(|e| e == "txt") {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            let parsed = unseal(&text)
                .and_then(|body| JobResult::from_text(body).map_err(|e| e.to_string()));
            match parsed {
                Ok(result) => results.push(result),
                Err(reason) => {
                    remove_if_exists(&path)?;
                    self.corrupt_discarded.fetch_add(1, Ordering::Relaxed);
                    discarded.push(Discarded {
                        job: job_id_of(&path),
                        file: path.display().to_string(),
                        reason,
                    });
                }
            }
        }
        results.sort_by_key(|r| r.job);
        discarded.sort_by_key(|d| d.job);
        Ok((results, discarded))
    }

    /// Persists a completed job, then drops its mid-flight checkpoint and
    /// any failed-record quarantining it.
    pub(crate) fn write_done(&self, result: &JobResult) -> io::Result<()> {
        let sealed = seal(&result.to_text());
        let path = self.done_path(result.job);
        self.with_retry(|| {
            self.fault("done.write", Some(result.job))?;
            write_atomic(&path, &sealed)
        })?;
        remove_if_exists(&self.ckpt_path(result.job))?;
        remove_if_exists(&self.failed_path(result.job))
    }

    /// The mid-flight checkpoint for a job. A checkpoint that fails its
    /// checksum is deleted and reported as [`CkptLoad::Corrupt`]; the
    /// caller demotes the job to a fresh start.
    pub(crate) fn load_ckpt(&self, id: usize) -> io::Result<CkptLoad> {
        let path = self.ckpt_path(id);
        let text = self.with_retry(|| {
            self.fault("ckpt.read", Some(id))?;
            match fs::read_to_string(&path) {
                Ok(text) => Ok(Some(text)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(e),
            }
        })?;
        let Some(text) = text else {
            return Ok(CkptLoad::None);
        };
        match unseal(&text) {
            Ok(body) => Ok(CkptLoad::Snapshot(body.to_string())),
            Err(reason) => {
                self.discard_ckpt(id)?;
                Ok(CkptLoad::Corrupt(reason))
            }
        }
    }

    /// Atomically replaces the mid-flight checkpoint for a job.
    pub(crate) fn write_ckpt(&self, id: usize, text: &str) -> io::Result<()> {
        let sealed = seal(text);
        let path = self.ckpt_path(id);
        self.with_retry(|| {
            self.fault("ckpt.write", Some(id))?;
            write_atomic(&path, &sealed)
        })
    }

    /// Deletes a corrupt checkpoint and counts the demotion. Also used by
    /// the job runner when a checksum-valid checkpoint fails to *parse*
    /// (e.g. a truncated pre-checksum record).
    pub(crate) fn discard_ckpt(&self, id: usize) -> io::Result<()> {
        remove_if_exists(&self.ckpt_path(id))?;
        self.corrupt_discarded.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Quarantines a failed job with a durable record of the cause.
    /// Newlines in the error collapse to spaces (the record is line-based).
    pub(crate) fn write_failed(&self, id: usize, error: &str) -> io::Result<()> {
        let content = format!(
            "sops-engine-failed v1\njob={id}\nerror={}\n",
            error.replace('\n', " ")
        );
        write_atomic(&self.failed_path(id), &seal(&content))
    }

    /// Loads the quarantine records, `(job id, recorded error)` sorted by
    /// id. Unreadable records still quarantine (with a placeholder cause):
    /// losing the message must not un-quarantine a job.
    pub(crate) fn load_failed(&self) -> io::Result<Vec<(usize, String)>> {
        let mut failed = Vec::new();
        for entry in fs::read_dir(self.dir.join("failed"))? {
            let path = entry?.path();
            if !path.extension().is_some_and(|e| e == "txt") {
                continue;
            }
            let Some(id) = job_id_of(&path) else { continue };
            let error = fs::read_to_string(&path)
                .ok()
                .and_then(|text| {
                    let body = unseal(&text).ok()?.to_string();
                    body.lines()
                        .find_map(|l| l.strip_prefix("error=").map(str::to_string))
                })
                .unwrap_or_else(|| "unreadable failure record".to_string());
            failed.push((id, error));
        }
        failed.sort_by_key(|&(id, _)| id);
        Ok(failed)
    }

    /// Removes a quarantine record (before re-running the job).
    pub(crate) fn clear_failed(&self, id: usize) -> io::Result<()> {
        remove_if_exists(&self.failed_path(id))
    }
}

/// `remove_file` that treats an already-absent file as success.
fn remove_if_exists(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Parses the `<id>` out of a `job-<id>.txt` path.
fn job_id_of(path: &Path) -> Option<usize> {
    path.file_stem()?
        .to_str()?
        .strip_prefix("job-")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Algorithm, GridSpec};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sops_engine_store_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_initializes_and_detects_foreign_sweeps() {
        let dir = tmp("meta");
        let specs = GridSpec {
            ns: vec![5],
            ..GridSpec::default()
        }
        .build(1);
        let (_, resumed) = Store::open(&dir, &specs, None, None).unwrap();
        assert!(!resumed);
        let (_, resumed) = Store::open(&dir, &specs, None, None).unwrap();
        assert!(resumed);
        let other = GridSpec {
            ns: vec![6],
            lambdas: vec![3.0],
            ..GridSpec::default()
        }
        .build(2);
        let err = Store::open(&dir, &other, None, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_provenance_leads_meta_and_guards_resume() {
        let dir = tmp("provenance");
        let specs = GridSpec {
            ns: vec![5],
            ..GridSpec::default()
        }
        .build(1);
        let _ = Store::open(&dir, &specs, Some("fig2-compression"), None).unwrap();
        let meta = fs::read_to_string(dir.join("meta.txt")).unwrap();
        assert!(
            meta.starts_with("experiment=fig2-compression\n"),
            "meta must lead with the provenance line, got:\n{meta}"
        );
        // Same provenance resumes; different (or missing) provenance is a
        // different sweep.
        let (_, resumed) = Store::open(&dir, &specs, Some("fig2-compression"), None).unwrap();
        assert!(resumed);
        assert!(Store::open(&dir, &specs, Some("other"), None).is_err());
        assert!(Store::open(&dir, &specs, None, None).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_records_round_trip_and_clear_ckpts() {
        let dir = tmp("done");
        let specs = GridSpec {
            algorithms: vec![Algorithm::CHAIN],
            ..GridSpec::default()
        }
        .build(1);
        let (store, _) = Store::open(&dir, &specs, None, None).unwrap();
        store.write_ckpt(0, "partial state").unwrap();
        assert_eq!(
            store.load_ckpt(0).unwrap(),
            CkptLoad::Snapshot("partial state".to_string()),
            "sealing must round-trip the exact body"
        );
        let result = JobResult {
            job: 0,
            particles: 1,
            samples: vec![3.5],
            work_done: 10,
            final_perimeter: 9,
            final_edges: 4,
            final_connected: true,
            final_aligned: None,
            first_hit: None,
            violations: 0,
            counts: crate::result::StepRecord::None,
        };
        store.write_done(&result).unwrap();
        assert_eq!(
            store.load_ckpt(0).unwrap(),
            CkptLoad::None,
            "done clears the ckpt"
        );
        let (results, discarded) = store.load_done().unwrap();
        assert_eq!(results, vec![result]);
        assert!(discarded.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_and_unseal_round_trip_and_catch_corruption() {
        let body = "sops-engine-result v1\njob=3\n";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed), Ok(body));
        // Headerless (pre-checksum) records pass through unchanged.
        assert_eq!(unseal(body), Ok(body));
        // Any damage to the stored bytes is caught.
        let flipped = sealed.replace("job=3", "job=4");
        assert!(unseal(&flipped).unwrap_err().contains("mismatch"));
        for cut in 0..sealed.len() {
            let torn = &sealed[..cut];
            // A torn file either loses the header (passes through, but the
            // body is then header debris that can't parse) or fails its
            // checksum; it never verifies.
            if let Ok(text) = unseal(torn) {
                assert!(JobResult::from_text(text).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open_and_never_shadow_records() {
        let dir = tmp("tmpsweep");
        let specs = GridSpec {
            ns: vec![5],
            ..GridSpec::default()
        }
        .build(1);
        let (store, _) = Store::open(&dir, &specs, None, None).unwrap();
        store.write_ckpt(0, "state").unwrap();
        let strays = [
            dir.join("ckpt").join("job-0.txt.12345.tmp"),
            dir.join("done").join("job-0.txt.99.tmp"),
            dir.join("meta.txt.1.tmp"),
        ];
        for stray in &strays {
            fs::write(stray, "garbage from a killed process").unwrap();
        }
        // Stray .tmp files don't read as records...
        let (results, discarded) = store.load_done().unwrap();
        assert!(results.is_empty() && discarded.is_empty());
        // ...and reopening sweeps them while keeping real records.
        let (store, resumed) = Store::open(&dir, &specs, None, None).unwrap();
        assert!(resumed);
        for stray in &strays {
            assert!(!stray.exists(), "{} must be swept", stray.display());
        }
        assert_eq!(
            store.load_ckpt(0).unwrap(),
            CkptLoad::Snapshot("state".to_string())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_ckpts_are_discarded_not_fatal() {
        let dir = tmp("corrupt_ckpt");
        let specs = GridSpec {
            ns: vec![5],
            ..GridSpec::default()
        }
        .build(1);
        let (store, _) = Store::open(&dir, &specs, None, None).unwrap();
        store.write_ckpt(0, "good body").unwrap();
        let path = dir.join("ckpt").join("job-0.txt");
        let sealed = fs::read_to_string(&path).unwrap();
        fs::write(&path, &sealed[..sealed.len() / 2]).unwrap();
        match store.load_ckpt(0).unwrap() {
            CkptLoad::Corrupt(reason) => assert!(!reason.is_empty()),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt ckpt must be deleted");
        assert_eq!(store.corrupt_discarded(), 1);
        assert_eq!(store.load_ckpt(0).unwrap(), CkptLoad::None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_records_quarantine_and_clear() {
        let dir = tmp("failed");
        let specs = GridSpec {
            ns: vec![5, 6],
            ..GridSpec::default()
        }
        .build(2);
        let (store, _) = Store::open(&dir, &specs, None, None).unwrap();
        store
            .write_failed(1, "panic: injected\nsecond line")
            .unwrap();
        assert_eq!(
            store.load_failed().unwrap(),
            vec![(1, "panic: injected second line".to_string())]
        );
        store.clear_failed(1).unwrap();
        store.clear_failed(1).unwrap(); // idempotent
        assert!(store.load_failed().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
