//! Streaming result sink: JSON-Lines events appended as a sweep runs.
//!
//! Every worker thread shares one [`EventSink`]; each event is a single
//! JSON object on its own line, flushed immediately so an interrupted
//! process leaves a complete prefix on disk.
//!
//! # Contract: line order is nondeterministic at `--threads > 1`
//!
//! Events stream as they happen, so lines from concurrently running jobs
//! interleave by scheduling: **the JSONL file's line order is not
//! reproducible across runs with more than one worker** (the line *set* is
//! — every event is still emitted exactly once, and on one thread the whole
//! file is byte-reproducible). This is a stated contract, not a bug; see
//! `ARCHITECTURE.md`. Two rules make the interleaving harmless, and
//! [`EventSink::emit`] debug-asserts them:
//!
//! 1. every event line is **self-describing** — it starts with an `"event"`
//!    field and carries its own `"job"` id where applicable, so a consumer
//!    can group by job instead of relying on adjacency, and
//! 2. every event is a **single line** — no embedded newlines, so
//!    interleaving can reorder lines but never corrupt one.
//!
//! Consumers needing a deterministic artifact read the final CSV, which is
//! built from per-job results in job-id order and is byte-identical at any
//! thread count.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fault::{self, FaultPlan, RETRY_ATTEMPTS};
use crate::pool::relock;

/// A shared, thread-safe JSONL event stream (possibly disabled).
#[derive(Debug, Default)]
pub struct EventSink {
    writer: Option<Mutex<File>>,
    /// Events successfully written.
    events: AtomicU64,
    /// Events dropped by an I/O error after exhausting the bounded retry.
    /// Surfaced in `SweepReport::sink_errors` and as a final `sink_errors`
    /// JSONL event rather than silently swallowed.
    errors: AtomicU64,
    /// Fault-injection plan checked at the `sink.emit` point (see
    /// [`crate::fault`]); `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

impl EventSink {
    /// A sink that drops every event.
    #[must_use]
    pub fn disabled() -> EventSink {
        EventSink::default()
    }

    /// A sink appending to `path` (created along with parent directories).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the file.
    pub fn to_path(path: &Path) -> io::Result<EventSink> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventSink {
            writer: Some(Mutex::new(file)),
            events: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Attaches a fault-injection plan to the `sink.emit` point.
    #[must_use]
    pub(crate) fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> EventSink {
        self.faults = faults;
        self
    }

    /// Whether events are being persisted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// Events successfully written so far.
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Events dropped by I/O errors so far.
    #[must_use]
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Appends one event line (the `{}` braces are added here).
    ///
    /// Best-effort with a bounded deterministic retry: a transient I/O
    /// error is retried up to [`RETRY_ATTEMPTS`] times with cooperative
    /// (never wall-clock) backoff; an event still failing after that does
    /// not abort the sweep — events are diagnostics, the authoritative
    /// outputs are the done-records and the final CSV — but it is
    /// *counted*, and the count surfaces in `SweepReport::sink_errors`
    /// plus a trailing `sink_errors` event.
    pub fn emit(&self, body: &str) {
        // The line-order-nondeterminism contract (module docs): because
        // lines from different jobs interleave at --threads > 1, every
        // event must identify itself and fit on one line.
        debug_assert!(
            body.starts_with("\"event\":"),
            "JSONL events must lead with their event field (got {body:?})"
        );
        debug_assert!(
            !body.contains('\n'),
            "JSONL events must be single lines (got {body:?})"
        );
        if let Some(writer) = &self.writer {
            // Pre-format so a successful attempt is a single write_all —
            // a retried attempt rewrites the whole line, never a suffix.
            let line = format!("{{{body}}}\n");
            // Poison-tolerant: a worker panicking mid-emit (an injected
            // sink.emit panic trips before any bytes go out, and write_all
            // reports failure as Err, never by unwinding) leaves the File
            // itself coherent, so later events must keep flowing.
            let mut writer = relock(writer);
            for attempt in 1..=RETRY_ATTEMPTS {
                let outcome = fault::check(self.faults.as_deref(), "sink.emit", None)
                    .and_then(|()| writer.write_all(line.as_bytes()));
                match outcome {
                    Ok(()) => {
                        self.events.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) if attempt < RETRY_ATTEMPTS => {
                        for _ in 0..attempt {
                            std::thread::yield_now();
                        }
                    }
                    Err(_) => {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("sops_engine_sink_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let sink = EventSink::to_path(&path).unwrap();
        assert!(sink.is_enabled());
        sink.emit(&format!(
            "\"event\":{},\"job\":3",
            sops_telemetry::json::quote("sample")
        ));
        sink.emit("\"event\":\"done\"");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"event\":\"sample\",\"job\":3}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = EventSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit("\"event\":\"ignored\"");
        assert_eq!(sink.event_count(), 0);
        assert_eq!(sink.error_count(), 0);
    }

    #[test]
    fn sink_counts_written_events() {
        let dir = std::env::temp_dir().join("sops_engine_sink_count_test");
        let _ = std::fs::remove_dir_all(&dir);
        let sink = EventSink::to_path(&dir.join("events.jsonl")).unwrap();
        sink.emit("\"event\":\"a\"");
        sink.emit("\"event\":\"b\"");
        assert_eq!(sink.event_count(), 2);
        assert_eq!(sink.error_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sink_counts_dropped_events_instead_of_swallowing() {
        // /dev/full accepts the open but fails every write with ENOSPC —
        // the canonical way to exercise the I/O-error path for real.
        let Ok(sink) = EventSink::to_path(Path::new("/dev/full")) else {
            return; // sandboxed environments may forbid opening device files
        };
        sink.emit("\"event\":\"doomed\"");
        sink.emit("\"event\":\"doomed\"");
        assert_eq!(sink.error_count(), 2);
        assert_eq!(sink.event_count(), 0);
    }
}
