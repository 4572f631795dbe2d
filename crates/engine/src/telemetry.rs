//! Engine-side telemetry policy: what gets collected, the sweep heartbeat,
//! and the derived-rate finalization of `metrics.json`.
//!
//! The mechanism (sheets, registry, histograms, rendering) lives in
//! dependency-free `sops_telemetry`; this module decides *what* the engine
//! records and *when*. The determinism contract is inherited from the
//! probes: nothing here reads back into simulation state, so every output
//! the engine promises to be byte-identical (CSV, done-records, snapshots,
//! job JSONL lines) stays byte-identical with telemetry on, off, or at any
//! heartbeat rate. The only artifacts telemetry adds are new ones — the
//! `metrics.json` document, the stderr progress line, and `progress` /
//! `sink_errors` JSONL events.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sops_telemetry::{Live, Progress, Registry, Sheet};

use crate::sink::EventSink;

/// What the engine's telemetry layer does during a sweep.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Collect counters, histograms and phase timers into the sweep
    /// registry (surfaced as `SweepReport::metrics`). Cheap enough to stay
    /// on: the per-step cost is zero (probes are always-on plain data in
    /// `sops-core`) and the per-job cost is one sheet merge.
    pub collect: bool,
    /// Run the heartbeat: a live `jobs · steps · steps/s · eta` line on
    /// stderr, plus a `progress` JSONL event per beat when an event sink is
    /// configured.
    pub progress: bool,
    /// Milliseconds between heartbeats (clamped to ≥ 50).
    pub heartbeat_ms: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            collect: true,
            progress: false,
            heartbeat_ms: 1000,
        }
    }
}

impl TelemetryConfig {
    /// Everything off — the configuration the differential tests compare
    /// against.
    #[must_use]
    pub fn disabled() -> TelemetryConfig {
        TelemetryConfig {
            collect: false,
            progress: false,
            heartbeat_ms: 1000,
        }
    }

    /// Whether any per-job recording is needed (collection or the live
    /// work counters feeding the progress line).
    #[must_use]
    pub(crate) fn is_active(&self) -> bool {
        self.collect || self.progress
    }
}

/// Reads the live counters into a [`Progress`] snapshot.
fn progress_snapshot(live: &Live, started: Instant) -> Progress {
    Progress {
        jobs_done: Live::get(&live.jobs_done),
        jobs_total: Live::get(&live.jobs_total),
        work_done: Live::get(&live.work_done),
        work_total: Live::get(&live.work_total),
        elapsed_secs: started.elapsed().as_secs_f64(),
    }
}

/// Emits one `progress` JSONL event (no-op on a disabled sink).
fn emit_progress_event(sink: &EventSink, p: &Progress) {
    sink.emit(&format!(
        "\"event\":\"progress\",\"jobs_done\":{},\"jobs_total\":{},\
         \"work_done\":{},\"work_total\":{},\"elapsed_secs\":{:.3}",
        p.jobs_done, p.jobs_total, p.work_done, p.work_total, p.elapsed_secs
    ));
}

/// The heartbeat loop: refreshes the stderr progress line and emits
/// `progress` events until `stop` is set, then prints a final line.
///
/// Runs on its own scoped thread inside `run_sweep`; the stderr line uses
/// `\r` so it redraws in place (stdout is never touched — it belongs to the
/// sweep's real output).
pub(crate) fn heartbeat(
    registry: &Registry,
    sink: &EventSink,
    heartbeat_ms: u64,
    stop: &AtomicBool,
    started: Instant,
) {
    let period = Duration::from_millis(heartbeat_ms.max(50));
    // Immediate first beat so short sweeps still show progress once.
    loop {
        let p = progress_snapshot(&registry.live, started);
        eprint!("\r{}", p.line());
        emit_progress_event(sink, &p);
        // Sleep in small slices so shutdown is prompt even at slow rates.
        let deadline = Instant::now() + period;
        while Instant::now() < deadline {
            if stop.load(Ordering::SeqCst) {
                let p = progress_snapshot(&registry.live, started);
                eprintln!("\r{}", p.line());
                emit_progress_event(sink, &p);
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Derives the rate gauges from the raw counters, in place. Called once at
/// sweep end, so `metrics.json` carries BENCH-style numbers directly:
///
/// * `rate.<family>.steps_per_sec` — session work units over wall-clock
///   stepping time (`<family>.work` / `time.step.<family>_ns`),
/// * `rate.<family>.acceptance` — accepted moves over session work units,
///   the `StepRecord` acceptance rate aggregated across the sweep's jobs.
pub(crate) fn finalize_rates(sheet: &mut Sheet) {
    for family in crate::job::kinds() {
        let work = sheet.counter(&format!("{family}.work"));
        let step_ns = sheet.counter(&format!("time.step.{family}_ns"));
        if work > 0 && step_ns > 0 {
            sheet.gauge_add(
                &format!("rate.{family}.steps_per_sec"),
                work as f64 / (step_ns as f64 / 1e9),
            );
        }
        let accepted = sheet.counter(&format!("{family}.accepted"));
        if work > 0 && accepted > 0 {
            sheet.gauge_add(
                &format!("rate.{family}.acceptance"),
                accepted as f64 / work as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_collects_without_progress() {
        let cfg = TelemetryConfig::default();
        assert!(cfg.collect && !cfg.progress && cfg.is_active());
        assert!(!TelemetryConfig::disabled().is_active());
    }

    #[test]
    fn finalize_derives_rates_only_when_defined() {
        let mut sheet = Sheet::new();
        sheet.add("chain.work", 2_000_000);
        sheet.add("time.step.chain_ns", 1_000_000_000);
        sheet.add("chain.accepted", 500_000);
        sheet.add("kmc.work", 100); // no timing recorded → no rate
        finalize_rates(&mut sheet);
        assert!((sheet.gauge("rate.chain.steps_per_sec") - 2e6).abs() < 1e-6);
        assert!((sheet.gauge("rate.chain.acceptance") - 0.25).abs() < 1e-12);
        assert!(!sheet.gauges().any(|(k, _)| k.contains("kmc")));
    }

    #[test]
    fn progress_events_are_valid_sink_lines() {
        // The debug_asserts in EventSink::emit enforce the event contract;
        // a progress event must satisfy them.
        let sink = EventSink::disabled();
        let p = Progress {
            jobs_done: 1,
            jobs_total: 2,
            work_done: 10,
            work_total: 20,
            elapsed_secs: 0.5,
        };
        emit_progress_event(&sink, &p);
    }
}
