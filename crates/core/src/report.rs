//! The unified run report: every observable of one static-executor run
//! in one struct — wall clock, scheduler counters ([`PoolStats`]), the
//! §V-B remote-access percentages ([`RemoteAccessReport`]), the runtime
//! event trace, and for `execute_auto` the coloring wall-clock and the
//! autocolor [`SelectionReport`] — so a harness can print or serialize
//! one value per run.

use crate::metrics::RemoteAccessReport;
use nabbitc_autocolor::SelectionReport;
use nabbitc_runtime::{PoolStats, RuntimeTrace};
use std::time::Duration;

/// Everything one executor run produced, in one place.
///
/// Returned by [`StaticExecutor::execute`](crate::StaticExecutor::execute)
/// and [`execute_auto`](crate::StaticExecutor::execute_auto). Fields that a given entry point
/// cannot populate are `None` / empty defaults: a plain `execute` has no
/// coloring phase and no selection; a run on an untraced pool has no
/// runtime trace.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Wall-clock execution time (the threaded run itself, excluding any
    /// coloring phase).
    pub elapsed: Duration,
    /// Wall-clock time spent inferring and applying colors before the run
    /// (`None` when the graph's own colors were used).
    pub coloring_elapsed: Option<Duration>,
    /// Remote-access accounting (§V-B), counted on every run.
    pub remote: RemoteAccessReport,
    /// Scheduler statistics for this run (steals, first-work waits, ...).
    pub stats: PoolStats,
    /// Runtime event trace — per-worker spawn/exec/steal/idle events —
    /// when the pool was built with tracing enabled
    /// ([`TraceConfig`](nabbitc_runtime::TraceConfig)), `None` otherwise.
    pub runtime_trace: Option<RuntimeTrace>,
    /// Which autocolor candidate won, the fallback flag, and the scoring
    /// cost — populated by
    /// [`execute_auto`](crate::StaticExecutor::execute_auto) only.
    pub selection: Option<SelectionReport>,
    /// Pre-flight schedule lint findings over the executed coloring —
    /// populated by [`execute_auto`](crate::StaticExecutor::execute_auto)
    /// when [`ExecOptions::lint`](crate::ExecOptions) is a gate other
    /// than [`LintGate::Off`](crate::LintGate), `None` otherwise.
    pub lint: Option<nabbitc_lint::LintReport>,
}

impl RunReport {
    /// Execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Total time including any coloring phase.
    pub fn total_elapsed(&self) -> Duration {
        self.elapsed + self.coloring_elapsed.unwrap_or_default()
    }

    /// One-line human summary of the selection, or `None` when this run
    /// had none. Example:
    /// `auto: cp-level-aware (est 1234, 4 candidates, 1.2ms)`; a fallback
    /// selection is marked `[FALLBACK]`.
    pub fn selection_summary(&self) -> Option<String> {
        let sel = self.selection.as_ref()?;
        Some(format_selection(sel))
    }
}

/// Formats a [`SelectionReport`] as the one-line summary the bench
/// harnesses print (also used for [`RunReport::selection_summary`]).
pub fn format_selection(sel: &SelectionReport) -> String {
    format!(
        "auto: {}{} (est {}, {} candidates, {:.2?}){}",
        sel.chosen_name(),
        if sel.packed_estimate.is_some() {
            " [packed]"
        } else {
            ""
        },
        sel.chosen_estimate(),
        sel.candidates.len(),
        sel.elapsed,
        if sel.fallback { " [FALLBACK]" } else { "" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_empty() {
        let r = RunReport::default();
        assert_eq!(r.seconds(), 0.0);
        assert_eq!(r.total_elapsed(), Duration::ZERO);
        assert!(r.selection_summary().is_none());
        assert!(r.runtime_trace.is_none());
        assert_eq!(r.stats.total_tasks(), 0);
    }

    #[test]
    fn total_elapsed_includes_coloring() {
        let r = RunReport {
            elapsed: Duration::from_millis(30),
            coloring_elapsed: Some(Duration::from_millis(12)),
            ..RunReport::default()
        };
        assert_eq!(r.total_elapsed(), Duration::from_millis(42));
    }
}
