//! [`ObsConfig`] — the knob that lives in `scimpi::ClusterSpec` next to
//! `Tuning` and `FaultConfig`.

use std::path::PathBuf;

/// Observability configuration for one simulated run.
///
/// `scimpi::run_report` applies this before starting the rank tasks:
/// when enabled it creates the run's recorder and binds every task of the
/// run to it, and at teardown it writes the requested export files
/// (after recording an end-of-run per-link traffic snapshot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When `false`, the run has no recorder and every
    /// hook in the stack is one thread-local load and a branch.
    pub enabled: bool,
    /// If set, write a Chrome `trace_event` JSON here at teardown. Only
    /// a run with a trace file keeps its trace events; without one a
    /// span only feeds its profile histogram and an instant is dropped.
    pub trace_path: Option<PathBuf>,
    /// If set, write the JSONL counter dump here at teardown.
    pub counters_path: Option<PathBuf>,
    /// If set, write the `PROFILE` report (attribution table, span
    /// histograms, critical path) here at teardown.
    pub profile_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Recording off — the default, and the zero-overhead mode.
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Recording on, nothing written to disk (inspect the `RunReport`).
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// Recording on, with a Chrome trace written to `path` at teardown.
    pub fn with_trace(path: impl Into<PathBuf>) -> Self {
        ObsConfig {
            trace_path: Some(path.into()),
            ..ObsConfig::enabled()
        }
    }

    /// Add a JSONL counter dump at `path`.
    pub fn and_counters(mut self, path: impl Into<PathBuf>) -> Self {
        self.counters_path = Some(path.into());
        self.enabled = true;
        self
    }

    /// Add a `PROFILE` report (attribution + histograms + critical
    /// path) at `path`.
    pub fn and_profile(mut self, path: impl Into<PathBuf>) -> Self {
        self.profile_path = Some(path.into());
        self.enabled = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(!ObsConfig::disabled().enabled);
        assert!(ObsConfig::enabled().enabled);
        let c = ObsConfig::with_trace("/tmp/t.json")
            .and_counters("/tmp/c.jsonl")
            .and_profile("/tmp/p.json");
        assert!(c.enabled && c.trace_path.is_some() && c.counters_path.is_some());
        assert!(c.profile_path.is_some());
    }
}
