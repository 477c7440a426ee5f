//! Typed communication errors and MPI-style error-handler semantics.
//!
//! SCI "is still a network" (§2 of the paper): peers die, cables get
//! pulled, transfers error out hard after their retry budget. This module
//! is how those conditions surface above the fabric:
//!
//! * [`ScimpiError`] is the protocol-level error taxonomy;
//! * [`ErrorMode`] selects between `MPI_ERRORS_ARE_FATAL` (the default —
//!   any communication error aborts the run before the `Err` is
//!   observable) and `MPI_ERRORS_RETURN` (every communication verb
//!   returns the error as a value through its `Result`);
//! * [`death_delay`] is the deterministic virtual-time budget after which
//!   a silent peer is declared dead: a bounded sequence of timeout
//!   windows growing by `timeout_backoff`, each followed by a connection
//!   probe.

use crate::tuning::Tuning;
use sci_fabric::SciError;
use simclock::SimDuration;
use std::fmt;

/// Protocol-level communication errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ScimpiError {
    /// The fabric reported a hard failure (severed link, out-of-bounds
    /// access, dead node) that no retry or failover could absorb.
    Fabric(SciError),
    /// A protocol wait (rendezvous handshake, ring slot, one-sided
    /// control message) ran through its full timeout/backoff schedule.
    Timeout {
        /// The peer rank the wait was on.
        peer: usize,
        /// Which protocol step timed out.
        what: &'static str,
        /// Virtual time spent waiting before giving up.
        waited: SimDuration,
    },
    /// The peer was declared dead by the connection monitor.
    PeerDead {
        /// The dead peer's rank.
        peer: usize,
    },
    /// An unexpected control packet arrived where the protocol state
    /// machine demanded another (e.g. a chunk notification instead of a
    /// CTS).
    ProtocolViolation {
        /// The packet the state machine expected.
        expected: &'static str,
        /// Debug rendering of what actually arrived.
        got: String,
    },
    /// Window memory could not be provided or used (exhausted
    /// shared-segment pool; a checkpoint slot holding no image, or a
    /// mismatched or corrupt one).
    WindowError(String),
    /// The communicator was revoked: some rank observed a dead peer and
    /// invalidated the current membership epoch, so every blocked
    /// communication call errors out instead of running its timeout
    /// schedule. Recover by agreeing on a new epoch via
    /// `recovery::shrink`.
    Revoked,
    /// Payload corruption detected by the integrity machinery (sequence
    /// check or CRC mismatch) that the retransmission budget could not
    /// repair. In `SequenceCheck` mode `retransmits` is always 0: the
    /// guard detects but never repairs.
    DataCorruption {
        /// The peer rank on the other end of the corrupted transfer.
        peer: usize,
        /// Which transfer path was corrupted.
        what: &'static str,
        /// Retransmissions attempted before giving up.
        retransmits: u32,
    },
    /// A governed resource (eager credits, window memory, staging
    /// buffers, the request engine's in-flight set) had no capacity left
    /// for the operation and the active [`crate::OverloadPolicy`] chose
    /// to refuse rather than stall or degrade.
    ResourceExhausted {
        /// Which resource ran out.
        what: &'static str,
        /// What the operation asked for (bytes, slots, requests).
        needed: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A [`crate::Tuning`] failed its invariant check
    /// (`Tuning::validate`) before the cluster was built.
    InvalidConfig(String),
    /// A caller-supplied argument was out of range for the communicator
    /// (e.g. a collective root outside `0..size`, or counts/displs that
    /// don't cover the supplied buffer). Surfaced through the normal
    /// [`ErrorMode`] path like every other communication error.
    InvalidArg {
        /// Which argument was rejected.
        what: &'static str,
        /// The offending value.
        got: usize,
        /// Exclusive upper bound (or required value) for the argument.
        limit: usize,
    },
}

impl fmt::Display for ScimpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScimpiError::Fabric(e) => write!(f, "fabric error: {e}"),
            ScimpiError::Timeout { peer, what, waited } => write!(
                f,
                "timed out waiting for {what} from rank {peer} after {} ps of virtual time",
                waited.as_ps()
            ),
            ScimpiError::PeerDead { peer } => write!(f, "rank {peer} declared dead"),
            ScimpiError::ProtocolViolation { expected, got } => {
                write!(f, "protocol violation: expected {expected}, got {got}")
            }
            ScimpiError::WindowError(msg) => write!(f, "window error: {msg}"),
            ScimpiError::Revoked => {
                write!(f, "communicator revoked: membership epoch invalidated")
            }
            ScimpiError::DataCorruption {
                peer,
                what,
                retransmits,
            } => write!(
                f,
                "data corruption on {what} with rank {peer} ({retransmits} retransmissions attempted)"
            ),
            ScimpiError::ResourceExhausted {
                what,
                needed,
                limit,
            } => write!(
                f,
                "resource exhausted: {what} (needed {needed}, limit {limit})"
            ),
            ScimpiError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ScimpiError::InvalidArg { what, got, limit } => {
                write!(f, "invalid argument: {what} = {got} (limit {limit})")
            }
        }
    }
}

impl std::error::Error for ScimpiError {}

impl From<SciError> for ScimpiError {
    fn from(e: SciError) -> Self {
        ScimpiError::Fabric(e)
    }
}

/// MPI-style error-handler selection, per [`crate::ClusterSpec`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ErrorMode {
    /// `MPI_ERRORS_ARE_FATAL`: any communication error panics the rank
    /// (and thereby tears down the run) before the `Err` reaches the
    /// caller, so infallible call sites can unwrap freely. The default.
    #[default]
    ErrorsAreFatal,
    /// `MPI_ERRORS_RETURN`: communication verbs hand the error back
    /// through their `Result` for the application to recover from.
    ErrorsReturn,
}

/// The deterministic virtual-time budget after which a silent peer is
/// declared dead: `max_protocol_retries + 1` timeout windows starting at
/// `ctrl_timeout` and growing by `timeout_backoff`, each followed by one
/// `probe_cost` connection check.
///
/// Every declared-dead path charges exactly this schedule to the waiting
/// rank's clock, so the outcome is bit-identical across runs regardless
/// of real-time thread interleaving.
pub fn death_delay(t: &Tuning) -> SimDuration {
    let mut total = SimDuration::ZERO;
    let mut window = t.ctrl_timeout;
    for _ in 0..=t.max_protocol_retries {
        total += window + t.probe_cost;
        window = scale_window(window, t.timeout_backoff);
    }
    total
}

/// One backoff step: the next timeout window, `window · factor` rounded
/// down to whole picoseconds (deterministic).
pub(crate) fn scale_window(window: SimDuration, factor: f64) -> SimDuration {
    SimDuration::from_ps((window.as_ps() as f64 * factor) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn death_delay_is_bounded_and_grows_with_retries() {
        let t = Tuning::default();
        let base = death_delay(&t);
        assert!(base > SimDuration::ZERO);
        let mut more = t.clone();
        more.max_protocol_retries += 2;
        assert!(death_delay(&more) > base);
    }

    #[test]
    fn death_delay_matches_manual_schedule() {
        let t = Tuning {
            ctrl_timeout: SimDuration::from_us(100),
            timeout_backoff: 2.0,
            max_protocol_retries: 2,
            probe_cost: SimDuration::from_us(4),
            ..Tuning::default()
        };
        // Windows 100, 200, 400 us + 3 probes of 4 us.
        assert_eq!(death_delay(&t), SimDuration::from_us(100 + 200 + 400 + 12));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScimpiError::PeerDead { peer: 3 };
        assert!(e.to_string().contains("rank 3"));
        let e = ScimpiError::ProtocolViolation {
            expected: "CTS",
            got: "Chunk".into(),
        };
        assert!(e.to_string().contains("expected CTS"));
        let e = ScimpiError::from(SciError::PeerDead(2));
        assert!(matches!(e, ScimpiError::Fabric(_)));
        let e = ScimpiError::DataCorruption {
            peer: 1,
            what: "rendezvous chunk",
            retransmits: 4,
        };
        let s = e.to_string();
        assert!(s.contains("rendezvous chunk") && s.contains("rank 1") && s.contains('4'));
        assert!(ScimpiError::Revoked.to_string().contains("revoked"));
        let e = ScimpiError::ResourceExhausted {
            what: "eager credits",
            needed: 4096,
            limit: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("eager credits") && s.contains("4096") && s.contains("1024"));
        let e = ScimpiError::InvalidConfig("ring_slots must be at least 1".into());
        assert!(e.to_string().contains("ring_slots"));
        let e = ScimpiError::InvalidArg {
            what: "bcast root",
            got: 9,
            limit: 8,
        };
        let s = e.to_string();
        assert!(s.contains("bcast root") && s.contains('9') && s.contains('8'));
    }

    #[test]
    fn default_mode_is_fatal() {
        assert_eq!(ErrorMode::default(), ErrorMode::ErrorsAreFatal);
    }
}
