//! # scimpi-obs — observability for the SCI-MPICH reproduction
//!
//! The paper's entire argument is made through measurements that compare
//! *protocol paths*: eager vs. rendezvous, `direct_pack_ff` vs. the
//! buffered generic engine, shared-window direct access vs. message-based
//! emulation, get-as-remote-put. This crate makes those paths observable:
//!
//! * **span histograms**: every span's virtual-time duration, by span
//!   name, for the profile;
//! * an **event tracer**, on request, keeping spans and instants stamped
//!   with virtual [`simclock::SimTime`] (protocol phase, message size,
//!   path taken, route hops), one lane per rank;
//! * a **counter registry** for the decision points that define the paper
//!   (see [`Counter`]);
//! * per-link **traffic snapshots** taken from the fabric's link registry;
//! * **exporters**: Chrome `trace_event` JSON (open in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev)) and a JSONL counter dump.
//!
//! A run returns its report: `scimpi::run_report` creates one
//! [`Recorder`] per launch, binds every task working for that run to it
//! ([`Recorder::bind`]; tasks share a thread, and the scheduler swaps
//! each task's [`Binding`] in and out with it) and hands the recording
//! back as the `RunReport`.
//! Nothing is process-wide, so runs in one process — concurrent or not —
//! never see each other's numbers. The instrumentation hooks deep in the
//! pack/protocol code stay free functions ([`inc`], [`span`],
//! [`attrib::advance`], ...) that resolve through the calling thread's
//! binding, so no handle is threaded through their signatures; on an
//! unbound thread (recording off, the default) every hook bails after
//! **one thread-local load** — no locks, no allocation, no formatting.
//! A bound thread pays per hook, by kind: time attribution
//! ([`attrib::advance`], [`attrib::merge_waited`]) and span durations
//! ([`span`]) go to the binding's own lane — an add or a push on memory
//! only that thread touches, folded into the recorder when the binding
//! drops; a counter is one relaxed atomic add. Trace events are kept
//! only when the run writes a trace file (`ObsConfig::with_trace`, which
//! makes the recorder [`Recorder::with_events`]); then an event is also
//! one lock and one push on the run's event vector. Otherwise recorder
//! memory does not grow with the spans and instants a run fires.
//! `examples/hook_cost.rs` measures each hook.
//!
//! ```
//! use simclock::SimTime;
//!
//! let rec = obs::Recorder::with_events();
//! {
//!     let _lane = rec.bind(0);
//!     obs::inc(obs::Counter::EagerSends);
//!     obs::span("send", SimTime::ZERO, SimTime::from_ps(2_000_000), vec![
//!         ("bytes", obs::Arg::U64(128)),
//!         ("path", obs::Arg::Str("eager".into())),
//!     ]);
//! }
//! obs::inc(obs::Counter::EagerSends); // unbound again: dropped
//! assert_eq!(rec.counters()[obs::Counter::EagerSends], 1);
//! assert_eq!(rec.take_events().len(), 1);
//! let profile = obs::report::build(&rec);
//! assert_eq!(profile.family("send").unwrap().count(), 1);
//! ```

pub mod attrib;
pub mod config;
pub mod critpath;
pub mod export;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod report;

pub use attrib::{Bucket, WaitKind};
pub use config::ObsConfig;
pub use export::{chrome_trace_json, counters_jsonl};
pub use histogram::Histogram;
pub use recorder::{
    add, count_layout_commit, inc, instant, is_enabled, max, span, thread_rank, Arg, Binding,
    Bound, Counter, CounterTable, EventKind, LinkSnapshot, PeakBacklog, Recorder, TraceEvent,
};
pub use report::Profile;
