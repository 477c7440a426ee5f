//! # scimpi — the SCI-MPICH reproduction core
//!
//! An MPI-subset runtime over the simulated SCI fabric, implementing both
//! contributions of *"Exploiting Transparent Remote Memory Access for
//! Non-Contiguous- and One-Sided-Communication"* (IPPS 2002):
//!
//! 1. **Non-contiguous datatype communication** with the `direct_pack_ff`
//!    engine packing straight into remote ring buffers ([`p2p`],
//!    [`sink`]);
//! 2. **MPI-2 one-sided communication** — windows, put/get/accumulate,
//!    fence / post-start-complete-wait / lock-unlock synchronisation,
//!    direct SCI access for shared windows and control-message emulation
//!    for private ones, with remote-put conversion for large gets
//!    ([`osc`]).
//!
//! Ranks run as tasks of a deterministic event scheduler with per-rank
//! virtual clocks; all timing is the fabric cost model's, so a run is a
//! function of its spec.
//!
//! Every communication verb returns `Result<_, ScimpiError>`; under the
//! default [`ErrorMode::ErrorsAreFatal`] a communication error aborts the
//! run before the `Err` is observable, so infallible call sites can
//! append [`Done::done`] (or `.unwrap()`) without ever seeing a panic of
//! their own making. Nonblocking operations ([`Rank::isend`],
//! [`Rank::irecv`], ...) return typed [`Request`] handles — see
//! [`request`] and `docs/ASYNC.md`.
//!
//! ```
//! use scimpi::prelude::*;
//!
//! let results = run(ClusterSpec::ringlet(2).build(), |rank| {
//!     if rank.rank() == 0 {
//!         rank.send(1, 99, b"ping").done();
//!         0
//!     } else {
//!         let mut buf = [0u8; 4];
//!         let status = rank.recv(Source::Rank(0), TagSel::Value(99), &mut buf).done();
//!         status.len
//!     }
//! });
//! assert_eq!(results, vec![0, 4]);
//! ```

pub mod collective;
pub mod error;
pub mod mailbox;
pub mod osc;
pub mod p2p;
pub mod recovery;
pub mod request;
pub mod runtime;
pub mod sink;
pub mod tuning;

pub use collective::{ReduceOp, Typed};
pub use error::{death_delay, ErrorMode, ScimpiError};
pub use mailbox::{Source, Tag, TagSel};
pub use osc::{AccumulateOp, WinMemory, Window};
pub use p2p::{RecvBuf, RecvStatus, SendData};
pub use recovery::{revoke, shrink, shrink_with_fault, Checkpointer, ShrinkReport};
pub use request::{PersistentRecv, PersistentSend, RecvDone, Request};
pub use runtime::{run, run_report, Backend, ClusterSpec, ObsConfig, Rank, RunReport};
/// Scheduler statistics of a run (`RunReport::event_stats`).
pub use sched::Stats as EventStats;
pub use sink::PioSink;
pub use tuning::{CollectiveAlgo, IntegrityMode, NoncontigMode, OverloadPolicy, Tuning};

/// Thin infallible wrapper over the `Result`-based surface: `.done()`
/// unwraps with a call-site-attributed panic message. Meant for
/// applications running under the default
/// [`ErrorMode::ErrorsAreFatal`], where a surfaced `Err` is impossible
/// (the handler aborts first) and propagating `Result` is pure noise.
pub trait Done {
    /// The success value.
    type Output;
    /// Unwrap, panicking at the caller's location on `Err`.
    fn done(self) -> Self::Output;
}

impl<T> Done for Result<T, ScimpiError> {
    type Output = T;
    #[track_caller]
    fn done(self) -> T {
        match self {
            Ok(v) => v,
            Err(e) => panic!("communication failed: {e}"),
        }
    }
}

/// One-stop imports for applications: `use scimpi::prelude::*;`.
pub mod prelude {
    pub use crate::collective::{ReduceOp, Typed};
    pub use crate::error::{ErrorMode, ScimpiError};
    pub use crate::mailbox::{Source, Tag, TagSel};
    pub use crate::osc::{AccumulateOp, WinMemory, Window};
    pub use crate::p2p::{RecvBuf, RecvStatus, SendData};
    pub use crate::recovery::{revoke, shrink, shrink_with_fault, Checkpointer, ShrinkReport};
    pub use crate::request::{PersistentRecv, PersistentSend, RecvDone, Request};
    pub use crate::runtime::{run, run_report, Backend, ClusterSpec, ObsConfig, Rank, RunReport};
    pub use crate::tuning::{CollectiveAlgo, IntegrityMode, OverloadPolicy, Tuning};
    pub use crate::Done;
}
