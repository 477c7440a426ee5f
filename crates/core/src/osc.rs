//! MPI-2 one-sided communication (paper §4).
//!
//! A **window** exposes a contiguous memory area of every rank to all
//! others. At creation SCI-MPICH remembers which parts of the global
//! window live in **SCI shared memory** (allocated through
//! `MPI_Alloc_mem`, [`Rank::alloc_mem`]) and which are **private** process
//! memory:
//!
//! * shared parts are accessed **directly** by transparent remote
//!   stores/loads, followed by store barriers at synchronisation;
//! * private parts are accessed by **emulation** — a control message plus
//!   a remote interrupt invokes a handler at the target that accepts or
//!   delivers the data with the ordinary transfer protocols.
//!
//! Because SCI remote *reads* are far slower than writes (Figure 1),
//! direct reading pays off only for small amounts; larger `MPI_Get`s are
//! converted to a **remote-put** performed by the target (§4.2).
//!
//! All three MPI-2 synchronisation modes are provided: `fence`,
//! post/start/complete/wait, and passive-target `lock`/`unlock` built on
//! the shared-memory locks of [`smi::SmiLock`] (reference 14).
//!
//! # One pipeline
//!
//! Every verb — `put`, `put_typed`, `put_typed_dma`, `get`, `get_typed`,
//! `accumulate` — is `Window::access` run with its own data movers:
//!
//! 1. **bounds** — the window interval the operation touches (for a typed
//!    verb the true span of its blocks, `lb` to `(count − 1) · extent +
//!    ub`) lies inside the target's part, or the verb returns
//!    `OutOfBounds`, untouched by the error handler;
//! 2. **resolve** — direct if the target is shared and not demoted, and
//!    the verb is not a get past `Tuning::get_remote_put_threshold`;
//! 3. **direct** — the direct mover runs; success clears the target's
//!    failure streak;
//! 4. **demote** — its fabric error counts toward
//!    `Tuning::osc_fallback_threshold`: below it the error is returned,
//!    at it the target is demoted and the operation falls through;
//! 5. **emulate** — the target must be alive; the target-executed mover
//!    runs (a failed direct attempt may have moved some bytes; this one
//!    lands the full payload either way);
//! 6. **span** — one `osc.<verb>` span naming the path taken; errors
//!    leave through the error handler ([`crate::ErrorMode`]).
//!
//! `EndToEnd` integrity is resolved there once, as the `verify` flag the
//! movers receive: under it `record_put` ledgers a direct write for the
//! epoch check at synchronisation, and everything that retries on
//! detected corruption — a wire packet, a target-executed return, a
//! direct read, a typed gather, an epoch record — is one attempt closure
//! under the crate's one integrity loop (`integrity::retransmit`, which
//! the two-sided paths share). A verb supplies a `Verb`, the state its
//! movers share, and the movers.

use crate::error::ScimpiError;
use crate::integrity::{self, Transfer};
use crate::mailbox::Ctrl;
use crate::request::Request;
use crate::runtime::Rank;
use crate::tuning::{
    IntegrityMode, PackPath, BARRIER_HOP, CTRL_RECV_COST, CTRL_SEND_COST, FF_BLOCK_COST, PROBE_COST,
};
use core::convert::Infallible;
use core::ops::ControlFlow;
use mpi_datatype::{ff, Committed, PackStats};
use obs::attrib::{self, Bucket, WaitKind};
use obs::Counter;
use sci_fabric::{crc32, ConnectionMonitor, PioStream, SciError, SeqStatus, SharedMem};
use simclock::{SimDuration, SimTime};
use smi::{ProcId, SharedRegion, SmiLock, TimeBarrier};
use std::sync::Arc;

/// Memory registered with `MPI_Alloc_mem`: a slice of this rank's shared
/// segment pool, directly accessible to remote CPUs.
#[derive(Clone, Debug)]
pub struct AllocMem {
    pub(crate) rank: usize,
    pub(crate) region: Arc<SharedRegion>,
    /// Byte offset inside the pool region.
    pub offset: usize,
    /// Allocation length.
    pub len: usize,
}

/// What a rank contributes to a window.
#[derive(Clone)]
pub enum WinMemory {
    /// Memory from [`Rank::alloc_mem`] — remotely accessible, enables the
    /// direct path.
    Alloc(AllocMem),
    /// `len` bytes of ordinary (private) process memory — forces the
    /// emulation path.
    Private(usize),
}

/// Reduction operators for `MPI_Accumulate`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccumulateOp {
    /// Element-wise sum (`MPI_SUM`) over `f64` elements.
    SumF64,
    /// Element-wise sum over `i64` elements.
    SumI64,
    /// Element-wise maximum over `f64` elements.
    MaxF64,
    /// Overwrite (`MPI_REPLACE`).
    Replace,
}

#[derive(Clone)]
enum TargetMem {
    Shared {
        region: Arc<SharedRegion>,
        offset: usize,
    },
    Private {
        mem: Arc<SharedMem>,
    },
}

struct WindowShared {
    id: u64,
    targets: Vec<(TargetMem, usize)>,
    locks: Vec<SmiLock>,
    fence: TimeBarrier,
    /// World rank of each window target: windows are created over the
    /// membership epoch current at creation, and target indices are
    /// *logical* ranks of that epoch.
    members: Arc<Vec<usize>>,
    /// Per-window integrity override; `None` follows
    /// `Tuning::integrity_mode`. Recovery-critical windows (buddy
    /// checkpoints) force `EndToEnd` regardless of the run's default.
    integrity_override: Option<IntegrityMode>,
}

impl WindowShared {
    /// The memory behind `target`'s window part and the part's first byte
    /// in it — what the emulation handler (and a local load or store)
    /// touches on the target side.
    fn mem(&self, target: usize) -> (&SharedMem, usize) {
        match &self.targets[target].0 {
            TargetMem::Shared { region, offset } => (region.segment().mem(), *offset),
            TargetMem::Private { mem } => (mem, 0),
        }
    }

    /// The pool region behind a shared `target` and the part's first byte
    /// in it — what a direct mover maps. Private memory has none: no
    /// remote CPU or DMA engine can reach it.
    fn region(&self, target: usize) -> Result<(&Arc<SharedRegion>, usize), ScimpiError> {
        match &self.targets[target].0 {
            TargetMem::Shared { region, offset } => Ok((region, *offset)),
            TargetMem::Private { .. } => Err(ScimpiError::InvalidArg {
                what: "direct access to private window target",
                got: target,
                limit: self.targets.len(),
            }),
        }
    }
}

/// Per-target direct-path health, driving the graceful degradation of §4:
/// when transparent remote access to a shared target keeps failing (both
/// the primary and any alternate route), the window falls back to the
/// control-message emulation path for that target until a fence-time
/// connection probe shows the direct path healthy again.
#[derive(Clone, Copy, Default)]
struct FallbackState {
    /// Direct access disabled — operations go through emulation.
    active: bool,
    /// Consecutive direct-path failures observed so far.
    consecutive: u32,
}

/// One put of an `EndToEnd` integrity epoch: the intended target image
/// and its CRC32, verified against the target region at synchronisation
/// and rewritten (bounded) on mismatch.
struct PutRecord {
    target: usize,
    /// Window-relative byte offset at the target.
    offset: usize,
    /// CRC32 of `data`, computed (and charged) at put time.
    crc: u32,
    /// The intended bytes, kept for retransmission.
    data: Vec<u8>,
}

/// A one-sided communication window (`MPI_Win`).
pub struct Window {
    shared: Arc<WindowShared>,
    /// Open PIO streams to shared targets (kept across ops so consecutive
    /// ascending accesses merge, and so outstanding writes are tracked).
    streams: Vec<Option<PioStream>>,
    /// Per-target direct→emulated degradation state.
    fallback: Vec<FallbackState>,
    /// Per-target busy-until time of the emulation handler: requests to
    /// one target serialise (each costs a remote interrupt plus handler
    /// time on the target CPU).
    emu_busy: Vec<SimTime>,
    /// Latest completion time of emulated operations.
    emu_outstanding: SimTime,
    /// Epoch ledger of puts awaiting `EndToEnd` verification (empty in
    /// the other integrity modes).
    put_records: Vec<PutRecord>,
}

/// Cost charged at the target for servicing one emulation request
/// (handler dispatch, excluding data movement).
const HANDLER_COST: SimDuration = SimDuration::from_us(3);

/// What a verb tells [`Window::access`] about itself.
struct Verb {
    /// Name of its span.
    span: &'static str,
    /// The operation as [`ScimpiError::DataCorruption`] names it.
    what: &'static str,
    /// Ticked per direct attempt.
    direct: Counter,
    /// Ticked per target-executed attempt (emulation or remote-put).
    emulated: Counter,
    /// Gets: at or above `Tuning::get_remote_put_threshold` payload bytes
    /// the target executes the operation even where the direct path is in
    /// use — the remote-put conversion.
    converts: bool,
}

const PUT: Verb = Verb {
    span: "osc.put",
    what: "one-sided put",
    direct: Counter::OscPutShared,
    emulated: Counter::OscPutEmulated,
    converts: false,
};
const PUT_TYPED: Verb = Verb {
    span: "osc.put_typed",
    ..PUT
};
const GET: Verb = Verb {
    span: "osc.get",
    what: "one-sided get",
    direct: Counter::OscGetDirect,
    emulated: Counter::OscGetRemotePut,
    converts: true,
};
const GET_TYPED: Verb = Verb {
    span: "osc.get_typed",
    ..GET
};
const ACCUMULATE: Verb = Verb {
    span: "osc.accumulate",
    what: "one-sided accumulate",
    direct: Counter::OscAccShared,
    emulated: Counter::OscAccEmulated,
    converts: false,
};

/// What [`Window::access`] resolved for one operation, handed to the
/// verb's movers.
#[derive(Clone, Copy)]
struct Op {
    target: usize,
    /// World rank of `target`.
    target_w: usize,
    /// `EndToEnd`: direct writes are ledgered for the epoch check, wire
    /// packets and returns are verified and re-requested. Otherwise
    /// corruption stands and is counted as uncovered.
    verify: bool,
    /// [`Verb::what`].
    what: &'static str,
}

impl Op {
    /// One of this operation's transfers, on `path`, as the integrity loop
    /// sees it: verified, or with its faults left standing.
    fn guard(&self, rank: &Rank, path: &'static str) -> Transfer {
        let mode = if self.verify {
            IntegrityMode::EndToEnd
        } else {
            IntegrityMode::Off
        };
        Transfer::new(&rank.world, mode, path, self.target_w, self.what)
    }

    /// Close an attempt that moved `len` bytes and took `faults`: a
    /// verified one pays its CRC over them.
    fn checked(&self, rank: &mut Rank, len: usize, faults: usize) -> usize {
        if self.verify {
            attrib::advance(&mut rank.clock, Bucket::Pack, rank.world.crc_cost(len));
        }
        faults
    }
}

/// Record an OSC operation span (a single relaxed load when recording is
/// off).
fn osc_span(
    rank: &Rank,
    name: &'static str,
    start: SimTime,
    bytes: usize,
    target: usize,
    path: &'static str,
) {
    if obs::is_enabled() {
        obs::span(
            name,
            start,
            rank.clock.now(),
            vec![
                ("bytes", obs::Arg::U64(bytes as u64)),
                ("target", obs::Arg::U64(target as u64)),
                ("path", obs::Arg::Str(path.into())),
            ],
        );
    }
}

fn pscw_handle(win: u64, from: usize, to: usize, phase: u64) -> u64 {
    // Window ids are globally unique; fold the conversation into a
    // collision-free 64-bit handle space.
    (win << 24) ^ ((from as u64) << 14) ^ ((to as u64) << 4) ^ phase
}

/// The window interval a contiguous access of `len` bytes at `off` touches.
fn contiguous(off: usize, len: usize) -> (i128, i128) {
    (off as i128, off as i128 + len as i128)
}

/// The layout of a typed verb: `count` instances of `c`, displacement 0
/// at byte `origin` of the caller's buffer and at byte `off` of the
/// target's window part.
#[derive(Clone, Copy)]
struct Layout<'a> {
    c: &'a Committed,
    count: usize,
    origin: usize,
    off: usize,
}

impl Layout<'_> {
    /// Payload bytes.
    fn total(&self) -> usize {
        self.c.size() * self.count
    }

    /// The window interval the blocks touch: they land at `off + disp` for
    /// `disp` in `[lb, (count − 1) · extent + ub)` — not in
    /// `[0, count · extent)`, which a type with `lb != 0` leaves.
    fn span(&self) -> (i128, i128) {
        if self.total() == 0 {
            return contiguous(self.off, 0);
        }
        let dt = self.c.datatype();
        let last = (self.count as i128 - 1) * self.c.extent() as i128;
        (
            self.off as i128 + dt.lb() as i128,
            self.off as i128 + last + dt.ub() as i128,
        )
    }

    /// `f(buffer index, window offset, len)` over every basic block,
    /// stopping at the first error.
    fn each_block<E>(
        &self,
        mut f: impl FnMut(usize, usize, usize) -> Result<(), E>,
    ) -> Result<PackStats, E> {
        let at = |base: usize, disp: i64| (base as i64 + disp) as usize;
        let mut res = Ok(());
        let stats = ff::for_each_block(self.c, self.count, 0, usize::MAX, |disp, len| {
            res = f(at(self.origin, disp), at(self.off, disp), len);
            match res {
                Ok(()) => ControlFlow::Continue(()),
                Err(_) => ControlFlow::Break(()),
            }
        });
        res.map(|()| stats)
    }
}

impl Rank {
    /// `MPI_Alloc_mem`: allocate remotely accessible memory from this
    /// rank's shared-segment pool. Pool exhaustion comes back as
    /// [`ScimpiError::WindowError`].
    pub fn alloc_mem(&mut self, len: usize) -> Result<AllocMem, ScimpiError> {
        let alloced = self.world.alloc_pools[self.rank].lock().unwrap().alloc(len);
        let offset = alloced.map_err(|e| {
            ScimpiError::WindowError(format!(
                "shared-segment pool exhausted allocating {len} bytes on rank {}: {e:?}",
                self.rank
            ))
        })?;
        Ok(AllocMem {
            rank: self.rank,
            region: self.world.alloc_region(self.rank),
            offset,
            len,
        })
    }

    /// `MPI_Free_mem`.
    pub fn free_mem(&mut self, mem: AllocMem) {
        self.world.alloc_pools[self.rank]
            .lock()
            .unwrap()
            .free(mem.offset)
            .expect("double free of alloc_mem");
    }

    /// `MPI_Win_create` (collective): expose `mem` to all ranks of the
    /// current membership epoch.
    pub fn win_create(&mut self, mem: WinMemory) -> Result<Window, ScimpiError> {
        self.win_create_with_integrity(mem, None)
    }

    /// [`Rank::win_create`] with a per-window integrity override:
    /// `Some(mode)` pins this window's put/get verification to `mode`
    /// regardless of `Tuning::integrity_mode` (the buddy-checkpoint
    /// window forces `EndToEnd` this way); `None` follows the tuning.
    pub fn win_create_with_integrity(
        &mut self,
        mem: WinMemory,
        integrity_override: Option<IntegrityMode>,
    ) -> Result<Window, ScimpiError> {
        let contrib: (TargetMem, usize) = match mem {
            WinMemory::Alloc(am) => {
                assert_eq!(am.rank, self.world_rank(), "alloc_mem from another rank");
                (
                    TargetMem::Shared {
                        region: am.region,
                        offset: am.offset,
                    },
                    am.len,
                )
            }
            WinMemory::Private(len) => (
                TargetMem::Private {
                    mem: Arc::new(SharedMem::new(len)),
                },
                len,
            ),
        };
        let size = self.size();
        let members = Arc::clone(&self.members);
        let targets = self.collective_gather(contrib);
        let id = self.collective_gather(if self.rank() == 0 {
            self.world.handle()
        } else {
            0
        })[0];
        // Rank 0 builds the state all ranks share; a third gather hands it
        // round.
        let built = (self.rank() == 0).then(|| {
            Arc::new(WindowShared {
                id,
                locks: members
                    .iter()
                    .map(|&w| SmiLock::new(Arc::clone(&self.world.smi), ProcId(w)))
                    .collect(),
                fence: TimeBarrier::new(size, BARRIER_HOP),
                targets,
                members: Arc::clone(&members),
                integrity_override,
            })
        });
        let shared = self
            .collective_gather(built)
            .swap_remove(0)
            .expect("rank 0 built the window");
        Ok(Window {
            streams: (0..size).map(|_| None).collect(),
            emu_busy: vec![SimTime::ZERO; size],
            fallback: vec![FallbackState::default(); size],
            shared,
            emu_outstanding: SimTime::ZERO,
            put_records: Vec::new(),
        })
    }
}

impl Window {
    /// Window size at `target`.
    pub fn len(&self, target: usize) -> usize {
        self.shared.targets[target].1
    }

    /// True if the window is empty at `target`.
    pub fn is_empty(&self, target: usize) -> bool {
        self.len(target) == 0
    }

    /// True if `target`'s part of the window is directly accessible SCI
    /// shared memory.
    pub fn is_shared(&self, target: usize) -> bool {
        matches!(self.shared.targets[target].0, TargetMem::Shared { .. })
    }

    /// The integrity mode governing this window's transfers: the
    /// per-window override when one was pinned at creation, otherwise
    /// the run's `Tuning::integrity_mode`.
    fn imode(&self, rank: &Rank) -> IntegrityMode {
        self.shared
            .integrity_override
            .unwrap_or(rank.world.tuning.integrity_mode)
    }

    /// World rank of (logical) window target `target`.
    fn world_of(&self, target: usize) -> usize {
        self.shared.members[target]
    }

    /// This rank's target index inside the window. Windows are pinned to
    /// the membership epoch current at creation, so after a
    /// [`crate::recovery::shrink`] a survivor's *logical* rank may no
    /// longer equal its index here — resolve through the world rank,
    /// which never changes.
    fn local_index(&self, rank: &Rank) -> usize {
        let me = rank.world_rank();
        self.shared
            .members
            .iter()
            .position(|&w| w == me)
            .expect("rank is a member of its own window")
    }

    /// Is the window interval `[lo, hi)` inside `target`'s part?
    fn check(&self, target: usize, (lo, hi): (i128, i128)) -> Result<(), SciError> {
        let winlen = self.len(target);
        if lo < 0 || hi > winlen as i128 {
            return Err(SciError::OutOfBounds(sci_fabric::mem::OutOfBounds {
                offset: lo.max(0) as usize,
                len: (hi - lo) as usize,
                capacity: winlen,
            }));
        }
        Ok(())
    }

    /// Is the direct transparent-remote-access path in use for `target`?
    fn direct_active(&self, target: usize) -> bool {
        self.is_shared(target) && !self.fallback[target].active
    }

    /// A successful direct access clears the failure streak.
    fn note_direct_success(&mut self, target: usize) {
        self.fallback[target].consecutive = 0;
    }

    /// Record a direct-path failure. Returns `Ok(())` when the failure
    /// streak reached `Tuning::osc_fallback_threshold` and the target has
    /// been demoted to the emulation path (the caller then serves the
    /// current operation through it); below the threshold the error is
    /// returned for the application to retry.
    fn note_direct_failure(
        &mut self,
        rank: &Rank,
        target: usize,
        e: SciError,
    ) -> Result<(), SciError> {
        let threshold = rank.world.tuning.osc_fallback_threshold;
        let fb = &mut self.fallback[target];
        fb.consecutive += 1;
        if fb.consecutive < threshold {
            return Err(e);
        }
        fb.active = true;
        self.streams[target] = None;
        obs::inc(Counter::OscFallbacks);
        if obs::is_enabled() {
            obs::instant(
                "ft.osc_fallback",
                rank.clock.now(),
                vec![("target", obs::Arg::U64(target as u64))],
            );
        }
        Ok(())
    }

    /// Every emulated round trip needs the target's CPU to run the
    /// handler — a dead target is an error, not a hang. `target_w` is
    /// the target's *world* rank.
    fn ensure_alive(rank: &Rank, target_w: usize) -> Result<(), SciError> {
        if rank.world.peer_dead(target_w) {
            return Err(SciError::PeerDead(target_w));
        }
        Ok(())
    }

    /// The one pipeline every verb runs through (see the module docs).
    /// `at` is the window interval the operation touches, `bytes` its
    /// payload. `plan` runs once the interval is known to be in range, is
    /// told whether the direct path is in use, and returns the state both
    /// movers work on; `direct` returns the span's `path` label.
    #[allow(clippy::too_many_arguments)]
    fn access<P>(
        &mut self,
        rank: &mut Rank,
        verb: &Verb,
        target: usize,
        at: (i128, i128),
        bytes: usize,
        plan: impl FnOnce(&mut Rank, bool) -> P,
        direct: impl FnOnce(&mut Self, &mut Rank, Op, &mut P) -> Result<&'static str, ScimpiError>,
        emulated: impl FnOnce(&mut Self, &mut Rank, Op, &mut P) -> Result<(), ScimpiError>,
    ) -> Result<(), ScimpiError> {
        self.check(target, at)?;
        let op = Op {
            target,
            target_w: self.world_of(target),
            verify: self.imode(rank) == IntegrityMode::EndToEnd,
            what: verb.what,
        };
        let start = rank.clock.now();
        let healthy = self.direct_active(target);
        let mut state = plan(rank, healthy);
        // Remote reads are far slower than writes: past the threshold a
        // get is cheaper written back by the target.
        let converted =
            healthy && verb.converts && bytes >= rank.world.tuning.get_remote_put_threshold;
        let served = (|| {
            if healthy && !converted {
                obs::inc(verb.direct);
                match direct(self, rank, op, &mut state) {
                    Ok(path) => {
                        self.note_direct_success(target);
                        return Ok(path);
                    }
                    Err(ScimpiError::Fabric(e)) => self.note_direct_failure(rank, target, e)?,
                    Err(other) => return Err(other),
                }
            }
            obs::inc(verb.emulated);
            Self::ensure_alive(rank, op.target_w)?;
            emulated(self, rank, op, &mut state)?;
            Ok(if converted { "remote_put" } else { "emulated" })
        })();
        match served {
            Ok(path) => {
                osc_span(rank, verb.span, start, bytes, target, path);
                Ok(())
            }
            Err(e) => Err(rank.world.escalate(e)),
        }
    }

    /// Apply the fabric's silent faults to a wire image travelling
    /// between the node `pair` (emulation packets and target-executed
    /// returns move through plain messages, not `SharedMem`, so the
    /// per-pair fault streams are applied here). Returns the fault count.
    fn corrupt_wire(rank: &mut Rank, pair: (usize, usize), wire: &mut [u8]) -> usize {
        let txn = rank.world.fabric.params().stream_buffer_bytes;
        rank.world.fabric.faults().corrupt_buffer(pair, txn, wire)
    }

    /// Carry a wire image across the node `pair`: an emulation packet to
    /// the target's handler, or what a target-executed transfer sends
    /// back. `EndToEnd` delivers it verified — a fresh image and one
    /// handler round trip per retransmission; otherwise whatever the
    /// fabric did to the single image stands, counted under `path`.
    fn over_wire(
        rank: &mut Rank,
        op: Op,
        path: &'static str,
        pair: (usize, usize),
        image: &mut [u8],
    ) -> Result<(), ScimpiError> {
        // Only a verified image is ever sent again.
        let clean = if op.verify { image.to_vec() } else { vec![] };
        let len = image.len();
        integrity::retransmit(rank, op.guard(rank, path), |rank, retry| {
            if retry {
                let again = Self::handler_roundtrip_cost(rank, op.target_w, len, 0);
                attrib::advance(&mut rank.clock, Bucket::Transfer, again);
                image.copy_from_slice(&clean);
            }
            let faults = Self::corrupt_wire(rank, pair, image);
            Ok(op.checked(rank, len, faults))
        })
    }

    /// Send `data` to the target's handler as one emulation packet and
    /// return what arrives (see [`Window::over_wire`]).
    fn send_wire(
        rank: &mut Rank,
        op: Op,
        path: &'static str,
        data: &[u8],
    ) -> Result<Vec<u8>, ScimpiError> {
        let pair = (rank.node().0, rank.world.node_of(op.target_w).0);
        let path = if op.verify { "osc.emulated" } else { path };
        let mut wire = data.to_vec();
        Self::over_wire(rank, op, path, pair, &mut wire)?;
        Ok(wire)
    }

    /// Bring home what a target-executed transfer gathered into `dst` —
    /// the remote-put conversion of a get, or its emulation: the handler
    /// round trip (`blocks` basic blocks packed on the target's side),
    /// then the return over the wire.
    fn return_from_target(
        rank: &mut Rank,
        op: Op,
        dst: &mut [u8],
        blocks: usize,
    ) -> Result<(), ScimpiError> {
        let roundtrip = Self::handler_roundtrip_cost(rank, op.target_w, dst.len(), blocks);
        attrib::advance(&mut rank.clock, Bucket::Transfer, roundtrip);
        let pair = (rank.world.node_of(op.target_w).0, rank.node().0);
        Self::over_wire(rank, op, op.what, pair, dst)
    }

    /// Direct remote read with integrity handling: `EndToEnd` re-reads a
    /// faulted interval (a modeled CRC handshake per attempt) up to the
    /// retransmission budget; the other modes count flips as uncovered.
    fn read_direct(
        rank: &mut Rank,
        op: Op,
        reader: &sci_fabric::PioReader,
        at: usize,
        dst: &mut [u8],
    ) -> Result<(), ScimpiError> {
        let len = dst.len();
        integrity::retransmit(rank, op.guard(rank, op.what), |rank, _| {
            let faults = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                reader.read_counted(clock, at, dst)
            })?;
            Ok(op.checked(rank, len, faults as usize))
        })
    }

    /// Write into `target`'s backing window memory (the data movement of
    /// the emulated path — the handler's copy on the target side).
    fn backing_write(&self, target: usize, at: usize, data: &[u8]) -> Result<(), SciError> {
        let (mem, base) = self.shared.mem(target);
        Ok(mem.write(base + at, data)?)
    }

    /// Read from `target`'s backing window memory (see
    /// [`Window::backing_write`]).
    fn backing_read(&self, target: usize, at: usize, dst: &mut [u8]) -> Result<(), SciError> {
        let (mem, base) = self.shared.mem(target);
        Ok(mem.read(base + at, dst)?)
    }

    /// Run `f` over `target`'s whole window part in place — the handler
    /// packing or unpacking a typed layout on the target side. The
    /// caller's interval check keeps every block inside it.
    fn with_backing<R>(
        &self,
        target: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, SciError> {
        let (mem, base) = self.shared.mem(target);
        Ok(mem.with_bytes_mut(base, self.len(target), f)?)
    }

    /// Direct-path stream to a shared target (created lazily, kept open).
    fn stream<'a>(
        streams: &'a mut [Option<PioStream>],
        shared: &WindowShared,
        rank: &Rank,
        target: usize,
        working_set: usize,
    ) -> Result<(&'a mut PioStream, usize), ScimpiError> {
        let (region, offset) = shared.region(target)?;
        let stream = streams[target].get_or_insert_with(|| {
            let mut stream = region
                .map(ProcId(rank.world_rank()))
                .pio_stream(working_set);
            // Window streams are long-running: sustained MPI-level puts
            // saturate at the node injection cap (the Figure 12 plateau),
            // unlike short raw bursts.
            stream.cap_demand(rank.world.fabric.params().node_injection_cap);
            stream
        });
        Ok((stream, offset))
    }

    /// One contiguous direct store of `data` at window offset `at`.
    fn write_direct(
        &mut self,
        rank: &mut Rank,
        target: usize,
        at: usize,
        data: &[u8],
    ) -> Result<&mut PioStream, ScimpiError> {
        let (stream, base) =
            Self::stream(&mut self.streams, &self.shared, rank, target, data.len())?;
        attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
            stream.write(clock, base + at, data)
        })?;
        Ok(stream)
    }

    /// Record a direct write for `EndToEnd` epoch verification (a no-op
    /// in the other modes), charging the origin's CRC computation over
    /// the intended image. A later access overwriting an earlier one's
    /// region within the same epoch (ordered accumulates, notably)
    /// supersedes its record — only the final image can verify against
    /// memory.
    fn record_put(&mut self, rank: &mut Rank, op: Op, offset: usize, data: &[u8]) {
        if !op.verify {
            return;
        }
        attrib::advance(
            &mut rank.clock,
            Bucket::Pack,
            rank.world.crc_cost(data.len()),
        );
        let (lo, hi) = (offset, offset + data.len());
        self.put_records
            .retain(|r| r.target != op.target || r.offset + r.data.len() <= lo || hi <= r.offset);
        self.put_records.push(PutRecord {
            target: op.target,
            offset,
            crc: crc32(data),
            data: data.to_vec(),
        });
    }

    /// [`Window::record_put`] per block of a typed put: verification
    /// needs the layout, not the packed stream.
    fn record_blocks(&mut self, rank: &mut Rank, op: Op, l: Layout, buf: &[u8]) {
        if op.verify {
            let Ok(_) = l.each_block(|from, at, len| {
                self.record_put(rank, op, at, &buf[from..][..len]);
                Ok::<_, Infallible>(())
            });
        }
    }

    /// `MPI_Put` of contiguous bytes.
    pub fn put(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        data: &[u8],
    ) -> Result<(), ScimpiError> {
        self.access(
            rank,
            &PUT,
            target,
            contiguous(target_off, data.len()),
            data.len(),
            |_, _| (),
            |win, rank, op, _| {
                win.write_direct(rank, target, target_off, data)?;
                win.record_put(rank, op, target_off, data);
                Ok("shared")
            },
            // Control message + remote interrupt + handler receives the
            // data with the ordinary protocols.
            |win, rank, op, _| {
                let wire = Self::send_wire(rank, op, "osc.put", data)?;
                win.backing_write(target, target_off, &wire)?;
                win.emulate(rank, target, data.len());
                Ok(())
            },
        )
    }

    /// `MPI_Get` of contiguous bytes.
    pub fn get(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        dst: &mut [u8],
    ) -> Result<(), ScimpiError> {
        self.access(
            rank,
            &GET,
            target,
            contiguous(target_off, dst.len()),
            dst.len(),
            |_, _| dst,
            // Small: direct remote read (CPU stalls, but latency is still
            // low compared to messaging).
            |win, rank, op, dst| {
                let (region, base) = win.shared.region(target)?;
                let reader = rank.world.fabric.pio_reader(rank.node(), region.segment());
                Self::read_direct(rank, op, &reader, base + target_off, dst)?;
                Ok("direct")
            },
            // Large, or no direct path: the target writes the data into
            // the origin's address space at SCI write bandwidth instead of
            // the origin reading it at SCI read bandwidth — interrupt the
            // target, the handler sends the data back with the ordinary
            // protocols (needs the target's CPU).
            |win, rank, op, dst| {
                win.backing_read(target, target_off, dst)?;
                Self::return_from_target(rank, op, dst, 0)
            },
        )
    }

    /// `MPI_Put` of a committed datatype — `direct_pack_ff` streams the
    /// blocks straight into the remote window, unless the adaptive
    /// selector picks the DMA descriptor list ([`Window::put_typed_dma`]).
    #[allow(clippy::too_many_arguments)]
    pub fn put_typed(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        let l = Layout {
            c,
            count,
            origin,
            off: target_off,
        };
        self.put_layout(rank, target, l, buf, None)
    }

    /// `MPI_Put` of a committed datatype forced through the DMA engine's
    /// **scatter/gather descriptor list** — the paper's outlook (§6):
    /// non-contiguous transfers on DMA-based interconnects pay one setup
    /// for the whole list and then stream without the CPU. Pays off for
    /// large payloads of small blocks, where PIO per-block costs dominate.
    /// The engine reaches shared windows only: a private target is an
    /// [`ScimpiError::InvalidArg`], a demoted one is served by emulation.
    #[allow(clippy::too_many_arguments)]
    pub fn put_typed_dma(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        if let Err(e) = self.shared.region(target) {
            return Err(rank.world.escalate(e));
        }
        let l = Layout {
            c,
            count,
            origin,
            off: target_off,
        };
        self.put_layout(rank, target, l, buf, Some(PackPath::Dma))
    }

    /// The typed put behind both verbs: `forced` names the direct mover,
    /// otherwise the adaptive selector picks it.
    fn put_layout(
        &mut self,
        rank: &mut Rank,
        target: usize,
        l: Layout,
        buf: &[u8],
        forced: Option<PackPath>,
    ) -> Result<(), ScimpiError> {
        let world = Arc::clone(&rank.world);
        self.access(
            rank,
            &PUT_TYPED,
            target,
            l.span(),
            l.total(),
            |rank, healthy| match forced {
                Some(path) => path,
                None => {
                    // Resolve the committed layout (cache lookup vs
                    // re-flatten), then let the adaptive selector pick
                    // the pack path from its density. DMA is only on
                    // offer where the descriptor-list engine can reach
                    // the target: a healthy shared window.
                    let resolve = world.tuning.layout_resolve_cost(l.c);
                    attrib::advance(&mut rank.clock, Bucket::Pack, resolve);
                    world.tuning.select_path_recorded(l.c, l.total(), healthy)
                }
            },
            |win, rank, op, path| match path {
                PackPath::Dma => win.put_by_dma(rank, op, l, buf),
                _ => win.put_by_pio(rank, op, l, buf),
            },
            // The packed stream is one emulation packet on the wire; the
            // handler unpacks it at the target, where the data keeps its
            // layout.
            |win, rank, op, _| {
                let mut packed = ff::VecSink::default();
                let Ok(stats) =
                    ff::pack_ff(l.c, l.count, buf, l.origin, 0, usize::MAX, &mut packed);
                Self::charge_block_walk(rank, stats);
                let wire = Self::send_wire(rank, op, "osc.put_typed", &packed.data)?;
                let Ok(_) = win.with_backing(target, |part| {
                    let mut source = ff::SliceSource::new(&wire);
                    ff::unpack_runs(l.c, l.count, part, l.off, 0, usize::MAX, &mut source)
                })?;
                win.emulate(rank, target, wire.len());
                Ok(())
            },
        )
    }

    /// The origin's `direct_pack_ff` walk over the blocks of `stats`.
    fn charge_block_walk(rank: &mut Rank, stats: PackStats) {
        let walk = FF_BLOCK_COST.saturating_mul(stats.blocks as u64);
        attrib::advance(&mut rank.clock, Bucket::Pack, walk);
    }

    /// Direct mover of a typed put over PIO: pack into the window
    /// preserving the *layout* (the target datatype equals the origin
    /// datatype here), each block written at its own displacement. With
    /// WC batching, adjacent blocks coalesce in the stream's
    /// write-combining window.
    fn put_by_pio(
        &mut self,
        rank: &mut Rank,
        op: Op,
        l: Layout,
        buf: &[u8],
    ) -> Result<&'static str, ScimpiError> {
        let (stream, base) =
            Self::stream(&mut self.streams, &self.shared, rank, op.target, l.total())?;
        let use_wc = rank.world.tuning.pack_engine;
        let stats = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
            let stats = l.each_block(|from, at, len| {
                let data = &buf[from..][..len];
                match use_wc {
                    true => stream.write_batched(clock, base + at, data),
                    false => stream.write(clock, base + at, data),
                }
            })?;
            stream.flush_wc(clock)?;
            Ok::<_, SciError>(stats)
        })?;
        Self::charge_block_walk(rank, stats);
        self.record_blocks(rank, op, l, buf);
        Ok("shared")
    }

    /// Direct mover of a typed put over the DMA descriptor list.
    fn put_by_dma(
        &mut self,
        rank: &mut Rank,
        op: Op,
        l: Layout,
        buf: &[u8],
    ) -> Result<&'static str, ScimpiError> {
        let (region, base) = self.shared.region(op.target)?;
        let mut entries = Vec::with_capacity(l.c.blocks_per_instance() * l.count);
        let Ok(_) = l.each_block(|src_offset, at, len| {
            entries.push(sci_fabric::SgEntry {
                src_offset,
                dst_offset: base + at,
                len,
            });
            Ok::<_, Infallible>(())
        });
        let dma = rank.world.fabric.dma_engine(rank.node(), region.segment());
        let completion = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
            dma.write_sg(clock, &entries, buf)
        })?;
        self.emu_outstanding = self.emu_outstanding.max(completion.done);
        // The DMA engine has no sequence guard; epoch verification is the
        // only net under the descriptor-list path.
        if !op.verify {
            let faults = completion.silent_faults as usize;
            integrity::retransmit(rank, op.guard(rank, "osc.put_dma"), |_, _| Ok(faults))?;
        }
        self.record_blocks(rank, op, l, buf);
        Ok("dma")
    }

    /// `MPI_Put` posted nonblocking. The store is issued inline on the
    /// origin's clock (puts are posted writes: the CPU hands the data to
    /// the fabric and moves on; draining is the synchronisation call's
    /// job), so the returned [`Request`] is already complete — it exists
    /// so puts compose with [`Rank::waitall`] alongside [`Window::iget`]
    /// and point-to-point requests. See `docs/ASYNC.md`.
    pub fn iput(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        data: &[u8],
    ) -> Result<Request<()>, ScimpiError> {
        let posted_at = rank.account_post()?;
        let res = self.put(rank, target, target_off, data);
        let end = rank.clock.now();
        Ok(Request::ready(rank, "iput", posted_at, end, res))
    }

    /// `MPI_Get` posted nonblocking: the transfer runs on a fork of the
    /// origin's clock, so compute issued before [`Rank::wait`] overlaps
    /// the read stalls. Returns the gathered bytes at completion.
    pub fn iget(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        len: usize,
    ) -> Result<Request<Vec<u8>>, ScimpiError> {
        let posted_at = rank.account_post()?;
        let main = rank.clock.clone();
        let mut dst = vec![0u8; len];
        // The excursion below is rolled back (the transfer effectively ran
        // on a fork), so none of its time may land in the attribution
        // table; the wait/test merge accounts it as request-wait.
        let (res, end) = attrib::paused(|| {
            let res = self.get(rank, target, target_off, &mut dst).map(|()| dst);
            let end = rank.clock.now();
            (res, end)
        });
        // The transfer ran on a fork: restore the origin's compute
        // frontier; completion merges `end` back at wait/test time.
        rank.clock = main;
        Ok(Request::ready(rank, "iget", posted_at, end, res))
    }

    /// `MPI_Get` of a committed datatype: gather the target's
    /// non-contiguous blocks into the same layout at the origin.
    ///
    /// Small totals read each block directly (per-block read stalls make
    /// this expensive fast — exactly the SCI read-granularity problem);
    /// large totals convert to a remote-put executed by the target, which
    /// packs with `direct_pack_ff` on its side.
    #[allow(clippy::too_many_arguments)]
    pub fn get_typed(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        c: &Committed,
        count: usize,
        buf: &mut [u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        let l = Layout {
            c,
            count,
            origin,
            off: target_off,
        };
        self.access(
            rank,
            &GET_TYPED,
            target,
            l.span(),
            l.total(),
            |rank, _| {
                // Unpacking at the origin resolves the same committed layout.
                let resolve = rank.world.tuning.layout_resolve_cost(c);
                attrib::advance(&mut rank.clock, Bucket::Pack, resolve);
                buf
            },
            // One stalling read per basic block. `EndToEnd` re-reads the
            // whole gather on a faulted pass.
            |win, rank, op, buf| {
                let (region, base) = win.shared.region(target)?;
                let reader = rank.world.fabric.pio_reader(rank.node(), region.segment());
                let guard = op.guard(rank, "osc.get_typed");
                integrity::retransmit(rank, guard, |rank, _| {
                    let faults = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                        let mut faults = 0;
                        l.each_block(|to, at, len| {
                            faults +=
                                reader.read_counted(clock, base + at, &mut buf[to..][..len])?;
                            Ok::<_, SciError>(())
                        })?;
                        Ok::<_, ScimpiError>(faults as usize)
                    })?;
                    Ok(op.checked(rank, l.total(), faults))
                })?;
                Ok("direct")
            },
            // The target's handler packs the blocks with direct_pack_ff
            // and streams them back at write bandwidth. The packed stream
            // is the wire image: gathered first, checked as one return,
            // then scattered into the origin layout.
            |win, rank, op, buf| {
                let mut packed = ff::VecSink::default();
                let Ok(stats) = win.with_backing(target, |part| {
                    ff::pack_runs(c, count, part, target_off, 0, usize::MAX, &mut packed)
                })?;
                Self::return_from_target(rank, op, &mut packed.data, stats.blocks)?;
                let mut source = ff::SliceSource::new(&packed.data);
                let Ok(_) = ff::unpack_runs(c, count, buf, origin, 0, usize::MAX, &mut source);
                Ok(())
            },
        )
    }

    /// `MPI_Accumulate`: combine `data` into the target window. The
    /// arithmetic operators work on 8-byte elements; a payload that is
    /// not a whole number of them is an [`ScimpiError::InvalidArg`].
    pub fn accumulate(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        op: AccumulateOp,
        data: &[u8],
    ) -> Result<(), ScimpiError> {
        if op != AccumulateOp::Replace && !data.len().is_multiple_of(8) {
            return Err(rank.world.escalate(ScimpiError::InvalidArg {
                what: "accumulate payload bytes past a whole 8-byte element",
                got: data.len() % 8,
                limit: 0,
            }));
        }
        // Read-modify-write. On the direct path this is a stalling remote
        // read plus a remote write; on the emulation path the handler does
        // the combine locally at the target.
        self.access(
            rank,
            &ACCUMULATE,
            target,
            contiguous(target_off, data.len()),
            data.len(),
            |_, _| vec![0u8; data.len()],
            |win, rank, acc, current| {
                let (region, base) = win.shared.region(target)?;
                let reader = rank.world.fabric.pio_reader(rank.node(), region.segment());
                Self::read_direct(rank, acc, &reader, base + target_off, current)?;
                apply_op(op, current, data);
                win.write_direct(rank, target, target_off, current)?;
                // Record the *combined* image: a verify-pass rewrite then
                // replaces rather than re-adds.
                win.record_put(rank, acc, target_off, current);
                Ok("shared")
            },
            |win, rank, acc, current| {
                let incoming = Self::send_wire(rank, acc, "osc.accumulate", data)?;
                win.backing_read(target, target_off, current)?;
                apply_op(op, current, &incoming);
                win.backing_write(target, target_off, current)?;
                win.emulate(rank, target, data.len());
                Ok(())
            },
        )
    }

    /// Read from this rank's own window memory (local load).
    pub fn read_local(&self, rank: &mut Rank, offset: usize, dst: &mut [u8]) {
        let me = self.local_index(rank);
        self.check(me, contiguous(offset, dst.len()))
            .and_then(|()| self.backing_read(me, offset, dst))
            .expect("local read in range");
        Self::charge_local_copy(rank, dst.len());
    }

    /// Write into this rank's own window memory (local store).
    pub fn write_local(&self, rank: &mut Rank, offset: usize, data: &[u8]) {
        let me = self.local_index(rank);
        self.check(me, contiguous(offset, data.len()))
            .and_then(|()| self.backing_write(me, offset, data))
            .expect("local write in range");
        Self::charge_local_copy(rank, data.len());
    }

    fn charge_local_copy(rank: &mut Rank, len: usize) {
        let cost = rank.world.fabric.params().cache.copy_cost(len, len);
        attrib::advance(&mut rank.clock, Bucket::Pack, cost);
    }

    /// What the origin pays for any target-executed operation moving `len`
    /// bytes: the control message and the streamed transfer.
    fn emulation_cost(rank: &Rank, len: usize) -> SimDuration {
        let params = rank.world.fabric.params();
        let stream = params.pio_stream_bw(len).min(params.node_injection_cap);
        CTRL_SEND_COST
            + params.txn_overhead
            + stream.cost(len as u64)
            + params.cache.copy_cost(len, len)
    }

    /// Cost of one target-executed data return (remote-put conversion or
    /// emulation): request + interrupt + handler — packing `blocks` basic
    /// blocks when the return is typed — + streamed write back.
    /// `target_w` is the target's world rank.
    fn handler_roundtrip_cost(
        rank: &Rank,
        target_w: usize,
        len: usize,
        blocks: usize,
    ) -> SimDuration {
        Self::emulation_cost(rank, len)
            + rank.world.fabric.params().remote_interrupt
            + HANDLER_COST
            + FF_BLOCK_COST.saturating_mul(blocks as u64)
            + rank
                .world
                .ctrl_latency(rank.rank, target_w)
                .saturating_mul(2)
    }

    /// Model one emulation round trip (control message + remote interrupt +
    /// handler + data transfer time). Requests to one target serialise on
    /// its handler — the paper's private-window latencies are dominated by
    /// "the required signalling of the remote process and the message
    /// exchange involved" for every single call.
    fn emulate(&mut self, rank: &mut Rank, target: usize, len: usize) {
        // Origin: builds the request, pays the transfer.
        let origin_cost = Self::emulation_cost(rank, len);
        attrib::advance(&mut rank.clock, Bucket::Transfer, origin_cost);
        // Handler at the target: starts once the request has arrived AND
        // the handler is free (serialisation), then pays the interrupt
        // dispatch plus the copy-in.
        let params = rank.world.fabric.params();
        let arrival = rank.clock.now() + rank.world.ctrl_latency(rank.rank, self.world_of(target));
        let start = arrival.max(self.emu_busy[target]);
        let done =
            start + params.remote_interrupt + HANDLER_COST + params.cache.copy_cost(len, len);
        self.emu_busy[target] = done;
        self.emu_outstanding = self.emu_outstanding.max(done);
    }

    /// Wait out the emulation handlers: waiting on remote progress, the
    /// same class of stall as completing an outstanding request.
    fn drain_emulation(&mut self, rank: &mut Rank) {
        attrib::merge_waited(
            &mut rank.clock,
            self.emu_outstanding,
            WaitKind::RequestWait,
            None,
        );
        self.emu_outstanding = SimTime::ZERO;
    }

    /// Flush: merge all outstanding completions into the clock and reset
    /// burst state (the store-barrier part of every synchronisation).
    fn flush_streams(&mut self, rank: &mut Rank) {
        for stream in self.streams.iter_mut().flatten() {
            attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                stream.barrier(clock)
            });
        }
        self.drain_emulation(rank);
    }

    /// Flush with integrity handling per [`crate::IntegrityMode`]: `Off`
    /// counts silent stream faults as uncovered; `SequenceCheck` polls and
    /// re-arms the adapter's sequence guard per stream (detects, never
    /// repairs; the first tainted stream names the error); `EndToEnd`
    /// verifies the epoch ledger against the remote windows and rewrites
    /// corrupted regions within the retransmit budget.
    fn try_flush(&mut self, rank: &mut Rank) -> Result<(), ScimpiError> {
        self.flush_streams(rank);
        let mode = self.imode(rank);
        if mode == IntegrityMode::EndToEnd {
            return self.verify_epoch(rank);
        }
        let mut flushed = Ok(());
        for (target, stream) in self.streams.iter_mut().enumerate() {
            let Some(stream) = stream else { continue };
            let peer = self.shared.members[target];
            let guard = Transfer::new(&rank.world, mode, "osc.flush", peer, "one-sided epoch");
            let checked = integrity::retransmit(rank, guard, |rank, _| {
                if mode == IntegrityMode::Off {
                    return Ok(stream.take_silent_faults() as usize);
                }
                let status = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                    stream.check_sequence(clock)
                });
                attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                    stream.start_sequence(clock)
                });
                Ok((status == SeqStatus::Tainted) as usize)
            });
            flushed = flushed.and(checked);
        }
        flushed
    }

    /// `EndToEnd` epoch verification: a target-side CRC over every
    /// recorded put region is compared with the origin's record (the
    /// simulator reads the backing memory directly — in hardware the
    /// target checksums its own window and returns the digest).
    /// Mismatched regions are rewritten — re-subject to faults — within
    /// the retransmit budget.
    fn verify_epoch(&mut self, rank: &mut Rank) -> Result<(), ScimpiError> {
        // The CRC comparison supersedes per-stream fault bookkeeping.
        for stream in self.streams.iter_mut().flatten() {
            stream.take_silent_faults();
        }
        for rec in &std::mem::take(&mut self.put_records) {
            let op = Op {
                target: rec.target,
                target_w: self.world_of(rec.target),
                verify: true,
                what: "one-sided epoch",
            };
            integrity::retransmit(rank, op.guard(rank, "osc.epoch"), |rank, retry| {
                if retry {
                    self.rewrite(rank, rec)?;
                }
                let (mem, base) = self.shared.mem(rec.target);
                let landed = mem
                    .with_bytes(base + rec.offset, rec.data.len(), crc32)
                    .map_err(SciError::from)?;
                Ok(op.checked(rank, rec.data.len(), (landed != rec.crc) as usize))
            })?;
        }
        Ok(())
    }

    /// Rewrite one corrupted put region — the epoch-level retransmission.
    /// The fresh write is itself subject to faults; the caller re-verifies.
    fn rewrite(&mut self, rank: &mut Rank, rec: &PutRecord) -> Result<(), ScimpiError> {
        if self.direct_active(rec.target) {
            let stream = self.write_direct(rank, rec.target, rec.offset, &rec.data)?;
            attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                stream.barrier(clock)
            });
            stream.take_silent_faults();
        } else {
            // The packet is exposed to the fabric like any other, but its
            // verdict is the caller's CRC comparison, not a count here.
            let target_w = self.world_of(rec.target);
            Self::ensure_alive(rank, target_w)?;
            let pair = (rank.node().0, rank.world.node_of(target_w).0);
            let mut wire = rec.data.clone();
            Self::corrupt_wire(rank, pair, &mut wire);
            self.backing_write(rec.target, rec.offset, &wire)?;
            self.emulate(rank, rec.target, rec.data.len());
            self.drain_emulation(rank);
        }
        Ok(())
    }

    /// `MPI_Win_fence`: complete all outstanding accesses and synchronise
    /// all ranks of the window (active target, collective).
    ///
    /// The collective synchronisation itself always runs — even when this
    /// rank's flush detects corruption — so peers are not deadlocked; the
    /// error goes through the error-handler machinery after the barrier.
    /// A rank blocked in the fence while the communicator is revoked
    /// errors out with [`ScimpiError::Revoked`] at the gossip-front
    /// arrival time instead of waiting for dead members.
    pub fn fence(&mut self, rank: &mut Rank) -> Result<(), ScimpiError> {
        let res = self.try_flush(rank);
        self.maybe_repromote(rank);
        let me_w = rank.world_rank();
        let world = Arc::clone(&rank.world);
        if self
            .shared
            .fence
            .wait_cancel(&mut rank.clock, || {
                world.revoke_arrival(me_w).map(|(at, _)| at)
            })
            .is_err()
        {
            let e = world
                .check_revoked(&mut rank.clock, me_w)
                .expect("cancellation implies an installed revocation");
            return Err(world.escalate(e));
        }
        res.map_err(|e| rank.world.escalate(e))
    }

    /// At synchronisation, probe the primary route to every demoted target
    /// and re-promote the ones whose direct path has healed. Probes cost
    /// `PROBE_COST` and run only for targets under fallback, so
    /// healthy runs stay bit-identical.
    fn maybe_repromote(&mut self, rank: &mut Rank) {
        for target in 0..self.fallback.len() {
            if !self.fallback[target].active {
                continue;
            }
            let Ok((region, _)) = self.shared.region(target) else {
                continue;
            };
            let owner = region.segment().owner();
            let primary = rank.world.fabric.topology().route(rank.node(), owner);
            let monitor = ConnectionMonitor::new(rank.world.fabric.faults(), PROBE_COST);
            let probe = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                monitor.probe(clock, owner.0, &primary)
            });
            if probe.is_ok() {
                self.fallback[target] = FallbackState::default();
                obs::inc(Counter::OscRepromotions);
                if obs::is_enabled() {
                    obs::instant(
                        "ft.osc_repromote",
                        rank.clock.now(),
                        vec![("target", obs::Arg::U64(target as u64))],
                    );
                }
            }
        }
    }

    /// Send the PSCW signal of `phase` (0 = post, 1 = complete) to `peers`.
    fn signal(&self, rank: &mut Rank, peers: &[usize], phase: u64) {
        let me_w = rank.world_rank();
        for &p in peers {
            let p_w = self.world_of(p);
            attrib::advance(&mut rank.clock, Bucket::Transfer, CTRL_SEND_COST);
            let arrival = rank.clock.now() + rank.world.ctrl_latency(me_w, p_w);
            rank.world.mailboxes[p_w].post_ctrl(
                pscw_handle(self.shared.id, me_w, p_w, phase),
                Ctrl::Signal {
                    arrival,
                    data: Vec::new(),
                },
            );
        }
    }

    /// Wait for the PSCW signal of `phase` from every one of `peers`. The
    /// wait is liveness- and revocation-guarded: a peer dying before its
    /// signal, or a communicator revocation, surfaces through the
    /// error-handler machinery instead of hanging.
    fn await_signals(
        &self,
        rank: &mut Rank,
        peers: &[usize],
        phase: u64,
        what: &'static str,
    ) -> Result<(), ScimpiError> {
        let me_w = rank.world_rank();
        for &p in peers {
            let p_w = self.world_of(p);
            let handle = pscw_handle(self.shared.id, p_w, me_w, phase);
            let c = rank
                .world
                .await_ctrl(me_w, &mut rank.clock, handle, p_w, what)
                .map_err(|e| rank.world.escalate(e))?;
            let Ctrl::Signal { arrival, .. } = c else {
                panic!(
                    "{}",
                    ScimpiError::ProtocolViolation {
                        expected: what,
                        got: format!("{c:?}"),
                    }
                );
            };
            // Blocked until the peer's signal lands: it is "late" in
            // exactly the late-sender sense.
            attrib::merge_waited(
                &mut rank.clock,
                arrival,
                WaitKind::LateSender,
                Some(p_w as u32),
            );
            attrib::advance(&mut rank.clock, Bucket::Transfer, CTRL_RECV_COST);
        }
        Ok(())
    }

    /// `MPI_Win_post`: open an exposure epoch for `origins` (active
    /// target, paired with [`Window::start`] at the origins).
    pub fn post(&mut self, rank: &mut Rank, origins: &[usize]) {
        self.signal(rank, origins, 0);
    }

    /// `MPI_Win_start`: open an access epoch towards `targets` (waits
    /// for their posts). A target dying before its post, or a
    /// communicator revocation, is an error instead of a hang.
    pub fn start(&mut self, rank: &mut Rank, targets: &[usize]) -> Result<(), ScimpiError> {
        self.await_signals(rank, targets, 0, "post signal")
    }

    /// `MPI_Win_complete`: close the access epoch (flushes and notifies
    /// the targets). The targets are notified even when this rank's
    /// flush detects corruption, so their [`Window::wait`] is not
    /// deadlocked; the error goes through the error-handler machinery
    /// after the notifications.
    pub fn complete(&mut self, rank: &mut Rank, targets: &[usize]) -> Result<(), ScimpiError> {
        let res = self.try_flush(rank);
        self.signal(rank, targets, 1);
        res.map_err(|e| rank.world.escalate(e))
    }

    /// `MPI_Win_wait`: close the exposure epoch (waits for all origins'
    /// completes). Guarded like [`Window::start`].
    pub fn wait(&mut self, rank: &mut Rank, origins: &[usize]) -> Result<(), ScimpiError> {
        self.await_signals(rank, origins, 1, "complete signal")
    }

    /// `MPI_Win_lock` (exclusive, passive target): acquire the
    /// shared-memory lock guarding `target`'s window part, run `body`,
    /// then unlock with completion semantics.
    ///
    /// The closure style keeps the real lock guard inside one stack frame,
    /// mirroring `MPI_Win_lock`/`MPI_Win_unlock` bracketing. The lock is
    /// always released — even when the unlock flush detects corruption —
    /// so waiting ranks are not deadlocked; the error goes through the
    /// error-handler machinery after the release.
    pub fn locked<R>(
        &mut self,
        rank: &mut Rank,
        target: usize,
        body: impl FnOnce(&mut Window, &mut Rank) -> R,
    ) -> Result<R, ScimpiError> {
        let me = ProcId(rank.world_rank());
        let shared = Arc::clone(&self.shared);
        let guard = {
            let lock = &shared.locks[target];
            lock.acquire(&mut rank.clock, me)
        };
        let result = body(self, rank);
        // Unlock semantics: all accesses of the epoch must be complete at
        // the target before the lock is released.
        let res = self.try_flush(rank);
        guard.release(&mut rank.clock);
        res.map_err(|e| rank.world.escalate(e))?;
        Ok(result)
    }
}

/// Element-wise combine for `MPI_Accumulate`. The arithmetic operators
/// take whole 8-byte elements ([`Window::accumulate`] checks).
fn apply_op(op: AccumulateOp, current: &mut [u8], incoming: &[u8]) {
    fn each_word(current: &mut [u8], incoming: &[u8], f: impl Fn([u8; 8], [u8; 8]) -> [u8; 8]) {
        for (cur, inc) in current.chunks_exact_mut(8).zip(incoming.chunks_exact(8)) {
            let a = (&*cur).try_into().expect("8 bytes");
            cur.copy_from_slice(&f(a, inc.try_into().expect("8 bytes")));
        }
    }
    let (f, i) = (f64::from_le_bytes, i64::from_le_bytes);
    match op {
        AccumulateOp::Replace => current.copy_from_slice(incoming),
        AccumulateOp::SumF64 => each_word(current, incoming, |a, b| (f(a) + f(b)).to_le_bytes()),
        AccumulateOp::MaxF64 => each_word(current, incoming, |a, b| f(a).max(f(b)).to_le_bytes()),
        AccumulateOp::SumI64 => each_word(current, incoming, |a, b| {
            i(a).wrapping_add(i(b)).to_le_bytes()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, ClusterSpec};
    use mpi_datatype::{typed, Datatype};

    fn shared_window(rank: &mut Rank, len: usize) -> Window {
        let mem = rank.alloc_mem(len).unwrap();
        rank.win_create(WinMemory::Alloc(mem)).unwrap()
    }

    #[test]
    fn put_fence_get_roundtrip_shared() {
        run(ClusterSpec::ringlet(2), |r| {
            let mut win = shared_window(r, 4096);
            if r.rank() == 0 {
                win.put(r, 1, 128, b"one-sided put").unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut local = [0u8; 13];
                win.read_local(r, 128, &mut local);
                assert_eq!(&local, b"one-sided put");
            }
            // And a get back the other way.
            if r.rank() == 1 {
                win.write_local(r, 0, b"reply");
            }
            win.fence(r).unwrap();
            if r.rank() == 0 {
                let mut buf = [0u8; 5];
                win.get(r, 1, 0, &mut buf).unwrap();
                assert_eq!(&buf, b"reply");
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn private_window_uses_emulation_and_works() {
        run(ClusterSpec::ringlet(2), |r| {
            let mut win = r.win_create(WinMemory::Private(1024)).unwrap();
            assert!(!win.is_shared(0));
            if r.rank() == 0 {
                win.put(r, 1, 0, &[7u8; 256]).unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut buf = [0u8; 256];
                win.read_local(r, 0, &mut buf);
                assert!(buf.iter().all(|&b| b == 7));
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn private_put_costs_more_than_shared_put() {
        let time_with = |private: bool| {
            let out = run(ClusterSpec::ringlet(2), move |r| {
                let mut win = if private {
                    r.win_create(WinMemory::Private(8192)).unwrap()
                } else {
                    shared_window(r, 8192)
                };
                win.fence(r).unwrap();
                if r.rank() == 0 {
                    for i in 0..16 {
                        win.put(r, 1, i * 256, &[1u8; 128]).unwrap();
                    }
                }
                win.fence(r).unwrap();
                r.now()
            });
            out[0]
        };
        let shared = time_with(false);
        let private = time_with(true);
        assert!(
            private.as_ps() > 2 * shared.as_ps(),
            "emulation {private:?} should cost much more than direct {shared:?}"
        );
    }

    #[test]
    fn large_get_remote_put_beats_direct_read_rate() {
        // A large get must cost far less than the pure PIO-read model
        // thanks to the remote-put conversion.
        let out = run(ClusterSpec::ringlet(2), |r| {
            let mut win = shared_window(r, 256 * 1024);
            win.fence(r).unwrap();
            let mut elapsed = SimDuration::ZERO;
            if r.rank() == 0 {
                let mut buf = vec![0u8; 128 * 1024];
                let t0 = r.now();
                win.get(r, 1, 0, &mut buf).unwrap();
                elapsed = r.now() - t0;
            }
            win.fence(r).unwrap();
            elapsed
        });
        let remote_put_time = out[0];
        // Direct read of 128 kiB at ~18 MiB/s would take ~7 ms.
        assert!(
            remote_put_time < SimDuration::from_ms(3),
            "remote-put get took {remote_put_time}"
        );
        assert!(remote_put_time > SimDuration::ZERO);
    }

    #[test]
    fn small_get_direct_read_is_low_latency() {
        let out = run(ClusterSpec::ringlet(2), |r| {
            let mut win = shared_window(r, 4096);
            if r.rank() == 1 {
                win.write_local(r, 64, &[0xEE; 8]);
            }
            win.fence(r).unwrap();
            let mut lat = SimDuration::ZERO;
            if r.rank() == 0 {
                let t0 = r.now();
                let mut b = [0u8; 8];
                win.get(r, 1, 64, &mut b).unwrap();
                lat = r.now() - t0;
                assert_eq!(b, [0xEE; 8]);
            }
            win.fence(r).unwrap();
            lat
        });
        // One stalling read transaction: a handful of microseconds.
        assert!(out[0] < SimDuration::from_us(10), "latency {}", out[0]);
    }

    #[test]
    fn accumulate_sum_f64() {
        run(ClusterSpec::ringlet(4), |r| {
            let mut win = shared_window(r, 64);
            if r.rank() == 0 {
                win.write_local(r, 0, &typed::to_bytes(&[10.0f64]));
            }
            win.fence(r).unwrap();
            // Ranks 1..4 each add their rank value, one after another
            // under lock (concurrent accumulates to the same location
            // need mutual exclusion in this implementation).
            for turn in 1..r.size() {
                if r.rank() == turn {
                    let data = typed::to_bytes(&[r.rank() as f64]);
                    win.locked(r, 0, |w, r| {
                        w.accumulate(r, 0, 0, AccumulateOp::SumF64, &data).unwrap();
                    })
                    .unwrap();
                }
                win.fence(r).unwrap();
            }
            if r.rank() == 0 {
                let mut buf = [0u8; 8];
                win.read_local(r, 0, &mut buf);
                let v: Vec<f64> = typed::from_bytes(&buf);
                assert_eq!(v[0], 16.0); // 10 + 1 + 2 + 3
            }
        });
    }

    #[test]
    fn pscw_epoch_synchronises() {
        run(ClusterSpec::ringlet(3), |r| {
            let mut win = shared_window(r, 1024);
            // Rank 0 is the target; ranks 1 and 2 write disjoint areas.
            if r.rank() == 0 {
                win.post(r, &[1, 2]);
                win.wait(r, &[1, 2]).unwrap();
                let mut buf = [0u8; 2];
                win.read_local(r, 100, &mut buf[..1]);
                win.read_local(r, 200, &mut buf[1..]);
                assert_eq!(buf, [11, 22]);
            } else {
                win.start(r, &[0]).unwrap();
                let v = if r.rank() == 1 { [11u8] } else { [22u8] };
                let off = if r.rank() == 1 { 100 } else { 200 };
                win.put(r, 0, off, &v).unwrap();
                win.complete(r, &[0]).unwrap();
            }
        });
    }

    #[test]
    fn lock_unlock_passive_target() {
        run(ClusterSpec::ringlet(2), |r| {
            let mut win = shared_window(r, 64);
            win.fence(r).unwrap();
            if r.rank() == 0 {
                // Passive target: rank 1 takes no action at all.
                win.locked(r, 1, |w, r| {
                    w.put(r, 1, 0, &[42u8; 16]).unwrap();
                })
                .unwrap();
                r.send(1, 1, b"done").unwrap();
            } else {
                let mut sig = [0u8; 4];
                r.recv(crate::Source::Rank(0), crate::TagSel::Value(1), &mut sig)
                    .unwrap();
                let mut buf = [0u8; 16];
                win.read_local(r, 0, &mut buf);
                assert!(buf.iter().all(|&b| b == 42));
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn typed_put_places_strided_blocks() {
        run(ClusterSpec::ringlet(2), |r| {
            let dt = Datatype::vector(4, 1, 2, &Datatype::double());
            let c = Committed::commit(&dt);
            let mut win = shared_window(r, 256);
            if r.rank() == 0 {
                let src: Vec<u8> = (0..c.extent()).map(|i| i as u8).collect();
                win.put_typed(r, 1, 0, &c, 1, &src, 0).unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                // Extent is 3 full strides + one final block (no trailing
                // gap): 56 bytes.
                assert_eq!(c.extent(), 56);
                let mut buf = vec![0u8; c.extent()];
                win.read_local(r, 0, &mut buf);
                // Block bytes landed, gap bytes untouched (zero).
                for blk in 0..4 {
                    let at = blk * 16;
                    let expect: Vec<u8> = (at..at + 8).map(|i| i as u8).collect();
                    assert_eq!(&buf[at..at + 8], &expect[..], "block {blk}");
                    if blk < 3 {
                        assert!(buf[at + 8..at + 16].iter().all(|&b| b == 0), "gap {blk}");
                    }
                }
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn out_of_range_access_is_error() {
        run(ClusterSpec::ringlet(2), |r| {
            let mut win = shared_window(r, 64);
            if r.rank() == 0 {
                assert!(win.put(r, 1, 60, &[0u8; 8]).is_err());
                let mut buf = [0u8; 8];
                assert!(win.get(r, 1, 60, &mut buf).is_err());
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn alloc_mem_pool_alloc_free_cycle() {
        run(ClusterSpec::ringlet(1), |r| {
            let a = r.alloc_mem(1024).unwrap();
            let b = r.alloc_mem(2048).unwrap();
            assert_ne!(a.offset, b.offset);
            r.free_mem(a);
            let c = r.alloc_mem(512).unwrap();
            // First-fit reuses the freed block.
            assert_eq!(c.offset, 0);
            r.free_mem(b);
            r.free_mem(c);
        });
    }

    #[test]
    fn get_typed_gathers_strided_blocks() {
        run(ClusterSpec::ringlet(2), |r| {
            let dt = Datatype::vector(8, 2, 4, &Datatype::double()); // 128 B data
            let c = Committed::commit(&dt);
            let mut win = shared_window(r, 1024);
            if r.rank() == 1 {
                let img: Vec<u8> = (0..c.extent()).map(|i| (i ^ 0x3C) as u8).collect();
                win.write_local(r, 0, &img);
            }
            win.fence(r).unwrap();
            if r.rank() == 0 {
                let mut buf = vec![0u8; c.extent()];
                win.get_typed(r, 1, 0, &c, 1, &mut buf, 0).unwrap();
                // Block bytes match the target image; gaps stayed zero.
                mpi_datatype::tree::for_each_segment(c.datatype(), 1, |d, l| {
                    let d = d as usize;
                    for (i, b) in buf.iter().enumerate().skip(d).take(l) {
                        assert_eq!(*b, (i ^ 0x3C) as u8, "data byte {i}");
                    }
                    core::ops::ControlFlow::Continue(())
                });
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn get_typed_large_uses_remote_put_rate() {
        // A large typed get must be far cheaper than per-block stalling
        // reads.
        let out = run(ClusterSpec::ringlet(2), |r| {
            let dt = Datatype::vector(4096, 2, 4, &Datatype::double()); // 64 KiB
            let c = Committed::commit(&dt);
            let mut win = shared_window(r, 2 * c.extent());
            win.fence(r).unwrap();
            let mut elapsed = SimDuration::ZERO;
            if r.rank() == 0 {
                let mut buf = vec![0u8; c.extent()];
                let t0 = r.now();
                win.get_typed(r, 1, 0, &c, 1, &mut buf, 0).unwrap();
                elapsed = r.now() - t0;
            }
            win.fence(r).unwrap();
            elapsed
        });
        // 4096 stalling reads would cost ~14 ms; remote-put stays ~1 ms.
        assert!(out[0] < SimDuration::from_ms(3), "took {}", out[0]);
    }

    #[test]
    fn dma_sg_put_beats_pio_for_many_small_blocks() {
        let time_with = |dma: bool| {
            // The DMA arm runs under `Auto`: put_typed's adaptive selector
            // sees a large, fine-grained layout on a shared window and
            // converts to the descriptor-list path end-to-end. The PIO arm
            // pins direct per-block ff so the comparison stays honest.
            let tuning = if dma {
                crate::tuning::Tuning::default()
            } else {
                crate::tuning::Tuning::default().full_ff_comparison()
            };
            let out = run(ClusterSpec::ringlet(2).tuning(tuning), move |r| {
                // 512 KiB of 64-byte blocks: PIO pays per-block flushes,
                // DMA pays one descriptor-list setup.
                let dt = Datatype::vector(8192, 8, 16, &Datatype::double());
                let c = Committed::commit(&dt);
                let mut win = shared_window(r, c.extent() + 64);
                win.fence(r).unwrap();
                if r.rank() == 0 {
                    let src = vec![5u8; c.extent()];
                    win.put_typed(r, 1, 0, &c, 1, &src, 0).unwrap();
                }
                win.fence(r).unwrap();
                r.now()
            });
            out[0]
        };
        let pio = time_with(false);
        let dma = time_with(true);
        assert!(dma < pio, "dma {dma:?} should beat pio {pio:?} here");
    }

    #[test]
    fn dma_sg_put_delivers_correct_layout() {
        run(ClusterSpec::ringlet(2), |r| {
            let dt = Datatype::vector(4, 1, 2, &Datatype::double());
            let c = Committed::commit(&dt);
            let mut win = shared_window(r, 256);
            if r.rank() == 0 {
                let src: Vec<u8> = (0..c.extent()).map(|i| i as u8 + 1).collect();
                win.put_typed_dma(r, 1, 0, &c, 1, &src, 0).unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut buf = vec![0u8; c.extent()];
                win.read_local(r, 0, &mut buf);
                for blk in 0..4usize {
                    let at = blk * 16;
                    assert!(buf[at..at + 8]
                        .iter()
                        .enumerate()
                        .all(|(i, &b)| b == (at + i) as u8 + 1));
                }
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn iput_iget_roundtrip_with_overlap() {
        run(ClusterSpec::ringlet(2), |r| {
            let mut win = shared_window(r, 4096);
            if r.rank() == 0 {
                let mut req = win.iput(r, 1, 0, &[9u8; 64]).unwrap();
                r.wait(&mut req).unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut buf = [0u8; 64];
                win.read_local(r, 0, &mut buf);
                assert!(buf.iter().all(|&b| b == 9));
            }
            win.fence(r).unwrap();
            if r.rank() == 0 {
                let mut req = win.iget(r, 1, 0, 64).unwrap();
                let t0 = r.now();
                r.compute(SimDuration::from_ms(5));
                let got = r.wait(&mut req).unwrap();
                assert!(got.iter().all(|&b| b == 9));
                // The read stalls hid entirely behind the compute block.
                assert_eq!(r.now() - t0, SimDuration::from_ms(5));
            }
            win.fence(r).unwrap();
        });
    }

    #[test]
    fn strided_put_performance_depends_on_alignment() {
        // §4.3: strides that are multiples of the 32-byte write-combine
        // buffer are much faster than misaligned ones.
        let time_with_stride = |stride: usize| {
            let out = run(ClusterSpec::ringlet(2), move |r| {
                let mut win = shared_window(r, 1 << 20);
                win.fence(r).unwrap();
                if r.rank() == 0 {
                    let data = [1u8; 8];
                    let mut off = 0;
                    while off + 8 <= (1 << 20) {
                        win.put(r, 1, off, &data).unwrap();
                        off += stride;
                    }
                }
                win.fence(r).unwrap();
                r.now()
            });
            out[0]
        };
        let aligned = time_with_stride(64);
        let misaligned = time_with_stride(72); // not a multiple of 32
                                               // Same number of puts is not equal (16384 vs 14563), so compare
                                               // per-put cost.
        let per_aligned = aligned.as_ps() / (1 << 20) * 64;
        let per_mis = misaligned.as_ps() / (1 << 20) * 72;
        assert!(
            per_mis > 2 * per_aligned,
            "aligned {per_aligned} vs misaligned {per_mis}"
        );
    }
}
