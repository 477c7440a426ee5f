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

use crate::error::ScimpiError;
use crate::mailbox::Ctrl;
use crate::request::Request;
use crate::runtime::Rank;
use crate::tuning::{IntegrityMode, PackPath};
use mpi_datatype::{ff, Committed};
use obs::attrib::{self, Bucket, WaitKind};
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

impl Rank {
    /// `MPI_Alloc_mem`: allocate remotely accessible memory from this
    /// rank's shared-segment pool. Pool exhaustion comes back as
    /// [`ScimpiError::WindowError`].
    pub fn alloc_mem(&mut self, len: usize) -> Result<AllocMem, ScimpiError> {
        // Governed resource: remotely accessible memory counts against
        // `Tuning::window_budget_bytes` before the pool is consulted.
        self.world
            .charge_window(self.rank, len)
            .map_err(|e| self.world.escalate(e))?;
        let alloced = self.world.alloc_pools[self.rank].lock().unwrap().alloc(len);
        let offset = match alloced {
            Ok(o) => o,
            Err(e) => {
                // The charge is returned when the pool itself refuses.
                self.world.release_window(self.rank, len);
                return Err(ScimpiError::WindowError(format!(
                    "shared-segment pool exhausted allocating {len} bytes on rank {}: {e:?}",
                    self.rank
                )));
            }
        };
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
        self.world.release_window(self.rank, mem.len);
    }

    /// `MPI_Win_create` (collective): expose `mem` to all ranks of the
    /// current membership epoch. Registration failures come back as
    /// [`ScimpiError::WindowError`].
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
                // Already charged against the window budget by
                // `alloc_mem`; don't double-count the same bytes.
                (
                    TargetMem::Shared {
                        region: am.region,
                        offset: am.offset,
                    },
                    am.len,
                )
            }
            WinMemory::Private(len) => {
                // Private window memory is allocated here, so it is
                // charged here (windows live until teardown; there is
                // no `MPI_Win_free` in this subset yet).
                self.world
                    .charge_window(self.rank, len)
                    .map_err(|e| self.world.escalate(e))?;
                (
                    TargetMem::Private {
                        mem: Arc::new(SharedMem::new(len)),
                    },
                    len,
                )
            }
        };
        let size = self.size();
        let members = Arc::clone(&self.members);
        let targets = self.collective_gather(contrib);
        let id = self.collective_gather(if self.rank() == 0 {
            self.world.handle()
        } else {
            0
        })[0];
        if self.rank() == 0 {
            let shared = Arc::new(WindowShared {
                id,
                locks: members
                    .iter()
                    .map(|&w| SmiLock::new(Arc::clone(&self.world.smi), ProcId(w)))
                    .collect(),
                fence: TimeBarrier::new(size, self.world.tuning.barrier_hop),
                targets,
                members: Arc::clone(&members),
                integrity_override,
            });
            self.world
                .windows
                .lock()
                .unwrap()
                .insert(id, shared as Arc<dyn std::any::Any + Send + Sync>);
        }
        // Make the insert visible to everyone.
        self.collective_gather(());
        let shared = self
            .world
            .windows
            .lock()
            .unwrap()
            .get(&id)
            .ok_or_else(|| {
                ScimpiError::WindowError(format!("window {id} was not registered by rank 0"))
            })?
            .clone()
            .downcast::<WindowShared>()
            .map_err(|_| {
                ScimpiError::WindowError(format!("window {id} registered with a mismatched type"))
            })?;
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

    fn check(&self, target: usize, offset: usize, len: usize) -> Result<(), SciError> {
        let winlen = self.len(target);
        if offset.checked_add(len).is_none_or(|end| end > winlen) {
            return Err(SciError::OutOfBounds(sci_fabric::mem::OutOfBounds {
                offset,
                len,
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
        obs::inc(obs::Counter::OscFallbacks);
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

    /// Apply the fabric's silent faults to a wire image travelling
    /// between the node `pair` (emulation packets and target-executed
    /// returns move through plain messages, not `SharedMem`, so the
    /// per-pair fault streams are applied here). Returns the fault count.
    fn corrupt_wire(rank: &mut Rank, pair: (usize, usize), wire: &mut [u8]) -> usize {
        let txn = rank.world.fabric.params().stream_buffer_bytes;
        rank.world.fabric.faults().corrupt_buffer(pair, txn, wire)
    }

    /// Count corruption that landed with no covering check (`Off`
    /// everywhere; paths outside the sequence guard in `SequenceCheck`).
    fn note_uncovered(rank: &Rank, n: usize, path: &'static str) {
        if n > 0 {
            obs::add(obs::Counter::UndetectedAtOff, n as u64);
            if obs::is_enabled() {
                obs::instant(
                    "ft.integrity.silent",
                    rank.clock.now(),
                    vec![
                        ("path", obs::Arg::Str(path.into())),
                        ("faults", obs::Arg::U64(n as u64)),
                    ],
                );
            }
        }
    }

    /// A detected corruption: counter plus trace instant.
    fn note_detected(rank: &Rank, path: &'static str, peer: usize) {
        obs::inc(obs::Counter::CorruptionsDetected);
        obs::instant(
            "ft.integrity.detected",
            rank.clock.now(),
            vec![
                ("path", obs::Arg::Str(path.into())),
                ("peer", obs::Arg::U64(peer as u64)),
            ],
        );
    }

    /// A retransmission: counter plus trace instant.
    fn note_retransmit(rank: &Rank, path: &'static str, attempt: u32) {
        obs::inc(obs::Counter::Retransmits);
        obs::instant(
            "ft.integrity.retransmit",
            rank.clock.now(),
            vec![
                ("path", obs::Arg::Str(path.into())),
                ("attempt", obs::Arg::U64(attempt as u64)),
            ],
        );
    }

    /// Record a put for `EndToEnd` epoch verification, charging the
    /// origin's CRC computation over the intended image. A later access
    /// overwriting an earlier one's region within the same epoch (ordered
    /// accumulates, notably) supersedes its record — only the final image
    /// can verify against memory.
    fn record_put(&mut self, rank: &mut Rank, target: usize, offset: usize, data: &[u8]) {
        attrib::advance(
            &mut rank.clock,
            Bucket::Pack,
            rank.world.crc_cost(data.len()),
        );
        let (lo, hi) = (offset, offset + data.len());
        self.put_records
            .retain(|r| r.target != target || r.offset + r.data.len() <= lo || hi <= r.offset);
        self.put_records.push(PutRecord {
            target,
            offset,
            crc: crc32(data),
            data: data.to_vec(),
        });
    }

    /// Verified delivery of one emulation packet (`EndToEnd`): each
    /// attempt sends a fresh wire image; the target's CRC verdict is
    /// collapsed into this loop (the simulator knows ground truth),
    /// charging a CRC per attempt and one handler round trip per
    /// retransmission. Returns the delivered (clean) payload.
    fn deliver_packet(
        rank: &mut Rank,
        target_w: usize,
        data: &[u8],
        what: &'static str,
    ) -> Result<Vec<u8>, ScimpiError> {
        let pair = (rank.node().0, rank.world.node_of(target_w).0);
        let mut retransmits = 0u32;
        loop {
            attrib::advance(
                &mut rank.clock,
                Bucket::Pack,
                rank.world.crc_cost(data.len()),
            );
            let mut wire = data.to_vec();
            let n = Self::corrupt_wire(rank, pair, &mut wire);
            if n == 0 {
                return Ok(wire);
            }
            Self::note_detected(rank, "osc.emulated", target_w);
            if retransmits >= rank.world.tuning.max_retransmits {
                return Err(ScimpiError::DataCorruption {
                    peer: target_w,
                    what,
                    retransmits,
                });
            }
            retransmits += 1;
            Self::note_retransmit(rank, "osc.emulated", retransmits);
            let roundtrip = Self::handler_roundtrip_cost(rank, target_w, data.len());
            attrib::advance(&mut rank.clock, Bucket::Transfer, roundtrip);
        }
    }

    /// Return-path (target → origin) integrity for data a target-executed
    /// transfer landed in `dst`: `EndToEnd` re-requests a corrupted
    /// return (bounded); the other modes let the flips stand, counted as
    /// uncovered.
    fn verify_return(
        rank: &mut Rank,
        target_w: usize,
        mode: IntegrityMode,
        dst: &mut [u8],
        clean: &[u8],
        what: &'static str,
    ) -> Result<(), ScimpiError> {
        let pair = (rank.world.node_of(target_w).0, rank.node().0);
        let mut retransmits = 0u32;
        loop {
            dst.copy_from_slice(clean);
            let n = Self::corrupt_wire(rank, pair, dst);
            if mode != IntegrityMode::EndToEnd {
                Self::note_uncovered(rank, n, what);
                return Ok(());
            }
            attrib::advance(
                &mut rank.clock,
                Bucket::Pack,
                rank.world.crc_cost(dst.len()),
            );
            if n == 0 {
                return Ok(());
            }
            Self::note_detected(rank, what, target_w);
            if retransmits >= rank.world.tuning.max_retransmits {
                return Err(ScimpiError::DataCorruption {
                    peer: target_w,
                    what,
                    retransmits,
                });
            }
            retransmits += 1;
            Self::note_retransmit(rank, what, retransmits);
            let roundtrip = Self::handler_roundtrip_cost(rank, target_w, dst.len());
            attrib::advance(&mut rank.clock, Bucket::Transfer, roundtrip);
        }
    }

    /// Direct remote read with integrity handling: `EndToEnd` re-reads a
    /// faulted interval (a modeled CRC handshake per attempt) up to the
    /// retransmission budget; the other modes count flips as uncovered.
    fn read_direct(
        rank: &mut Rank,
        reader: &sci_fabric::PioReader,
        at: usize,
        dst: &mut [u8],
        target_w: usize,
        mode: IntegrityMode,
        what: &'static str,
    ) -> Result<(), ScimpiError> {
        let mut retransmits = 0u32;
        loop {
            let n = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                reader.read_counted(clock, at, dst)
            })
            .map_err(ScimpiError::Fabric)?;
            if mode != IntegrityMode::EndToEnd {
                Self::note_uncovered(rank, n as usize, what);
                return Ok(());
            }
            attrib::advance(
                &mut rank.clock,
                Bucket::Pack,
                rank.world.crc_cost(dst.len()),
            );
            if n == 0 {
                return Ok(());
            }
            Self::note_detected(rank, what, target_w);
            if retransmits >= rank.world.tuning.max_retransmits {
                return Err(ScimpiError::DataCorruption {
                    peer: target_w,
                    what,
                    retransmits,
                });
            }
            retransmits += 1;
            Self::note_retransmit(rank, what, retransmits);
        }
    }

    /// Write into `target`'s backing window memory (the data movement of
    /// the emulated path — the handler's copy on the target side).
    fn backing_write(&self, target: usize, at: usize, data: &[u8]) -> Result<(), SciError> {
        match &self.shared.targets[target].0 {
            TargetMem::Shared { region, offset } => region
                .segment()
                .mem()
                .write(offset + at, data)
                .map_err(SciError::from),
            TargetMem::Private { mem } => mem.write(at, data).map_err(SciError::from),
        }
    }

    /// Read from `target`'s backing window memory (see
    /// [`Window::backing_write`]).
    fn backing_read(&self, target: usize, at: usize, dst: &mut [u8]) -> Result<(), SciError> {
        match &self.shared.targets[target].0 {
            TargetMem::Shared { region, offset } => region
                .segment()
                .mem()
                .read(offset + at, dst)
                .map_err(SciError::from),
            TargetMem::Private { mem } => mem.read(at, dst).map_err(SciError::from),
        }
    }

    /// Direct-path stream to a shared target (created lazily, kept open).
    fn stream<'a>(
        streams: &'a mut [Option<PioStream>],
        shared: &WindowShared,
        rank: &Rank,
        target: usize,
        working_set: usize,
    ) -> (&'a mut PioStream, usize) {
        let TargetMem::Shared { region, offset } = &shared.targets[target].0 else {
            panic!("direct stream to private window");
        };
        let slot = &mut streams[target];
        if slot.is_none() {
            let mut stream = region
                .map(ProcId(rank.world_rank()))
                .pio_stream(working_set);
            // Window streams are long-running: sustained MPI-level puts
            // saturate at the node injection cap (the Figure 12 plateau),
            // unlike short raw bursts.
            stream.cap_demand(rank.world.fabric.params().node_injection_cap);
            *slot = Some(stream);
        }
        (slot.as_mut().expect("just created"), *offset)
    }

    fn put_inner(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        data: &[u8],
    ) -> Result<(), ScimpiError> {
        self.check(target, target_off, data.len())?;
        let target_w = self.world_of(target);
        let mode = self.imode(rank);
        let start = rank.clock.now();
        if self.direct_active(target) {
            obs::inc(obs::Counter::OscPutShared);
            let (stream, base) =
                Self::stream(&mut self.streams, &self.shared, rank, target, data.len());
            let res = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                stream.write(clock, base + target_off, data)
            });
            match res {
                Ok(()) => {
                    self.note_direct_success(target);
                    if mode == IntegrityMode::EndToEnd {
                        self.record_put(rank, target, target_off, data);
                    }
                    osc_span(rank, "osc.put", start, data.len(), target, "shared");
                    return Ok(());
                }
                Err(e) => self.note_direct_failure(rank, target, e)?,
            }
        }
        // Emulation (private windows, or shared targets under fallback):
        // control message + remote interrupt + handler receives the data
        // with the ordinary protocols. A failed direct write above may
        // already have moved some bytes; the handler's copy lands the full
        // payload either way.
        obs::inc(obs::Counter::OscPutEmulated);
        Self::ensure_alive(rank, target_w)?;
        if mode == IntegrityMode::EndToEnd {
            let wire = Self::deliver_packet(rank, target_w, data, "one-sided put")?;
            self.backing_write(target, target_off, &wire)?;
        } else {
            let mut wire = data.to_vec();
            let pair = (rank.node().0, rank.world.node_of(target_w).0);
            let n = Self::corrupt_wire(rank, pair, &mut wire);
            Self::note_uncovered(rank, n, "osc.put");
            self.backing_write(target, target_off, &wire)?;
        }
        self.emulate(rank, target, data.len());
        osc_span(rank, "osc.put", start, data.len(), target, "emulated");
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn put_typed_inner(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        let total = c.size() * count;
        self.check(target, target_off, c.extent() * count)?;
        let target_w = self.world_of(target);
        let mode = self.imode(rank);
        let start = rank.clock.now();
        // Resolve the committed layout (cache lookup vs re-flatten), then
        // let the adaptive selector pick the pack path from its density.
        // DMA is only on offer where the descriptor-list engine can reach
        // the target: a healthy shared window.
        attrib::advance(
            &mut rank.clock,
            Bucket::Pack,
            rank.world.tuning.layout_resolve_cost(c),
        );
        // The staging budget governs the verdict: a DMA pack buffer the
        // ledger cannot cover degrades to the staged engine, and a
        // staged bounce buffer it cannot cover degrades to the
        // bufferless direct path. The lease is held for the transfer.
        let world = Arc::clone(&rank.world);
        let (path, _staging_lease) =
            world.governed_path(rank.rank, c, total, self.direct_active(target));
        if path == PackPath::Dma {
            return self.put_typed_dma_inner(rank, target, target_off, c, count, buf, origin);
        }
        if self.direct_active(target) {
            obs::inc(obs::Counter::OscPutShared);
            let (stream, base) = Self::stream(&mut self.streams, &self.shared, rank, target, total);
            // Pack into the window preserving the *layout* (the target
            // datatype equals the origin datatype here): each block is
            // written at its own displacement. With WC batching, adjacent
            // blocks coalesce in the stream's write-combining window.
            let use_wc = rank.world.tuning.wc_batching;
            let ff_block_cost = rank.world.tuning.ff_block_cost;
            let (stats, err) = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                let mut err = None;
                let stats = ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
                    let src_at = (origin as i64 + disp) as usize;
                    let dst_at = ((base + target_off) as i64 + disp) as usize;
                    let data = &buf[src_at..src_at + len];
                    let res = if use_wc {
                        stream.write_batched(clock, dst_at, data)
                    } else {
                        stream.write(clock, dst_at, data)
                    };
                    match res {
                        Ok(()) => core::ops::ControlFlow::Continue(()),
                        Err(e) => {
                            err = Some(e);
                            core::ops::ControlFlow::Break(())
                        }
                    }
                });
                if err.is_none() {
                    if let Err(e) = stream.flush_wc(clock) {
                        err = Some(e);
                    }
                }
                (stats, err)
            });
            match err {
                None => {
                    attrib::advance(
                        &mut rank.clock,
                        Bucket::Pack,
                        ff_block_cost.saturating_mul(stats.blocks as u64),
                    );
                    self.note_direct_success(target);
                    if mode == IntegrityMode::EndToEnd {
                        // One epoch record per block: verification needs
                        // the layout, not the packed stream.
                        ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
                            let src_at = (origin as i64 + disp) as usize;
                            self.record_put(
                                rank,
                                target,
                                (target_off as i64 + disp) as usize,
                                &buf[src_at..src_at + len],
                            );
                            core::ops::ControlFlow::Continue(())
                        });
                    }
                    osc_span(rank, "osc.put_typed", start, total, target, "shared");
                    return Ok(());
                }
                Some(e) => self.note_direct_failure(rank, target, e)?,
            }
        }
        // Emulation (private windows, or shared targets under fallback).
        obs::inc(obs::Counter::OscPutEmulated);
        Self::ensure_alive(rank, target_w)?;
        let mut sink = ff::VecSink::default();
        let stats = ff::pack_ff(c, count, buf, origin, 0, usize::MAX, &mut sink)
            .expect("VecSink infallible");
        attrib::advance(
            &mut rank.clock,
            Bucket::Pack,
            rank.world
                .tuning
                .ff_block_cost
                .saturating_mul(stats.blocks as u64),
        );
        // The packed stream is one emulation packet on the wire.
        let mut payload = sink.data;
        if mode == IntegrityMode::EndToEnd {
            payload = Self::deliver_packet(rank, target_w, &payload, "one-sided put")?;
        } else {
            let pair = (rank.node().0, rank.world.node_of(target_w).0);
            let n = Self::corrupt_wire(rank, pair, &mut payload);
            Self::note_uncovered(rank, n, "osc.put_typed");
        }
        // Handler unpacks at the target; data keeps its layout.
        let mut err = None;
        let mut pos = 0usize;
        ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
            let at = (target_off as i64 + disp) as usize;
            if let Err(e) = self.backing_write(target, at, &payload[pos..pos + len]) {
                err = Some(e);
                return core::ops::ControlFlow::Break(());
            }
            pos += len;
            core::ops::ControlFlow::Continue(())
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        self.emulate(rank, target, total);
        osc_span(rank, "osc.put_typed", start, total, target, "emulated");
        Ok(())
    }

    /// `MPI_Put` of a committed datatype through the **DMA engine's
    /// scatter/gather descriptor list** — the paper's outlook (§6):
    /// non-contiguous transfers on DMA-based interconnects pay one setup
    /// for the whole list and then stream without the CPU. Pays off for
    /// large payloads of small blocks, where PIO per-block costs dominate.
    /// Shared windows only.
    #[allow(clippy::too_many_arguments)]
    fn put_typed_dma_inner(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        self.check(target, target_off, c.extent() * count)?;
        obs::inc(obs::Counter::OscPutShared);
        let TargetMem::Shared { region, offset } = &self.shared.targets[target].0 else {
            panic!("put_typed_dma requires a shared window");
        };
        let region = Arc::clone(region);
        let base = offset + target_off;
        let mut entries = Vec::with_capacity(c.blocks_per_instance() * count);
        ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
            entries.push(sci_fabric::SgEntry {
                src_offset: (origin as i64 + disp) as usize,
                dst_offset: (base as i64 + disp) as usize,
                len,
            });
            core::ops::ControlFlow::Continue(())
        });
        let dma = rank.world.fabric.dma_engine(rank.node(), region.segment());
        let completion = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
            dma.write_sg(clock, &entries, buf)
        })?;
        self.emu_outstanding = self.emu_outstanding.max(completion.done);
        if self.imode(rank) == IntegrityMode::EndToEnd {
            // The DMA engine has no sequence guard; epoch verification is
            // the only net under the descriptor-list path.
            ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
                let src_at = (origin as i64 + disp) as usize;
                self.record_put(
                    rank,
                    target,
                    (target_off as i64 + disp) as usize,
                    &buf[src_at..src_at + len],
                );
                core::ops::ControlFlow::Continue(())
            });
        } else {
            Self::note_uncovered(rank, completion.silent_faults as usize, "osc.put_dma");
        }
        Ok(())
    }

    fn get_inner(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        dst: &mut [u8],
    ) -> Result<(), ScimpiError> {
        self.check(target, target_off, dst.len())?;
        let target_w = self.world_of(target);
        let mode = self.imode(rank);
        let threshold = rank.world.tuning.get_remote_put_threshold;
        let start = rank.clock.now();
        if self.direct_active(target) {
            let (region, offset) = match &self.shared.targets[target].0 {
                TargetMem::Shared { region, offset } => (Arc::clone(region), *offset),
                TargetMem::Private { .. } => unreachable!("direct_active implies shared"),
            };
            if dst.len() < threshold {
                obs::inc(obs::Counter::OscGetDirect);
                // Small: direct remote read (CPU stalls, but latency is
                // still low compared to messaging).
                let reader = rank.world.fabric.pio_reader(rank.node(), region.segment());
                match Self::read_direct(
                    rank,
                    &reader,
                    offset + target_off,
                    dst,
                    target_w,
                    mode,
                    "one-sided get",
                ) {
                    Ok(()) => {
                        self.note_direct_success(target);
                        osc_span(rank, "osc.get", start, dst.len(), target, "direct");
                        return Ok(());
                    }
                    Err(ScimpiError::Fabric(e)) => self.note_direct_failure(rank, target, e)?,
                    Err(other) => return Err(other),
                }
            } else {
                obs::inc(obs::Counter::OscGetRemotePut);
                // Large: remote-put conversion — the target writes the
                // data into the origin's address space at SCI write
                // bandwidth instead of the origin reading it at SCI
                // read bandwidth (needs the target's CPU).
                Self::ensure_alive(rank, target_w)?;
                region
                    .segment()
                    .mem()
                    .read(offset + target_off, dst)
                    .map_err(SciError::from)?;
                {
                    let roundtrip = Self::handler_roundtrip_cost(rank, target_w, dst.len());
                    attrib::advance(&mut rank.clock, Bucket::Transfer, roundtrip);
                }
                let clean = dst.to_vec();
                Self::verify_return(rank, target_w, mode, dst, &clean, "one-sided get")?;
                osc_span(rank, "osc.get", start, dst.len(), target, "remote_put");
                return Ok(());
            }
        }
        // Emulation (private windows, or shared targets under fallback —
        // the remote-put conversion rides the direct path, so it is
        // disabled too): interrupt the target, handler sends the data back
        // with the ordinary protocols.
        obs::inc(obs::Counter::OscGetRemotePut);
        Self::ensure_alive(rank, target_w)?;
        self.backing_read(target, target_off, dst)?;
        let roundtrip = Self::handler_roundtrip_cost(rank, target_w, dst.len());
        attrib::advance(&mut rank.clock, Bucket::Transfer, roundtrip);
        let clean = dst.to_vec();
        Self::verify_return(rank, target_w, mode, dst, &clean, "one-sided get")?;
        osc_span(rank, "osc.get", start, dst.len(), target, "emulated");
        Ok(())
    }

    /// Cost of one target-executed data return (remote-put conversion or
    /// emulation): request + interrupt + handler + streamed write back.
    /// `target_w` is the target's world rank.
    fn handler_roundtrip_cost(rank: &Rank, target_w: usize, len: usize) -> SimDuration {
        let params = rank.world.fabric.params();
        let t = &rank.world.tuning;
        let hops = rank
            .world
            .fabric
            .topology()
            .distance(rank.node(), rank.world.smi.node_of(ProcId(target_w)));
        t.ctrl_send_cost
            + params.remote_interrupt
            + HANDLER_COST
            + params.txn_overhead
            + params
                .pio_stream_bw(len)
                .min(params.node_injection_cap)
                .cost(len as u64)
            + params.wire_latency(hops).saturating_mul(2)
            + params.cache.copy_cost(len, len)
    }

    /// Route an operation result to the surface: out-of-bounds errors are
    /// returned directly (a caller bug, not a communication fault); fabric
    /// errors go through the error-handler machinery ([`crate::ErrorMode`]).
    fn surface(rank: &Rank, res: Result<(), ScimpiError>) -> Result<(), ScimpiError> {
        res.map_err(|e| {
            if matches!(e, ScimpiError::Fabric(SciError::OutOfBounds(_))) {
                e
            } else {
                rank.world.escalate(e)
            }
        })
    }

    /// `MPI_Put` of contiguous bytes.
    pub fn put(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        data: &[u8],
    ) -> Result<(), ScimpiError> {
        let res = self.put_inner(rank, target, target_off, data);
        Self::surface(rank, res)
    }

    /// `MPI_Get` of contiguous bytes.
    pub fn get(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        dst: &mut [u8],
    ) -> Result<(), ScimpiError> {
        let res = self.get_inner(rank, target, target_off, dst);
        Self::surface(rank, res)
    }

    /// `MPI_Put` of a committed datatype — `direct_pack_ff` streams the
    /// blocks straight into the remote window.
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
        let res = self.put_typed_inner(rank, target, target_off, c, count, buf, origin);
        Self::surface(rank, res)
    }

    /// `MPI_Put` of a committed datatype forced through the DMA
    /// scatter/gather descriptor list (see [`Window::put_typed`], which
    /// selects this path adaptively). Shared windows only.
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
        let res = self.put_typed_dma_inner(rank, target, target_off, c, count, buf, origin);
        Self::surface(rank, res)
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
        let res = self.get_typed_inner(rank, target, target_off, c, count, buf, origin);
        Self::surface(rank, res)
    }

    #[allow(clippy::too_many_arguments)]
    fn get_typed_inner(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        c: &Committed,
        count: usize,
        buf: &mut [u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        self.check(target, target_off, c.extent() * count)?;
        let target_w = self.world_of(target);
        let mode = self.imode(rank);
        let total = c.size() * count;
        // Unpacking at the origin resolves the same committed layout.
        attrib::advance(
            &mut rank.clock,
            Bucket::Pack,
            rank.world.tuning.layout_resolve_cost(c),
        );
        let threshold = rank.world.tuning.get_remote_put_threshold;
        if self.direct_active(target) && total < threshold {
            let (region, offset) = match &self.shared.targets[target].0 {
                TargetMem::Shared { region, offset } => (Arc::clone(region), *offset),
                TargetMem::Private { .. } => unreachable!("direct_active implies shared"),
            };
            obs::inc(obs::Counter::OscGetDirect);
            // Direct path: one stalling read per basic block. `EndToEnd`
            // re-reads the whole gather on a faulted pass (a modeled CRC
            // handshake per attempt), bounded by the retransmit budget.
            let reader = rank.world.fabric.pio_reader(rank.node(), region.segment());
            let base = (offset + target_off) as i64;
            let mut retransmits = 0u32;
            let outcome = loop {
                let (err, faults) = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                    let mut err = None;
                    let mut faults = 0u64;
                    ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
                        let src = (base + disp) as usize;
                        let dst = (origin as i64 + disp) as usize;
                        match reader.read_counted(clock, src, &mut buf[dst..dst + len]) {
                            Ok(n) => {
                                faults += n;
                                core::ops::ControlFlow::Continue(())
                            }
                            Err(e) => {
                                err = Some(e);
                                core::ops::ControlFlow::Break(())
                            }
                        }
                    });
                    (err, faults)
                });
                if let Some(e) = err {
                    break Some(e);
                }
                if mode != IntegrityMode::EndToEnd {
                    Self::note_uncovered(rank, faults as usize, "osc.get_typed");
                    break None;
                }
                attrib::advance(&mut rank.clock, Bucket::Pack, rank.world.crc_cost(total));
                if faults == 0 {
                    break None;
                }
                Self::note_detected(rank, "osc.get_typed", target_w);
                if retransmits >= rank.world.tuning.max_retransmits {
                    return Err(ScimpiError::DataCorruption {
                        peer: target_w,
                        what: "one-sided get",
                        retransmits,
                    });
                }
                retransmits += 1;
                Self::note_retransmit(rank, "osc.get_typed", retransmits);
            };
            match outcome {
                None => {
                    self.note_direct_success(target);
                    return Ok(());
                }
                Some(e) => self.note_direct_failure(rank, target, e)?,
            }
        }
        obs::inc(obs::Counter::OscGetRemotePut);
        // Remote-put conversion (or emulation for private windows and
        // shared targets under fallback): the target's handler packs the
        // blocks with direct_pack_ff and streams them back at write
        // bandwidth. The packed stream is the wire image: it is gathered
        // first, checked as one return, then scattered into the origin
        // layout.
        Self::ensure_alive(rank, target_w)?;
        let base = target_off as i64;
        let mut packed = vec![0u8; total];
        let mut err = None;
        let mut pos = 0usize;
        let stats = ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
            let src = (base + disp) as usize;
            match self.backing_read(target, src, &mut packed[pos..pos + len]) {
                Ok(()) => {
                    pos += len;
                    core::ops::ControlFlow::Continue(())
                }
                Err(e) => {
                    err = Some(e);
                    core::ops::ControlFlow::Break(())
                }
            }
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        let params = rank.world.fabric.params();
        let t = &rank.world.tuning;
        let hops = rank
            .world
            .fabric
            .topology()
            .distance(rank.node(), rank.world.smi.node_of(ProcId(target_w)));
        // Target-side ff pack + streamed write back + origin unpack.
        let cost = t.ctrl_send_cost
            + params.remote_interrupt
            + HANDLER_COST
            + t.ff_block_cost.saturating_mul(stats.blocks as u64)
            + params.txn_overhead
            + params
                .pio_stream_bw(total)
                .min(params.node_injection_cap)
                .cost(total as u64)
            + params.wire_latency(hops).saturating_mul(2)
            + params.cache.copy_cost(total, total);
        attrib::advance(&mut rank.clock, Bucket::Transfer, cost);
        let clean = packed.clone();
        Self::verify_return(rank, target_w, mode, &mut packed, &clean, "one-sided get")?;
        let mut pos = 0usize;
        ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
            let dst = (origin as i64 + disp) as usize;
            buf[dst..dst + len].copy_from_slice(&packed[pos..pos + len]);
            pos += len;
            core::ops::ControlFlow::Continue(())
        });
        Ok(())
    }

    /// `MPI_Accumulate`: combine `data` into the target window.
    pub fn accumulate(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        op: AccumulateOp,
        data: &[u8],
    ) -> Result<(), ScimpiError> {
        let res = self.accumulate_inner(rank, target, target_off, op, data);
        Self::surface(rank, res)
    }

    fn accumulate_inner(
        &mut self,
        rank: &mut Rank,
        target: usize,
        target_off: usize,
        op: AccumulateOp,
        data: &[u8],
    ) -> Result<(), ScimpiError> {
        self.check(target, target_off, data.len())?;
        let target_w = self.world_of(target);
        let mode = self.imode(rank);
        // Read-modify-write. On the direct path this is a stalling remote
        // read plus a remote write; on the emulation path the handler does
        // the combine locally at the target.
        let mut current = vec![0u8; data.len()];
        let start = rank.clock.now();
        if self.direct_active(target) {
            let (region, offset) = match &self.shared.targets[target].0 {
                TargetMem::Shared { region, offset } => (Arc::clone(region), *offset),
                TargetMem::Private { .. } => unreachable!("direct_active implies shared"),
            };
            obs::inc(obs::Counter::OscAccShared);
            let reader = rank.world.fabric.pio_reader(rank.node(), region.segment());
            match Self::read_direct(
                rank,
                &reader,
                offset + target_off,
                &mut current,
                target_w,
                mode,
                "one-sided accumulate",
            ) {
                Ok(()) => {
                    apply_op(op, &mut current, data);
                    let (stream, base) =
                        Self::stream(&mut self.streams, &self.shared, rank, target, data.len());
                    let res = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                        stream.write(clock, base + target_off, &current)
                    });
                    match res {
                        Ok(()) => {
                            self.note_direct_success(target);
                            if mode == IntegrityMode::EndToEnd {
                                // Record the *combined* image: a verify-pass
                                // rewrite then replaces rather than re-adds.
                                self.record_put(rank, target, target_off, &current);
                            }
                            osc_span(rank, "osc.accumulate", start, data.len(), target, "shared");
                            return Ok(());
                        }
                        Err(e) => self.note_direct_failure(rank, target, e)?,
                    }
                }
                Err(ScimpiError::Fabric(e)) => self.note_direct_failure(rank, target, e)?,
                Err(other) => return Err(other),
            }
        }
        obs::inc(obs::Counter::OscAccEmulated);
        Self::ensure_alive(rank, target_w)?;
        let incoming = if mode == IntegrityMode::EndToEnd {
            Self::deliver_packet(rank, target_w, data, "one-sided accumulate")?
        } else {
            let mut wire = data.to_vec();
            let pair = (rank.node().0, rank.world.node_of(target_w).0);
            let n = Self::corrupt_wire(rank, pair, &mut wire);
            Self::note_uncovered(rank, n, "osc.accumulate");
            wire
        };
        self.backing_read(target, target_off, &mut current)?;
        apply_op(op, &mut current, &incoming);
        self.backing_write(target, target_off, &current)?;
        self.emulate(rank, target, data.len());
        osc_span(
            rank,
            "osc.accumulate",
            start,
            data.len(),
            target,
            "emulated",
        );
        Ok(())
    }

    /// Read from this rank's own window memory (local load).
    pub fn read_local(&self, rank: &mut Rank, offset: usize, dst: &mut [u8]) {
        let me = self.local_index(rank);
        self.check(me, offset, dst.len())
            .expect("local read in range");
        match &self.shared.targets[me].0 {
            TargetMem::Shared {
                region,
                offset: base,
            } => {
                region
                    .segment()
                    .mem()
                    .read(base + offset, dst)
                    .expect("in range");
            }
            TargetMem::Private { mem } => {
                mem.read(offset, dst).expect("in range");
            }
        }
        let cost = rank
            .world
            .fabric
            .params()
            .cache
            .copy_cost(dst.len(), dst.len());
        attrib::advance(&mut rank.clock, Bucket::Pack, cost);
    }

    /// Write into this rank's own window memory (local store).
    pub fn write_local(&self, rank: &mut Rank, offset: usize, data: &[u8]) {
        let me = self.local_index(rank);
        self.check(me, offset, data.len())
            .expect("local write in range");
        match &self.shared.targets[me].0 {
            TargetMem::Shared {
                region,
                offset: base,
            } => {
                region
                    .segment()
                    .mem()
                    .write(base + offset, data)
                    .expect("in range");
            }
            TargetMem::Private { mem } => {
                mem.write(offset, data).expect("in range");
            }
        }
        let cost = rank
            .world
            .fabric
            .params()
            .cache
            .copy_cost(data.len(), data.len());
        attrib::advance(&mut rank.clock, Bucket::Pack, cost);
    }

    /// Model one emulation round trip (control message + remote interrupt +
    /// handler + data transfer time). Requests to one target serialise on
    /// its handler — the paper's private-window latencies are dominated by
    /// "the required signalling of the remote process and the message
    /// exchange involved" for every single call.
    fn emulate(&mut self, rank: &mut Rank, target: usize, len: usize) {
        let target_w = self.world_of(target);
        let params = rank.world.fabric.params();
        let t = &rank.world.tuning;
        let hops = rank
            .world
            .fabric
            .topology()
            .distance(rank.node(), rank.world.smi.node_of(ProcId(target_w)));
        // Origin: builds the request, pays the transfer.
        let origin_cost = t.ctrl_send_cost
            + params.txn_overhead
            + params
                .pio_stream_bw(len)
                .min(params.node_injection_cap)
                .cost(len as u64)
            + params.cache.copy_cost(len, len);
        attrib::advance(&mut rank.clock, Bucket::Transfer, origin_cost);
        // Handler at the target: starts once the request has arrived AND
        // the handler is free (serialisation), then pays the interrupt
        // dispatch plus the copy-in.
        let arrival = rank.clock.now() + params.wire_latency(hops);
        let start = arrival.max(self.emu_busy[target]);
        let done =
            start + params.remote_interrupt + HANDLER_COST + params.cache.copy_cost(len, len);
        self.emu_busy[target] = done;
        self.emu_outstanding = self.emu_outstanding.max(done);
    }

    /// Flush: merge all outstanding completions into the clock and reset
    /// burst state (the store-barrier part of every synchronisation).
    fn flush_streams(&mut self, rank: &mut Rank) {
        for stream in self.streams.iter_mut().flatten() {
            attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                stream.barrier(clock)
            });
        }
        // Draining the emulation handlers is waiting on remote progress,
        // the same class of stall as completing an outstanding request.
        attrib::merge_waited(
            &mut rank.clock,
            self.emu_outstanding,
            WaitKind::RequestWait,
            None,
        );
        self.emu_outstanding = SimTime::ZERO;
    }

    /// Flush with integrity handling per [`crate::IntegrityMode`]: `Off`
    /// counts silent stream faults as uncovered; `SequenceCheck` polls the
    /// adapter's sequence guard per stream (detects, never repairs);
    /// `EndToEnd` verifies the epoch ledger against the remote windows and
    /// rewrites corrupted regions within the retransmit budget.
    fn try_flush(&mut self, rank: &mut Rank) -> Result<(), ScimpiError> {
        self.flush_streams(rank);
        match self.imode(rank) {
            IntegrityMode::Off => {
                for stream in self.streams.iter_mut().flatten() {
                    let n = stream.take_silent_faults();
                    Self::note_uncovered(rank, n as usize, "osc.flush");
                }
                Ok(())
            }
            IntegrityMode::SequenceCheck => {
                let mut tainted = None;
                for (target, stream) in self.streams.iter_mut().enumerate() {
                    let Some(stream) = stream else { continue };
                    let status = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                        stream.check_sequence(clock)
                    });
                    if status == SeqStatus::Tainted {
                        Self::note_detected(rank, "osc.flush", self.shared.members[target]);
                        tainted.get_or_insert(target);
                    }
                    attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                        stream.start_sequence(clock)
                    });
                }
                match tainted {
                    None => Ok(()),
                    Some(target) => Err(ScimpiError::DataCorruption {
                        peer: self.world_of(target),
                        what: "one-sided epoch",
                        retransmits: 0,
                    }),
                }
            }
            IntegrityMode::EndToEnd => self.verify_epoch(rank),
        }
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
        let records = std::mem::take(&mut self.put_records);
        for rec in &records {
            let mut retransmits = 0u32;
            loop {
                attrib::advance(
                    &mut rank.clock,
                    Bucket::Pack,
                    rank.world.crc_cost(rec.data.len()),
                );
                let mut image = vec![0u8; rec.data.len()];
                self.backing_read(rec.target, rec.offset, &mut image)?;
                if crc32(&image) == rec.crc {
                    break;
                }
                Self::note_detected(rank, "osc.epoch", self.world_of(rec.target));
                if retransmits >= rank.world.tuning.max_retransmits {
                    return Err(ScimpiError::DataCorruption {
                        peer: self.world_of(rec.target),
                        what: "one-sided epoch",
                        retransmits,
                    });
                }
                retransmits += 1;
                Self::note_retransmit(rank, "osc.epoch", retransmits);
                self.rewrite(rank, rec)?;
            }
        }
        Ok(())
    }

    /// Rewrite one corrupted put region — the epoch-level retransmission.
    /// The fresh write is itself subject to faults; the caller re-verifies.
    fn rewrite(&mut self, rank: &mut Rank, rec: &PutRecord) -> Result<(), ScimpiError> {
        if self.direct_active(rec.target) {
            let (stream, base) = Self::stream(
                &mut self.streams,
                &self.shared,
                rank,
                rec.target,
                rec.data.len(),
            );
            attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                stream.write(clock, base + rec.offset, &rec.data)
            })
            .map_err(ScimpiError::Fabric)?;
            attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                stream.barrier(clock)
            });
            stream.take_silent_faults();
        } else {
            Self::ensure_alive(rank, self.world_of(rec.target))?;
            let pair = (
                rank.node().0,
                rank.world.node_of(self.world_of(rec.target)).0,
            );
            let mut wire = rec.data.clone();
            Self::corrupt_wire(rank, pair, &mut wire);
            self.backing_write(rec.target, rec.offset, &wire)?;
            self.emulate(rank, rec.target, rec.data.len());
            attrib::merge_waited(
                &mut rank.clock,
                self.emu_outstanding,
                WaitKind::RequestWait,
                None,
            );
            self.emu_outstanding = SimTime::ZERO;
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
    /// `Tuning::probe_cost` and run only for targets under fallback, so
    /// healthy runs stay bit-identical.
    fn maybe_repromote(&mut self, rank: &mut Rank) {
        for target in 0..self.fallback.len() {
            if !self.fallback[target].active {
                continue;
            }
            let TargetMem::Shared { region, .. } = &self.shared.targets[target].0 else {
                continue;
            };
            let owner = region.segment().owner();
            let primary = rank.world.fabric.topology().route(rank.node(), owner);
            let monitor =
                ConnectionMonitor::new(rank.world.fabric.faults(), rank.world.tuning.probe_cost);
            let probe = attrib::charged(&mut rank.clock, Bucket::Transfer, |clock| {
                monitor.probe(clock, owner.0, &primary)
            });
            if probe.is_ok() {
                self.fallback[target] = FallbackState::default();
                obs::inc(obs::Counter::OscRepromotions);
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

    /// `MPI_Win_post`: open an exposure epoch for `origins` (active
    /// target, paired with [`Window::start`] at the origins).
    pub fn post(&mut self, rank: &mut Rank, origins: &[usize]) {
        let me_w = rank.world_rank();
        for &o in origins {
            let o_w = self.world_of(o);
            attrib::advance(
                &mut rank.clock,
                Bucket::Transfer,
                rank.world.tuning.ctrl_send_cost,
            );
            let arrival = rank.clock.now() + rank.world.ctrl_latency(me_w, o_w);
            rank.world.mailboxes[o_w].post_ctrl(
                pscw_handle(self.shared.id, me_w, o_w, 0),
                Ctrl::Signal {
                    arrival,
                    data: Vec::new(),
                },
            );
        }
    }

    /// `MPI_Win_start`: open an access epoch towards `targets` (waits
    /// for their posts). The wait is liveness- and revocation-guarded: a
    /// target dying before its post, or a communicator revocation,
    /// surfaces through the error-handler machinery instead of hanging.
    pub fn start(&mut self, rank: &mut Rank, targets: &[usize]) -> Result<(), ScimpiError> {
        let me_w = rank.world_rank();
        for &t in targets {
            let t_w = self.world_of(t);
            let c = rank
                .world
                .await_ctrl(
                    me_w,
                    &mut rank.clock,
                    pscw_handle(self.shared.id, t_w, me_w, 0),
                    t_w,
                    "post signal",
                )
                .map_err(|e| rank.world.escalate(e))?;
            let Ctrl::Signal { arrival, .. } = c else {
                panic!(
                    "{}",
                    ScimpiError::ProtocolViolation {
                        expected: "post signal",
                        got: format!("{c:?}"),
                    }
                );
            };
            // Blocked until the target's post signal lands: the peer is
            // "late" in exactly the late-sender sense.
            attrib::merge_waited(
                &mut rank.clock,
                arrival,
                WaitKind::LateSender,
                Some(t_w as u32),
            );
            attrib::advance(
                &mut rank.clock,
                Bucket::Transfer,
                rank.world.tuning.ctrl_recv_cost,
            );
        }
        Ok(())
    }

    /// `MPI_Win_complete`: close the access epoch (flushes and notifies
    /// the targets). The targets are notified even when this rank's
    /// flush detects corruption, so their [`Window::wait`] is not
    /// deadlocked; the error goes through the error-handler machinery
    /// after the notifications.
    pub fn complete(&mut self, rank: &mut Rank, targets: &[usize]) -> Result<(), ScimpiError> {
        let res = self.try_flush(rank);
        let me_w = rank.world_rank();
        for &t in targets {
            let t_w = self.world_of(t);
            attrib::advance(
                &mut rank.clock,
                Bucket::Transfer,
                rank.world.tuning.ctrl_send_cost,
            );
            let arrival = rank.clock.now() + rank.world.ctrl_latency(me_w, t_w);
            rank.world.mailboxes[t_w].post_ctrl(
                pscw_handle(self.shared.id, me_w, t_w, 1),
                Ctrl::Signal {
                    arrival,
                    data: Vec::new(),
                },
            );
        }
        res.map_err(|e| rank.world.escalate(e))
    }

    /// `MPI_Win_wait`: close the exposure epoch (waits for all origins'
    /// completes). Liveness- and revocation-guarded like
    /// [`Window::start`].
    pub fn wait(&mut self, rank: &mut Rank, origins: &[usize]) -> Result<(), ScimpiError> {
        let me_w = rank.world_rank();
        for &o in origins {
            let o_w = self.world_of(o);
            let c = rank
                .world
                .await_ctrl(
                    me_w,
                    &mut rank.clock,
                    pscw_handle(self.shared.id, o_w, me_w, 1),
                    o_w,
                    "complete signal",
                )
                .map_err(|e| rank.world.escalate(e))?;
            let Ctrl::Signal { arrival, .. } = c else {
                panic!(
                    "{}",
                    ScimpiError::ProtocolViolation {
                        expected: "complete signal",
                        got: format!("{c:?}"),
                    }
                );
            };
            // Exposure epoch held open by a slow origin's complete.
            attrib::merge_waited(
                &mut rank.clock,
                arrival,
                WaitKind::LateSender,
                Some(o_w as u32),
            );
            attrib::advance(
                &mut rank.clock,
                Bucket::Transfer,
                rank.world.tuning.ctrl_recv_cost,
            );
        }
        Ok(())
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

/// Element-wise combine for `MPI_Accumulate`.
fn apply_op(op: AccumulateOp, current: &mut [u8], incoming: &[u8]) {
    match op {
        AccumulateOp::Replace => current.copy_from_slice(incoming),
        AccumulateOp::SumF64 | AccumulateOp::MaxF64 => {
            assert!(
                current.len().is_multiple_of(8),
                "f64 accumulate needs 8-byte data"
            );
            for i in (0..current.len()).step_by(8) {
                let a = f64::from_le_bytes(current[i..i + 8].try_into().expect("8 bytes"));
                let b = f64::from_le_bytes(incoming[i..i + 8].try_into().expect("8 bytes"));
                let r = match op {
                    AccumulateOp::SumF64 => a + b,
                    AccumulateOp::MaxF64 => a.max(b),
                    _ => unreachable!(),
                };
                current[i..i + 8].copy_from_slice(&r.to_le_bytes());
            }
        }
        AccumulateOp::SumI64 => {
            assert!(
                current.len().is_multiple_of(8),
                "i64 accumulate needs 8-byte data"
            );
            for i in (0..current.len()).step_by(8) {
                let a = i64::from_le_bytes(current[i..i + 8].try_into().expect("8 bytes"));
                let b = i64::from_le_bytes(incoming[i..i + 8].try_into().expect("8 bytes"));
                current[i..i + 8].copy_from_slice(&a.wrapping_add(b).to_le_bytes());
            }
        }
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
