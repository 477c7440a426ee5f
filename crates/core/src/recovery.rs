//! Job-level survival: rank-death recovery with membership epochs,
//! fault-tolerant agreement, and buddy checkpointing.
//!
//! SCI-MPICH's fault taxonomy (docs/FAULT_TOLERANCE.md) ends at the
//! error handler: a dead peer surfaces as [`ScimpiError::PeerDead`] and
//! the application decides. This module is the *recovery* layer above
//! that — the ULFM-shaped triple that lets a job survive rank death
//! instead of merely reporting it:
//!
//! * [`revoke`] invalidates the current membership epoch. The
//!   revocation spreads along a deterministic binomial gossip front
//!   (virtual time; see `WorldState::revoke_arrival`), so every peer
//!   blocked in a match, handshake, barrier or fence errors out with
//!   [`ScimpiError::Revoked`] at its front-arrival time instead of
//!   running a timeout schedule per dead peer.
//! * [`shrink`] runs a **fault-tolerant agreement** over the survivors
//!   — `AGREEMENT_SWEEPS` hypercube sweeps of dead-set bitmap
//!   exchanges, tolerating further deaths mid-agreement — and installs
//!   the next membership epoch: a dense re-ranking of the survivors
//!   with fresh collective state. Recovery-internal protocol runs
//!   *exempt* from revocation checks so it can communicate while the
//!   revocation is still in force.
//! * [`Checkpointer`] keeps application state restorable across a
//!   shrink: each rank's recovery region lives in a one-sided window
//!   under `EndToEnd` integrity and is replicated to a buddy rank with
//!   [`Window::iput`] at every [`Checkpointer::checkpoint`]. After a
//!   shrink, [`Checkpointer::restore`] replays the rank's own latest
//!   image and [`Checkpointer::adopt`] recovers a dead predecessor's.
//!
//! Everything here follows the determinism contract: real time is only
//! ever polled; virtual time is charged exclusively from deterministic
//! schedules (control-packet costs, the declared-dead schedule, gossip
//! hops), so same-seed runs recover bit-identically.

use crate::error::ScimpiError;
use crate::mailbox::Ctrl;
use crate::osc::{AllocMem, WinMemory, Window};
use crate::runtime::Rank;
use crate::tuning::{IntegrityMode, AGREEMENT_SWEEPS, BARRIER_HOP, CTRL_RECV_COST, CTRL_SEND_COST};
use obs::attrib::{self, Bucket, WaitKind};
use sci_fabric::crc32;
use simclock::SimTime;
use smi::TimeBarrier;
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Set while this rank thread runs recovery-internal protocol
    /// (agreement, shrink): revocation checks answer "no revocation"
    /// so the machinery that *handles* a revocation is not killed by it.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Is the calling thread running revocation-exempt recovery protocol?
pub(crate) fn is_exempt() -> bool {
    EXEMPT.with(|e| e.get())
}

/// Run `f` exempt from revocation checks, restoring the previous state
/// on every exit path (including panics under `ErrorsAreFatal`).
fn with_exempt<R>(f: impl FnOnce() -> R) -> R {
    struct Guard(bool);
    impl Drop for Guard {
        fn drop(&mut self) {
            EXEMPT.with(|e| e.set(self.0));
        }
    }
    let _guard = Guard(EXEMPT.with(|e| e.replace(true)));
    f()
}

/// Revoke the communicator: invalidate the current membership epoch so
/// every rank blocked in a communication call errors out with
/// [`ScimpiError::Revoked`] when the deterministic gossip front reaches
/// it, instead of waiting through a timeout schedule (or forever, for
/// waits on live-but-stuck peers). Typically called by the first rank
/// that observes [`ScimpiError::PeerDead`]; concurrent revokers merge
/// onto one deterministic front. Recover with [`shrink`].
pub fn revoke(rank: &mut Rank) {
    let me = rank.world_rank();
    let at = rank.clock.now();
    if rank.world.revoke_from(at, me) {
        obs::inc(obs::Counter::Revocations);
        if obs::is_enabled() {
            obs::instant(
                "ft.recovery.revoke",
                at,
                vec![("by", obs::Arg::U64(me as u64))],
            );
        }
    }
}

/// The outcome of a successful [`shrink`], from one survivor's view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShrinkReport {
    /// The newly installed membership epoch.
    pub epoch: u64,
    /// World ranks removed by this shrink (agreed dead set), ascending.
    pub dead: Vec<usize>,
    /// This rank's new dense logical rank.
    pub rank: usize,
    /// The new communicator size.
    pub size: usize,
}

/// Collision-free handle for one agreement signal: top bit keeps the
/// space disjoint from `WorldState::handle` allocations (which count up
/// from 1) and from PSCW handles (window ids are small).
fn agree_handle(epoch: u64, sweep: u32, round: u32, src_world: usize) -> u64 {
    (1 << 63)
        | (epoch << 32)
        | (u64::from(sweep) << 24)
        | (u64::from(round) << 16)
        | src_world as u64
}

/// Wait for the partner's agreement signal through
/// `WorldState::await_ctrl`, *without* escalation; agreement runs
/// exempt, so no revocation ends the wait. A dead partner charges the
/// deterministic declared-dead schedule and returns `None` so the sweep
/// continues with the partner recorded dead.
fn await_agree_signal(rank: &mut Rank, handle: u64, partner_w: usize) -> Option<(SimTime, u64)> {
    let world = Arc::clone(&rank.world);
    let me_w = rank.world_rank();
    let decode = |c: Ctrl| -> (SimTime, u64) {
        let Ctrl::Signal { arrival, data } = c else {
            panic!(
                "{}",
                ScimpiError::ProtocolViolation {
                    expected: "agreement bitmap signal",
                    got: format!("{c:?}"),
                }
            );
        };
        let bytes: [u8; 8] = data[..8].try_into().expect("bitmap is 8 bytes");
        (arrival, u64::from_le_bytes(bytes))
    };
    let signal = world.await_ctrl(me_w, &mut rank.clock, handle, partner_w, "agreement signal");
    signal.ok().map(decode)
}

/// Fault-tolerant agreement on the dead set (exempt callers only):
/// `AGREEMENT_SWEEPS` hypercube sweeps over the current
/// membership's logical index space, each round exchanging dead-set
/// bitmaps with the partner at `my_index ^ (1 << round)`. Both sides
/// post their signal *before* awaiting the partner's, so live pairs
/// never deadlock; a dead partner is charged through the deterministic
/// declared-dead schedule and added to the bitmap, which only ever
/// holds genuinely dead world ranks — so a skipped round (partner in
/// the bitmap) can never starve a live rank. One clean sweep
/// disseminates every rank's knowledge to all; each extra sweep absorbs
/// one round of deaths happening *during* agreement.
///
/// `die_after_sweeps` is the chaos hook used by [`shrink_with_fault`]:
/// the victim participates in that many sweeps, then kills its own node
/// and reports itself dead.
fn agree(rank: &mut Rank, die_after_sweeps: Option<u32>) -> Result<Vec<usize>, ScimpiError> {
    assert!(
        rank.world.mailboxes.len() <= 64,
        "agreement bitmaps hold at most 64 world ranks"
    );
    let start = rank.clock.now();
    let me_w = rank.world_rank();
    let members = Arc::clone(&rank.members);
    let n = members.len();
    let epoch = rank.epoch();
    let rounds = if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    };
    let mut bitmap: u64 = 0;
    for sweep in 0..AGREEMENT_SWEEPS {
        if die_after_sweeps == Some(sweep) {
            let node = rank.node().0;
            rank.world.fabric.faults().kill_node(node);
            return Err(ScimpiError::PeerDead { peer: me_w });
        }
        for round in 0..rounds {
            let partner_index = rank.rank() ^ (1usize << round);
            if partner_index >= n {
                continue;
            }
            let partner_w = members[partner_index];
            if bitmap & (1u64 << partner_w) != 0 {
                continue;
            }
            obs::inc(obs::Counter::AgreementRounds);
            // Post first, then await: no ordering deadlock between the
            // two sides of a pair.
            attrib::advance(&mut rank.clock, Bucket::Transfer, CTRL_SEND_COST);
            let arrival = rank.clock.now() + rank.world.ctrl_latency(me_w, partner_w);
            rank.world.mailboxes[partner_w].post_ctrl(
                agree_handle(epoch, sweep, round, me_w),
                Ctrl::Signal {
                    arrival,
                    data: bitmap.to_le_bytes().to_vec(),
                },
            );
            match await_agree_signal(
                rank,
                agree_handle(epoch, sweep, round, partner_w),
                partner_w,
            ) {
                Some((arrival, theirs)) => {
                    attrib::merge_waited(
                        &mut rank.clock,
                        arrival,
                        WaitKind::Recovery,
                        Some(partner_w as u32),
                    );
                    attrib::advance(&mut rank.clock, Bucket::Transfer, CTRL_RECV_COST);
                    bitmap |= theirs;
                }
                None => bitmap |= 1u64 << partner_w,
            }
        }
    }
    let dead: Vec<usize> = members
        .iter()
        .copied()
        .filter(|w| bitmap & (1u64 << w) != 0)
        .collect();
    obs::span(
        "ft.recovery.agree",
        start,
        rank.clock.now(),
        vec![
            ("epoch", obs::Arg::U64(epoch)),
            ("dead", obs::Arg::U64(dead.len() as u64)),
        ],
    );
    Ok(dead)
}

/// Shrink the communicator to the agreed survivors (collective over all
/// survivors; ULFM `MPIX_Comm_shrink`): agree on the dead set, install
/// the next membership epoch with the survivors re-ranked densely
/// (world-rank order), reset collective state, clear any active
/// revocation, and synchronise on the new epoch's barrier. Runs exempt
/// from revocation checks — this *is* the recovery path a revocation
/// points to.
pub fn shrink(rank: &mut Rank) -> Result<ShrinkReport, ScimpiError> {
    with_exempt(|| shrink_inner(rank, None))
}

/// [`shrink`] with a chaos hook: this rank participates in the first
/// `die_after_sweeps` agreement sweeps, then kills its own node and
/// returns `Err(PeerDead)` naming itself — exercising agreement under a
/// death *during* agreement. The surviving ranks' plain [`shrink`]
/// tolerates it as long as at least one clean sweep remains.
pub fn shrink_with_fault(
    rank: &mut Rank,
    die_after_sweeps: u32,
) -> Result<ShrinkReport, ScimpiError> {
    with_exempt(|| shrink_inner(rank, Some(die_after_sweeps)))
}

fn shrink_inner(
    rank: &mut Rank,
    die_after_sweeps: Option<u32>,
) -> Result<ShrinkReport, ScimpiError> {
    let start = rank.clock.now();
    let dead = agree(rank, die_after_sweeps)?;
    let members: Vec<usize> = rank
        .members
        .iter()
        .copied()
        .filter(|w| !dead.contains(w))
        .collect();
    let new_epoch = rank.epoch() + 1;
    let me_w = rank.world_rank();
    let my_index = members
        .binary_search(&me_w)
        .expect("a shrinking survivor is a member of the new epoch");
    let world = Arc::clone(&rank.world);
    if me_w == members[0] {
        // Survivor leader: reclaim the eager flow-control credits owed
        // by (or to) the dead ranks — a sender backpressure-stalled on
        // grants a dead receiver will never return must find its budget
        // restored, or flow control would deadlock recovery. Then lift
        // the revocation and publish the epoch by registering its
        // barrier. By the time the leader finishes agreement
        // every survivor has entered shrink (its final-sweep partners
        // must have posted), so no rank still needs the revocation to
        // escape a blocked wait — but a receive posted before the
        // revocation and not yet waited on would miss it: fail those
        // first.
        world.reclaim_credits(&dead);
        let barrier = Arc::new(TimeBarrier::new(members.len(), BARRIER_HOP));
        world.revoke_posted();
        world.clear_revoke();
        world
            .epoch_barriers
            .lock()
            .unwrap()
            .insert(new_epoch, barrier);
        world.epoch_waiters.wake_all();
    }
    // Everyone (leader included): pick up the new epoch's barrier, which
    // publishes the epoch. Real time only — no virtual cost for
    // registration latency.
    let mut barriers = world.epoch_barriers.lock().unwrap();
    let barrier = loop {
        if let Some(b) = barriers.get(&new_epoch) {
            break Arc::clone(b);
        }
        // A stalled wake simply re-runs the check.
        barriers = world
            .epoch_waiters
            .wait(&world.epoch_barriers, barriers, None)
            .0;
    };
    drop(barriers);
    rank.members = Arc::new(members);
    rank.my_index = my_index;
    rank.epoch = new_epoch;
    rank.epoch_barrier = Some(Arc::clone(&barrier));
    rank.coll_seq = 0;
    barrier.wait(&mut rank.clock);
    obs::span(
        "ft.recovery.shrink",
        start,
        rank.clock.now(),
        vec![
            ("epoch", obs::Arg::U64(new_epoch)),
            ("dead", obs::Arg::U64(dead.len() as u64)),
            ("size", obs::Arg::U64(rank.size() as u64)),
        ],
    );
    Ok(ShrinkReport {
        epoch: new_epoch,
        dead,
        rank: my_index,
        size: rank.size(),
    })
}

/// Checkpoint image header: sequence number, payload length, CRC32 (all
/// little-endian u64).
const HEADER: usize = 24;

/// In-memory buddy checkpointing over a one-sided window.
///
/// Each member contributes `2 * (len + 24)` bytes of `MPI_Alloc_mem`
/// shared memory to a window under forced `EndToEnd` integrity: the
/// first slot holds the rank's own latest checkpoint image, the second
/// the replica of its *predecessor*'s (logical rank − 1, wrapping).
/// [`Checkpointer::checkpoint`] writes the own slot locally and
/// replicates it to the *buddy* (logical rank + 1, wrapping) with
/// [`Window::iput`]; the closing fence is the collective completion
/// point, so replication overlaps the local write and rides the
/// window's end-to-end verification.
///
/// What is restored: exactly the bytes last passed to `checkpoint`,
/// which [`Checkpointer::restore`] replays after CRC verification.
/// What is *not*: in-flight messages, window contents, or request
/// state — a post-shrink application re-derives those from the
/// restored image.
pub struct Checkpointer {
    win: Window,
    mem: AllocMem,
    /// Fixed payload length per image.
    len: usize,
    /// Logical rank holding this rank's replica (current epoch).
    buddy_logical: usize,
    /// World rank whose replica this rank holds (`None` when alone).
    pred_world: Option<usize>,
    /// Sequence number of the latest own checkpoint (0 = none yet).
    seq: u64,
}

impl Checkpointer {
    /// Create the checkpoint window (collective over the current
    /// membership). `len` fixes the image size for the window's
    /// lifetime.
    pub fn new(rank: &mut Rank, len: usize) -> Result<Checkpointer, ScimpiError> {
        let slot = len + HEADER;
        let mem = rank.alloc_mem(2 * slot)?;
        let win = rank.win_create_with_integrity(
            WinMemory::Alloc(mem.clone()),
            Some(IntegrityMode::EndToEnd),
        )?;
        let size = rank.size();
        let my = rank.rank();
        let pred_world = if size > 1 {
            Some(rank.to_world((my + size - 1) % size))
        } else {
            None
        };
        Ok(Checkpointer {
            win,
            mem,
            len,
            buddy_logical: (my + 1) % size,
            pred_world,
            seq: 0,
        })
    }

    /// Sequence number of the latest own checkpoint (0 = none yet).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn frame(seq: u64, data: &[u8]) -> Vec<u8> {
        let mut image = Vec::with_capacity(data.len() + HEADER);
        image.extend_from_slice(&seq.to_le_bytes());
        image.extend_from_slice(&(data.len() as u64).to_le_bytes());
        image.extend_from_slice(&u64::from(crc32(data)).to_le_bytes());
        image.extend_from_slice(data);
        image
    }

    fn unframe(&self, rank: &mut Rank, slot_off: usize) -> Result<(u64, Vec<u8>), ScimpiError> {
        let mut hdr = [0u8; HEADER];
        self.win.read_local(rank, slot_off, &mut hdr);
        let seq = u64::from_le_bytes(hdr[0..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(hdr[8..16].try_into().expect("8 bytes")) as usize;
        let crc = u64::from_le_bytes(hdr[16..24].try_into().expect("8 bytes"));
        if seq == 0 {
            return Err(ScimpiError::WindowError(
                "no checkpoint image in this slot".into(),
            ));
        }
        if len != self.len {
            return Err(ScimpiError::WindowError(format!(
                "checkpoint image length {len} does not match the configured {}",
                self.len
            )));
        }
        let mut data = vec![0u8; len];
        self.win.read_local(rank, slot_off + HEADER, &mut data);
        if u64::from(crc32(&data)) != crc {
            return Err(ScimpiError::WindowError(
                "checkpoint image failed CRC verification".into(),
            ));
        }
        Ok((seq, data))
    }

    /// Take a checkpoint (collective): store `data` in the own slot and
    /// replicate it to the buddy through the one-sided window; the
    /// closing fence completes replication under `EndToEnd` integrity.
    pub fn checkpoint(&mut self, rank: &mut Rank, data: &[u8]) -> Result<(), ScimpiError> {
        assert_eq!(
            data.len(),
            self.len,
            "checkpoint image length is fixed at construction"
        );
        let start = rank.clock.now();
        self.seq += 1;
        let image = Self::frame(self.seq, data);
        self.win.write_local(rank, 0, &image);
        if rank.size() > 1 {
            let slot = self.len + HEADER;
            let mut req = self.win.iput(rank, self.buddy_logical, slot, &image)?;
            rank.wait(&mut req)?;
        }
        self.win.fence(rank)?;
        obs::inc(obs::Counter::CheckpointsTaken);
        obs::add(obs::Counter::CheckpointBytes, data.len() as u64);
        obs::span(
            "ft.recovery.checkpoint",
            start,
            rank.clock.now(),
            vec![
                ("bytes", obs::Arg::U64(data.len() as u64)),
                ("seq", obs::Arg::U64(self.seq)),
            ],
        );
        Ok(())
    }

    /// Restore this rank's own latest checkpoint image (local; typically
    /// after a [`shrink`]). [`ScimpiError::WindowError`] when no
    /// checkpoint was ever taken or the image fails verification.
    pub fn restore(&self, rank: &mut Rank) -> Result<Vec<u8>, ScimpiError> {
        let start = rank.clock.now();
        let (seq, data) = self.unframe(rank, 0)?;
        obs::inc(obs::Counter::RecoveryRestores);
        obs::span(
            "ft.recovery.restore",
            start,
            rank.clock.now(),
            vec![
                ("bytes", obs::Arg::U64(data.len() as u64)),
                ("seq", obs::Arg::U64(seq)),
            ],
        );
        Ok(data)
    }

    /// After a shrink: if this rank holds the replica of a now-dead
    /// predecessor, return `(predecessor world rank, image)` so a
    /// survivor can take over its work. `None` when the predecessor is
    /// alive (its own slot is authoritative) or never checkpointed.
    pub fn adopt(&self, rank: &mut Rank) -> Option<(usize, Vec<u8>)> {
        let pred = self.pred_world?;
        if !rank.world.peer_dead(pred) {
            return None;
        }
        let slot = self.len + HEADER;
        match self.unframe(rank, slot) {
            Ok((_, data)) => {
                obs::inc(obs::Counter::RecoveryRestores);
                Some((pred, data))
            }
            Err(_) => None,
        }
    }

    /// Rebuild the checkpointer over the current (post-shrink)
    /// membership (collective over the survivors): a fresh window with
    /// the new buddy pairing, carrying this rank's own latest image
    /// across and re-replicating it so the new buddy is warm.
    pub fn rebind(self, rank: &mut Rank) -> Result<Checkpointer, ScimpiError> {
        let slot = self.len + HEADER;
        let mut own = vec![0u8; slot];
        self.win.read_local(rank, 0, &mut own);
        let mut fresh = Checkpointer::new(rank, self.len)?;
        fresh.seq = u64::from_le_bytes(own[0..8].try_into().expect("8 bytes"));
        fresh.win.write_local(rank, 0, &own);
        if fresh.seq > 0 && rank.size() > 1 {
            let mut req = fresh.win.iput(rank, fresh.buddy_logical, slot, &own)?;
            rank.wait(&mut req)?;
        }
        // Collective completion: every survivor fences, warm or not.
        fresh.win.fence(rank)?;
        rank.free_mem(self.mem);
        Ok(fresh)
    }

    /// Release the checkpoint window's pool memory.
    pub fn free(self, rank: &mut Rank) {
        rank.free_mem(self.mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, ClusterSpec};
    use crate::ErrorMode;

    #[test]
    fn exemption_is_scoped_and_panic_safe() {
        assert!(!is_exempt());
        with_exempt(|| {
            assert!(is_exempt());
            with_exempt(|| assert!(is_exempt()));
            assert!(is_exempt());
        });
        assert!(!is_exempt());
        let caught = std::panic::catch_unwind(|| with_exempt(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!is_exempt());
    }

    #[test]
    fn shrink_without_deaths_keeps_membership_and_advances_epoch() {
        let out = run(
            ClusterSpec::ringlet(4).errors(ErrorMode::ErrorsReturn),
            |r| {
                let report = shrink(r).unwrap();
                assert_eq!(report.dead, Vec::<usize>::new());
                assert_eq!(report.size, 4);
                assert_eq!(report.rank, r.world_rank());
                assert_eq!(r.epoch(), 1);
                // The new epoch's collectives work.
                let mut sum = [r.rank() as f64];
                r.allreduce(&mut sum, crate::ReduceOp::Sum).unwrap();
                assert_eq!(sum, [6.0]);
                report.epoch
            },
        );
        assert!(out.iter().all(|&e| e == 1));
    }

    #[test]
    fn checkpoint_restore_roundtrip_without_faults() {
        run(
            ClusterSpec::ringlet(3).errors(ErrorMode::ErrorsReturn),
            |r| {
                let mut ckpt = Checkpointer::new(r, 64).unwrap();
                let image: Vec<u8> = (0..64).map(|i| (i as u8) ^ (r.rank() as u8)).collect();
                assert!(matches!(ckpt.restore(r), Err(ScimpiError::WindowError(_))));
                ckpt.checkpoint(r, &image).unwrap();
                assert_eq!(ckpt.restore(r).unwrap(), image);
                // A second epoch supersedes the first.
                let image2: Vec<u8> = image.iter().map(|b| b.wrapping_add(1)).collect();
                ckpt.checkpoint(r, &image2).unwrap();
                assert_eq!(ckpt.restore(r).unwrap(), image2);
                assert_eq!(ckpt.seq(), 2);
                // Live predecessors are not adopted.
                assert!(ckpt.adopt(r).is_none());
                ckpt.free(r);
            },
        );
    }

    #[test]
    fn single_rank_checkpointer_works() {
        run(
            ClusterSpec::ringlet(1).errors(ErrorMode::ErrorsReturn),
            |r| {
                let mut ckpt = Checkpointer::new(r, 16).unwrap();
                ckpt.checkpoint(r, &[7u8; 16]).unwrap();
                assert_eq!(ckpt.restore(r).unwrap(), vec![7u8; 16]);
                assert!(ckpt.adopt(r).is_none());
                ckpt.free(r);
            },
        );
    }
}
