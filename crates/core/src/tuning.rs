//! Protocol tuning parameters of the SCI-MPICH reproduction.
//!
//! [`Tuning`] holds the device-configuration knobs of SCI-MPICH's
//! `ch_smi` device that a run may turn: protocol switch points, the
//! engine selection, integrity, flow control and the collective
//! crossovers. The cost model's fixed values — CPU costs of the two
//! packing engines and of control packets, the timeout schedule, the
//! ring geometry — are the constants below. Both are calibrated so the
//! benchmark harnesses reproduce the *shapes* of the paper's figures
//! (see EXPERIMENTS.md).

use crate::error::ScimpiError;
use mpi_datatype::Committed;
use simclock::SimDuration;

/// Messages up to this size travel in the control packet itself
/// ("short" protocol).
pub const SHORT_THRESHOLD: usize = 128;
/// Rendezvous ring-buffer slots per sender/receiver pair (in-flight
/// chunks).
pub const RING_SLOTS: usize = 2;
/// CPU overhead per contiguous segment in the generic engine (recursive
/// tree traversal per segment).
pub(crate) const GENERIC_VISIT_COST: SimDuration = SimDuration::from_ns(300);
/// CPU overhead per basic block in `direct_pack_ff` (simple stack
/// operations).
pub(crate) const FF_BLOCK_COST: SimDuration = SimDuration::from_ns(30);
/// Cost to assemble and send one control packet (RTS/CTS/interrupt
/// payloads).
pub(crate) const CTRL_SEND_COST: SimDuration = SimDuration::from_ns(900);
/// Cost to parse one received control packet.
pub(crate) const CTRL_RECV_COST: SimDuration = SimDuration::from_ns(500);
/// Per-tree-level cost of the barrier used by collectives and fences.
pub(crate) const BARRIER_HOP: SimDuration = SimDuration::from_ns(1600);
/// First virtual-time timeout window for protocol waits (rendezvous
/// handshake, ring slots, one-sided control); each later window doubles.
/// Only charged when the peer turns out dead — a healthy-but-slow peer
/// costs nothing extra.
pub(crate) const CTRL_TIMEOUT: SimDuration = SimDuration::from_us(200);
/// Timeout windows run through after the first before a peer is
/// declared dead.
pub(crate) const MAX_PROTOCOL_RETRIES: u32 = 4;
/// Cost of one connection-monitor probe after a timeout window expires
/// (small remote read round trip).
pub(crate) const PROBE_COST: SimDuration = SimDuration::from_us(4);
/// CPU cost per byte of computing/verifying a CRC32 (software
/// checksumming on the P-III: roughly 300 MiB/s).
pub(crate) const CRC_COST_PER_BYTE: SimDuration = SimDuration::from_ps(3200);
/// Cost of one layout-cache lookup (hash of the type signature plus a
/// table probe) with the pack engine on.
pub(crate) const LAYOUT_LOOKUP_COST: SimDuration = SimDuration::from_ns(40);
/// Cost per flattening operation (tree-node visit or unrolled leaf copy)
/// to re-derive the layout with the pack engine off. Multiplied by
/// `Committed::flatten_ops`.
pub(crate) const LAYOUT_FLATTEN_OP_COST: SimDuration = SimDuration::from_ns(25);
/// Smallest typed one-sided transfer the adaptive selector will route
/// to DMA (descriptor posting is expensive; below this PIO always wins).
pub(crate) const DMA_MIN_TOTAL: usize = 128 * 1024;
/// Mean block length from which DMA scatter/gather is no longer
/// considered: long contiguous runs stream faster through PIO than
/// through the DMA engine, so only fine-grained layouts convert.
pub(crate) const DMA_MAX_BLOCK: usize = 256;
/// CPU cost charged each time `Rank::test` polls an incomplete request
/// (the completion check against the link timeline).
pub(crate) const PROGRESS_POLL_COST: SimDuration = SimDuration::from_ns(50);
/// Per-hop propagation cost of the revocation gossip front: after a
/// rank revokes the communicator at virtual time `t`, a rank at
/// binomial-tree depth `d` from the revoker observes the revocation at
/// `t + d * REVOKE_HOP_COST` (deterministic virtual-time gossip).
pub(crate) const REVOKE_HOP_COST: SimDuration = SimDuration::from_us(5);
/// Hypercube sweeps the fault-tolerant agreement collective runs over
/// the member set. Each sweep is a full log2-round exchange of dead
/// bitmaps; `k` sweeps tolerate `k - 1` additional deaths striking
/// mid-agreement while still converging all survivors to the same
/// verdict.
pub(crate) const AGREEMENT_SWEEPS: u32 = 3;
/// Pipeline chunk size for the one-sided ring bcast (each chunk is one
/// window put forwarded down the ring).
pub(crate) const COLL_RING_CHUNK: usize = 32 * 1024;

/// Which engine a non-contiguous transfer should use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NoncontigMode {
    /// Pack into a local buffer, send contiguously, unpack at the receiver
    /// (stock-MPICH behaviour; Figure 4 top).
    Generic,
    /// `direct_pack_ff`: pack straight into the remote ring buffer
    /// (Figure 4 bottom).
    DirectPackFf,
    /// `DirectPackFf` when the committed type's smallest block is at least
    /// `Tuning::ff_min_block`, `Generic` otherwise (the production
    /// default; footnote 1 of §3.4).
    #[default]
    Auto,
}

/// The transfer path the adaptive selector picks for one typed message,
/// using the committed layout's density metrics (measured at commit time)
/// instead of a single static block-size threshold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PackPath {
    /// `direct_pack_ff` straight into remote memory (no staging copy).
    DirectFf,
    /// Pack into a staged local buffer, transfer contiguously, unpack at
    /// the destination (the generic engine's shape).
    Staged,
    /// Hand the scattered blocks to the DMA engine as a scatter/gather
    /// descriptor list (one-sided shared windows only).
    Dma,
}

/// Data-integrity checking level for every transfer path.
///
/// See `docs/INTEGRITY.md` for the full mode matrix. In short:
///
/// * `Off` — trust the fabric. Silent faults (if injected) land in user
///   buffers unnoticed; zero overhead. The default, and bit-identical to
///   the pre-integrity protocol.
/// * `SequenceCheck` — bracket PIO bursts with the SISCI-style
///   `start_sequence`/`check_sequence` guard: corruption on checked paths
///   is *detected* and surfaces as [`crate::ScimpiError::DataCorruption`],
///   but nothing is repaired (and paths that ride plain messages — the
///   one-sided emulation packets — stay unchecked).
/// * `EndToEnd` — CRC32 framing on every eager payload, rendezvous chunk
///   and emulation packet, epoch-level verification of direct one-sided
///   transfers at synchronisation points, and bounded
///   retransmit-on-mismatch. Delivers bit-identical payloads or errors
///   out after `max_retransmits`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No checking: corruption sails through silently.
    #[default]
    Off,
    /// Detect-and-error via sequence checks on PIO paths.
    SequenceCheck,
    /// Checksummed framing with bounded retransmission everywhere.
    EndToEnd,
}

/// What a sender does when its per-pair eager credit budget
/// ([`Tuning::eager_credits_bytes`] / [`Tuning::eager_credit_slots`]) is
/// exhausted. See `docs/BACKPRESSURE.md` for the full lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block on a deterministic virtual-time `backpressure` wait until
    /// the receiver returns enough credits (matched messages grant them
    /// back in FIFO order). The default — lossless flow control, exactly
    /// the behaviour of a finite pre-posted eager buffer pool.
    #[default]
    Stall,
    /// Downgrade the message to the rendezvous protocol, which carries
    /// its own backpressure (CTS handshake plus bounded ring slots) and
    /// consumes no eager credits. Lossless, never blocks at post time.
    Degrade,
    /// Drop the message entirely (load shedding): the send completes as
    /// a no-op and the payload never reaches the receiver. Receivers
    /// must reconcile delivered counts out of band.
    Shed,
    /// Refuse the send with [`ScimpiError::ResourceExhausted`] through
    /// the configured [`crate::ErrorMode`].
    Error,
}

/// Which schedule the collective engine runs a given operation with.
///
/// `Auto` (the default) selects per call from message size, member
/// count, and fabric topology (ring schedules prefer ringlet locality);
/// the forced variants pin every collective to one schedule family for
/// ablation. Schedules that make no sense for a particular operation
/// alias to the closest meaningful one — the full matrix is documented
/// in `docs/COLLECTIVES.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Size/count/topology-driven selection per operation.
    #[default]
    Auto,
    /// The legacy linear/binomial reference schedules (bit-identical to
    /// the pre-engine collectives; the differential baseline).
    Naive,
    /// Ring schedules: pipelined neighbour exchanges, bandwidth-optimal
    /// for large payloads on ringlet topologies.
    Ring,
    /// Recursive-doubling schedules: log2 rounds of pairwise exchange,
    /// latency-optimal for small payloads.
    RecursiveDoubling,
    /// Binomial-tree schedules: rooted log2 fan-out/fan-in.
    Binomial,
    /// Bruck schedules: log2 rounds with rotated indexing, strongest for
    /// small all-to-all/allgather payloads.
    Bruck,
}

/// Protocol knobs a run may turn.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuning {
    /// Messages up to this size are sent eagerly into the receiver's
    /// pre-posted buffer space; larger ones use rendezvous. `0`
    /// disables the eager path entirely (the rendezvous-only ablation).
    pub eager_threshold: usize,
    /// Rendezvous ring-buffer chunk size. Kept at or below the L2 capacity
    /// to avoid cache-line thrashing with `direct_pack_ff` (§3.3.2).
    pub rendezvous_chunk: usize,
    /// Non-contiguous engine selection.
    pub noncontig: NoncontigMode,
    /// Minimum basic-block size for which `Auto` picks `direct_pack_ff`.
    /// The paper sets this to 0 to compare the engines across the whole
    /// sweep; the default 16 avoids the 8-byte-granularity regime where
    /// the generic engine wins inter-node.
    pub ff_min_block: usize,
    /// `MPI_Get` requests at or above this size are converted to a
    /// *remote-put* executed by the target (§4.2); below it the origin
    /// reads directly (reads are slow but low-latency for small data).
    pub get_remote_put_threshold: usize,
    /// Consecutive direct-path failures on a one-sided target before the
    /// window falls back to the emulated control-message path for it.
    pub osc_fallback_threshold: u32,
    /// Data-integrity checking level (see [`IntegrityMode`]).
    pub integrity_mode: IntegrityMode,
    /// Bounded retransmission budget per protocol unit (eager message,
    /// rendezvous chunk, one-sided epoch region) in `EndToEnd` mode.
    /// Exhausting it surfaces [`crate::ScimpiError::DataCorruption`].
    pub max_retransmits: u32,
    /// The adaptive pack engine: typed transfers resolve the flattened
    /// layout by signature lookup instead of re-flattening the type tree
    /// per transfer (see [`Tuning::layout_resolve_cost`]), and
    /// `direct_pack_ff` leaf stores go through the write-combining store
    /// batcher (`PioStream::write_batched`) instead of one PIO store per
    /// leaf block.
    pub pack_engine: bool,
    /// Per sender/receiver pair eager-buffer byte budget: the sum of
    /// eager payload bytes a sender may have posted but not yet credited
    /// back by the receiver. Models the finite pre-posted receive buffer
    /// space of the adapter.
    pub eager_credits_bytes: usize,
    /// Per sender/receiver pair envelope-slot budget: outstanding eager
    /// messages (of any size, including short protocol) a sender may
    /// have in flight towards one receiver.
    pub eager_credit_slots: usize,
    /// What a sender does when the pair's eager credits run out.
    pub overload_policy: OverloadPolicy,
    /// Cap on one rank's simultaneously pending nonblocking requests;
    /// posting past it surfaces [`ScimpiError::ResourceExhausted`].
    /// `usize::MAX` = ungoverned.
    pub max_inflight_requests: usize,
    /// Collective schedule selection (see [`CollectiveAlgo`]).
    pub collective_algo: CollectiveAlgo,
    /// `Auto` treats collectives at or below this payload size as
    /// latency-bound: allreduce/allgather pick recursive-doubling or
    /// Bruck instead of the bandwidth-optimal ring. The default sits at
    /// the measured crossover of the `coll_sweep` bench (ring overtakes
    /// the log-round schedules between 1 kiB and 8 kiB at 8 ranks).
    pub coll_small_max: usize,
    /// Smallest bcast payload for which `Auto` picks the one-sided
    /// pipelined ring over the binomial tree (only on ringlet
    /// topologies, where neighbour puts ride the hardware ring).
    pub coll_ring_min: usize,
    /// Largest equal-size alltoall block for which `Auto` picks the
    /// Bruck schedule over pairwise exchange.
    pub coll_bruck_max: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            eager_threshold: 16 * 1024,
            rendezvous_chunk: 64 * 1024,
            noncontig: NoncontigMode::Auto,
            ff_min_block: 16,
            get_remote_put_threshold: 512,
            osc_fallback_threshold: 2,
            integrity_mode: IntegrityMode::Off,
            max_retransmits: 4,
            pack_engine: true,
            eager_credits_bytes: 4 * 1024 * 1024,
            eager_credit_slots: 256,
            overload_policy: OverloadPolicy::Stall,
            max_inflight_requests: usize::MAX,
            collective_algo: CollectiveAlgo::Auto,
            coll_small_max: 4 * 1024,
            coll_ring_min: 256 * 1024,
            coll_bruck_max: 512,
        }
    }
}

impl Tuning {
    /// The configuration used for the paper's Figure 7 comparison:
    /// `ff_min_block = 0` so `direct_pack_ff` is used for every block size.
    pub fn full_ff_comparison(mut self) -> Self {
        self.noncontig = NoncontigMode::DirectPackFf;
        self.ff_min_block = 0;
        self
    }

    /// Force the generic engine everywhere (the baseline curve).
    pub fn generic_only(mut self) -> Self {
        self.noncontig = NoncontigMode::Generic;
        self
    }

    /// Turn the whole adaptive pack engine off: re-flatten per transfer
    /// and issue unbatched per-leaf stores (the pre-cache behaviour the
    /// ablation benches compare against).
    pub fn without_pack_engine(mut self) -> Self {
        self.pack_engine = false;
        self
    }

    /// Virtual-time cost to resolve `c`'s flattened layout at the start of
    /// one typed transfer: a signature lookup with the pack engine on, a
    /// full re-flatten (proportional to the memoised
    /// [`Committed::flatten_ops`]) with it off. A pure function of the
    /// tuning and the committed type, so simulated time stays deterministic
    /// regardless of what the process-wide layout memo already holds.
    pub fn layout_resolve_cost(&self, c: &Committed) -> SimDuration {
        if self.pack_engine {
            LAYOUT_LOOKUP_COST
        } else {
            LAYOUT_FLATTEN_OP_COST.saturating_mul(c.flatten_ops() as u64)
        }
    }

    /// Adaptive path selection for one typed transfer of `total` payload
    /// bytes. Forced modes are honoured (`Generic` → staged buffer,
    /// `DirectPackFf` → direct ff); `Auto` decides from the commit-time
    /// density metrics: fine-grained large transfers convert to DMA when
    /// the caller offers it (`dma_available` — shared windows with aligned
    /// layouts), layouts whose mean block clears `ff_min_block` stream
    /// directly, and the rest stage through a pack buffer.
    pub fn select_path(&self, c: &Committed, total: usize, dma_available: bool) -> PackPath {
        match self.noncontig {
            NoncontigMode::Generic => PackPath::Staged,
            NoncontigMode::DirectPackFf => PackPath::DirectFf,
            NoncontigMode::Auto => {
                let density = c.density();
                if dma_available
                    && total >= DMA_MIN_TOTAL
                    && density.avg_block_len < DMA_MAX_BLOCK as f64
                {
                    return PackPath::Dma;
                }
                if density.avg_block_len >= self.ff_min_block as f64 {
                    PackPath::DirectFf
                } else {
                    PackPath::Staged
                }
            }
        }
    }

    /// [`Tuning::select_path`] plus the `path_selected_*` counter tick —
    /// call once per typed operation (not per internal chunk).
    pub fn select_path_recorded(
        &self,
        c: &Committed,
        total: usize,
        dma_available: bool,
    ) -> PackPath {
        let path = self.select_path(c, total, dma_available);
        obs::inc(match path {
            PackPath::DirectFf => obs::Counter::PathSelectedDirectFf,
            PackPath::Staged => obs::Counter::PathSelectedStaged,
            PackPath::Dma => obs::Counter::PathSelectedDma,
        });
        path
    }

    /// Check the cross-field invariants the protocol depends on.
    /// `ClusterSpec::build` (and `run`) call this, so a bad tuning fails
    /// fast at configuration time instead of corrupting a run.
    pub fn validate(&self) -> Result<(), ScimpiError> {
        let fail = |msg: String| Err(ScimpiError::InvalidConfig(msg));
        // `eager_threshold == 0` disables the eager path outright (the
        // rendezvous-only ablation), so the short/eager ordering only
        // binds when eager messages can exist at all.
        if self.eager_threshold > 0 && SHORT_THRESHOLD >= self.eager_threshold {
            return fail(format!(
                "short threshold ({SHORT_THRESHOLD}) must be below eager_threshold ({})",
                self.eager_threshold
            ));
        }
        // A zero chunk never advances the rendezvous chunk loop.
        if self.rendezvous_chunk < 1 {
            return fail("rendezvous_chunk must be at least 1".into());
        }
        // The pair ring region is sized by this product.
        let Some(ring) = self.rendezvous_chunk.checked_mul(RING_SLOTS) else {
            return fail(format!(
                "rendezvous_chunk ({}) * ring slots ({RING_SLOTS}) overflows",
                self.rendezvous_chunk
            ));
        };
        if self.eager_threshold > ring {
            return fail(format!(
                "eager_threshold ({}) must not exceed rendezvous_chunk * ring slots ({ring})",
                self.eager_threshold
            ));
        }
        if self.eager_credits_bytes < self.eager_threshold {
            return fail(format!(
                "eager_credits_bytes ({}) must cover at least one eager_threshold message ({})",
                self.eager_credits_bytes, self.eager_threshold
            ));
        }
        if self.eager_credit_slots < 1 {
            return fail("eager_credit_slots must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_ordered() {
        let t = Tuning::default();
        assert!(SHORT_THRESHOLD < t.eager_threshold);
        assert!(t.eager_threshold < t.rendezvous_chunk * RING_SLOTS);
        t.validate().expect("the default tuning is valid");
    }

    /// Assert that `mutate` breaks exactly the invariant whose message
    /// contains `needle`.
    fn assert_invalid(mutate: impl FnOnce(&mut Tuning), needle: &str) {
        let mut t = Tuning::default();
        mutate(&mut t);
        match t.validate() {
            Err(ScimpiError::InvalidConfig(msg)) => {
                assert!(msg.contains(needle), "expected '{needle}' in '{msg}'")
            }
            other => panic!("expected InvalidConfig containing '{needle}', got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_short_at_or_above_eager() {
        assert_invalid(|t| t.eager_threshold = SHORT_THRESHOLD, "short threshold");
    }

    #[test]
    fn validate_accepts_disabled_eager_path() {
        let t = Tuning {
            eager_threshold: 0,
            ..Tuning::default()
        };
        t.validate()
            .expect("eager_threshold 0 is the rendezvous-only ablation");
    }

    #[test]
    fn validate_rejects_eager_above_ring_capacity() {
        assert_invalid(
            |t| t.eager_threshold = t.rendezvous_chunk * RING_SLOTS + 1,
            "rendezvous_chunk * ring slots",
        );
    }

    #[test]
    fn validate_rejects_zero_rendezvous_chunk() {
        // With the eager path off every non-empty send is rendezvous, and
        // a zero chunk would spin in the chunk loop.
        assert_invalid(
            |t| {
                t.eager_threshold = 0;
                t.rendezvous_chunk = 0;
            },
            "rendezvous_chunk must be at least 1",
        );
    }

    #[test]
    fn validate_rejects_ring_size_overflow() {
        assert_invalid(|t| t.rendezvous_chunk = usize::MAX / 2 + 1, "overflows");
        assert_invalid(|t| t.rendezvous_chunk = usize::MAX, "overflows");
    }

    #[test]
    fn validate_rejects_credits_below_one_eager_message() {
        assert_invalid(
            |t| t.eager_credits_bytes = t.eager_threshold - 1,
            "eager_credits_bytes",
        );
    }

    #[test]
    fn validate_rejects_zero_credit_slots() {
        assert_invalid(|t| t.eager_credit_slots = 0, "eager_credit_slots");
    }

    #[test]
    fn default_collective_algo_is_auto() {
        assert_eq!(CollectiveAlgo::default(), CollectiveAlgo::Auto);
        let t = Tuning::default();
        assert_eq!(t.collective_algo, CollectiveAlgo::Auto);
        assert!(t.coll_bruck_max < t.coll_small_max);
        assert!(t.coll_small_max < t.coll_ring_min);
    }

    #[test]
    fn default_overload_policy_is_stall() {
        assert_eq!(OverloadPolicy::default(), OverloadPolicy::Stall);
        assert_eq!(Tuning::default().overload_policy, OverloadPolicy::Stall);
    }

    #[test]
    fn presets_flip_modes() {
        assert_eq!(
            Tuning::default().full_ff_comparison().noncontig,
            NoncontigMode::DirectPackFf
        );
        assert_eq!(Tuning::default().full_ff_comparison().ff_min_block, 0);
        assert_eq!(
            Tuning::default().generic_only().noncontig,
            NoncontigMode::Generic
        );
    }

    #[test]
    fn engine_presets_preserve_pack_engine_flags() {
        // The fig7 harness applies the engine presets on top of the
        // caller's tuning; the pack-engine switch must survive that.
        let t = Tuning::default().without_pack_engine();
        assert!(!t.pack_engine);
        assert!(!t.clone().full_ff_comparison().pack_engine);
        assert!(!t.generic_only().pack_engine);
        assert!(Tuning::default().pack_engine);
    }

    #[test]
    fn layout_resolve_cost_models_cache() {
        let dt = mpi_datatype::Datatype::vector(64, 2, 4, &mpi_datatype::Datatype::double());
        let c = Committed::commit(&dt);
        let cached = Tuning::default();
        let cold = Tuning::default().without_pack_engine();
        assert_eq!(cached.layout_resolve_cost(&c), LAYOUT_LOOKUP_COST);
        assert_eq!(
            cold.layout_resolve_cost(&c),
            LAYOUT_FLATTEN_OP_COST.saturating_mul(c.flatten_ops() as u64)
        );
        assert!(cold.layout_resolve_cost(&c) > cached.layout_resolve_cost(&c));
    }

    #[test]
    fn select_path_honours_forced_modes_and_density() {
        let dt = mpi_datatype::Datatype::vector(8192, 8, 16, &mpi_datatype::Datatype::double());
        let c = Committed::commit(&dt); // 64 B blocks, 512 KiB payload
        let total = c.size();
        let auto = Tuning::default();
        assert_eq!(auto.noncontig, NoncontigMode::Auto);
        // Forced modes win regardless of density.
        assert_eq!(
            auto.clone()
                .full_ff_comparison()
                .select_path(&c, total, true),
            PackPath::DirectFf
        );
        assert_eq!(
            auto.clone().generic_only().select_path(&c, total, true),
            PackPath::Staged
        );
        // Auto: fine-grained large transfer converts to DMA when offered…
        assert_eq!(auto.select_path(&c, total, true), PackPath::Dma);
        // …but not without DMA, where the 64 B blocks clear ff_min_block.
        assert_eq!(auto.select_path(&c, total, false), PackPath::DirectFf);
        // Small transfers never convert.
        assert_eq!(auto.select_path(&c, 4096, true), PackPath::DirectFf);
        // Tiny blocks below ff_min_block stage through a pack buffer.
        let tiny = Committed::commit(&mpi_datatype::Datatype::vector(
            16,
            1,
            2,
            &mpi_datatype::Datatype::double(),
        ));
        assert_eq!(
            auto.select_path(&tiny, tiny.size(), false),
            PackPath::Staged
        );
        // Long contiguous runs stay on PIO even when DMA is offered.
        let coarse = Committed::commit(&mpi_datatype::Datatype::vector(
            1024,
            128,
            256,
            &mpi_datatype::Datatype::double(),
        ));
        assert_eq!(
            auto.select_path(&coarse, coarse.size(), true),
            PackPath::DirectFf
        );
    }
}
