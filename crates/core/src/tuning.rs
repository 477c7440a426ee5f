//! Protocol tuning parameters of the SCI-MPICH reproduction.
//!
//! These correspond to the device-configuration knobs of SCI-MPICH's
//! `ch_smi` device: protocol switch points, ring-buffer geometry, and the
//! CPU cost constants of the two packing engines. The defaults are
//! calibrated so the benchmark harnesses reproduce the *shapes* of the
//! paper's figures (see EXPERIMENTS.md).

use crate::error::ScimpiError;
use mpi_datatype::Committed;
use simclock::SimDuration;

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

/// Protocol and cost-model knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuning {
    /// Messages up to this size travel in the control packet itself
    /// ("short" protocol).
    pub short_threshold: usize,
    /// Messages up to this size are sent eagerly into the receiver's
    /// pre-posted buffer space; larger ones use rendezvous. `0`
    /// disables the eager path entirely (the rendezvous-only ablation).
    pub eager_threshold: usize,
    /// Rendezvous ring-buffer chunk size. Kept at or below the L2 capacity
    /// to avoid cache-line thrashing with `direct_pack_ff` (§3.3.2).
    pub rendezvous_chunk: usize,
    /// Ring-buffer slots per sender/receiver pair (in-flight chunks).
    pub ring_slots: usize,
    /// Non-contiguous engine selection.
    pub noncontig: NoncontigMode,
    /// Minimum basic-block size for which `Auto` picks `direct_pack_ff`.
    /// The paper sets this to 0 to compare the engines across the whole
    /// sweep; the default 16 avoids the 8-byte-granularity regime where
    /// the generic engine wins inter-node.
    pub ff_min_block: usize,
    /// CPU overhead per basic block in the generic engine (recursive tree
    /// traversal per block).
    pub generic_visit_cost: SimDuration,
    /// CPU overhead per basic block in `direct_pack_ff` (simple stack
    /// operations).
    pub ff_block_cost: SimDuration,
    /// Cost to assemble and send one control packet (RTS/CTS/interrupt
    /// payloads).
    pub ctrl_send_cost: SimDuration,
    /// Cost to parse one received control packet.
    pub ctrl_recv_cost: SimDuration,
    /// Per-tree-level cost of the barrier used by collectives and fences.
    pub barrier_hop: SimDuration,
    /// `MPI_Get` requests at or above this size are converted to a
    /// *remote-put* executed by the target (§4.2); below it the origin
    /// reads directly (reads are slow but low-latency for small data).
    pub get_remote_put_threshold: usize,
    /// First virtual-time timeout window for protocol waits (rendezvous
    /// handshake, ring slots, one-sided control). Only charged when the
    /// peer turns out dead — a healthy-but-slow peer costs nothing extra.
    pub ctrl_timeout: SimDuration,
    /// Multiplier applied to the timeout window after each expiry
    /// (exponential backoff).
    pub timeout_backoff: f64,
    /// Timeout windows to run through before declaring a peer dead.
    pub max_protocol_retries: u32,
    /// Cost of one connection-monitor probe after a timeout window
    /// expires (small remote read round trip).
    pub probe_cost: SimDuration,
    /// Consecutive direct-path failures on a one-sided target before the
    /// window falls back to the emulated control-message path for it.
    pub osc_fallback_threshold: u32,
    /// Data-integrity checking level (see [`IntegrityMode`]).
    pub integrity_mode: IntegrityMode,
    /// Bounded retransmission budget per protocol unit (eager message,
    /// rendezvous chunk, one-sided epoch region) in `EndToEnd` mode.
    /// Exhausting it surfaces [`crate::ScimpiError::DataCorruption`].
    pub max_retransmits: u32,
    /// CPU cost per byte of computing/verifying a CRC32 (software
    /// checksumming on the P-III: roughly 300 MiB/s).
    pub crc_cost_per_byte: SimDuration,
    /// Use the commit-time layout cache: typed transfers resolve the
    /// flattened layout by signature lookup instead of re-flattening the
    /// type tree per transfer (see [`Tuning::layout_resolve_cost`]).
    pub layout_cache: bool,
    /// Route `direct_pack_ff` leaf stores through the write-combining
    /// store batcher (`PioStream::write_batched`) instead of issuing one
    /// PIO store per leaf block.
    pub wc_batching: bool,
    /// Cost of one layout-cache lookup (hash of the type signature plus a
    /// table probe) when [`Tuning::layout_cache`] is on.
    pub layout_lookup_cost: SimDuration,
    /// Cost per flattening operation (tree-node visit or unrolled leaf
    /// copy) to re-derive the layout when the cache is off. Multiplied by
    /// `Committed::flatten_ops`.
    pub layout_flatten_op_cost: SimDuration,
    /// Smallest typed one-sided transfer the adaptive selector will route
    /// to DMA (descriptor posting is expensive; below this PIO always
    /// wins).
    pub dma_min_total: usize,
    /// Largest mean block length for which DMA scatter/gather is
    /// considered: long contiguous runs stream faster through PIO than
    /// through the DMA engine, so only fine-grained layouts convert.
    pub dma_max_block: usize,
    /// CPU cost charged on the posting rank's clock when a nonblocking
    /// request (`isend`/`irecv`/`iput`/`iget`/`ialltoall`) is posted:
    /// allocating the request record and kicking the progress engine.
    /// Defaults to zero so `isend + wait` is bit-identical to `send`;
    /// raise it to model descriptor-queue overhead.
    pub request_post_cost: SimDuration,
    /// CPU cost charged each time `Rank::test` polls an incomplete
    /// request (the completion check against the link timeline).
    pub progress_poll_cost: SimDuration,
    /// Per-hop propagation cost of the revocation gossip front: after a
    /// rank revokes the communicator at virtual time `t`, a rank at
    /// binomial-tree depth `d` from the revoker observes the revocation
    /// at `t + d * revoke_hop_cost` (deterministic virtual-time gossip).
    pub revoke_hop_cost: SimDuration,
    /// Hypercube sweeps the fault-tolerant agreement collective runs over
    /// the member set. Each sweep is a full log2-round exchange of dead
    /// bitmaps; `k` sweeps tolerate `k - 1` additional deaths striking
    /// mid-agreement while still converging all survivors to the same
    /// verdict.
    pub agreement_sweeps: u32,
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
    /// Per-rank byte budget for one-sided window and `alloc_mem`
    /// registrations; exceeding it surfaces
    /// [`ScimpiError::ResourceExhausted`]. `usize::MAX` = ungoverned.
    pub window_budget_bytes: usize,
    /// Per-rank byte budget for staged pack buffers. When a transfer the
    /// selector would stage (or DMA) does not fit the remaining budget,
    /// the path degrades Dma → Staged → DirectFf instead of allocating.
    /// `usize::MAX` = ungoverned.
    pub staging_budget_bytes: usize,
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
    /// Pipeline chunk size for the one-sided ring bcast (each chunk is
    /// one window put forwarded down the ring).
    pub coll_ring_chunk: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            short_threshold: 128,
            eager_threshold: 16 * 1024,
            rendezvous_chunk: 64 * 1024,
            ring_slots: 2,
            noncontig: NoncontigMode::Auto,
            ff_min_block: 16,
            generic_visit_cost: SimDuration::from_ns(300),
            ff_block_cost: SimDuration::from_ns(30),
            ctrl_send_cost: SimDuration::from_ns(900),
            ctrl_recv_cost: SimDuration::from_ns(500),
            barrier_hop: SimDuration::from_us_f64(1.6),
            get_remote_put_threshold: 512,
            ctrl_timeout: SimDuration::from_us(200),
            timeout_backoff: 2.0,
            max_protocol_retries: 4,
            probe_cost: SimDuration::from_us(4),
            osc_fallback_threshold: 2,
            integrity_mode: IntegrityMode::Off,
            max_retransmits: 4,
            crc_cost_per_byte: SimDuration::from_ps(3200),
            layout_cache: true,
            wc_batching: true,
            layout_lookup_cost: SimDuration::from_ns(40),
            layout_flatten_op_cost: SimDuration::from_ns(25),
            dma_min_total: 128 * 1024,
            dma_max_block: 256,
            request_post_cost: SimDuration::ZERO,
            progress_poll_cost: SimDuration::from_ns(50),
            revoke_hop_cost: SimDuration::from_us(5),
            agreement_sweeps: 3,
            eager_credits_bytes: 4 * 1024 * 1024,
            eager_credit_slots: 256,
            overload_policy: OverloadPolicy::Stall,
            window_budget_bytes: usize::MAX,
            staging_budget_bytes: usize::MAX,
            max_inflight_requests: usize::MAX,
            collective_algo: CollectiveAlgo::Auto,
            coll_small_max: 4 * 1024,
            coll_ring_min: 256 * 1024,
            coll_bruck_max: 512,
            coll_ring_chunk: 32 * 1024,
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
        self.layout_cache = false;
        self.wc_batching = false;
        self
    }

    /// Virtual-time cost to resolve `c`'s flattened layout at the start of
    /// one typed transfer: a signature lookup when the layout cache is on,
    /// a full re-flatten (proportional to the memoised
    /// [`Committed::flatten_ops`]) when it is off. A pure function of the
    /// tuning and the committed type, so simulated time stays deterministic
    /// regardless of what the process-wide layout memo already holds.
    pub fn layout_resolve_cost(&self, c: &Committed) -> SimDuration {
        if self.layout_cache {
            self.layout_lookup_cost
        } else {
            self.layout_flatten_op_cost
                .saturating_mul(c.flatten_ops() as u64)
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
                    && total >= self.dma_min_total
                    && density.avg_block_len < self.dma_max_block as f64
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
        if self.eager_threshold > 0 && self.short_threshold >= self.eager_threshold {
            return fail(format!(
                "short_threshold ({}) must be below eager_threshold ({})",
                self.short_threshold, self.eager_threshold
            ));
        }
        if self.ring_slots < 1 {
            return fail("ring_slots must be at least 1".into());
        }
        if self.eager_threshold > self.rendezvous_chunk * self.ring_slots {
            return fail(format!(
                "eager_threshold ({}) must not exceed rendezvous_chunk * ring_slots ({})",
                self.eager_threshold,
                self.rendezvous_chunk * self.ring_slots
            ));
        }
        if self.ff_block_cost >= self.generic_visit_cost {
            return fail(format!(
                "ff_block_cost ({:?}) must be below generic_visit_cost ({:?})",
                self.ff_block_cost, self.generic_visit_cost
            ));
        }
        if self.timeout_backoff < 1.0 {
            return fail(format!(
                "timeout_backoff ({}) must be at least 1.0 or the timeout schedule shrinks",
                self.timeout_backoff
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
        if self.coll_ring_chunk == 0 {
            return fail("coll_ring_chunk must be at least 1".into());
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
        assert!(t.short_threshold < t.eager_threshold);
        assert!(t.eager_threshold < t.rendezvous_chunk * t.ring_slots);
        assert!(t.ff_block_cost < t.generic_visit_cost);
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
        assert_invalid(|t| t.short_threshold = t.eager_threshold, "short_threshold");
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
            |t| t.eager_threshold = t.rendezvous_chunk * t.ring_slots + 1,
            "rendezvous_chunk * ring_slots",
        );
    }

    #[test]
    fn validate_rejects_zero_ring_slots() {
        assert_invalid(|t| t.ring_slots = 0, "ring_slots");
    }

    #[test]
    fn validate_rejects_ff_cost_at_or_above_generic() {
        assert_invalid(|t| t.ff_block_cost = t.generic_visit_cost, "ff_block_cost");
    }

    #[test]
    fn validate_rejects_shrinking_backoff() {
        assert_invalid(|t| t.timeout_backoff = 0.5, "timeout_backoff");
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
    fn validate_rejects_zero_ring_chunk() {
        assert_invalid(|t| t.coll_ring_chunk = 0, "coll_ring_chunk");
    }

    #[test]
    fn default_collective_algo_is_auto() {
        assert_eq!(CollectiveAlgo::default(), CollectiveAlgo::Auto);
        let t = Tuning::default();
        assert_eq!(t.collective_algo, CollectiveAlgo::Auto);
        assert!(t.coll_bruck_max < t.coll_small_max);
        assert!(t.coll_small_max < t.coll_ring_min);
        assert!(t.coll_ring_chunk > 0);
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
        // caller's tuning; the pack-engine toggles must survive that.
        let t = Tuning::default().without_pack_engine();
        assert!(!t.layout_cache && !t.wc_batching);
        let ff = t.clone().full_ff_comparison();
        assert!(!ff.layout_cache && !ff.wc_batching);
        let gen = t.generic_only();
        assert!(!gen.layout_cache && !gen.wc_batching);
        assert!(Tuning::default().layout_cache && Tuning::default().wc_batching);
    }

    #[test]
    fn layout_resolve_cost_models_cache() {
        let dt = mpi_datatype::Datatype::vector(64, 2, 4, &mpi_datatype::Datatype::double());
        let c = Committed::commit(&dt);
        let cached = Tuning::default();
        let cold = Tuning::default().without_pack_engine();
        assert_eq!(cached.layout_resolve_cost(&c), cached.layout_lookup_cost);
        assert_eq!(
            cold.layout_resolve_cost(&c),
            cold.layout_flatten_op_cost
                .saturating_mul(c.flatten_ops() as u64)
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
