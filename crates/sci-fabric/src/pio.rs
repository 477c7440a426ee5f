//! PIO remote memory access: transparent CPU stores and loads.
//!
//! This is the mechanism the whole paper is built on. Stores to imported
//! remote memory are *posted*: the CPU issues them and moves on
//! ("write-and-forget"), the adapter's **stream buffers** gather consecutive
//! ascending stores into large SCI transactions. Only a **store barrier**
//! guarantees the data has arrived — until then transactions may still be
//! in flight and, after a retry, may even arrive out of order.
//!
//! Loads from remote memory **stall the CPU** until data returns, which
//! makes read bandwidth a small fraction of write bandwidth (Figure 1) and
//! motivates the *remote-put* conversion for large `MPI_Get`s (§4.2).
//!
//! Cost model per store burst (a maximal run of consecutive ascending
//! bytes):
//!
//! ```text
//! cost = txn_overhead · align_factor + len / min(stream_bw, link_share)
//! ```
//!
//! where `align_factor` is 1 for bursts starting on a write-combine
//! boundary (32 B on the P-III) and `wc_misalign_factor` otherwise — this
//! reproduces the strong stride sensitivity measured in §4.3. Consecutive
//! writes (where the next store continues the previous burst) pay no new
//! overhead, which is exactly why `direct_pack_ff` insists on packing into
//! *consecutive ascending* remote addresses.

use crate::fault::{write_with_faults, SciError, SeqStatus, TxnOutcome};
use crate::link::StreamGuard;
use crate::segment::Mapping;
use crate::Fabric;
use simclock::{Clock, SimDuration, SimTime};
use std::sync::Arc;

/// A stream of remote stores through one mapping, modelling the adapter's
/// stream buffers. Create one per logical transfer; drop (or
/// [`PioStream::barrier`]) to flush.
#[derive(Debug)]
pub struct PioStream {
    fabric: Arc<Fabric>,
    mapping: Mapping,
    /// Size of the data set the CPU is reading from (selects the memory-
    /// bandwidth tier that feeds the stores — Figure 1's dip past L2).
    source_working_set: usize,
    /// Expected offset of the next store if it continues the current burst.
    next_offset: Option<usize>,
    /// Latest arrival time of any issued transaction.
    outstanding: SimTime,
    /// Total bytes issued through this stream.
    bytes: u64,
    /// Optional demand cap below the raw adapter rate (MPI-level sustained
    /// transfers are limited by PCI arbitration and protocol-engine
    /// overhead — the paper's 120 MiB/s per-node plateau).
    demand_cap: Option<simclock::Bandwidth>,
    /// Silent faults applied since the last [`Self::take_silent_faults`]
    /// (simulation bookkeeping — *not* observable by the modelled program).
    silent_faults: u64,
    /// True if a silent fault hit the current sequence-check interval.
    seq_tainted: bool,
    /// Write-combining window staged by [`Self::write_batched`]: the
    /// contiguous bytes `wc_buf[..wc_len]` belong at segment offset
    /// `wc_start`, waiting either to reach `wc_boundary` (the next
    /// batch-aligned offset past `wc_start`) or for an explicit
    /// [`Self::flush_wc`]. The window never spans a batch boundary, so
    /// one `wc_batch_bytes`-sized buffer, allocated at the first staged
    /// store, serves the stream for its lifetime.
    wc_buf: Vec<u8>,
    wc_start: usize,
    wc_len: usize,
    wc_boundary: usize,
    /// The last burst's streaming rate and cost (see [`Priced`]).
    priced: Option<Priced>,
    /// Link-contention registration for the stream's lifetime.
    _guard: Option<StreamGuard>,
}

/// Memo of the streaming term of the burst cost model. The rate a burst
/// streams at is a function of the stream's demand, its route and the
/// active-stream counts on that route's segments; its cost additionally of
/// the burst length. `bw` is reused while `demand` and the link registry's
/// contention generation (bumped by every stream that opens or closes)
/// stand still, `cost` while `len` does too; a route switch discards the
/// memo. Anything else re-prices exactly as an unmemoised call would.
#[derive(Clone, Copy, Debug)]
struct Priced {
    generation: u64,
    demand: simclock::Bandwidth,
    bw: simclock::Bandwidth,
    len: usize,
    cost: SimDuration,
}

impl PioStream {
    pub(crate) fn new(fabric: Arc<Fabric>, mapping: Mapping, source_working_set: usize) -> Self {
        let guard = if mapping.is_local() {
            None
        } else {
            Some(fabric.links().start_stream(&mapping.route))
        };
        PioStream {
            fabric,
            mapping,
            source_working_set,
            next_offset: None,
            outstanding: SimTime::ZERO,
            bytes: 0,
            demand_cap: None,
            silent_faults: 0,
            seq_tainted: false,
            wc_buf: Vec::new(),
            wc_start: 0,
            wc_len: 0,
            wc_boundary: 0,
            priced: None,
            _guard: guard,
        }
    }

    /// Cap this stream's demand below the raw adapter rate. Used for
    /// sustained MPI-level transfers (one-sided windows): PCI arbitration
    /// and the protocol engine bound long-running store streams at the
    /// node injection cap even though short raw bursts reach the adapter
    /// peak (Figure 1 vs Figure 12).
    pub fn cap_demand(&mut self, cap: simclock::Bandwidth) {
        self.demand_cap = Some(cap);
    }

    /// Total bytes issued so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// True if the mapping is intra-node (plain memory, no fabric cost).
    pub fn is_local(&self) -> bool {
        self.mapping.is_local()
    }

    /// True while the stream rides a degraded failover route.
    pub fn is_degraded(&self) -> bool {
        self.mapping.route.degraded
    }

    /// Swap the stream onto `route`: re-register link contention and
    /// reset burst state (the adapter's stream buffers cannot continue a
    /// burst across a route change).
    fn switch_route(&mut self, route: crate::topology::Route) {
        self.mapping.route = route;
        self._guard = Some(self.fabric.links().start_stream(&self.mapping.route));
        self.next_offset = None;
        self.priced = None;
    }

    /// After a hard transaction failure, try to switch to the other route
    /// between importer and owner (the degraded bypass, or back to the
    /// primary when already degraded). Returns `true` if a healthy
    /// candidate was found and adopted.
    fn try_failover(&mut self) -> bool {
        if self.mapping.is_local() {
            return false;
        }
        let topo = self.fabric.topology();
        let src = self.mapping.importer;
        let dst = self.mapping.segment.owner();
        let candidate = if self.mapping.route.degraded {
            Some(topo.route(src, dst))
        } else {
            topo.alternate_route(src, dst)
        };
        let Some(candidate) = candidate else {
            return false;
        };
        if self.fabric.faults().check_route(&candidate).is_err() {
            return false;
        }
        self.switch_route(candidate);
        obs::inc(obs::Counter::RouteFailovers);
        true
    }

    /// Pass a burst through the injector on the current route; on a hard
    /// failure charge the wasted retry time, attempt a route failover and
    /// retry the burst once on the new route.
    fn transact_with_failover(
        &mut self,
        clock: &mut Clock,
        txns: u64,
    ) -> Result<TxnOutcome, SciError> {
        match self
            .fabric
            .faults()
            .transact_bulk(&self.mapping.route, txns)
        {
            Ok(o) => Ok(o),
            Err(f) => {
                clock.advance(f.wasted);
                if !self.try_failover() {
                    return Err(f.error);
                }
                match self
                    .fabric
                    .faults()
                    .transact_bulk(&self.mapping.route, txns)
                {
                    Ok(o) => Ok(o),
                    Err(f2) => {
                        clock.advance(f2.wasted);
                        Err(f2.error)
                    }
                }
            }
        }
    }

    /// While degraded, switch back to the primary route as soon as it is
    /// healthy again.
    fn maybe_heal(&mut self) {
        if !self.mapping.route.degraded {
            return;
        }
        let primary = self
            .fabric
            .topology()
            .route(self.mapping.importer, self.mapping.segment.owner());
        if self.fabric.faults().check_route(&primary).is_ok() {
            self.switch_route(primary);
            obs::inc(obs::Counter::RouteHeals);
        }
    }

    /// Land `data` in the target segment, applying any silent faults the
    /// injector rolls for this burst (`txn_bytes` is the transaction
    /// granularity of the burst — 8 for write-combine-thrashed stores,
    /// the stream-buffer size otherwise).
    fn land(&mut self, offset: usize, data: &[u8], txn_bytes: usize) -> Result<(), SciError> {
        let pair = (self.mapping.importer.0, self.mapping.segment.owner().0);
        let faults = self
            .fabric
            .faults()
            .silent_faults(pair, txn_bytes, data.len(), true);
        if !faults.is_empty() {
            self.silent_faults += faults.len() as u64;
            self.seq_tainted = true;
        }
        write_with_faults(self.mapping.segment.mem(), offset, data, 0, &faults)?;
        self.bytes += data.len() as u64;
        Ok(())
    }

    /// SISCI-style `SCIStartSequence`: open a checked transfer interval.
    /// Costs one adapter CSR round trip ([`sequence_check_cost`]) and
    /// clears the taint state of the previous interval.
    ///
    /// [`sequence_check_cost`]: crate::params::SciParams::sequence_check_cost
    pub fn start_sequence(&mut self, clock: &mut Clock) {
        clock.advance(self.fabric.params().sequence_check_cost);
        self.seq_tainted = false;
    }

    /// SISCI-style `SCICheckSequence`: close the interval opened by
    /// [`Self::start_sequence`] and report whether any transaction in it
    /// was silently corrupted or dropped. Costs one adapter CSR round
    /// trip. Detection only — repairing a tainted interval (retransmit)
    /// is the caller's job, exactly as in SISCI.
    pub fn check_sequence(&mut self, clock: &mut Clock) -> SeqStatus {
        clock.advance(self.fabric.params().sequence_check_cost);
        let status = if self.seq_tainted {
            SeqStatus::Tainted
        } else {
            SeqStatus::Ok
        };
        self.seq_tainted = false;
        status
    }

    /// Silent faults applied through this stream since the last call.
    /// Simulation bookkeeping (free, invisible to the modelled program):
    /// the protocol layer uses it to count corruption that sailed through
    /// unchecked when integrity checking is off.
    pub fn take_silent_faults(&mut self) -> u64 {
        std::mem::take(&mut self.silent_faults)
    }

    /// Issue stores of `data` to `offset`. Advances `clock` by the CPU
    /// issue cost; the data is in flight until a [`Self::barrier`].
    ///
    /// Consecutive ascending writes (where `offset` equals the end of the
    /// previous write) merge into the ongoing burst and pay no new
    /// transaction overhead.
    pub fn write(&mut self, clock: &mut Clock, offset: usize, data: &[u8]) -> Result<(), SciError> {
        if data.is_empty() {
            return Ok(());
        }
        if self.mapping.is_local() {
            let params = self.fabric.params();
            // Intra-node: a plain memcpy through the cache hierarchy —
            // never subject to fabric faults.
            self.mapping.segment.mem().write(offset, data)?;
            self.bytes += data.len() as u64;
            let cost = params
                .cache
                .copy_cost(data.len(), self.source_working_set.max(data.len()));
            clock.advance(cost);
            self.outstanding = self.outstanding.max(clock.now());
            return Ok(());
        }

        // Fabric path. Validate the target range up front so out-of-bounds
        // accesses surface before any time is charged or fault dice roll.
        self.mapping.segment.mem().check_range(offset, data.len())?;
        // A degraded stream returns to its primary route the moment that
        // route is healthy again.
        self.maybe_heal();
        let params = self.fabric.params();
        let continues = self.next_offset == Some(offset);
        let misaligned_thrash = !continues
            && !offset.is_multiple_of(params.write_combine_bytes)
            && params.wc_misalign_factor > 1.0;
        if misaligned_thrash {
            // The write-combine buffers never fill in phase: every 8-byte
            // store flushes partially and becomes its own (padded) SCI
            // transaction. This is the §4.3 misaligned-stride cliff.
            let stores = data.len().div_ceil(8) as u64;
            let mut cost =
                params.txn_overhead + params.uncombined_store_cost.saturating_mul(stores);
            if self.mapping.route.degraded {
                cost += params.degraded_route_latency;
            }
            let outcome = self.transact_with_failover(clock, stores)?;
            self.land(offset, data, 8)?;
            clock.advance(cost + outcome.extra_latency);
            self.posted(clock, offset, data.len(), 1, outcome.jitter);
            return Ok(());
        }
        let mut cost = self.burst_cost(continues, data.len());

        // Fault injection: retries add latency and delivery jitter, one
        // die roll per SCI transaction.
        let stream_buffer_bytes = self.fabric.params().stream_buffer_bytes;
        let txns = data.len().div_ceil(stream_buffer_bytes) as u64;
        let outcome = self.transact_with_failover(clock, txns)?;
        self.land(offset, data, stream_buffer_bytes)?;
        cost += outcome.extra_latency;

        clock.advance(cost);
        self.posted(clock, offset, data.len(), 1, outcome.jitter);
        Ok(())
    }

    /// Issue cost of one burst of `len` bytes off the misaligned-thrash
    /// path: the route and (re)start penalties plus the memoised streaming
    /// term. This is the one place a burst is priced — [`Self::write`]
    /// charges it burst by burst, [`Self::write_run`] once for a stretch
    /// of equal continuing bursts.
    fn burst_cost(&mut self, continues: bool, len: usize) -> SimDuration {
        let params = self.fabric.params();
        let mut cost = SimDuration::ZERO;
        if self.mapping.route.degraded {
            cost += params.degraded_route_latency;
        }
        if !continues {
            cost += params.txn_overhead;
        } else {
            // Burst-continuing store from a scattered source: the copy
            // loop restarts, and small blocks cannot keep the stream
            // buffer's gather window open (§3.4's 8-byte-granularity
            // penalty).
            cost += params.block_issue_overhead;
            if len < params.min_txn_bytes {
                cost += params.sub_txn_flush;
            } else if len < params.stream_buffer_bytes {
                let missing = (params.stream_buffer_bytes - len) as u64;
                cost += params.partial_flush_per_byte.saturating_mul(missing);
            }
        }
        let mut demand = params.pio_stream_bw(self.source_working_set.max(len));
        if let Some(cap) = self.demand_cap {
            demand = demand.min(cap);
        }
        let links = self.fabric.links();
        let generation = links.generation();
        let mut priced = match self.priced {
            Some(p) if p.generation == generation && p.demand == demand => p,
            _ => Priced {
                generation,
                demand,
                bw: links.effective_bandwidth(params, &self.mapping.route, demand),
                len: 0,
                cost: SimDuration::ZERO,
            },
        };
        if priced.len != len {
            priced.len = len;
            priced.cost = priced.bw.cost(len as u64);
        }
        self.priced = Some(priced);
        cost + priced.cost
    }

    /// Book `bursts` back-to-back bursts of `len` bytes from `offset` on,
    /// the last of them issued and landed just now: its arrival time on
    /// the (possibly just switched) route, the offset a continuing store
    /// would start at, and the traffic of each.
    fn posted(
        &mut self,
        clock: &Clock,
        offset: usize,
        len: usize,
        bursts: usize,
        jitter: SimDuration,
    ) {
        let params = self.fabric.params();
        let arrival = clock.now() + params.wire_latency(self.mapping.route.hops()) + jitter;
        self.outstanding = self.outstanding.max(arrival);
        self.next_offset = Some(offset + len * bursts);
        self.fabric
            .links()
            .account_bursts(params, &self.mapping.route, len as u64, bursts as u64);
    }

    /// Issue stores of `data` to `offset` through the **write-combining
    /// store batcher**: adjacent (or overlapping) stores are staged in a
    /// host-side combine window and flushed as whole
    /// [`wc_batch_bytes`]-aligned chunks, so many small scattered leaf
    /// stores collapse into few full SCI transactions instead of each
    /// paying its own issue/flush penalty. A staged store costs only
    /// [`wc_store_cost`]; the flushed chunks pay the regular [`Self::write`]
    /// burst model (and roll its fault dice), so byte placement, bounds
    /// errors and silent-fault behaviour per landed chunk are identical to
    /// unbatched writes.
    ///
    /// Callers **must** [`Self::flush_wc`] (directly or via the sink's
    /// `finish`) before a barrier or before reading the target back.
    ///
    /// [`wc_batch_bytes`]: crate::params::SciParams::wc_batch_bytes
    /// [`wc_store_cost`]: crate::params::SciParams::wc_store_cost
    pub fn write_batched(
        &mut self,
        clock: &mut Clock,
        offset: usize,
        data: &[u8],
    ) -> Result<(), SciError> {
        if data.is_empty() {
            return Ok(());
        }
        // Validate eagerly so out-of-bounds stores surface at the store,
        // not at some later flush — same contract as unbatched writes.
        self.mapping.segment.mem().check_range(offset, data.len())?;
        let params = self.fabric.params();
        let batch = params.wc_batch_bytes.max(1);
        let store_cost = params.wc_store_cost;
        if self.wc_len > 0 {
            if offset >= self.wc_start && offset <= self.wc_start + self.wc_len {
                // Adjacent or overlapping: merge into the combine window.
                obs::inc(obs::Counter::WcCoalescedStores);
                clock.advance(store_cost);
                return self.stage(clock, batch, offset, data);
            }
            // Discontiguous: the window closes and the new store starts a
            // fresh batch.
            self.flush_wc(clock)?;
        }
        if data.len() >= batch {
            // Large stores gain nothing from staging — issue directly.
            return self.write(clock, offset, data);
        }
        clock.advance(store_cost);
        self.wc_start = offset;
        self.wc_boundary = (offset / batch + 1) * batch;
        self.stage(clock, batch, offset, data)
    }

    /// Copy `data` into the combine window at `offset` (inside the window
    /// or at its end), issuing the window as one burst each time it fills
    /// up to the next `batch`-aligned boundary and keeping the unaligned
    /// tail staged. If a burst fails, the window is left empty and the
    /// rest of `data` is not staged.
    fn stage(
        &mut self,
        clock: &mut Clock,
        batch: usize,
        mut offset: usize,
        mut data: &[u8],
    ) -> Result<(), SciError> {
        if self.wc_buf.len() != batch {
            self.wc_buf.resize(batch, 0);
        }
        while !data.is_empty() {
            let rel = offset - self.wc_start;
            let n = data.len().min(self.wc_boundary - offset);
            self.wc_buf[rel..rel + n].copy_from_slice(&data[..n]);
            self.wc_len = self.wc_len.max(rel + n);
            offset += n;
            data = &data[n..];
            if self.wc_start + self.wc_len == self.wc_boundary {
                self.flush_wc(clock)?;
                self.wc_start = self.wc_boundary;
                self.wc_boundary += batch;
            }
        }
        Ok(())
    }

    /// Flush the write-combining window: issue whatever is staged as one
    /// final (possibly partial) chunk. No-op when nothing is pending.
    pub fn flush_wc(&mut self, clock: &mut Clock) -> Result<(), SciError> {
        if self.wc_len == 0 {
            return Ok(());
        }
        let len = std::mem::take(&mut self.wc_len);
        // Lend the window to `write` and take it back: no copy, and the
        // window is already empty should the burst fail.
        let buf = std::mem::take(&mut self.wc_buf);
        let res = self.write(clock, self.wc_start, &buf[..len]);
        self.wc_buf = buf;
        res
    }

    /// Bytes currently staged in the write-combining window (diagnostics).
    pub fn wc_pending_bytes(&self) -> usize {
        self.wc_len
    }

    /// Issue `n` stores of `len` bytes landing back to back from `offset`
    /// on, store `i` carrying `store(i)`, through [`Self::write_batched`]
    /// if `batched` and [`Self::write`] otherwise; `gather(stores, dst)`
    /// must copy the stores `stores` back to back into `dst`.
    ///
    /// This *is* that loop — same clock, arrival, byte and traffic counts,
    /// write-combining window, `WcCoalescedStores` ticks, landed bytes and
    /// first error — but where no burst can differ from the next (a quiet
    /// fabric, the primary route, the range in bounds, stores that divide
    /// the batch) only the *head* is walked, until the stream continues
    /// and the window is empty on a batch boundary. The *interior* of `k`
    /// equal continuing bursts is priced as `k` times the one burst price
    /// [`Self::write`] charges, booked once and moved by one `gather` into
    /// segment memory; the *tail* is walked again. Everywhere else every
    /// store takes the calls above, which stay the only definition of what
    /// a store costs (`docs/PACK_ENGINE.md` §4).
    #[allow(clippy::too_many_arguments)]
    pub fn write_run<'a>(
        &mut self,
        clock: &mut Clock,
        offset: usize,
        len: usize,
        n: usize,
        batched: bool,
        store: impl Fn(usize) -> &'a [u8],
        gather: impl FnOnce(core::ops::Range<usize>, &mut [u8]),
    ) -> Result<(), SciError> {
        let one = |s: &mut Self, clock: &mut Clock, i: usize| {
            if batched {
                s.write_batched(clock, offset + i * len, store(i))
            } else {
                s.write(clock, offset + i * len, store(i))
            }
        };
        let batch = self.fabric.params().wc_batch_bytes.max(1);
        // Small stores stage in the window and leave it as whole batches;
        // the rest are one burst each.
        let staged = batched && len < batch;
        let uniform = n > 1
            && len > 0
            && (!staged || batch.is_multiple_of(len))
            && !self.mapping.is_local()
            && !self.mapping.route.degraded
            && self.fabric.faults().is_quiet()
            && n.checked_mul(len).is_some_and(|bytes| {
                let mem = self.mapping.segment.mem();
                mem.check_range(offset, bytes).is_ok()
            });
        if !uniform {
            return (0..n).try_for_each(|i| one(self, clock, i));
        }
        // Head: until the next store opens a continuing burst of its own
        // (and, if it stages, a fresh window on a batch boundary).
        let interior_starts = |s: &Self, at: usize| {
            s.next_offset == Some(at)
                && (!batched || s.wc_len == 0)
                && (!staged || at.is_multiple_of(batch))
        };
        let mut i = 0;
        while i < n && !interior_starts(self, offset + i * len) {
            one(self, clock, i)?;
            i += 1;
        }
        let per_burst = if staged { batch / len } else { 1 };
        let bursts = (n - i) / per_burst;
        if bursts > 0 {
            let (at, stores) = (offset + i * len, bursts * per_burst);
            let mut cost = self
                .burst_cost(true, per_burst * len)
                .saturating_mul(bursts as u64);
            if staged {
                // Every store pays the staging cost; all but the one that
                // opens its batch's window merge into it.
                let store_cost = self.fabric.params().wc_store_cost;
                cost += store_cost.saturating_mul(stores as u64);
                obs::add(obs::Counter::WcCoalescedStores, (stores - bursts) as u64);
            }
            let mem = self.mapping.segment.mem();
            mem.with_bytes_mut(at, stores * len, |dst| gather(i..i + stores, dst))?;
            self.bytes += (stores * len) as u64;
            clock.advance(cost);
            // Arrivals only grow along the run: the last burst's is the
            // one `outstanding` keeps.
            self.posted(clock, at, per_burst * len, bursts, SimDuration::ZERO);
            i += stores;
        }
        // Tail: the stores short of a whole batch.
        (i..n).try_for_each(|i| one(self, clock, i))
    }

    /// Convenience: a strided series of equal-sized writes starting at
    /// `base`, `count` blocks of `block` bytes spaced `stride` bytes apart,
    /// sourced from `data` (contiguous). Used by the §4.3 strided-write
    /// study.
    pub fn write_strided(
        &mut self,
        clock: &mut Clock,
        base: usize,
        block: usize,
        stride: usize,
        count: usize,
        data: &[u8],
    ) -> Result<(), SciError> {
        assert!(data.len() >= block * count, "source too small");
        for i in 0..count {
            let src = &data[i * block..(i + 1) * block];
            self.write(clock, base + i * stride, src)?;
        }
        Ok(())
    }

    /// Store barrier: wait until every issued transaction has arrived.
    /// Advances the clock past the latest outstanding arrival plus the
    /// barrier cost, and resets burst state.
    pub fn barrier(&mut self, clock: &mut Clock) -> SimTime {
        // Defensive: batched callers flush (and handle errors) before the
        // barrier; a batch still staged here would otherwise lose bytes.
        // Errors were already surfaced at stage time by the eager bounds
        // check, so a best-effort flush is safe.
        let _ = self.flush_wc(clock);
        clock.merge(self.outstanding);
        clock.advance(self.fabric.params().store_barrier);
        self.next_offset = None;
        clock.now()
    }

    /// The latest in-flight arrival time (for tests and the runtime's
    /// completion bookkeeping).
    pub fn outstanding(&self) -> SimTime {
        self.outstanding
    }
}

/// Remote loads through a mapping. Each read transaction stalls the CPU for
/// the full round trip.
#[derive(Debug)]
pub struct PioReader {
    fabric: Arc<Fabric>,
    mapping: Mapping,
}

impl PioReader {
    pub(crate) fn new(fabric: Arc<Fabric>, mapping: Mapping) -> Self {
        PioReader { fabric, mapping }
    }

    /// True if the mapping is intra-node.
    pub fn is_local(&self) -> bool {
        self.mapping.is_local()
    }

    /// Read `dst.len()` bytes from `offset`. The clock advances by the full
    /// stall time (reads are synchronous) — no barrier needed afterwards.
    pub fn read(&self, clock: &mut Clock, offset: usize, dst: &mut [u8]) -> Result<(), SciError> {
        self.read_counted(clock, offset, dst).map(|_| ())
    }

    /// Like [`Self::read`], but reports how many read transactions were
    /// silently corrupted (simulation bookkeeping for the integrity layer;
    /// the modelled program cannot see this without a checksum).
    pub fn read_counted(
        &self,
        clock: &mut Clock,
        offset: usize,
        dst: &mut [u8],
    ) -> Result<u64, SciError> {
        if dst.is_empty() {
            return Ok(0);
        }
        let params = self.fabric.params();
        self.mapping.segment.mem().read(offset, dst)?;

        if self.mapping.is_local() {
            clock.advance(params.cache.copy_cost(dst.len(), dst.len()));
            return Ok(0);
        }
        let txns = dst.len().div_ceil(params.read_txn_bytes) as u64;
        let mut cost = params.read_stall.saturating_mul(txns);
        // Reads stall synchronously: a hard failure still cost the CPU the
        // time of the failed attempts. No failover here — the one-sided
        // layer reacts to reader errors by falling back to emulation.
        let outcome = match self
            .fabric
            .faults()
            .transact_bulk(&self.mapping.route, txns)
        {
            Ok(o) => o,
            Err(f) => {
                clock.advance(f.wasted);
                return Err(f.error);
            }
        };
        cost += outcome.extra_latency;
        clock.advance(cost);
        // Silent read faults: the data flows owner → importer. Only bit
        // flips apply (a lost read transaction retries inside the adapter
        // and shows up as latency, never silently).
        let pair = (self.mapping.segment.owner().0, self.mapping.importer.0);
        let faults =
            self.fabric
                .faults()
                .silent_faults(pair, params.read_txn_bytes, dst.len(), false);
        for f in &faults {
            if let crate::fault::SilentFault::BitFlip { pos, mask } = *f {
                dst[pos] ^= mask;
            }
        }
        self.fabric
            .links()
            .account(params, &self.mapping.route, dst.len() as u64);
        Ok(faults.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeId, Topology};
    use crate::{Fabric, FabricSpec};
    use simclock::Bandwidth;

    fn fabric() -> Arc<Fabric> {
        Fabric::new(FabricSpec {
            topology: Topology::ringlet(8),
            ..FabricSpec::default()
        })
    }

    #[test]
    fn write_moves_bytes_and_costs_time() {
        let f = fabric();
        let seg = f.export(NodeId(1), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut clock = Clock::new();
        s.write(&mut clock, 0, &[7u8; 1024]).unwrap();
        assert!(clock.now() > SimTime::ZERO);
        let mut out = [0u8; 1024];
        seg.mem().read(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 7));
        assert_eq!(s.bytes_written(), 1024);
    }

    #[test]
    fn consecutive_writes_merge_into_one_burst() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 20);
        // Two streams, same total bytes: one as a contiguous run of
        // consecutive 64 B stores, the other strided (each write its own
        // burst).
        let mut contig = f.pio_stream(NodeId(0), &seg, 8192);
        let mut strided = f.pio_stream(NodeId(0), &seg, 8192);
        let mut c1 = Clock::new();
        let mut c2 = Clock::new();
        let chunk = [0u8; 64];
        for i in 0..128 {
            contig.write(&mut c1, i * 64, &chunk).unwrap();
        }
        for i in 0..128 {
            strided.write(&mut c2, i * 256, &chunk).unwrap();
        }
        // Strided pays the full new-burst transaction overhead per write;
        // consecutive writes pay only the (smaller) loop-restart cost.
        assert!(
            c2.now().as_ps() * 10 > c1.now().as_ps() * 14,
            "strided {:?} should be clearly slower than consecutive {:?}",
            c2.now(),
            c1.now()
        );
        // And one single big write beats both by avoiding per-block costs.
        let mut single = f.pio_stream(NodeId(0), &seg, 8192);
        let mut c3 = Clock::new();
        single.write(&mut c3, 0, &[0u8; 8192]).unwrap();
        assert!(c3.now().as_ps() * 2 < c1.now().as_ps() * 3);
    }

    #[test]
    fn batched_stores_place_bytes_identically_and_cost_less() {
        let f = fabric();
        let seg_a = f.export(NodeId(1), 1 << 16);
        let seg_b = f.export(NodeId(1), 1 << 16);
        // 256 adjacent 16-byte stores (the shape `pack_ff` emits for a
        // strided vector packed to ascending offsets).
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let mut plain = f.pio_stream(NodeId(0), &seg_a, 4096);
        let mut batched = f.pio_stream(NodeId(0), &seg_b, 4096);
        let mut c1 = Clock::new();
        let mut c2 = Clock::new();
        for i in 0..256 {
            plain
                .write(&mut c1, i * 16, &data[i * 16..(i + 1) * 16])
                .unwrap();
        }
        for i in 0..256 {
            batched
                .write_batched(&mut c2, i * 16, &data[i * 16..(i + 1) * 16])
                .unwrap();
        }
        batched.flush_wc(&mut c2).unwrap();
        assert_eq!(batched.wc_pending_bytes(), 0);
        // Identical placement...
        assert_eq!(
            &seg_a.mem().snapshot()[..4096],
            &seg_b.mem().snapshot()[..4096]
        );
        assert_eq!(batched.bytes_written(), 4096);
        // ...at a clearly lower issue cost: the per-store sub-transaction
        // flush penalties collapse into whole-transaction chunks.
        assert!(
            c2.now().as_ps() * 3 < c1.now().as_ps() * 2,
            "batched {:?} vs plain {:?}",
            c2.now(),
            c1.now()
        );
    }

    #[test]
    fn batched_discontiguous_stores_flush_and_land_correctly() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 16);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        // Two adjacent stores, a gap, then two more — the gap must close
        // the first window without mixing bytes.
        s.write_batched(&mut c, 0, &[0x11; 24]).unwrap();
        s.write_batched(&mut c, 24, &[0x22; 24]).unwrap();
        s.write_batched(&mut c, 512, &[0x33; 8]).unwrap();
        s.write_batched(&mut c, 520, &[0x44; 8]).unwrap();
        // Overlapping rewrite inside the staged window.
        s.write_batched(&mut c, 524, &[0x55; 4]).unwrap();
        s.flush_wc(&mut c).unwrap();
        let snap = seg.mem().snapshot();
        assert!(snap[..24].iter().all(|&b| b == 0x11));
        assert!(snap[24..48].iter().all(|&b| b == 0x22));
        assert!(snap[512..520].iter().all(|&b| b == 0x33));
        assert!(snap[520..524].iter().all(|&b| b == 0x44));
        assert!(snap[524..528].iter().all(|&b| b == 0x55));
        assert!(snap[48..512].iter().all(|&b| b == 0));
    }

    #[test]
    fn batched_out_of_bounds_errors_at_the_store() {
        let f = fabric();
        let seg = f.export(NodeId(1), 64);
        let mut s = f.pio_stream(NodeId(0), &seg, 64);
        let mut c = Clock::new();
        s.write_batched(&mut c, 48, &[1u8; 16]).unwrap();
        assert!(matches!(
            s.write_batched(&mut c, 64, &[1u8; 16]),
            Err(SciError::OutOfBounds(_))
        ));
        // The in-bounds part still flushes cleanly.
        s.flush_wc(&mut c).unwrap();
        assert!(seg.mem().snapshot()[48..].iter().all(|&b| b == 1));
    }

    #[test]
    fn barrier_flushes_a_forgotten_batch() {
        let f = fabric();
        let seg = f.export(NodeId(1), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.write_batched(&mut c, 0, &[9u8; 24]).unwrap();
        assert!(s.wc_pending_bytes() > 0);
        s.barrier(&mut c);
        assert_eq!(s.wc_pending_bytes(), 0);
        assert!(seg.mem().snapshot()[..24].iter().all(|&b| b == 9));
    }

    #[test]
    fn batched_large_stores_pass_straight_through() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 16);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.write_batched(&mut c, 0, &[7u8; 4096]).unwrap();
        assert_eq!(s.wc_pending_bytes(), 0, "large store must not stage");
        assert!(seg.mem().snapshot()[..4096].iter().all(|&b| b == 7));
    }

    #[test]
    fn batched_window_crosses_boundaries_of_any_batch_size() {
        // A 24-byte window (not the default, not a power of two): an
        // overlapping rewrite grows the window across a boundary, and a
        // long adjacent store is cut at every boundary it crosses.
        let spec = || FabricSpec {
            topology: Topology::ringlet(2),
            params: crate::SciParams {
                wc_batch_bytes: 24,
                ..crate::SciParams::default()
            },
            ..FabricSpec::default()
        };
        let f = Fabric::new(spec());
        let seg = f.export(NodeId(1), 256);
        let mut s = f.pio_stream(NodeId(0), &seg, 256);
        let mut c = Clock::new();
        s.write_batched(&mut c, 10, &[1; 8]).unwrap();
        assert_eq!(s.wc_pending_bytes(), 8);
        s.write_batched(&mut c, 14, &[2; 20]).unwrap();
        assert_eq!(s.wc_pending_bytes(), 10, "[10, 24) left, [24, 34) staged");
        s.write_batched(&mut c, 34, &[3; 40]).unwrap();
        assert_eq!(s.wc_pending_bytes(), 2, "[24, 48) and [48, 72) left");
        s.flush_wc(&mut c).unwrap();
        assert_eq!(s.wc_pending_bytes(), 0);

        // The same bursts, spelled out on an unbatched stream.
        let g = Fabric::new(spec());
        let seg2 = g.export(NodeId(1), 256);
        let mut plain = g.pio_stream(NodeId(0), &seg2, 256);
        let mut c2 = Clock::new();
        c2.advance(g.params().wc_store_cost.saturating_mul(3));
        let mut image = [0u8; 74];
        image[10..14].fill(1);
        image[14..34].fill(2);
        image[34..74].fill(3);
        for (at, end) in [(10, 24), (24, 48), (48, 72), (72, 74)] {
            plain.write(&mut c2, at, &image[at..end]).unwrap();
        }
        assert_eq!(c.now(), c2.now());
        assert_eq!(s.outstanding(), plain.outstanding());
        assert_eq!(s.bytes_written(), 64);
        assert_eq!(seg.mem().snapshot(), seg2.mem().snapshot());
        assert_eq!(&seg.mem().snapshot()[..74], &image[..]);
    }

    #[test]
    fn failed_drain_leaves_the_window_empty() {
        // The eager range check keeps bounds errors out of a drain; a
        // severed route (no failover on a ringlet) is what can fail one.
        let f = fabric();
        let seg = f.export(NodeId(1), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.write_batched(&mut c, 0, &[1; 40]).unwrap();
        f.faults().fail_link(crate::LinkId(0));
        assert!(matches!(
            s.write_batched(&mut c, 40, &[2; 40]),
            Err(SciError::LinkDown(_))
        ));
        assert_eq!(s.wc_pending_bytes(), 0);
        f.faults().restore_link(crate::LinkId(0));
        s.flush_wc(&mut c).unwrap();
        assert_eq!(s.bytes_written(), 0, "nothing was left to flush");
        assert!(seg.mem().snapshot().iter().all(|&b| b == 0));
        // The stream is usable again.
        s.write_batched(&mut c, 64, &[3; 64]).unwrap();
        assert!(seg.mem().snapshot()[64..128].iter().all(|&b| b == 3));
    }

    #[test]
    fn burst_price_follows_contention_and_demand() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 20);
        let data = [0u8; 4096];
        // Each store opens a new aligned burst, so its cost is the
        // transaction overhead plus the streaming term alone.
        let cost = |s: &mut PioStream, at: usize| {
            let mut c = Clock::new();
            s.write(&mut c, at, &data).unwrap();
            c.now()
        };
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let alone = cost(&mut s, 0);
        assert_eq!(cost(&mut s, 8192), alone);
        let rivals: Vec<_> = (0..5).map(|_| f.pio_stream(NodeId(0), &seg, 0)).collect();
        let shared = cost(&mut s, 16384);
        assert!(shared > alone, "six streams on the segment share it");
        drop(rivals);
        assert_eq!(cost(&mut s, 24576), alone, "and it is whole again");
        // A demand cap set mid-stream prices like one set at the start.
        let cap = simclock::Bandwidth::from_mib_per_sec(40);
        s.cap_demand(cap);
        let capped = cost(&mut s, 32768);
        assert!(capped > alone);
        let mut fresh = f.pio_stream(NodeId(0), &seg, 4096);
        fresh.cap_demand(cap);
        assert_eq!(cost(&mut fresh, 40960), capped);
    }

    #[test]
    fn misaligned_bursts_pay_wc_penalty() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 20);
        let chunk = [0u8; 8];
        // Aligned strided writes (stride 32).
        let mut aligned = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c1 = Clock::new();
        for i in 0..256 {
            aligned.write(&mut c1, i * 32, &chunk).unwrap();
        }
        // Misaligned strided writes (stride 40 — not a multiple of 32).
        let mut misaligned = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c2 = Clock::new();
        for i in 0..256 {
            misaligned.write(&mut c2, i * 40, &chunk).unwrap();
        }
        let ratio = c2.now().as_ps() as f64 / c1.now().as_ps() as f64;
        assert!(ratio > 2.0, "misalignment penalty ratio was {ratio}");
    }

    #[test]
    fn barrier_waits_for_arrival() {
        let f = fabric();
        let seg = f.export(NodeId(4), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut clock = Clock::new();
        s.write(&mut clock, 0, &[1u8; 64]).unwrap();
        let before = clock.now();
        let outstanding = s.outstanding();
        assert!(outstanding > before, "writes are posted, arrival is later");
        s.barrier(&mut clock);
        assert!(clock.now() >= outstanding);
    }

    #[test]
    fn local_mapping_costs_memcpy_not_fabric() {
        let f = fabric();
        let seg = f.export(NodeId(2), 1 << 20);
        let mut local = f.pio_stream(NodeId(2), &seg, 1 << 20);
        let mut remote = f.pio_stream(NodeId(0), &seg, 1 << 20);
        assert!(local.is_local());
        assert!(!remote.is_local());
        let data = vec![3u8; 256 * 1024];
        let mut cl = Clock::new();
        let mut cr = Clock::new();
        local.write(&mut cl, 0, &data).unwrap();
        remote.write(&mut cr, 0, &data).unwrap();
        // Local memcpy (~290 MiB/s) beats remote PIO (~160 at this size).
        assert!(cl.now() < cr.now());
    }

    #[test]
    fn reads_are_much_slower_than_writes() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 20);
        let len = 64 * 1024;
        let mut s = f.pio_stream(NodeId(0), &seg, len);
        let mut wc = Clock::new();
        s.write(&mut wc, 0, &vec![1u8; len]).unwrap();
        s.barrier(&mut wc);

        let r = f.pio_reader(NodeId(0), &seg);
        let mut rc = Clock::new();
        let mut buf = vec![0u8; len];
        r.read(&mut rc, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        let ratio = rc.now().as_ps() as f64 / wc.now().as_ps() as f64;
        assert!(ratio > 5.0, "read/write cost ratio only {ratio}");
    }

    #[test]
    fn write_bandwidth_dips_for_large_working_sets() {
        let f = fabric();
        let seg = f.export(NodeId(1), 4 << 20);
        let small = 64 * 1024; // fits L2
        let large = 1 << 20; // exceeds L2
        let bw = |ws: usize| {
            let mut s = f.pio_stream(NodeId(0), &seg, ws);
            let mut c = Clock::new();
            s.write(&mut c, 0, &vec![0u8; ws]).unwrap();
            s.barrier(&mut c);
            Bandwidth::observed(ws as u64, c.now() - SimTime::ZERO).mib_per_sec()
        };
        assert!(bw(small) > bw(large), "no Figure-1 dip past L2");
    }

    #[test]
    fn strided_helper_equivalent_to_loop() {
        let f = fabric();
        let seg = f.export(NodeId(1), 1 << 16);
        let data: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        let mut s = f.pio_stream(NodeId(0), &seg, 1024);
        let mut c = Clock::new();
        s.write_strided(&mut c, 0, 64, 128, 16, &data).unwrap();
        // Verify placement of block 3.
        let mut out = [0u8; 64];
        seg.mem().read(3 * 128, &mut out).unwrap();
        assert_eq!(&out[..], &data[3 * 64..4 * 64]);
    }

    #[test]
    fn out_of_bounds_write_is_error_not_panic() {
        let f = fabric();
        let seg = f.export(NodeId(1), 128);
        let mut s = f.pio_stream(NodeId(0), &seg, 128);
        let mut c = Clock::new();
        assert!(matches!(
            s.write(&mut c, 100, &[0u8; 64]),
            Err(SciError::OutOfBounds(_))
        ));
    }

    #[test]
    fn empty_write_and_read_are_free() {
        let f = fabric();
        let seg = f.export(NodeId(1), 128);
        let mut s = f.pio_stream(NodeId(0), &seg, 0);
        let r = f.pio_reader(NodeId(0), &seg);
        let mut c = Clock::new();
        s.write(&mut c, 0, &[]).unwrap();
        r.read(&mut c, 0, &mut []).unwrap();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    fn silent_fabric(corrupt: f64, drop: f64) -> Arc<Fabric> {
        Fabric::new(FabricSpec {
            topology: Topology::ringlet(8),
            faults: crate::fault::FaultConfig::silent(corrupt, drop),
            ..FabricSpec::default()
        })
    }

    #[test]
    fn silent_corruption_lands_wrong_bytes() {
        let f = silent_fabric(1.0, 0.0);
        let seg = f.export(NodeId(1), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.write(&mut c, 0, &[0u8; 1024]).unwrap();
        s.barrier(&mut c);
        let snap = &seg.mem().snapshot()[..1024];
        let flipped = snap.iter().filter(|&&b| b != 0).count();
        // Rate 1.0 ⇒ one flip in every 64 B transaction.
        assert_eq!(flipped, 16, "one flipped byte per transaction");
        assert_eq!(s.take_silent_faults(), 16);
        assert_eq!(s.take_silent_faults(), 0, "taken counters reset");
    }

    #[test]
    fn dropped_stores_leave_previous_content() {
        let f = silent_fabric(0.0, 1.0);
        let seg = f.export(NodeId(1), 4096);
        seg.mem().fill(0, 4096, 0xEE).unwrap();
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.write(&mut c, 0, &[0x11; 1024]).unwrap();
        s.barrier(&mut c);
        let snap = &seg.mem().snapshot()[..1024];
        assert!(
            snap.iter().all(|&b| b == 0xEE),
            "every store dropped ⇒ nothing lands"
        );
    }

    #[test]
    fn sequence_check_detects_taint_and_charges_cost() {
        let f = silent_fabric(1.0, 0.0);
        let seg = f.export(NodeId(1), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.start_sequence(&mut c);
        let t0 = c.now();
        s.write(&mut c, 0, &[0u8; 256]).unwrap();
        s.barrier(&mut c);
        let before_check = c.now();
        assert_eq!(s.check_sequence(&mut c), SeqStatus::Tainted);
        assert_eq!(
            c.now() - before_check,
            f.params().sequence_check_cost,
            "check charges the CSR round trip"
        );
        assert!(t0 > SimTime::ZERO, "start charges too");
        // The next interval starts clean.
        assert_eq!(
            f.pio_stream(NodeId(0), &seg, 0).check_sequence(&mut c),
            SeqStatus::Ok
        );
    }

    #[test]
    fn sequence_check_clean_on_healthy_fabric() {
        let f = fabric();
        let seg = f.export(NodeId(1), 4096);
        let mut s = f.pio_stream(NodeId(0), &seg, 4096);
        let mut c = Clock::new();
        s.start_sequence(&mut c);
        s.write(&mut c, 0, &[7u8; 1024]).unwrap();
        s.barrier(&mut c);
        assert_eq!(s.check_sequence(&mut c), SeqStatus::Ok);
    }

    #[test]
    fn reader_applies_silent_flips() {
        let f = silent_fabric(1.0, 0.0);
        let seg = f.export(NodeId(1), 4096);
        seg.mem().fill(0, 4096, 0x00).unwrap();
        let r = f.pio_reader(NodeId(0), &seg);
        let mut c = Clock::new();
        let mut buf = [0u8; 512];
        let n = r.read_counted(&mut c, 0, &mut buf).unwrap();
        assert_eq!(n, 8, "one flip per 64 B read transaction");
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 8);
        // The segment itself is untouched — reads corrupt in flight.
        assert!(seg.mem().snapshot().iter().all(|&b| b == 0));
    }

    #[test]
    fn local_streams_are_immune_to_silent_faults() {
        let f = silent_fabric(1.0, 1.0);
        let seg = f.export(NodeId(2), 4096);
        let mut s = f.pio_stream(NodeId(2), &seg, 4096);
        let mut c = Clock::new();
        s.write(&mut c, 0, &[0x42; 1024]).unwrap();
        assert!(seg.mem().snapshot()[..1024].iter().all(|&b| b == 0x42));
        assert_eq!(s.take_silent_faults(), 0);
    }
}
