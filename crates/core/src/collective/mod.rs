//! The algorithm-selectable collective engine.
//!
//! SCI-MPICH inherits MPICH's collectives, which are implemented on top
//! of point-to-point messages. The reproduction grew the same way — one
//! linear/binomial schedule per operation — and this module generalises
//! that into an *engine*: every collective is a rank-symmetric
//! communication plan (`plan`) walked by an executor (`algos`) over
//! the runtime's primitives — symmetric sendrecv exchanges, nonblocking
//! requests, and one-sided PSCW windows.
//!
//! ## Algorithm selection
//!
//! [`crate::CollectiveAlgo`] in [`crate::Tuning`] picks the schedule:
//! `Auto` (the default) selects per call from the message size, the rank
//! count, and the fabric topology (a single SCI ringlet makes the
//! neighbour-ring schedules attractive — every hop is one B-Link
//! traversal); any other value forces one algorithm family for every
//! collective. Families that make no sense for an operation alias to the
//! nearest sensible schedule (e.g. a forced `Bruck` broadcast runs the
//! binomial tree) — the `coll.algo.*` counters always record the
//! schedule that actually executed. Selection inputs are symmetric by
//! construction: buffer length for the symmetric-count collectives, a
//! control-plane agreement (one `Rank::collective_gather`) for ragged
//! `allgather` under `Auto`, and the `MPI_Alltoall` uniform-block
//! contract for `alltoall` (identical block sizes everywhere, so a
//! purely local predicate already agrees) — every member derives the
//! same plan.
//!
//! ## What rides along for free
//!
//! Because every byte a collective moves rides [`Rank::send`] /
//! [`Rank::recv`] / [`crate::Window::put`], the data-integrity machinery
//! ([`crate::IntegrityMode`], see `docs/INTEGRITY.md`) covers collectives
//! with no code of their own, and eager-credit flow control (see
//! `docs/BACKPRESSURE.md`) meters each edge like any send. Collectives
//! run as *reliable sections* — a lossy [`crate::OverloadPolicy`]
//! applied to an internal edge would wedge peers already committed to
//! the collective, so inside one, credit exhaustion always falls back to
//! `Stall`.
//!
//! Every collective returns `Result<_, ScimpiError>`: a dead partner
//! surfaces as [`ScimpiError::PeerDead`] at the first failed edge
//! instead of hanging; out-of-range arguments surface as
//! [`ScimpiError::InvalidArg`] through the same
//! [`crate::ErrorMode`] path. Under the default `ErrorsAreFatal` the
//! error aborts the run before the `Err` is observed, so infallible call
//! sites can simply `.unwrap()` (or use [`crate::Done::done`]).
//!
//! The datatype-aware variants (`bcast_typed`, `allreduce_typed`,
//! `allgatherv_typed`) move non-contiguous layouts through the
//! pack-path selector on every tree edge instead of forcing the caller
//! to pack — see `docs/COLLECTIVES.md`.

pub(crate) mod algos;
mod dtype;
pub(crate) mod naive;
pub(crate) mod plan;

use crate::error::ScimpiError;
use crate::osc::{WinMemory, Window};
use crate::runtime::Rank;
use crate::tuning::CollectiveAlgo;
use mpi_datatype::typed;
use sci_fabric::Topology;
use simclock::SimTime;

/// Internal tag space for collectives (kept out of user tag space).
///
/// Offsets: `+0` tree data, `+1` gather lengths, `+2` all-to-all blocks,
/// `+3` scan prefixes, `+4`/`+5` scatterv lengths/data, `+6`/`+7`
/// allgather stream lengths/data, `+8` allreduce exchanges, `+9`
/// all-to-all-v counts, `+10`/`+11` typed-collective lengths/elements.
pub(crate) const COLL_TAG: i32 = i32::MIN + 7;

/// What [`Rank::alltoallv`] hands back: the received bytes flattened in
/// source-rank order, plus the per-source counts and displacements that
/// index into them.
pub type AlltoallvParts = (Vec<u8>, Vec<usize>, Vec<usize>);

/// Record a collective-operation span (a single relaxed load when
/// recording is off). Spans feed the per-family latency histograms of the
/// `PROFILE` report as well as the Chrome trace; they never touch the
/// clock, so enabling them cannot perturb virtual time.
pub(crate) fn coll_span(rank: &Rank, name: &'static str, start: SimTime, bytes: usize) {
    if obs::is_enabled() {
        obs::span(
            name,
            start,
            rank.clock.now(),
            vec![("bytes", obs::Arg::U64(bytes as u64))],
        );
    }
}

/// Reduction operators for the numeric collectives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Element-wise sum (wrapping for the integer element types).
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

/// Element types the reduction collectives ([`Rank::reduce`],
/// [`Rank::allreduce`], [`Rank::scan`], `allreduce_typed`) operate on:
/// every fixed-width little-endian wire element
/// ([`mpi_datatype::typed::Element`]) that knows how to combine under a
/// [`ReduceOp`].
pub trait Typed: typed::Element + Send + Sync + 'static {
    /// `a ⊕ b` under `op`, with `a` the accumulator (left operand). All
    /// schedules combine in ascending-rank operand order, so any two
    /// algorithms produce bit-identical results whenever `⊕` is
    /// associative (integer ops always; floats when the values make
    /// rounding exact).
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_typed_int {
    ($($t:ty),*) => {$(
        impl Typed for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                }
            }
        }
    )*};
}

macro_rules! impl_typed_float {
    ($($t:ty),*) => {$(
        impl Typed for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                }
            }
        }
    )*};
}

impl_typed_int!(u8, i8, u16, i16, u32, i32, u64, i64);
impl_typed_float!(f32, f64);

/// The shared PSCW window the one-sided ring schedules stage chunks
/// through, kept on the [`Rank`] so consecutive collectives in the same
/// membership epoch reuse one window instead of paying `win_create`'s
/// three barriers each time. Windows have no `win_free` in this subset,
/// so a stale-epoch window is simply dropped (its chunk-sized budget
/// charge persists until teardown, like every window's).
pub(crate) struct CollWin {
    pub(crate) win: Window,
    /// Exposed bytes (always `Tuning::coll_ring_chunk` at creation).
    cap: usize,
    /// Membership epoch the window was created in.
    epoch: u64,
}

/// Record which schedule actually executed.
fn tick(algo: CollectiveAlgo) {
    obs::inc(match algo {
        CollectiveAlgo::Naive => obs::Counter::CollAlgoNaive,
        CollectiveAlgo::Ring => obs::Counter::CollAlgoRing,
        CollectiveAlgo::RecursiveDoubling => obs::Counter::CollAlgoRecursiveDoubling,
        CollectiveAlgo::Binomial => obs::Counter::CollAlgoBinomial,
        CollectiveAlgo::Bruck => obs::Counter::CollAlgoBruck,
        CollectiveAlgo::Auto => unreachable!("Auto resolves before execution"),
    });
}

impl Rank {
    /// The configured algorithm override.
    fn forced_algo(&self) -> CollectiveAlgo {
        self.world.tuning.collective_algo
    }

    /// True when every member sits on one SCI ringlet, where the
    /// neighbour-ring schedules turn every hop into a single B-Link
    /// traversal.
    fn on_single_ringlet(&self) -> bool {
        matches!(self.world.fabric.topology(), Topology::Ringlet { .. })
    }

    /// Reject an out-of-range collective argument through the
    /// [`crate::ErrorMode`] path.
    fn check_arg(&self, what: &'static str, got: usize, limit: usize) -> Result<(), ScimpiError> {
        if got >= limit {
            return Err(self
                .world
                .escalate(ScimpiError::InvalidArg { what, got, limit }));
        }
        Ok(())
    }

    /// Make sure [`Rank::coll_win`] holds a usable window for the current
    /// membership epoch, creating it collectively when every member can
    /// afford the chunk buffer. Returns `false` (symmetrically, agreed
    /// via one control-plane gather) when any member's window budget or
    /// shared-segment pool is exhausted — callers fall back to a
    /// two-sided schedule.
    pub(crate) fn ensure_coll_win(&mut self) -> bool {
        let chunk = self.world.tuning.coll_ring_chunk;
        if let Some(cw) = &self.coll_win {
            if cw.epoch == self.epoch && cw.cap >= chunk {
                return true;
            }
            // Stale epoch or undersized: drop the handle and re-create.
            self.coll_win = None;
        }
        // Pre-check the budget: `alloc_mem` *escalates* budget exhaustion
        // (fatal under ErrorsAreFatal), but an unaffordable window should
        // mean "use the two-sided schedule", not "abort the run".
        let affordable = {
            let limit = self.world.tuning.window_budget_bytes;
            let used = self.world.window_bytes[self.world_rank()]
                .load(std::sync::atomic::Ordering::Relaxed);
            used.saturating_add(chunk) <= limit
        };
        let mem = if affordable {
            self.alloc_mem(chunk).ok()
        } else {
            None
        };
        let mine_ok = mem.is_some();
        let all_ok = self.collective_gather(mine_ok).into_iter().all(|ok| ok);
        if !all_ok {
            // Symmetric refusal: return the charge if we took one.
            if let Some(m) = mem {
                self.free_mem(m);
            }
            return false;
        }
        let mem = mem.expect("agreed affordable");
        match self.win_create(WinMemory::Alloc(mem)) {
            Ok(win) => {
                self.coll_win = Some(CollWin {
                    win,
                    cap: chunk,
                    epoch: self.epoch,
                });
                true
            }
            // Unreachable for Alloc memory in practice; be safe anyway.
            Err(_) => false,
        }
    }

    /// Broadcast `buf` from `root` to all ranks.
    ///
    /// `Auto` runs the one-sided pipelined ring for payloads of at least
    /// `Tuning::coll_ring_min` bytes on a single ringlet (chunks flow as
    /// PSCW window puts, see `docs/COLLECTIVES.md`), and the binomial
    /// tree otherwise. `buf` must have the same length on every rank.
    pub fn bcast(&mut self, root: usize, buf: &mut [u8]) -> Result<(), ScimpiError> {
        self.check_arg("bcast root", root, self.size())?;
        let n = self.size();
        if n == 1 {
            tick(CollectiveAlgo::Naive);
            return Ok(());
        }
        let algo = match self.forced_algo() {
            CollectiveAlgo::Auto => {
                if self.on_single_ringlet()
                    && n >= 4
                    && buf.len() >= self.world.tuning.coll_ring_min
                {
                    CollectiveAlgo::Ring
                } else {
                    CollectiveAlgo::Binomial
                }
            }
            forced => forced,
        };
        match algo {
            CollectiveAlgo::Ring if self.ensure_coll_win() => {
                tick(CollectiveAlgo::Ring);
                algos::ring_bcast_onesided(self, root, buf)
            }
            CollectiveAlgo::Naive => {
                tick(CollectiveAlgo::Naive);
                naive::bcast(self, root, buf)
            }
            // RecursiveDoubling/Bruck broadcasts alias to the binomial
            // tree (same log-depth, no better schedule exists here);
            // Ring lands here too when no collective window could be
            // allocated.
            _ => {
                tick(CollectiveAlgo::Binomial);
                naive::bcast(self, root, buf)
            }
        }
    }

    /// Reduce `values` element-wise onto `root`. Returns the result on
    /// `root`, `None` elsewhere. Every algorithm family aliases to the
    /// binomial fan-in (the schedule is already log-depth and any
    /// butterfly would move more data to produce one rooted result).
    pub fn reduce<T: Typed>(
        &mut self,
        root: usize,
        values: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>, ScimpiError> {
        self.check_arg("reduce root", root, self.size())?;
        let algo = match self.forced_algo() {
            CollectiveAlgo::Naive => CollectiveAlgo::Naive,
            _ => CollectiveAlgo::Binomial,
        };
        tick(algo);
        naive::reduce(self, root, values, op)
    }

    /// All-reduce `values` in place: every rank ends with the
    /// element-wise combination across all ranks.
    ///
    /// `Auto` runs recursive doubling for payloads up to
    /// `Tuning::coll_small_max` (latency-optimal: `ceil(log2 n)`
    /// exchange rounds) and the ring reduce-scatter + allgather above it
    /// on a single ringlet (bandwidth-optimal: every rank moves ~2×
    /// the buffer regardless of rank count).
    pub fn allreduce<T: Typed>(
        &mut self,
        values: &mut [T],
        op: ReduceOp,
    ) -> Result<(), ScimpiError> {
        let n = self.size();
        if n == 1 {
            tick(CollectiveAlgo::Naive);
            return Ok(());
        }
        let bytes = values.len() * T::SIZE;
        let algo = match self.forced_algo() {
            CollectiveAlgo::Auto => {
                if bytes > self.world.tuning.coll_small_max && self.on_single_ringlet() && n >= 4 {
                    CollectiveAlgo::Ring
                } else {
                    CollectiveAlgo::RecursiveDoubling
                }
            }
            forced => forced,
        };
        match algo {
            CollectiveAlgo::Naive => {
                tick(CollectiveAlgo::Naive);
                naive::allreduce(self, values, op)
            }
            CollectiveAlgo::Binomial => {
                tick(CollectiveAlgo::Binomial);
                naive::allreduce(self, values, op)
            }
            CollectiveAlgo::Ring => {
                tick(CollectiveAlgo::Ring);
                algos::ring_allreduce(self, values, op)
            }
            // Bruck all-reduce aliases to recursive doubling (same
            // butterfly for symmetric counts).
            CollectiveAlgo::RecursiveDoubling | CollectiveAlgo::Bruck => {
                tick(CollectiveAlgo::RecursiveDoubling);
                algos::recdbl_allreduce(self, values, op)
            }
            CollectiveAlgo::Auto => unreachable!("resolved above"),
        }
    }

    /// Inclusive prefix combination in place (`MPI_Scan`): rank `k` ends
    /// with the combination of the values of ranks `0..=k`. `Auto` runs
    /// the Hillis–Steele doubling schedule (`ceil(log2 n)` rounds)
    /// beyond two ranks; `Naive`/`Ring` force the linear hop chain.
    pub fn scan<T: Typed>(&mut self, values: &mut [T], op: ReduceOp) -> Result<(), ScimpiError> {
        let n = self.size();
        if n == 1 {
            tick(CollectiveAlgo::Naive);
            return Ok(());
        }
        let algo = match self.forced_algo() {
            CollectiveAlgo::Auto => {
                if n > 2 {
                    CollectiveAlgo::RecursiveDoubling
                } else {
                    CollectiveAlgo::Naive
                }
            }
            forced => forced,
        };
        match algo {
            // A ring scan is the chain: both walk rank order.
            CollectiveAlgo::Naive | CollectiveAlgo::Ring => {
                tick(CollectiveAlgo::Naive);
                naive::scan(self, values, op)
            }
            _ => {
                tick(CollectiveAlgo::RecursiveDoubling);
                algos::hillis_steele_scan(self, values, op)
            }
        }
    }

    /// Gather with variable sizes (`MPI_Gatherv`-style): `root` receives
    /// every rank's `mine` (`Some(blocks)` indexed by rank), all other
    /// ranks get `None`. `Auto` aggregates through the binomial tree
    /// beyond two ranks; `Naive`/`Ring` force the linear schedule.
    pub fn gatherv(
        &mut self,
        root: usize,
        mine: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>, ScimpiError> {
        self.check_arg("gather root", root, self.size())?;
        let algo = self.rooted_tree_algo();
        match algo {
            CollectiveAlgo::Naive => {
                tick(CollectiveAlgo::Naive);
                naive::gatherv(self, root, mine)
            }
            _ => {
                tick(CollectiveAlgo::Binomial);
                algos::binomial_gatherv(self, root, mine)
            }
        }
    }

    /// Scatter with variable sizes (`MPI_Scatterv`-style): `root` passes
    /// `Some(parts)` (one block per rank, indexed by destination), every
    /// other rank passes `None`; each rank returns its own block. `Auto`
    /// distributes through the binomial tree beyond two ranks.
    pub fn scatterv(
        &mut self,
        root: usize,
        parts: Option<&[Vec<u8>]>,
    ) -> Result<Vec<u8>, ScimpiError> {
        self.check_arg("scatter root", root, self.size())?;
        let n = self.size();
        if self.rank() == root {
            let got = parts.map_or(0, <[Vec<u8>]>::len);
            if got != n {
                return Err(self.world.escalate(ScimpiError::InvalidArg {
                    what: "scatterv parts",
                    got,
                    limit: n,
                }));
            }
        }
        if n == 1 {
            tick(CollectiveAlgo::Naive);
            return Ok(parts.expect("validated above")[0].clone());
        }
        match self.rooted_tree_algo() {
            CollectiveAlgo::Naive => {
                tick(CollectiveAlgo::Naive);
                naive::scatterv(self, root, parts)
            }
            _ => {
                tick(CollectiveAlgo::Binomial);
                algos::binomial_scatterv(self, root, parts)
            }
        }
    }

    /// Shared selection for the rooted tree collectives
    /// (gatherv/scatterv): linear at ≤ 2 ranks or when forced
    /// `Naive`/`Ring` (a rooted ring is the linear chain), binomial
    /// otherwise.
    fn rooted_tree_algo(&self) -> CollectiveAlgo {
        match self.forced_algo() {
            CollectiveAlgo::Naive | CollectiveAlgo::Ring => CollectiveAlgo::Naive,
            CollectiveAlgo::Auto if self.size() <= 2 => CollectiveAlgo::Naive,
            _ => CollectiveAlgo::Binomial,
        }
    }

    /// All-gather: every rank contributes `mine` (sizes may differ) and
    /// receives every rank's contribution, indexed by rank.
    ///
    /// `Auto` agrees on the largest contribution with one control-plane
    /// gather (contributions are ragged, so no rank can select
    /// symmetrically from local state alone), then runs Bruck up to
    /// `Tuning::coll_small_max`, the neighbour ring above it on a single
    /// ringlet, and recursive doubling otherwise.
    pub fn allgather(&mut self, mine: &[u8]) -> Result<Vec<Vec<u8>>, ScimpiError> {
        let n = self.size();
        if n == 1 {
            tick(CollectiveAlgo::Naive);
            return Ok(vec![mine.to_vec()]);
        }
        let mut algo = match self.forced_algo() {
            CollectiveAlgo::Auto => {
                let max = self
                    .collective_gather(mine.len())
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                if max <= self.world.tuning.coll_small_max {
                    CollectiveAlgo::Bruck
                } else if self.on_single_ringlet() && n >= 4 {
                    CollectiveAlgo::Ring
                } else {
                    CollectiveAlgo::RecursiveDoubling
                }
            }
            forced => forced,
        };
        // The doubling butterfly needs a power of two; Bruck is its
        // any-count generalisation.
        if algo == CollectiveAlgo::RecursiveDoubling && !n.is_power_of_two() {
            algo = CollectiveAlgo::Bruck;
        }
        match algo {
            CollectiveAlgo::Naive | CollectiveAlgo::Binomial => {
                // The legacy gather-to-0 + rebroadcast composition; its
                // internal tree is already binomial.
                tick(CollectiveAlgo::Naive);
                naive::allgather(self, mine)
            }
            CollectiveAlgo::Ring => {
                tick(CollectiveAlgo::Ring);
                algos::ring_allgather(self, mine)
            }
            CollectiveAlgo::RecursiveDoubling => {
                tick(CollectiveAlgo::RecursiveDoubling);
                algos::recdbl_allgather(self, mine)
            }
            CollectiveAlgo::Bruck => {
                tick(CollectiveAlgo::Bruck);
                algos::bruck_allgather(self, mine)
            }
            CollectiveAlgo::Auto => unreachable!("resolved above"),
        }
    }

    /// Exchange byte blocks with every rank (`MPI_Alltoall`): block `d`
    /// of `sendblocks` goes to rank `d`; block `s` of the result came
    /// from rank `s`.
    ///
    /// Like `MPI_Alltoall`, every rank is expected to pass the same
    /// block size (ragged exchanges belong to [`Rank::alltoallv`]). The
    /// schedule decision rides on that contract: `Auto` runs the Bruck
    /// schedule (`ceil(log2 n)` rounds) when the local blocks are
    /// equal-sized and at most `Tuning::coll_bruck_max` bytes, and the
    /// pairwise exchange otherwise — a purely local decision, so the
    /// adaptive path costs nothing over a forced pairwise run. Forcing
    /// `Bruck` drops the size cap. Locally ragged blocks always fall
    /// back to pairwise (which tolerates raggedness end to end, as long
    /// as every rank's blocks are ragged the same way).
    pub fn alltoall(&mut self, sendblocks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, ScimpiError> {
        let n = self.size();
        if sendblocks.len() != n {
            return Err(self.world.escalate(ScimpiError::InvalidArg {
                what: "alltoall blocks",
                got: sendblocks.len(),
                limit: n,
            }));
        }
        if n == 1 {
            tick(CollectiveAlgo::Naive);
            return Ok(vec![sendblocks[0].clone()]);
        }
        let bruck = match self.forced_algo() {
            f @ (CollectiveAlgo::Auto | CollectiveAlgo::Bruck) => {
                let b0 = sendblocks[0].len();
                let equal = sendblocks.iter().all(|b| b.len() == b0);
                equal
                    && (f == CollectiveAlgo::Bruck
                        || (b0 <= self.world.tuning.coll_bruck_max && n >= 4))
            }
            _ => false,
        };
        if bruck {
            tick(CollectiveAlgo::Bruck);
            algos::bruck_alltoall(self, sendblocks)
        } else {
            tick(CollectiveAlgo::Naive);
            algos::alltoall_pairwise(self, sendblocks)
        }
    }

    /// Flat-buffer personalized exchange (`MPI_Alltoallv`): rank `d`
    /// receives `counts[d]` bytes starting at `displs[d]` of `sendbuf`.
    /// Returns `(recvbuf, recvcounts, recvdispls)` with the received
    /// bytes concatenated in source-rank order.
    ///
    /// Always runs the nonblocking pairwise schedule (counts exchange,
    /// pre-posted `irecv`s, blocking sends) — Bruck-style combining
    /// cannot beat it for ragged payloads, so the algorithm override is
    /// intentionally ignored here.
    pub fn alltoallv(
        &mut self,
        sendbuf: &[u8],
        counts: &[usize],
        displs: &[usize],
    ) -> Result<AlltoallvParts, ScimpiError> {
        let n = self.size();
        if counts.len() != n || displs.len() != n {
            return Err(self.world.escalate(ScimpiError::InvalidArg {
                what: "alltoallv counts/displs",
                got: counts.len().min(displs.len()),
                limit: n,
            }));
        }
        for d in 0..n {
            let end = displs[d].saturating_add(counts[d]);
            if end > sendbuf.len() {
                return Err(self.world.escalate(ScimpiError::InvalidArg {
                    what: "alltoallv extent",
                    got: end,
                    limit: sendbuf.len(),
                }));
            }
        }
        tick(CollectiveAlgo::Naive);
        if n == 1 {
            let mine = sendbuf[displs[0]..displs[0] + counts[0]].to_vec();
            return Ok((mine, vec![counts[0]], vec![0]));
        }
        algos::alltoallv_requests(self, sendbuf, counts, displs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, ClusterSpec};
    use crate::ErrorMode;

    #[test]
    fn bcast_from_every_root() {
        for root in 0..5 {
            let out = run(ClusterSpec::ringlet(5), move |r| {
                let mut buf = if r.rank() == root {
                    vec![0xAB; 1000]
                } else {
                    vec![0; 1000]
                };
                r.bcast(root, &mut buf).unwrap();
                buf
            });
            for v in out {
                assert!(v.iter().all(|&b| b == 0xAB), "root {root}");
            }
        }
    }

    #[test]
    fn reduce_sums_across_ranks() {
        let out = run(ClusterSpec::ringlet(6), |r| {
            let values = vec![r.rank() as f64, 1.0];
            r.reduce(0, &values, ReduceOp::Sum).unwrap()
        });
        assert_eq!(out[0], Some(vec![15.0, 6.0]));
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn reduce_is_element_generic() {
        let out = run(ClusterSpec::ringlet(5), |r| {
            let values = vec![r.rank() as u32, 100 + r.rank() as u32];
            r.reduce(2, &values, ReduceOp::Max).unwrap()
        });
        assert_eq!(out[2], Some(vec![4, 104]));
        assert!(out[0].is_none() && out[1].is_none());
    }

    #[test]
    fn allreduce_max_and_min() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            let mut mx = [r.rank() as f64 * 2.0];
            let mut mn = mx;
            r.allreduce(&mut mx, ReduceOp::Max).unwrap();
            r.allreduce(&mut mn, ReduceOp::Min).unwrap();
            (mx[0], mn[0])
        });
        assert!(out.iter().all(|&(mx, mn)| mx == 6.0 && mn == 0.0));
    }

    #[test]
    fn allreduce_sums_integers_in_place() {
        let out = run(ClusterSpec::ringlet(6), |r| {
            let mut v: Vec<i64> = vec![r.rank() as i64, -1];
            r.allreduce(&mut v, ReduceOp::Sum).unwrap();
            v
        });
        assert!(out.iter().all(|v| v == &[15, -6]));
    }

    #[test]
    fn gatherv_collects_ragged_data() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            let mine = vec![r.rank() as u8; r.rank()]; // rank k sends k bytes
            r.gatherv(0, &mine).unwrap()
        });
        let gathered = out[0].as_ref().unwrap();
        for (k, v) in gathered.iter().enumerate() {
            assert_eq!(v.len(), k);
            assert!(v.iter().all(|&b| b == k as u8));
        }
    }

    #[test]
    fn scatterv_distributes_ragged_parts() {
        for root in [0usize, 2] {
            let out = run(ClusterSpec::ringlet(4), move |r| {
                let parts: Option<Vec<Vec<u8>>> = (r.rank() == root)
                    .then(|| (0..r.size()).map(|d| vec![d as u8; d + 1]).collect());
                r.scatterv(root, parts.as_deref()).unwrap()
            });
            for (k, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![k as u8; k + 1], "root {root} rank {k}");
            }
        }
    }

    #[test]
    fn alltoall_exchanges_blocks() {
        let out = run(ClusterSpec::ringlet(3), |r| {
            let blocks: Vec<Vec<u8>> = (0..r.size())
                .map(|d| vec![(r.rank() * 10 + d) as u8; 64])
                .collect();
            r.alltoall(&blocks).unwrap()
        });
        for (me, blocks) in out.iter().enumerate() {
            for (src, b) in blocks.iter().enumerate() {
                assert_eq!(b.len(), 64);
                assert!(b.iter().all(|&x| x == (src * 10 + me) as u8));
            }
        }
    }

    #[test]
    fn alltoallv_exchanges_flat_buffers() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            // Rank s sends s+d+1 bytes of value s*10+d to rank d.
            let mut sendbuf = Vec::new();
            let mut counts = Vec::new();
            let mut displs = Vec::new();
            for d in 0..r.size() {
                displs.push(sendbuf.len());
                counts.push(r.rank() + d + 1);
                sendbuf.extend(vec![(r.rank() * 10 + d) as u8; r.rank() + d + 1]);
            }
            r.alltoallv(&sendbuf, &counts, &displs).unwrap()
        });
        for (me, (flat, rcounts, rdispls)) in out.iter().enumerate() {
            for src in 0..4 {
                assert_eq!(rcounts[src], src + me + 1, "rank {me} from {src}");
                let sl = &flat[rdispls[src]..rdispls[src] + rcounts[src]];
                assert!(sl.iter().all(|&b| b == (src * 10 + me) as u8));
            }
        }
    }

    #[test]
    fn allgather_collects_everything_everywhere() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            let mine = vec![r.rank() as u8 + 1; r.rank() + 1]; // ragged
            r.allgather(&mine).unwrap()
        });
        for per_rank in out {
            assert_eq!(per_rank.len(), 4);
            for (k, v) in per_rank.iter().enumerate() {
                assert_eq!(v.len(), k + 1);
                assert!(v.iter().all(|&b| b == k as u8 + 1));
            }
        }
    }

    #[test]
    fn scan_gives_prefix_sums() {
        let out = run(ClusterSpec::ringlet(5), |r| {
            let mut v = [r.rank() as f64, 1.0];
            r.scan(&mut v, ReduceOp::Sum).unwrap();
            v
        });
        for (k, v) in out.iter().enumerate() {
            let expect0: f64 = (0..=k).map(|i| i as f64).sum();
            assert_eq!(v[0], expect0, "rank {k}");
            assert_eq!(v[1], (k + 1) as f64);
        }
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = run(ClusterSpec::ringlet(1), |r| {
            let mut b = vec![9u8; 10];
            r.bcast(0, &mut b).unwrap();
            let red = r.reduce(0, &[5.0], ReduceOp::Sum).unwrap().unwrap();
            let mut all = [3.0];
            r.allreduce(&mut all, ReduceOp::Max).unwrap();
            let scat = r.scatterv(0, Some(&[vec![7u8]])).unwrap();
            let (v, vc, vd) = r.alltoallv(&[1, 2], &[2], &[0]).unwrap();
            (b, red, all[0], scat, (v, vc, vd))
        });
        assert_eq!(out[0].0, vec![9u8; 10]);
        assert_eq!(out[0].1, vec![5.0]);
        assert_eq!(out[0].2, 3.0);
        assert_eq!(out[0].3, vec![7u8]);
        assert_eq!(out[0].4, (vec![1, 2], vec![2], vec![0]));
    }

    #[test]
    fn out_of_range_root_is_invalid_arg() {
        let spec = ClusterSpec {
            errors: ErrorMode::ErrorsReturn,
            ..ClusterSpec::ringlet(3)
        };
        let out = run(spec, |r| {
            let bcast = r.bcast(7, &mut [0u8; 4]).unwrap_err();
            let reduce = r.reduce(3, &[1.0], ReduceOp::Sum).unwrap_err();
            let gather = r.gatherv(9, &[]).unwrap_err();
            let scatter = r.scatterv(5, None).unwrap_err();
            let blocks = r.alltoall(&[Vec::new()]).unwrap_err();
            let a2av = r.alltoallv(&[], &[0; 3], &[0; 2]).unwrap_err();
            [bcast, reduce, gather, scatter, blocks, a2av]
        });
        for errs in out {
            for (i, e) in errs.iter().enumerate() {
                assert!(
                    matches!(e, ScimpiError::InvalidArg { .. }),
                    "site {i}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn scatterv_rejects_wrong_part_count() {
        let spec = ClusterSpec {
            errors: ErrorMode::ErrorsReturn,
            ..ClusterSpec::ringlet(2)
        };
        let out = run(spec, |r| {
            if r.rank() == 0 {
                // Root with too few parts: rejected locally before any
                // communication, so rank 1 must not block on it.
                Some(r.scatterv(0, Some(&[vec![1u8]][..])).unwrap_err())
            } else {
                None
            }
        });
        assert!(matches!(
            out[0],
            Some(ScimpiError::InvalidArg {
                what: "scatterv parts",
                got: 1,
                limit: 2
            })
        ));
    }

    #[test]
    fn bcast_time_scales_logarithmically() {
        let time_for = |n: usize| {
            let out = run(ClusterSpec::ringlet(n), |r| {
                let mut b = vec![1u8; 4096];
                r.bcast(0, &mut b).unwrap();
                r.barrier();
                r.now()
            });
            out[0]
        };
        let t2 = time_for(2);
        let t8 = time_for(8);
        // 8 ranks = 3 tree levels; must be well under 7x the 2-rank time.
        assert!(t8.as_ps() < 5 * t2.as_ps(), "t2={t2:?} t8={t8:?}");
    }
}
