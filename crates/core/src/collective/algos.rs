//! Schedule executors for the collective engine.
//!
//! Each function walks a rank-symmetric plan from [`super::plan`] over
//! the paper's own primitives: symmetric [`Rank::sendrecv`] exchanges,
//! nonblocking requests (`irecv` + blocking sends for the all-to-all
//! family), and one-sided PSCW window puts (the pipelined ring
//! broadcast). All blocking goes through the existing park/wake sites.
//!
//! Like the naive reference, every schedule runs as a *reliable section*
//! (lossy overload policies fall back to `Stall` inside a collective)
//! and aborts at the first failed edge — a dead partner surfaces as
//! [`ScimpiError::PeerDead`] instead of hanging.

use super::plan::{
    binomial_children, binomial_parent, bruck_rounds, pow2_floor, recdbl_rank_of, recdbl_role,
    ring_segment, RecDblRole,
};
use super::{coll_span, naive, AlltoallvParts, ReduceOp, Typed, COLL_TAG};
use crate::error::ScimpiError;
use crate::mailbox::{Source, TagSel};
use crate::p2p::RecvBuf;
use crate::runtime::Rank;
use crate::tuning::COLL_RING_CHUNK;
use crate::SendData;
use mpi_datatype::typed;

/// Serialise `values[lo..hi]` to little-endian bytes.
fn seg_bytes<T: Typed>(values: &[T], lo: usize, hi: usize) -> Vec<u8> {
    typed::to_bytes(&values[lo..hi])
}

/// Element-wise `acc[lo..hi] = combine(acc, other)` with `acc` as the
/// left operand (matching the naive chain's operand order).
fn combine_into<T: Typed>(op: ReduceOp, acc: &mut [T], lo: usize, other: &[u8]) {
    for (i, b) in typed::from_bytes::<T>(other).into_iter().enumerate() {
        acc[lo + i] = T::combine(op, acc[lo + i], b);
    }
}

/// Symmetric exchange of `send` for an equal-role partner's buffer of
/// known size, used by every pairwise round below.
fn exchange(
    r: &mut Rank,
    partner: usize,
    tag: i32,
    send: &[u8],
    recv_len: usize,
) -> Result<Vec<u8>, ScimpiError> {
    let mut buf = vec![0u8; recv_len];
    r.sendrecv(
        partner,
        tag,
        SendData::Bytes(send),
        Source::Rank(partner),
        TagSel::Value(tag),
        RecvBuf::Bytes(&mut buf),
    )?;
    Ok(buf)
}

// ---------------------------------------------------------------------
// Allreduce: recursive doubling (with the non-power-of-two fold) and the
// bandwidth-optimal ring (reduce-scatter + allgather).
// ---------------------------------------------------------------------

/// Recursive-doubling allreduce: log2 rounds of pairwise exchange over
/// the power-of-two core, with surplus ranks folded in and out (MPICH's
/// scheme, see [`recdbl_role`]).
pub(crate) fn recdbl_allreduce<T: Typed>(
    r: &mut Rank,
    values: &mut [T],
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    let start = r.clock.now();
    let nbytes = values.len() * T::SIZE;
    match recdbl_role(me, n) {
        RecDblRole::Fold { partner } => {
            // Contribute, sit out the core exchange, collect the result.
            r.send(partner, COLL_TAG + 8, &typed::to_bytes(values))?;
            let mut bytes = vec![0u8; nbytes];
            r.recv(
                Source::Rank(partner),
                TagSel::Value(COLL_TAG + 8),
                &mut bytes,
            )?;
            values.copy_from_slice(&typed::from_bytes::<T>(&bytes));
        }
        RecDblRole::Core { newrank, folded } => {
            if let Some(f) = folded {
                let mut bytes = vec![0u8; nbytes];
                r.recv(Source::Rank(f), TagSel::Value(COLL_TAG + 8), &mut bytes)?;
                // The folded partner is the lower rank: it combines on
                // the left, mirroring ascending-rank reduction order.
                for (i, b) in typed::from_bytes::<T>(&bytes).into_iter().enumerate() {
                    values[i] = T::combine(op, b, values[i]);
                }
            }
            let p2 = pow2_floor(n);
            let mut mask = 1usize;
            while mask < p2 {
                let partner = recdbl_rank_of(newrank ^ mask, n);
                let got = exchange(r, partner, COLL_TAG + 8, &typed::to_bytes(values), nbytes)?;
                if partner < me {
                    for (i, b) in typed::from_bytes::<T>(&got).into_iter().enumerate() {
                        values[i] = T::combine(op, b, values[i]);
                    }
                } else {
                    combine_into(op, values, 0, &got);
                }
                mask <<= 1;
            }
            if let Some(f) = folded {
                r.send(f, COLL_TAG + 8, &typed::to_bytes(values))?;
            }
        }
    }
    coll_span(r, "coll.allreduce", start, nbytes);
    Ok(())
}

/// Ring allreduce: `n-1` reduce-scatter steps followed by `n-1`
/// allgather steps over neighbour exchanges; each step moves one
/// `len/n` segment, so every rank sends ~`2·len` elements total
/// regardless of rank count (bandwidth-optimal for large payloads).
pub(crate) fn ring_allreduce<T: Typed>(
    r: &mut Rank,
    values: &mut [T],
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    if n == 1 {
        return Ok(());
    }
    let start = r.clock.now();
    let len = values.len();
    let succ = (me + 1) % n;
    let pred = (me + n - 1) % n;
    // Reduce-scatter: after step t every rank has combined t+1
    // contributions into segment (me - t - 1) mod n.
    for t in 0..n - 1 {
        let (slo, shi) = ring_segment((me + n - t) % n, len, n);
        let (rlo, rhi) = ring_segment((me + n - t - 1) % n, len, n);
        let mut buf = vec![0u8; (rhi - rlo) * T::SIZE];
        r.sendrecv(
            succ,
            COLL_TAG + 8,
            SendData::Bytes(&seg_bytes(values, slo, shi)),
            Source::Rank(pred),
            TagSel::Value(COLL_TAG + 8),
            RecvBuf::Bytes(&mut buf),
        )?;
        combine_into(op, values, rlo, &buf);
    }
    // Allgather: circulate the finished segments.
    for t in 0..n - 1 {
        let (slo, shi) = ring_segment((me + 1 + n - t) % n, len, n);
        let (rlo, rhi) = ring_segment((me + n - t) % n, len, n);
        let mut buf = vec![0u8; (rhi - rlo) * T::SIZE];
        r.sendrecv(
            succ,
            COLL_TAG + 8,
            SendData::Bytes(&seg_bytes(values, slo, shi)),
            Source::Rank(pred),
            TagSel::Value(COLL_TAG + 8),
            RecvBuf::Bytes(&mut buf),
        )?;
        for (i, b) in typed::from_bytes::<T>(&buf).into_iter().enumerate() {
            values[rlo + i] = b;
        }
    }
    coll_span(r, "coll.allreduce", start, len * T::SIZE);
    Ok(())
}

// ---------------------------------------------------------------------
// Scan: Hillis–Steele recursive doubling.
// ---------------------------------------------------------------------

/// Hillis–Steele inclusive scan: at distance `d` every rank ships its
/// running prefix to `rank + d` and folds in the prefix from `rank - d`
/// — `ceil(log2 n)` rounds instead of the naive `n-1` hop chain.
pub(crate) fn hillis_steele_scan<T: Typed>(
    r: &mut Rank,
    values: &mut [T],
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    let nbytes = values.len() * T::SIZE;
    let mut d = 1usize;
    while d < n {
        let up = me + d < n;
        let down = me >= d;
        match (up, down) {
            (true, true) => {
                let mut buf = vec![0u8; nbytes];
                r.sendrecv(
                    me + d,
                    COLL_TAG + 3,
                    SendData::Bytes(&typed::to_bytes(values)),
                    Source::Rank(me - d),
                    TagSel::Value(COLL_TAG + 3),
                    RecvBuf::Bytes(&mut buf),
                )?;
                // The incoming prefix covers lower ranks: left operand.
                for (i, b) in typed::from_bytes::<T>(&buf).into_iter().enumerate() {
                    values[i] = T::combine(op, b, values[i]);
                }
            }
            (true, false) => r.send(me + d, COLL_TAG + 3, &typed::to_bytes(values))?,
            (false, true) => {
                let mut buf = vec![0u8; nbytes];
                r.recv(Source::Rank(me - d), TagSel::Value(COLL_TAG + 3), &mut buf)?;
                for (i, b) in typed::from_bytes::<T>(&buf).into_iter().enumerate() {
                    values[i] = T::combine(op, b, values[i]);
                }
            }
            (false, false) => {}
        }
        d <<= 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Gather/scatter: binomial trees over length-prefixed subtree streams.
// ---------------------------------------------------------------------

/// Parse a `(u64 len, bytes)*` stream into its blocks.
fn parse_stream(stream: &[u8], expect: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(expect);
    let mut at = 0usize;
    for _ in 0..expect {
        let len = u64::from_le_bytes(stream[at..at + 8].try_into().expect("8 bytes")) as usize;
        at += 8;
        out.push(stream[at..at + len].to_vec());
        at += len;
    }
    debug_assert_eq!(at, stream.len());
    out
}

/// Append `(u64 len, bytes)` to a stream.
fn push_block(stream: &mut Vec<u8>, block: &[u8]) {
    stream.extend_from_slice(&(block.len() as u64).to_le_bytes());
    stream.extend_from_slice(block);
}

/// Binomial gatherv: each subtree aggregates its members' blocks into
/// one length-prefixed stream, so the root receives `log2 n` streams
/// instead of `n-1` individual messages.
pub(crate) fn binomial_gatherv(
    r: &mut Rank,
    root: usize,
    mine: &[u8],
) -> Result<Option<Vec<Vec<u8>>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let start = r.clock.now();
    let vrank = (r.rank() + n - root) % n;
    // Stream for my subtree, vrank-ascending: my block, then each
    // child's aggregated stream (children cover contiguous vrank spans).
    let mut stream = Vec::new();
    push_block(&mut stream, mine);
    for (child, _span) in binomial_children(vrank, n) {
        let src = (child + root) % n;
        let mut len_buf = [0u8; 8];
        r.recv(Source::Rank(src), TagSel::Value(COLL_TAG + 1), &mut len_buf)?;
        let len = u64::from_le_bytes(len_buf) as usize;
        let mut sub = vec![0u8; len];
        r.recv(Source::Rank(src), TagSel::Value(COLL_TAG), &mut sub)?;
        stream.extend_from_slice(&sub);
    }
    if vrank != 0 {
        let dst = (binomial_parent(vrank) + root) % n;
        r.send(dst, COLL_TAG + 1, &(stream.len() as u64).to_le_bytes())?;
        r.send(dst, COLL_TAG, &stream)?;
        coll_span(r, "coll.gatherv", start, mine.len());
        return Ok(None);
    }
    let by_vrank = parse_stream(&stream, n);
    let mut out = vec![Vec::new(); n];
    for (v, block) in by_vrank.into_iter().enumerate() {
        out[(v + root) % n] = block;
    }
    coll_span(r, "coll.gatherv", start, mine.len());
    Ok(Some(out))
}

/// Binomial scatterv: the root peels per-subtree streams off `parts`
/// and each internal node forwards its children's slices, so no rank
/// sends more than `log2 n` messages.
pub(crate) fn binomial_scatterv(
    r: &mut Rank,
    root: usize,
    parts: Option<&[Vec<u8>]>,
) -> Result<Vec<u8>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let start = r.clock.now();
    let vrank = (r.rank() + n - root) % n;
    // My subtree's stream, vrank-ascending (my own block first).
    let stream = if vrank == 0 {
        let parts = parts.expect("validated by the dispatcher");
        let mut s = Vec::new();
        for v in 0..n {
            push_block(&mut s, &parts[(v + root) % n]);
        }
        s
    } else {
        let src = (binomial_parent(vrank) + root) % n;
        let mut len_buf = [0u8; 8];
        r.recv(Source::Rank(src), TagSel::Value(COLL_TAG + 4), &mut len_buf)?;
        let len = u64::from_le_bytes(len_buf) as usize;
        let mut s = vec![0u8; len];
        r.recv(Source::Rank(src), TagSel::Value(COLL_TAG + 5), &mut s)?;
        s
    };
    // Split the stream back into per-vrank blocks of my subtree, then
    // forward each child its contiguous span (largest subtree first,
    // mirroring the broadcast send phase).
    let span = super::plan::subtree_span(vrank, n);
    let blocks = parse_stream(&stream, span);
    for (child, child_span) in binomial_children(vrank, n).into_iter().rev() {
        let mut sub = Vec::new();
        for v in child..child + child_span {
            push_block(&mut sub, &blocks[v - vrank]);
        }
        let dst = (child + root) % n;
        r.send(dst, COLL_TAG + 4, &(sub.len() as u64).to_le_bytes())?;
        r.send(dst, COLL_TAG + 5, &sub)?;
    }
    let mine = blocks.into_iter().next().expect("own block present");
    coll_span(r, "coll.scatterv", start, mine.len());
    Ok(mine)
}

// ---------------------------------------------------------------------
// Allgather: neighbour ring, recursive doubling, and Bruck.
// ---------------------------------------------------------------------

/// One two-phase ragged exchange: lengths on `COLL_TAG+6`, data on
/// `COLL_TAG+7` (the receiver cannot size its buffer otherwise).
fn ragged_exchange(
    r: &mut Rank,
    dst: usize,
    src: usize,
    send: &[u8],
) -> Result<Vec<u8>, ScimpiError> {
    let mut len_buf = [0u8; 8];
    r.sendrecv(
        dst,
        COLL_TAG + 6,
        SendData::Bytes(&(send.len() as u64).to_le_bytes()),
        Source::Rank(src),
        TagSel::Value(COLL_TAG + 6),
        RecvBuf::Bytes(&mut len_buf),
    )?;
    let mut buf = vec![0u8; u64::from_le_bytes(len_buf) as usize];
    r.sendrecv(
        dst,
        COLL_TAG + 7,
        SendData::Bytes(send),
        Source::Rank(src),
        TagSel::Value(COLL_TAG + 7),
        RecvBuf::Bytes(&mut buf),
    )?;
    Ok(buf)
}

/// Ring allgather: `n-1` neighbour steps, each forwarding the block
/// received the step before. Per-step traffic is one block per link —
/// the bandwidth-optimal large-message schedule on a ringlet.
pub(crate) fn ring_allgather(r: &mut Rank, mine: &[u8]) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    out[me] = mine.to_vec();
    let succ = (me + 1) % n;
    let pred = (me + n - 1) % n;
    for t in 0..n - 1 {
        let fwd = (me + n - t) % n;
        let got = ragged_exchange(r, succ, pred, &out[fwd].clone())?;
        out[(me + n - t - 1) % n] = got;
    }
    Ok(out)
}

/// Recursive-doubling allgather (power-of-two member counts): at round
/// `mask` partners `vrank ^ mask` swap their full accumulated sets.
/// Non-power-of-two counts fall back to [`bruck_allgather`].
pub(crate) fn recdbl_allgather(r: &mut Rank, mine: &[u8]) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let n = r.size();
    if !n.is_power_of_two() {
        return bruck_allgather(r, mine);
    }
    let _reliable = crate::p2p::reliable_section();
    let me = r.rank();
    let mut have: Vec<Option<Vec<u8>>> = vec![None; n];
    have[me] = Some(mine.to_vec());
    let mut mask = 1usize;
    while mask < n {
        let partner = me ^ mask;
        // Serialise my set as (u64 rank, u64 len, bytes)* in rank order.
        let mut stream = Vec::new();
        for (rank, block) in have.iter().enumerate() {
            if let Some(b) = block {
                stream.extend_from_slice(&(rank as u64).to_le_bytes());
                push_block(&mut stream, b);
            }
        }
        let got = ragged_exchange(r, partner, partner, &stream)?;
        let mut at = 0usize;
        while at < got.len() {
            let rank = u64::from_le_bytes(got[at..at + 8].try_into().expect("8 bytes")) as usize;
            let len =
                u64::from_le_bytes(got[at + 8..at + 16].try_into().expect("8 bytes")) as usize;
            have[rank] = Some(got[at + 16..at + 16 + len].to_vec());
            at += 16 + len;
        }
        mask <<= 1;
    }
    Ok(have
        .into_iter()
        .map(|b| b.expect("all blocks after log2 rounds"))
        .collect())
}

/// Bruck allgather: works for any member count in `ceil(log2 n)` rounds
/// of distance-doubling exchanges over distance-indexed blocks.
pub(crate) fn bruck_allgather(r: &mut Rank, mine: &[u8]) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    // have[d] = block of rank (me + d) % n.
    let mut have: Vec<Vec<u8>> = Vec::with_capacity(n);
    have.push(mine.to_vec());
    for d in bruck_rounds(n) {
        let cnt = d.min(n - d);
        let mut stream = Vec::new();
        for block in have.iter().take(cnt) {
            push_block(&mut stream, block);
        }
        let dst = (me + n - d) % n;
        let src = (me + d) % n;
        let got = ragged_exchange(r, dst, src, &stream)?;
        have.extend(parse_stream(&got, cnt));
    }
    let mut out = vec![Vec::new(); n];
    for (d, block) in have.into_iter().enumerate() {
        out[(me + d) % n] = block;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// All-to-all: Bruck for small equal blocks; nonblocking pairwise for
// the flat counts/displs variant.
// ---------------------------------------------------------------------

/// Bruck all-to-all for equal-size blocks: `ceil(log2 n)` rounds each
/// moving half the blocks, instead of `n-1` pairwise steps — the
/// latency-optimal small-message schedule.
pub(crate) fn bruck_alltoall(
    r: &mut Rank,
    sendblocks: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    let b = sendblocks[0].len();
    let start = r.clock.now();
    // Phase 1: local rotation so index i holds the block for (me+i)%n.
    let mut tmp: Vec<Vec<u8>> = (0..n).map(|i| sendblocks[(me + i) % n].clone()).collect();
    // Phase 2: for each bit, ship every block whose index has it set.
    for d in bruck_rounds(n) {
        let idxs: Vec<usize> = (0..n).filter(|i| i & d != 0).collect();
        let mut packed = Vec::with_capacity(idxs.len() * b);
        for &i in &idxs {
            packed.extend_from_slice(&tmp[i]);
        }
        // Send to rank me+d, receive from rank me-d (asymmetric pair);
        // equal blocks mean both directions carry `idxs.len() * b` bytes.
        let mut got = vec![0u8; idxs.len() * b];
        r.sendrecv(
            (me + d) % n,
            COLL_TAG + 2,
            SendData::Bytes(&packed),
            Source::Rank((me + n - d) % n),
            TagSel::Value(COLL_TAG + 2),
            RecvBuf::Bytes(&mut got),
        )?;
        for (slot, &i) in idxs.iter().enumerate() {
            tmp[i] = got[slot * b..(slot + 1) * b].to_vec();
        }
    }
    // Phase 3: index i now holds the block rank (me-i)%n sent to me.
    let mut out = vec![Vec::new(); n];
    for (i, block) in tmp.into_iter().enumerate() {
        out[(me + n - i) % n] = block;
    }
    coll_span(r, "coll.alltoall", start, n * b);
    Ok(out)
}

/// Flat-buffer all-to-all-v over the nonblocking request engine: one
/// pairwise count exchange, then every receive pre-posted as an `irecv`
/// while the sends run blocking on this thread (keeping the reliable
/// section's stall-fallback on the sending side). Returns the received
/// bytes flattened in source order plus per-source counts and displs.
pub(crate) fn alltoallv_requests(
    r: &mut Rank,
    sendbuf: &[u8],
    counts: &[usize],
    displs: &[usize],
) -> Result<AlltoallvParts, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let n = r.size();
    let me = r.rank();
    let start = r.clock.now();
    // Count exchange (pairwise, 8 bytes per step).
    let mut rcounts = vec![0usize; n];
    rcounts[me] = counts[me];
    for step in 1..n {
        let dst = (me + step) % n;
        let src = (me + n - step) % n;
        let mut cbuf = [0u8; 8];
        r.sendrecv(
            dst,
            COLL_TAG + 9,
            SendData::Bytes(&(counts[dst] as u64).to_le_bytes()),
            Source::Rank(src),
            TagSel::Value(COLL_TAG + 9),
            RecvBuf::Bytes(&mut cbuf),
        )?;
        rcounts[src] = u64::from_le_bytes(cbuf) as usize;
    }
    // Pre-post every receive, ascending source order (deterministic
    // matching), then drive the sends blocking in pairwise step order.
    let mut reqs = Vec::new();
    let mut req_src = Vec::new();
    for (src, &rc) in rcounts.iter().enumerate() {
        if src != me && rc > 0 {
            reqs.push(r.irecv(Source::Rank(src), TagSel::Value(COLL_TAG + 2), rc)?);
            req_src.push(src);
        }
    }
    for step in 1..n {
        let dst = (me + step) % n;
        let sl = &sendbuf[displs[dst]..displs[dst] + counts[dst]];
        if !sl.is_empty() {
            r.send(dst, COLL_TAG + 2, sl)?;
        }
    }
    let done = r.waitall(&mut reqs)?;
    // Assemble the flat receive buffer in source order.
    let mut by_src: Vec<Vec<u8>> = vec![Vec::new(); n];
    by_src[me] = sendbuf[displs[me]..displs[me] + counts[me]].to_vec();
    for (slot, recvd) in req_src.into_iter().zip(done) {
        by_src[slot] = recvd.data;
    }
    let mut rdispls = Vec::with_capacity(n);
    let mut flat = Vec::new();
    for src in 0..n {
        rdispls.push(flat.len());
        flat.extend_from_slice(&by_src[src]);
        debug_assert_eq!(by_src[src].len(), rcounts[src]);
    }
    coll_span(r, "coll.alltoallv", start, flat.len());
    Ok((flat, rcounts, rdispls))
}

// ---------------------------------------------------------------------
// One-sided pipelined ring broadcast.
// ---------------------------------------------------------------------

/// One-sided pipelined ring broadcast: the payload is cut into
/// `COLL_RING_CHUNK` pieces that flow down the ring as PSCW
/// window puts — rank `v` exposes its chunk buffer to `v-1`, reads each
/// arrived chunk locally, and puts it onward to `v+1` while the next
/// chunk is already in flight behind it. The caller has ensured
/// `Rank::coll_win` (see [`super::ensure_coll_win`]).
pub(crate) fn ring_bcast_onesided(
    r: &mut Rank,
    root: usize,
    buf: &mut [u8],
) -> Result<(), ScimpiError> {
    let n = r.size();
    let me = r.rank();
    let chunk = COLL_RING_CHUNK;
    let start = r.clock.now();
    let v = (me + n - root) % n;
    let pred = (root + v + n - 1) % n;
    let succ = (root + v + 1) % n;
    let mut cw = r.coll_win.take().expect("collective window ensured");
    let res = (|| {
        // Pipelined store-and-forward: expose the window for chunk k+1
        // *before* forwarding chunk k, so the predecessor's put of the
        // next chunk overlaps this rank's put of the current one. The
        // exposure epoch (towards pred) and the access epoch (towards
        // succ) are directional per-peer signal pairs, so one window
        // carries both concurrently; `read_local` drains the landing
        // area before it is re-exposed, making the overwrite safe.
        if v > 0 {
            cw.win.post(r, &[pred]);
        }
        let mut at = 0usize;
        while at < buf.len() {
            let len = chunk.min(buf.len() - at);
            if v > 0 {
                cw.win.wait(r, &[pred])?;
                cw.win.read_local(r, 0, &mut buf[at..at + len]);
                if at + len < buf.len() {
                    cw.win.post(r, &[pred]);
                }
            }
            if v + 1 < n {
                cw.win.start(r, &[succ])?;
                cw.win.put(r, succ, 0, &buf[at..at + len])?;
                obs::add(obs::Counter::CollOnesidedBytes, len as u64);
                cw.win.complete(r, &[succ])?;
            }
            at += len;
        }
        Ok(())
    })();
    r.coll_win = Some(cw);
    coll_span(r, "coll.bcast", start, buf.len());
    res
}

// The naive module is re-exported for dispatcher fallbacks.
pub(crate) use naive::alltoall_pairwise;
