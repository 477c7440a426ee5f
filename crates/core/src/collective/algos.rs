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
    binomial_tree, bruck_rounds, hillis_steele_rounds, linear_peers, pairwise_steps,
    recdbl_partners, recdbl_role, ring_neighbours, ring_segment, ring_steps, RecDblRole,
};
use super::{
    coll_span, combine_after, combine_into, naive, parse_stream, push_block, recv_sized,
    send_sized, AlltoallvParts, ReduceOp, Typed, COLL_TAG, GATHER_TAGS, SCATTER_TAGS,
};
use crate::error::ScimpiError;
use crate::mailbox::{Source, TagSel};
use crate::p2p::RecvBuf;
use crate::runtime::Rank;
use crate::tuning::COLL_RING_CHUNK;
use crate::SendData;
use mpi_datatype::typed;

/// One `sendrecv` round: `send` to `to`, and a message of `recv_len`
/// bytes (or what arrives, if shorter) from `from`, on `tag` both ways.
fn exchange(
    r: &mut Rank,
    (to, from): (usize, usize),
    tag: i32,
    send: &[u8],
    recv_len: usize,
) -> Result<Vec<u8>, ScimpiError> {
    let mut buf = vec![0u8; recv_len];
    let st = r.sendrecv(
        to,
        tag,
        SendData::Bytes(send),
        Source::Rank(from),
        TagSel::Value(tag),
        RecvBuf::Bytes(&mut buf),
    )?;
    buf.truncate(st.len);
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
                combine_after(op, values, &bytes);
            }
            for partner in recdbl_partners(newrank, n) {
                let mine = typed::to_bytes(values);
                let got = exchange(r, (partner, partner), COLL_TAG + 8, &mine, nbytes)?;
                if partner < me {
                    combine_after(op, values, &got);
                } else {
                    combine_into(op, values, 0, &got);
                }
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
    let neighbours = ring_neighbours(me, n);
    // Reduce-scatter: after step t every rank has combined t+1
    // contributions into segment (me - t - 1) mod n. Then the allgather
    // circulates the finished segments, one segment ahead.
    for (reducing, lead) in [(true, me), (false, (me + 1) % n)] {
        for (sent, recvd) in ring_steps(lead, n) {
            let (slo, shi) = ring_segment(sent, len, n);
            let (rlo, rhi) = ring_segment(recvd, len, n);
            let mine = typed::to_bytes(&values[slo..shi]);
            let got = exchange(r, neighbours, COLL_TAG + 8, &mine, (rhi - rlo) * T::SIZE)?;
            if reducing {
                combine_into(op, values, rlo, &got);
            } else {
                values[rlo..rhi].copy_from_slice(&typed::from_bytes::<T>(&got));
            }
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
    let nbytes = values.len() * T::SIZE;
    let tag = COLL_TAG + 3;
    for round in hillis_steele_rounds(r.rank(), r.size()) {
        let got = match round {
            (Some(to), Some(from)) => {
                let mine = typed::to_bytes(values);
                Some(exchange(r, (to, from), tag, &mine, nbytes)?)
            }
            (Some(to), None) => {
                r.send(to, tag, &typed::to_bytes(values))?;
                None
            }
            (None, Some(from)) => {
                let mut buf = vec![0u8; nbytes];
                r.recv(Source::Rank(from), TagSel::Value(tag), &mut buf)?;
                Some(buf)
            }
            (None, None) => None,
        };
        // The incoming prefix covers lower ranks: left operand.
        if let Some(got) = got {
            combine_after(op, values, &got);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Gather/scatter: binomial trees over length-prefixed subtree streams.
// ---------------------------------------------------------------------

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
    let tree = binomial_tree(r.rank(), root, n);
    // Stream for my subtree, vrank-ascending: my block, then each
    // child's aggregated stream (children cover contiguous vrank spans).
    let mut stream = Vec::new();
    push_block(&mut stream, mine);
    for (child, _) in tree.children() {
        stream.extend(recv_sized(r, child, GATHER_TAGS)?);
    }
    if let Some(parent) = tree.parent() {
        send_sized(r, parent, GATHER_TAGS, &stream)?;
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
    let tree = binomial_tree(r.rank(), root, n);
    // My subtree's stream, vrank-ascending (my own block first).
    let stream = match tree.parent() {
        None => {
            let parts = parts.expect("validated by the dispatcher");
            let mut s = Vec::new();
            for v in 0..n {
                push_block(&mut s, &parts[(v + root) % n]);
            }
            s
        }
        Some(parent) => recv_sized(r, parent, SCATTER_TAGS)?,
    };
    // Split the stream back into per-vrank blocks of my subtree, then
    // forward each child its contiguous span (largest subtree first,
    // mirroring the broadcast send phase).
    let blocks = parse_stream(&stream, tree.span);
    for (child, vranks) in tree.children().rev() {
        let mut sub = Vec::new();
        for v in vranks {
            push_block(&mut sub, &blocks[v - tree.vrank]);
        }
        send_sized(r, child, SCATTER_TAGS, &sub)?;
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
    peers: (usize, usize),
    send: &[u8],
) -> Result<Vec<u8>, ScimpiError> {
    let len = (send.len() as u64).to_le_bytes();
    let len = exchange(r, peers, COLL_TAG + 6, &len, 8)?;
    let len = u64::from_le_bytes(len.try_into().expect("8 bytes")) as usize;
    exchange(r, peers, COLL_TAG + 7, send, len)
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
    for (fwd, rcv) in ring_steps(me, n) {
        out[rcv] = ragged_exchange(r, ring_neighbours(me, n), &out[fwd])?;
    }
    Ok(out)
}

/// Recursive-doubling allgather (power-of-two member counts): in each
/// round partners swap their full accumulated sets.
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
    for partner in recdbl_partners(me, n) {
        // Serialise my set as (u64 rank, u64 len, bytes)* in rank order.
        let mut stream = Vec::new();
        for (rank, block) in have.iter().enumerate() {
            if let Some(b) = block {
                stream.extend_from_slice(&(rank as u64).to_le_bytes());
                push_block(&mut stream, b);
            }
        }
        let got = ragged_exchange(r, (partner, partner), &stream)?;
        let mut at = 0usize;
        while at < got.len() {
            let rank = u64::from_le_bytes(got[at..at + 8].try_into().expect("8 bytes")) as usize;
            let len =
                u64::from_le_bytes(got[at + 8..at + 16].try_into().expect("8 bytes")) as usize;
            have[rank] = Some(got[at + 16..at + 16 + len].to_vec());
            at += 16 + len;
        }
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
    for (d, up, down) in bruck_rounds(me, n) {
        let cnt = d.min(n - d);
        let mut stream = Vec::new();
        for block in have.iter().take(cnt) {
            push_block(&mut stream, block);
        }
        let got = ragged_exchange(r, (down, up), &stream)?;
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
    for (d, up, down) in bruck_rounds(me, n) {
        let idxs: Vec<usize> = (0..n).filter(|i| i & d != 0).collect();
        let mut packed = Vec::with_capacity(idxs.len() * b);
        for &i in &idxs {
            packed.extend_from_slice(&tmp[i]);
        }
        // Send to rank me+d, receive from rank me-d (asymmetric pair);
        // equal blocks mean both directions carry `idxs.len() * b` bytes.
        let got = exchange(r, (up, down), COLL_TAG + 2, &packed, idxs.len() * b)?;
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
    for (dst, src) in pairwise_steps(me, n) {
        let count = (counts[dst] as u64).to_le_bytes();
        let got = exchange(r, (dst, src), COLL_TAG + 9, &count, 8)?;
        rcounts[src] = u64::from_le_bytes(got.try_into().expect("8 bytes")) as usize;
    }
    // Pre-post every receive, ascending source order (deterministic
    // matching), then drive the sends blocking in pairwise step order.
    let req_src: Vec<usize> = linear_peers(me, n).filter(|&s| rcounts[s] > 0).collect();
    let mut reqs = (req_src.iter())
        .map(|&src| r.irecv(Source::Rank(src), TagSel::Value(COLL_TAG + 2), rcounts[src]))
        .collect::<Result<Vec<_>, _>>()?;
    for (dst, _) in pairwise_steps(me, n) {
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
    let (succ, pred) = ring_neighbours(me, n);
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
