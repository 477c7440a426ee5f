//! The legacy linear/binomial reference schedules (`Algo::Naive`).
//!
//! These are the pre-engine collective implementations, moved here
//! verbatim (generalised over the element type where the old surface was
//! `f64`-only, with identical wire bytes for `f64`). They are kept
//! bit-identical on the wire — same tags, same message sizes, same edge
//! order — because the chaos suite's deterministic error-site maps
//! (`tests/chaos.rs`) and the committed bench baselines encode exactly
//! these conversations. Every other algorithm in [`super::algos`] is
//! differentially tested against this module.
//!
//! The binomial broadcast and reduce walks read their buffer through a
//! [`Shape`], bytes or a committed layout, so the typed collectives
//! (`dtype.rs`) run the same trees with a typed edge per hop.

use super::plan::{binomial_tree, chain, linear_peers, pairwise_steps};
use super::{
    coll_span, combine_into, parse_stream, push_block, recv_sized, send_edge, send_sized, ReduceOp,
    Shape, Typed, COLL_TAG, GATHER_TAGS, SCATTER_TAGS,
};
use crate::error::ScimpiError;
use crate::mailbox::{Source, TagSel};
use crate::p2p::RecvBuf;
use crate::runtime::Rank;
use crate::SendData;
use mpi_datatype::typed;

/// The binomial broadcast walk from `root` on `tag`: receive `buf` from
/// the parent, then send it to each child, largest subtree first.
pub(super) fn bcast_walk(
    r: &mut Rank,
    root: usize,
    tag: i32,
    buf: &mut [u8],
    shape: Shape<'_>,
) -> Result<(), ScimpiError> {
    let tree = binomial_tree(r.rank(), root, r.size());
    if let Some(parent) = tree.parent() {
        r.recv_into(Source::Rank(parent), TagSel::Value(tag), shape.recv(buf))?;
    }
    for (child, _) in tree.children().rev() {
        send_edge(r, child, tag, shape.send(buf))?;
    }
    Ok(())
}

/// Binomial-tree broadcast (the legacy `bcast` body).
pub(crate) fn bcast(r: &mut Rank, root: usize, buf: &mut [u8]) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    if r.size() == 1 {
        return Ok(());
    }
    let start = r.clock.now();
    let len = buf.len();
    bcast_walk(r, root, COLL_TAG, buf, Shape::Bytes)?;
    coll_span(r, "coll.bcast", start, len);
    Ok(())
}

/// The binomial fan-in walk onto `root` on `tag`: fold each child's
/// partial result into `acc`, ascending, with the child's on the right,
/// then send `acc` to the parent.
pub(super) fn reduce_walk<T: Typed>(
    r: &mut Rank,
    root: usize,
    tag: i32,
    acc: &mut [u8],
    shape: Shape<'_>,
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let tree = binomial_tree(r.rank(), root, r.size());
    for (child, _) in tree.children() {
        let mut other = vec![0u8; acc.len()];
        r.recv_into(
            Source::Rank(child),
            TagSel::Value(tag),
            shape.recv(&mut other),
        )?;
        shape.combine::<T>(op, acc, &other);
    }
    if let Some(parent) = tree.parent() {
        send_edge(r, parent, tag, shape.send(acc))?;
    }
    Ok(())
}

/// Binomial-tree reduce onto `root` (the legacy `reduce_f64` body,
/// element-generic). Returns the result on `root`, `None` elsewhere.
pub(crate) fn reduce<T: Typed>(
    r: &mut Rank,
    root: usize,
    values: &[T],
    op: ReduceOp,
) -> Result<Option<Vec<T>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let start = r.clock.now();
    let mut acc = typed::to_bytes(values);
    reduce_walk::<T>(r, root, COLL_TAG, &mut acc, Shape::Bytes, op)?;
    coll_span(r, "coll.reduce", start, acc.len());
    Ok((r.rank() == root).then(|| typed::from_bytes(&acc)))
}

/// Reduce-to-0 plus broadcast (the legacy `allreduce_f64` composition).
pub(crate) fn allreduce<T: Typed>(
    r: &mut Rank,
    values: &mut [T],
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let start = r.clock.now();
    let reduced = reduce(r, 0, values, op)?;
    let mut bytes = match reduced {
        Some(v) => typed::to_bytes(&v),
        None => vec![0u8; values.len() * T::SIZE],
    };
    bcast(r, 0, &mut bytes)?;
    coll_span(r, "coll.allreduce", start, values.len() * T::SIZE);
    values.copy_from_slice(&typed::from_bytes::<T>(&bytes));
    Ok(())
}

/// Linear gather with variable sizes (the legacy `gatherv` body).
pub(crate) fn gatherv(
    r: &mut Rank,
    root: usize,
    mine: &[u8],
) -> Result<Option<Vec<Vec<u8>>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let start = r.clock.now();
    if r.rank() != root {
        send_sized(r, root, GATHER_TAGS, mine)?;
        coll_span(r, "coll.gatherv", start, mine.len());
        return Ok(None);
    }
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); r.size()];
    out[root] = mine.to_vec();
    for src in linear_peers(root, r.size()) {
        out[src] = recv_sized(r, src, GATHER_TAGS)?;
    }
    coll_span(r, "coll.gatherv", start, mine.len());
    Ok(Some(out))
}

/// Linear scatter with variable sizes: the rooted mirror of [`gatherv`]
/// (two-message protocol per destination, in rank order).
pub(crate) fn scatterv(
    r: &mut Rank,
    root: usize,
    parts: Option<&[Vec<u8>]>,
) -> Result<Vec<u8>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let start = r.clock.now();
    let mine = if r.rank() == root {
        let parts = parts.expect("validated by the dispatcher");
        for dst in linear_peers(root, r.size()) {
            send_sized(r, dst, SCATTER_TAGS, &parts[dst])?;
        }
        parts[root].clone()
    } else {
        recv_sized(r, root, SCATTER_TAGS)?
    };
    coll_span(r, "coll.scatterv", start, mine.len());
    Ok(mine)
}

/// Gather-to-0 plus double broadcast (the legacy `allgather` body —
/// MPICH's small-message strategy): the blocks travel as one
/// length-prefixed stream, its length broadcast first.
pub(crate) fn allgather(r: &mut Rank, mine: &[u8]) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let gathered = gatherv(r, 0, mine)?;
    let mut stream = Vec::new();
    for p in gathered.iter().flatten() {
        push_block(&mut stream, p);
    }
    let mut len_buf = (stream.len() as u64).to_le_bytes();
    bcast(r, 0, &mut len_buf)?;
    stream.resize(u64::from_le_bytes(len_buf) as usize, 0);
    bcast(r, 0, &mut stream)?;
    Ok(parse_stream(&stream, r.size()))
}

/// Linear inclusive-scan chain (the legacy `scan_sum_f64` body,
/// element- and operator-generic).
pub(crate) fn scan<T: Typed>(
    r: &mut Rank,
    values: &mut [T],
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let (next, prev) = chain(r.rank(), r.size());
    if let Some(prev) = prev {
        let mut bytes = vec![0u8; values.len() * T::SIZE];
        r.recv(Source::Rank(prev), TagSel::Value(COLL_TAG + 3), &mut bytes)?;
        combine_into(op, values, 0, &bytes);
    }
    if let Some(next) = next {
        r.send(next, COLL_TAG + 3, &typed::to_bytes(values))?;
    }
    Ok(())
}

/// Pairwise-exchange all-to-all over equal-or-ragged byte blocks (the
/// legacy `alltoall` body). Blocks must be ragged the same way on every
/// rank, so the block each peer sends here is as long as the one this
/// rank keeps, `sendblocks[me]`. A longer one fails its receive with the
/// truncation [`ScimpiError::InvalidArg`]; the rank still runs its
/// remaining steps, so no partner waits for it, and then returns the first
/// such error. Any other failed step aborts at once: a dead partner
/// surfaces as [`ScimpiError::PeerDead`] instead of hanging.
pub(crate) fn alltoall_pairwise(
    r: &mut Rank,
    sendblocks: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let start = r.clock.now();
    let total: usize = sendblocks.iter().map(Vec::len).sum();
    let me = r.rank();
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); r.size()];
    out[me] = sendblocks[me].clone();
    let mut truncated = None;
    for (dst, src) in pairwise_steps(me, r.size()) {
        let mut buf = vec![0u8; sendblocks[me].len()];
        let step = r.sendrecv(
            dst,
            COLL_TAG + 2,
            SendData::Bytes(&sendblocks[dst]),
            Source::Rank(src),
            TagSel::Value(COLL_TAG + 2),
            RecvBuf::Bytes(&mut buf),
        );
        match step {
            Ok(st) => {
                buf.truncate(st.len);
                out[src] = buf;
            }
            Err(
                e @ ScimpiError::InvalidArg {
                    what: "receive buffer",
                    ..
                },
            ) => {
                truncated.get_or_insert(e);
            }
            Err(e) => return Err(e),
        }
    }
    if let Some(e) = truncated {
        return Err(e);
    }
    coll_span(r, "coll.alltoall", start, total);
    Ok(out)
}
