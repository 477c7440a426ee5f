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

use super::{coll_span, ReduceOp, Typed, COLL_TAG};
use crate::error::ScimpiError;
use crate::mailbox::{Source, TagSel};
use crate::p2p::RecvBuf;
use crate::runtime::Rank;
use crate::SendData;
use mpi_datatype::typed;

/// Binomial-tree broadcast (the legacy `bcast` body).
pub(crate) fn bcast(r: &mut Rank, root: usize, buf: &mut [u8]) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let size = r.size();
    if size == 1 {
        return Ok(());
    }
    let start = r.clock.now();
    let vrank = (r.rank() + size - root) % size;
    // Receive phase.
    let mut mask = 1usize;
    while mask < size {
        if vrank & mask != 0 {
            let src = (vrank - mask + root) % size;
            r.recv(Source::Rank(src), TagSel::Value(COLL_TAG), buf)?;
            break;
        }
        mask <<= 1;
    }
    // Send phase.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < size {
            let dst = (vrank + mask + root) % size;
            r.send(dst, COLL_TAG, buf)?;
        }
        mask >>= 1;
    }
    coll_span(r, "coll.bcast", start, buf.len());
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
    let size = r.size();
    let start = r.clock.now();
    let vrank = (r.rank() + size - root) % size;
    let mut acc = values.to_vec();
    let mut mask = 1usize;
    while mask < size {
        if vrank & mask != 0 {
            let dst = (vrank - mask + root) % size;
            let bytes = typed::to_bytes(&acc);
            r.send(dst, COLL_TAG, &bytes)?;
            coll_span(r, "coll.reduce", start, values.len() * T::SIZE);
            return Ok(None);
        }
        if vrank + mask < size {
            let src = (vrank + mask + root) % size;
            let mut bytes = vec![0u8; acc.len() * T::SIZE];
            r.recv(Source::Rank(src), TagSel::Value(COLL_TAG), &mut bytes)?;
            let other: Vec<T> = typed::from_bytes(&bytes);
            for (a, b) in acc.iter_mut().zip(other) {
                *a = T::combine(op, *a, b);
            }
        }
        mask <<= 1;
    }
    coll_span(r, "coll.reduce", start, values.len() * T::SIZE);
    Ok(if r.rank() == root { Some(acc) } else { None })
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

/// The sender side of [`gatherv`]'s two-message protocol.
pub(crate) fn gather_send(r: &mut Rank, root: usize, mine: &[u8]) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let len = (mine.len() as u64).to_le_bytes();
    r.send(root, COLL_TAG + 1, &len)?;
    if !mine.is_empty() {
        r.send(root, COLL_TAG, mine)?;
    }
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
        gather_send(r, root, mine)?;
        coll_span(r, "coll.gatherv", start, mine.len());
        return Ok(None);
    }
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); r.size()];
    out[root] = mine.to_vec();
    // Indexed loop: the body needs `&mut r` for recv, which rules out
    // iterating `out` directly.
    #[allow(clippy::needless_range_loop)]
    for src in 0..r.size() {
        if src == root {
            continue;
        }
        let mut len_buf = [0u8; 8];
        r.recv(Source::Rank(src), TagSel::Value(COLL_TAG + 1), &mut len_buf)?;
        let len = u64::from_le_bytes(len_buf) as usize;
        let mut data = vec![0u8; len];
        if len > 0 {
            r.recv(Source::Rank(src), TagSel::Value(COLL_TAG), &mut data)?;
        }
        out[src] = data;
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
        for (dst, part) in parts.iter().enumerate() {
            if dst == root {
                continue;
            }
            let len = (part.len() as u64).to_le_bytes();
            r.send(dst, COLL_TAG + 4, &len)?;
            if !part.is_empty() {
                r.send(dst, COLL_TAG + 5, part)?;
            }
        }
        parts[root].clone()
    } else {
        let mut len_buf = [0u8; 8];
        r.recv(
            Source::Rank(root),
            TagSel::Value(COLL_TAG + 4),
            &mut len_buf,
        )?;
        let len = u64::from_le_bytes(len_buf) as usize;
        let mut data = vec![0u8; len];
        if len > 0 {
            r.recv(Source::Rank(root), TagSel::Value(COLL_TAG + 5), &mut data)?;
        }
        data
    };
    coll_span(r, "coll.scatterv", start, mine.len());
    Ok(mine)
}

/// Gather-to-0 plus double broadcast (the legacy `allgather` body —
/// MPICH's small-message strategy).
pub(crate) fn allgather(r: &mut Rank, mine: &[u8]) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let gathered = gatherv(r, 0, mine)?;
    // Serialise as length-prefixed stream and broadcast.
    let mut stream = Vec::new();
    if let Some(parts) = gathered {
        for p in &parts {
            stream.extend_from_slice(&(p.len() as u64).to_le_bytes());
            stream.extend_from_slice(p);
        }
    }
    let mut len_buf = (stream.len() as u64).to_le_bytes();
    bcast(r, 0, &mut len_buf)?;
    let total = u64::from_le_bytes(len_buf) as usize;
    stream.resize(total, 0);
    bcast(r, 0, &mut stream)?;
    // Deserialise.
    let mut out = Vec::with_capacity(r.size());
    let mut at = 0usize;
    for _ in 0..r.size() {
        let len = u64::from_le_bytes(stream[at..at + 8].try_into().expect("8 bytes")) as usize;
        at += 8;
        out.push(stream[at..at + len].to_vec());
        at += len;
    }
    Ok(out)
}

/// Linear inclusive-scan chain (the legacy `scan_sum_f64` body,
/// element- and operator-generic).
pub(crate) fn scan<T: Typed>(
    r: &mut Rank,
    values: &mut [T],
    op: ReduceOp,
) -> Result<(), ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    if r.rank() > 0 {
        let mut bytes = vec![0u8; values.len() * T::SIZE];
        r.recv(
            Source::Rank(r.rank() - 1),
            TagSel::Value(COLL_TAG + 3),
            &mut bytes,
        )?;
        let prev: Vec<T> = typed::from_bytes(&bytes);
        for (a, p) in values.iter_mut().zip(prev) {
            *a = T::combine(op, *a, p);
        }
    }
    if r.rank() + 1 < r.size() {
        let bytes = typed::to_bytes(values);
        r.send(r.rank() + 1, COLL_TAG + 3, &bytes)?;
    }
    Ok(())
}

/// Pairwise-exchange all-to-all over equal-or-ragged byte blocks (the
/// legacy `alltoall` body). Aborts at the first failed step: a dead
/// partner surfaces as [`ScimpiError::PeerDead`] instead of hanging.
pub(crate) fn alltoall_pairwise(
    r: &mut Rank,
    sendblocks: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, ScimpiError> {
    let _reliable = crate::p2p::reliable_section();
    let start = r.clock.now();
    let total: usize = sendblocks.iter().map(Vec::len).sum();
    let me = r.rank();
    let n = r.size();
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    out[me] = sendblocks[me].clone();
    for step in 1..n {
        let dst = (me + step) % n;
        let src = (me + n - step) % n;
        let mut buf = vec![0u8; sendblocks[dst].len().max(1 << 20)];
        let st = r.sendrecv(
            dst,
            COLL_TAG + 2,
            SendData::Bytes(&sendblocks[dst]),
            Source::Rank(src),
            TagSel::Value(COLL_TAG + 2),
            RecvBuf::Bytes(&mut buf),
        )?;
        buf.truncate(st.len);
        out[src] = buf;
    }
    coll_span(r, "coll.alltoall", start, total);
    Ok(out)
}
