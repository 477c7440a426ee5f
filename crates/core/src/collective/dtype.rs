//! Datatype-aware collective variants.
//!
//! These move non-contiguous layouts through the pack-path selector
//! ([`crate::Tuning::select_path`]) on *every tree edge* instead of
//! forcing the caller to pack into a scratch buffer first: each edge is
//! a [`Rank::send_typed`]/[`Rank::recv_typed`] (or typed
//! [`Rank::sendrecv`]) conversation, so `direct_pack_ff` streams the
//! layout straight into the remote ring buffer whenever the selector
//! says so, and only the genuinely pack-hostile layouts pay a staging
//! copy. The [`obs::Counter::CollPackedBytes`] counter records exactly
//! the bytes that went through the staged path inside a typed
//! collective — the `coll_sweep` bench asserts it stays at zero for
//! pack-friendly layouts, which is the "never loses to pack+send" bar.

use super::plan::{ring_neighbours, ring_steps};
use super::{coll_span, naive, ReduceOp, Shape, Typed, COLL_TAG};
use crate::error::ScimpiError;
use crate::mailbox::{Source, TagSel};
use crate::runtime::Rank;
use crate::tuning::PackPath;
use mpi_datatype::Committed;

/// Account a typed collective edge: mirror the selector's verdict and
/// record staged-path bytes (the selector inside `send_typed` ticks the
/// `path_selected_*` counters itself; this one only answers "did a typed
/// collective fall back to packing?").
pub(super) fn note_edge(r: &Rank, c: &Committed, count: usize) {
    let total = c.size() * count;
    if r.world.tuning.select_path(c, total, false) == PackPath::Staged {
        obs::add(obs::Counter::CollPackedBytes, total as u64);
    }
}

/// The byte range `[lo, hi)` of `count` instances of `c` with
/// displacement 0 at `origin`, or an `InvalidArg` when it falls outside
/// `buf_len`.
fn check_span(
    r: &Rank,
    c: &Committed,
    count: usize,
    origin: usize,
    buf_len: usize,
) -> Result<(), ScimpiError> {
    let lo = origin as i64 + c.datatype().lb();
    let hi = lo + (count * c.extent()) as i64;
    if lo < 0 || hi > buf_len as i64 {
        return Err(r.world.escalate(ScimpiError::InvalidArg {
            what: "typed collective buffer extent",
            got: hi.max(0) as usize,
            limit: buf_len,
        }));
    }
    Ok(())
}

impl Rank {
    /// Broadcast `count` instances of `c` (displacement 0 at byte
    /// `origin` of `buf`) from `root`: the binomial tree of
    /// [`Rank::bcast`], with a typed edge per hop. Every rank must pass
    /// the same `c` and `count`; `buf` and `origin` are per-rank.
    pub fn bcast_typed(
        &mut self,
        root: usize,
        c: &Committed,
        count: usize,
        buf: &mut [u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        self.check_arg("bcast root", root, self.size())?;
        check_span(self, c, count, origin, buf.len())?;
        let _reliable = crate::p2p::reliable_section();
        if self.size() == 1 || count == 0 {
            return Ok(());
        }
        let start = self.clock.now();
        let shape = Shape::Typed { c, count, origin };
        naive::bcast_walk(self, root, COLL_TAG + 10, buf, shape)?;
        coll_span(self, "coll.bcast", start, c.size() * count);
        Ok(())
    }

    /// All-reduce `count` instances of `c` in place, combining the
    /// `T`-typed elements the layout addresses (each basic block of `c`
    /// must be a whole number of `T`s). The binomial reduce onto rank 0
    /// and the broadcast back of the naive [`Rank::allreduce`], with
    /// typed edges — no caller-side packing anywhere.
    pub fn allreduce_typed<T: Typed>(
        &mut self,
        c: &Committed,
        count: usize,
        buf: &mut [u8],
        origin: usize,
        op: ReduceOp,
    ) -> Result<(), ScimpiError> {
        check_span(self, c, count, origin, buf.len())?;
        let _reliable = crate::p2p::reliable_section();
        if self.size() == 1 || count == 0 {
            return Ok(());
        }
        let start = self.clock.now();
        let shape = Shape::Typed { c, count, origin };
        naive::reduce_walk::<T>(self, 0, COLL_TAG + 10, buf, shape, op)?;
        self.bcast_typed(0, c, count, buf, origin)?;
        coll_span(self, "coll.allreduce", start, c.size() * count);
        Ok(())
    }

    /// All-gather with per-rank instance counts and a non-contiguous
    /// layout: every rank contributes `count` instances of `c` and
    /// receives every rank's contribution as `(count_i, extent image)`
    /// pairs, indexed by rank (each image has displacement 0 at byte
    /// `(-lb).max(0)` and is directly addressable through `c`).
    ///
    /// Counts are agreed with one control-plane gather, then the images
    /// circulate on the neighbour ring with a typed edge per hop —
    /// `n-1` hops each moving `c.size() · count_fwd` dense bytes.
    pub fn allgatherv_typed(
        &mut self,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<Vec<(usize, Vec<u8>)>, ScimpiError> {
        check_span(self, c, count, origin, buf.len())?;
        let _reliable = crate::p2p::reliable_section();
        let n = self.size();
        let me = self.rank();
        let start = self.clock.now();
        let counts = self.collective_gather(count);
        let ext = c.extent();
        let img_origin = (-c.datatype().lb()).max(0) as usize;
        // My own extent image, copied out of `buf`.
        let lo = (origin as i64 + c.datatype().lb()) as usize;
        let mut images: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
        images[me] = Some(buf[lo..lo + count * ext].to_vec());
        if n == 1 {
            return Ok(vec![(count, images[0].take().expect("own image"))]);
        }
        let (succ, pred) = ring_neighbours(me, n);
        let shape = |count| Shape::Typed {
            c,
            count,
            origin: img_origin,
        };
        for (fwd, rcv) in ring_steps(me, n) {
            let send_img = images[fwd].as_deref().expect("forwarded image present");
            let mut rbuf = vec![0u8; counts[rcv] * ext];
            note_edge(self, c, counts[fwd]);
            self.sendrecv(
                succ,
                COLL_TAG + 11,
                shape(counts[fwd]).send(send_img),
                Source::Rank(pred),
                TagSel::Value(COLL_TAG + 11),
                shape(counts[rcv]).recv(&mut rbuf),
            )?;
            images[rcv] = Some(rbuf);
        }
        let total: usize = counts.iter().map(|k| k * c.size()).sum();
        coll_span(self, "coll.allgatherv", start, total);
        Ok(counts
            .into_iter()
            .zip(images)
            .map(|(k, img)| (k, img.expect("ring delivered every image")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, ClusterSpec};
    use mpi_datatype::Datatype;

    /// A vector layout: `blocks` blocks of `blocklen` doubles, stride
    /// `stride` doubles.
    fn vec_dt(blocks: usize, blocklen: usize, stride: isize) -> Committed {
        Committed::commit(&Datatype::vector(
            blocks,
            blocklen,
            stride,
            &Datatype::double(),
        ))
    }

    #[test]
    fn bcast_typed_fills_strided_columns() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            let c = vec_dt(8, 2, 4); // 8 blocks of 2 doubles, stride 4
            let mut buf = vec![0u8; c.extent()];
            if r.rank() == 1 {
                for i in 0..8 {
                    for j in 0..2 {
                        let v = (i * 2 + j) as f64;
                        buf[(i * 4 + j) * 8..][..8].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
            r.bcast_typed(1, &c, 1, &mut buf, 0).unwrap();
            buf
        });
        for (rank, buf) in out.iter().enumerate() {
            for i in 0..8 {
                for j in 0..2 {
                    let at = (i * 4 + j) * 8;
                    let v = f64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
                    assert_eq!(v, (i * 2 + j) as f64, "rank {rank} block {i} elem {j}");
                }
            }
            // The gaps stay untouched.
            let gap = f64::from_le_bytes(out[0][2 * 8..3 * 8].try_into().unwrap());
            assert_eq!(gap, 0.0);
        }
    }

    #[test]
    fn allreduce_typed_combines_layout_elements() {
        let out = run(ClusterSpec::ringlet(5), |r| {
            let c = vec_dt(4, 1, 3); // 4 single-double blocks, stride 3
            let mut buf = vec![0u8; c.extent()];
            for i in 0..4 {
                let v = (r.rank() * 100 + i) as f64;
                buf[i * 3 * 8..][..8].copy_from_slice(&v.to_le_bytes());
            }
            r.allreduce_typed::<f64>(&c, 1, &mut buf, 0, ReduceOp::Max)
                .unwrap();
            buf
        });
        for buf in &out {
            for i in 0..4 {
                let v = f64::from_le_bytes(buf[i * 3 * 8..][..8].try_into().unwrap());
                assert_eq!(v, (400 + i) as f64);
            }
        }
    }

    #[test]
    fn allgatherv_typed_circulates_ragged_counts() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            let c = vec_dt(2, 1, 2); // 2 single-double blocks, stride 2
            let count = r.rank() + 1; // ragged instance counts
            let ext = c.extent();
            let mut buf = vec![0u8; ext * count];
            for i in 0..count {
                for j in 0..2 {
                    let v = (r.rank() * 10 + i * 2 + j) as f64;
                    buf[i * ext + j * 2 * 8..][..8].copy_from_slice(&v.to_le_bytes());
                }
            }
            r.allgatherv_typed(&c, count, &buf, 0).unwrap()
        });
        let ext = 3 * 8; // extent of vec_dt(2, 1, 2): (1 * 2 + 1) doubles
        for (me, per_rank) in out.iter().enumerate() {
            assert_eq!(per_rank.len(), 4);
            for (src, (k, img)) in per_rank.iter().enumerate() {
                assert_eq!(*k, src + 1, "rank {me} from {src}");
                for i in 0..*k {
                    for j in 0..2 {
                        let v =
                            f64::from_le_bytes(img[i * ext + j * 2 * 8..][..8].try_into().unwrap());
                        let want = (src * 10 + i * 2 + j) as f64;
                        assert_eq!(v, want, "rank {me} from {src} inst {i} blk {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn typed_span_validation_is_an_invalid_arg() {
        let spec = ClusterSpec {
            errors: crate::ErrorMode::ErrorsReturn,
            ..ClusterSpec::ringlet(2)
        };
        let out = run(spec, |r| {
            let c = vec_dt(4, 1, 2);
            let mut tiny = vec![0u8; 8]; // far smaller than one extent
            r.bcast_typed(0, &c, 1, &mut tiny, 0).unwrap_err()
        });
        assert!(matches!(out[0], ScimpiError::InvalidArg { .. }));
    }
}
