//! The *generic* pack/unpack engine: recursive traversal of the datatype
//! tree, as in unmodified MPICH.
//!
//! Every MPI implementation needs this path; the paper's point is that it
//! is expensive — "time consuming repeated recursive traversal of the
//! datatype tree" — and that it forces intermediate copies. We implement it
//! faithfully (including its per-block traversal overhead, reported in
//! [`PackStats::visits`]) so the reproduction's baseline behaves like the
//! original baseline.
//!
//! The walker emits the type's *segments* — maximal runs of contiguous
//! bytes in pack order — and adjacent segments are coalesced, so a fully
//! contiguous type costs exactly one segment. Pack order is the canonical
//! MPI order (constructor order), which is why coalescing must respect
//! [`crate::Datatype::ordered_dense`] rather than mere coverage.

use crate::types::{Datatype, TypeKind};
use core::ops::ControlFlow;

/// Cost-model observables of one pack/unpack operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Payload bytes moved.
    pub bytes: usize,
    /// Contiguous blocks copied: coalesced segments for the generic engine,
    /// basic blocks of the committed leaves for `ff`.
    pub blocks: usize,
    /// Maximal stretches of bytes that lie back to back in the buffer, in
    /// pack order — what the blocks coalesce into. Equal to `blocks` for the
    /// generic engine.
    pub segments: usize,
    /// Datatype-tree node visits performed (the generic engine's CPU
    /// overhead driver).
    pub visits: usize,
}

impl PackStats {
    /// Accumulate another operation's stats.
    pub fn merge(&mut self, other: PackStats) {
        self.bytes += other.bytes;
        self.blocks += other.blocks;
        self.segments += other.segments;
        self.visits += other.visits;
    }
}

/// Walk the segments of `count` instances of `dt`, calling `f(disp, len)`
/// for every maximal contiguous run in pack order. Returns the visit count.
/// `f` may break to stop early.
pub fn for_each_segment(
    dt: &Datatype,
    count: usize,
    mut f: impl FnMut(i64, usize) -> ControlFlow<()>,
) -> usize {
    let mut visits = 0usize;
    let mut pending: Option<(i64, usize)> = None;
    let ext = dt.extent() as i64;
    'outer: {
        for j in 0..count {
            let flow = walk(dt, j as i64 * ext, &mut visits, &mut |disp, len| {
                if len == 0 {
                    return ControlFlow::Continue(());
                }
                match pending {
                    Some((pd, pl)) if pd + pl as i64 == disp => {
                        pending = Some((pd, pl + len));
                        ControlFlow::Continue(())
                    }
                    Some((pd, pl)) => {
                        pending = Some((disp, len));
                        f(pd, pl)
                    }
                    None => {
                        pending = Some((disp, len));
                        ControlFlow::Continue(())
                    }
                }
            });
            if flow.is_break() {
                break 'outer;
            }
        }
        if let Some((pd, pl)) = pending.take() {
            let _ = f(pd, pl);
        }
    }
    visits
}

/// Recursive traversal of one instance at byte displacement `disp`.
fn walk(
    dt: &Datatype,
    disp: i64,
    visits: &mut usize,
    emit: &mut impl FnMut(i64, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    *visits += 1;
    if dt.ordered_dense() {
        return emit(disp + dt.lb(), dt.size());
    }
    match dt.kind() {
        TypeKind::Basic(b) => emit(disp, b.size()),
        TypeKind::Contiguous { count, child } => {
            for i in 0..*count {
                walk(child, disp + i as i64 * child.extent() as i64, visits, emit)?;
            }
            ControlFlow::Continue(())
        }
        TypeKind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let cext = child.extent() as i64;
            walk_blocks(
                child,
                (0..*count).map(|i| (*blocklen, disp + i as i64 * *stride as i64 * cext)),
                visits,
                emit,
            )
        }
        TypeKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => walk_blocks(
            child,
            (0..*count).map(|i| (*blocklen, disp + i as i64 * *stride_bytes)),
            visits,
            emit,
        ),
        TypeKind::Indexed { blocks, child } => {
            let cext = child.extent() as i64;
            walk_blocks(
                child,
                blocks.iter().map(|&(bl, d)| (bl, disp + d as i64 * cext)),
                visits,
                emit,
            )
        }
        TypeKind::Hindexed { blocks, child } => walk_blocks(
            child,
            blocks.iter().map(|&(bl, d)| (bl, disp + d)),
            visits,
            emit,
        ),
        TypeKind::Struct { fields } => {
            for (bl, d, t) in fields {
                walk_blocks(t, core::iter::once((*bl, disp + d)), visits, emit)?;
            }
            ControlFlow::Continue(())
        }
    }
}

/// Walk `(blocklen, byte displacement)` blocks of `child`.
fn walk_blocks(
    child: &Datatype,
    blocks: impl Iterator<Item = (usize, i64)>,
    visits: &mut usize,
    emit: &mut impl FnMut(i64, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let cext = child.extent() as i64;
    for (bl, start) in blocks {
        if bl == 0 {
            continue;
        }
        *visits += 1;
        if child.ordered_dense() {
            // `bl` dense children back to back: one run.
            emit(start + child.lb(), bl * child.size())?;
        } else {
            for k in 0..bl {
                walk(child, start + k as i64 * cext, visits, emit)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Resolve a displacement to an index into `buf`, panicking with a clear
/// message on out-of-range access (caller validation bug).
#[inline]
fn index(origin: usize, disp: i64, len: usize, buf_len: usize) -> usize {
    let start = origin as i64 + disp;
    assert!(
        start >= 0 && (start as usize) + len <= buf_len,
        "datatype segment [{start}, {}) outside buffer of {buf_len} bytes",
        start + len as i64
    );
    start as usize
}

/// Pack `count` instances of `dt` from `src` (displacement 0 at byte
/// `origin`) into `out`. Returns the stats.
pub fn pack(
    dt: &Datatype,
    count: usize,
    src: &[u8],
    origin: usize,
    out: &mut Vec<u8>,
) -> PackStats {
    pack_range(dt, count, src, origin, 0, usize::MAX, out)
}

/// Pack at most `max` bytes starting at pack-stream offset `skip` — the
/// partial-pack interface chunked protocols need. Appends to `out`.
pub fn pack_range(
    dt: &Datatype,
    count: usize,
    src: &[u8],
    origin: usize,
    skip: usize,
    max: usize,
    out: &mut Vec<u8>,
) -> PackStats {
    obs::inc(obs::Counter::GenericPackCalls);
    let mut stats = PackStats::default();
    let mut cursor = 0usize;
    let end = skip.saturating_add(max);
    let visits = for_each_segment(dt, count, |disp, len| {
        let seg_start = cursor;
        cursor += len;
        if cursor <= skip {
            return ControlFlow::Continue(());
        }
        if seg_start >= end {
            return ControlFlow::Break(());
        }
        let from = skip.saturating_sub(seg_start);
        let to = len.min(end - seg_start);
        let idx = index(origin, disp + from as i64, to - from, src.len());
        out.extend_from_slice(&src[idx..idx + (to - from)]);
        stats.bytes += to - from;
        stats.blocks += 1;
        stats.segments += 1;
        if cursor >= end {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    stats.visits = visits;
    stats
}

/// Unpack the contiguous stream `data` into `count` instances of `dt` in
/// `dst`, starting at pack-stream offset `skip`.
pub fn unpack_range(
    dt: &Datatype,
    count: usize,
    dst: &mut [u8],
    origin: usize,
    skip: usize,
    data: &[u8],
) -> PackStats {
    obs::inc(obs::Counter::GenericPackCalls);
    let mut stats = PackStats::default();
    let mut cursor = 0usize;
    let end = skip.saturating_add(data.len());
    let visits = for_each_segment(dt, count, |disp, len| {
        let seg_start = cursor;
        cursor += len;
        if cursor <= skip {
            return ControlFlow::Continue(());
        }
        if seg_start >= end {
            return ControlFlow::Break(());
        }
        let from = skip.saturating_sub(seg_start);
        let to = len.min(end - seg_start);
        let idx = index(origin, disp + from as i64, to - from, dst.len());
        let src_at = seg_start + from - skip;
        dst[idx..idx + (to - from)].copy_from_slice(&data[src_at..src_at + (to - from)]);
        stats.bytes += to - from;
        stats.blocks += 1;
        stats.segments += 1;
        if cursor >= end {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    stats.visits = visits;
    stats
}

/// Unpack a full stream (convenience wrapper).
pub fn unpack(
    dt: &Datatype,
    count: usize,
    dst: &mut [u8],
    origin: usize,
    data: &[u8],
) -> PackStats {
    unpack_range(dt, count, dst, origin, 0, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BasicType;

    fn segs(dt: &Datatype, count: usize) -> Vec<(i64, usize)> {
        let mut v = Vec::new();
        for_each_segment(dt, count, |d, l| {
            v.push((d, l));
            ControlFlow::Continue(())
        });
        v
    }

    #[test]
    fn basic_type_single_segment() {
        assert_eq!(segs(&Datatype::double(), 1), vec![(0, 8)]);
        // Multiple instances coalesce (extent == size).
        assert_eq!(segs(&Datatype::double(), 4), vec![(0, 32)]);
    }

    #[test]
    fn vector_segments_are_strided() {
        let t = Datatype::vector(3, 2, 4, &Datatype::double());
        assert_eq!(segs(&t, 1), vec![(0, 16), (32, 16), (64, 16)]);
    }

    #[test]
    fn contiguous_vector_coalesces_to_one() {
        let t = Datatype::vector(3, 2, 2, &Datatype::double());
        assert_eq!(segs(&t, 1), vec![(0, 48)]);
        assert_eq!(segs(&t, 2), vec![(0, 96)]);
    }

    #[test]
    fn struct_segments_in_field_order() {
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        // int at 0..4 and chars at 4..7 are adjacent → coalesce.
        assert_eq!(segs(&s, 1), vec![(0, 7)]);
        let gapped = Datatype::structure(&[(1, 0, Datatype::int()), (1, 8, Datatype::int())]);
        assert_eq!(segs(&gapped, 1), vec![(0, 4), (8, 4)]);
    }

    #[test]
    fn descending_indexed_preserves_pack_order() {
        let t = Datatype::indexed(&[(1, 1), (1, 0)], &Datatype::int());
        assert_eq!(segs(&t, 1), vec![(4, 4), (0, 4)]);
    }

    #[test]
    fn pack_roundtrip_strided_vector() {
        let t = Datatype::vector(4, 2, 4, &Datatype::double());
        let src: Vec<u8> = (0..t.extent()).map(|i| i as u8).collect();
        let mut packed = Vec::new();
        let stats = pack(&t, 1, &src, 0, &mut packed);
        assert_eq!(stats.bytes, t.size());
        assert_eq!(packed.len(), t.size());
        assert_eq!(stats.blocks, 4);

        let mut dst = vec![0u8; t.extent()];
        let ustats = unpack(&t, 1, &mut dst, 0, &packed);
        assert_eq!(ustats.bytes, t.size());
        // Data bytes equal, gap bytes zero.
        for (i, (&a, &b)) in src.iter().zip(dst.iter()).enumerate() {
            let in_block = (i / 32) * 32 + 16 > i; // first 16 of each 32
            if in_block {
                assert_eq!(a, b, "data byte {i}");
            } else {
                assert_eq!(b, 0, "gap byte {i}");
            }
        }
    }

    #[test]
    fn pack_range_splits_arbitrarily() {
        let t = Datatype::vector(8, 3, 7, &Datatype::int());
        let src: Vec<u8> = (0..t.extent() * 2).map(|i| (i * 7) as u8).collect();
        let mut whole = Vec::new();
        pack(&t, 2, &src, 0, &mut whole);
        assert_eq!(whole.len(), 2 * t.size());

        // Re-pack in every possible (skip, chunk) split of 13 bytes.
        let mut pieced = Vec::new();
        let mut skip = 0usize;
        while skip < whole.len() {
            let mut chunk = Vec::new();
            pack_range(&t, 2, &src, 0, skip, 13, &mut chunk);
            assert!(chunk.len() <= 13);
            pieced.extend_from_slice(&chunk);
            skip += chunk.len().max(1);
        }
        assert_eq!(pieced, whole);
    }

    #[test]
    fn unpack_range_reassembles() {
        let t = Datatype::vector(5, 1, 3, &Datatype::double());
        let src: Vec<u8> = (0..t.extent()).map(|i| i as u8 ^ 0x5A).collect();
        let mut packed = Vec::new();
        pack(&t, 1, &src, 0, &mut packed);

        let mut dst = vec![0u8; t.extent()];
        // Deliver in chunks of 7 via unpack_range.
        let mut off = 0;
        for chunk in packed.chunks(7) {
            unpack_range(&t, 1, &mut dst, 0, off, chunk);
            off += chunk.len();
        }
        let mut dst2 = vec![0u8; t.extent()];
        unpack(&t, 1, &mut dst2, 0, &packed);
        assert_eq!(dst, dst2);
    }

    #[test]
    fn visits_scale_with_blocks_for_strided() {
        let n = 64;
        let t = Datatype::vector(n, 1, 2, &Datatype::double());
        let src = vec![0u8; t.extent()];
        let mut out = Vec::new();
        let stats = pack(&t, 1, &src, 0, &mut out);
        assert_eq!(stats.blocks, n);
        assert!(stats.visits >= n, "visits {} blocks {}", stats.visits, n);
        // A contiguous type of the same size needs only O(1) visits.
        let c = Datatype::contiguous(n, &Datatype::double());
        let mut out2 = Vec::new();
        let cstats = pack(&c, 1, &src[..c.extent()], 0, &mut out2);
        assert_eq!(cstats.blocks, 1);
        assert!(cstats.visits <= 2);
    }

    #[test]
    fn negative_displacement_with_origin() {
        let t = Datatype::hindexed(&[(1, -8), (1, 8)], &Datatype::double());
        let src: Vec<u8> = (0..32).map(|i| i as u8).collect();
        let mut out = Vec::new();
        // Displacement 0 sits at byte 8 of the buffer.
        pack(&t, 1, &src, 8, &mut out);
        assert_eq!(&out[..8], &src[0..8]);
        assert_eq!(&out[8..], &src[16..24]);
    }

    #[test]
    #[should_panic(expected = "outside buffer")]
    fn out_of_range_access_panics_clearly() {
        let t = Datatype::vector(4, 1, 4, &Datatype::double());
        let src = vec![0u8; 8]; // far too small
        let mut out = Vec::new();
        pack(&t, 1, &src, 0, &mut out);
    }

    #[test]
    fn empty_type_packs_nothing() {
        let t = Datatype::contiguous(0, &Datatype::double());
        let mut out = Vec::new();
        let stats = pack(&t, 3, &[], 0, &mut out);
        assert_eq!(stats.bytes, 0);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn zero_count_packs_nothing() {
        let t = Datatype::basic(BasicType::Int);
        let mut out = Vec::new();
        let stats = pack(&t, 0, &[1, 2, 3, 4], 0, &mut out);
        assert_eq!(stats.bytes, 0);
    }
}
