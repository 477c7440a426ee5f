//! The reference walker: recursive traversal of the datatype tree, as in
//! unmodified MPICH.
//!
//! The paper's point is that this traversal is expensive — "time consuming
//! repeated recursive traversal of the datatype tree" — which is why the
//! runtime packs from the committed leaf list ([`crate::ff`]) and prices
//! the generic baseline as a cost mode over the same runs. What is kept
//! here is small and independent of the commit: the oracles compare the
//! committed engine against it.
//!
//! The walker emits the type's *segments* — maximal runs of contiguous
//! bytes in pack order — and adjacent segments are coalesced, so a fully
//! contiguous type costs exactly one segment. Pack order is the canonical
//! MPI order (constructor order), which is why coalescing must respect
//! [`crate::Datatype::ordered_dense`] rather than mere coverage.

use crate::types::{Datatype, TypeKind};
use core::ops::ControlFlow;

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

/// The pack stream of `count` instances of `dt` in `src` (displacement 0
/// at byte 0), one copy per segment.
pub fn reference_pack(dt: &Datatype, count: usize, src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(dt.size() * count);
    for_each_segment(dt, count, |disp, len| {
        out.extend_from_slice(&src[disp as usize..][..len]);
        ControlFlow::Continue(())
    });
    out
}

/// Unpack the full pack stream `data` of `count` instances of `dt` into
/// `dst` (displacement 0 at byte 0), one copy per segment.
pub fn reference_unpack(dt: &Datatype, count: usize, dst: &mut [u8], data: &[u8]) {
    let mut at = 0;
    for_each_segment(dt, count, |disp, len| {
        dst[disp as usize..][..len].copy_from_slice(&data[at..at + len]);
        at += len;
        ControlFlow::Continue(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reference_pair_roundtrips_a_strided_vector() {
        let t = Datatype::vector(4, 2, 4, &Datatype::double());
        let src: Vec<u8> = (0..t.extent()).map(|i| i as u8).collect();
        let packed = reference_pack(&t, 1, &src);
        assert_eq!(packed.len(), t.size());
        let mut dst = vec![0u8; t.extent()];
        reference_unpack(&t, 1, &mut dst, &packed);
        // Data bytes equal, gap bytes zero.
        for (i, (&a, &b)) in src.iter().zip(dst.iter()).enumerate() {
            let in_block = i % 32 < 16;
            assert_eq!(b, if in_block { a } else { 0 }, "byte {i}");
        }
    }

    #[test]
    fn visits_scale_with_blocks_for_strided() {
        let visits = |dt: &Datatype| for_each_segment(dt, 1, |_, _| ControlFlow::Continue(()));
        let n = 64;
        let strided = visits(&Datatype::vector(n, 1, 2, &Datatype::double()));
        assert!(strided >= n, "visits {strided} blocks {n}");
        // A contiguous type of the same size needs only O(1) visits.
        assert!(visits(&Datatype::contiguous(n, &Datatype::double())) <= 2);
    }
}
