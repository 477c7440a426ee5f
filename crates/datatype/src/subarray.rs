//! Subarray datatype construction (`MPI_Type_create_subarray`).
//!
//! The ocean-model decomposition of the paper's Figure 2 describes its
//! boundary exchanges most naturally as subarrays of the local grid:
//! an n-dimensional array with a smaller n-dimensional window into it.
//! This module builds the equivalent nested hvector tree, which
//! then flattens through the ordinary commit path — a 2-D boundary plane
//! of a 3-D grid becomes exactly the "double-strided data" of Figure 2.

use crate::types::Datatype;

/// Memory order of array dimensions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ArrayOrder {
    /// C order: the *last* dimension is contiguous in memory.
    #[default]
    C,
    /// Fortran order: the *first* dimension is contiguous.
    Fortran,
}

/// Build a datatype describing the `sub`-shaped window at `start` inside
/// a `shape`-d array of `elem` elements (`MPI_Type_create_subarray`).
///
/// All slices must have the same length (the number of dimensions, ≥ 1);
/// the window must fit inside the array. The resulting type's extent
/// always spans the **whole array**, so consecutive counts index whole
/// arrays, exactly like the MPI constructor.
///
/// # Panics
///
/// Panics if the dimensions are inconsistent or the window does not fit.
pub fn subarray(
    shape: &[usize],
    sub: &[usize],
    start: &[usize],
    order: ArrayOrder,
    elem: &Datatype,
) -> Datatype {
    assert!(!shape.is_empty(), "subarray needs at least one dimension");
    assert_eq!(shape.len(), sub.len(), "shape/sub dimension mismatch");
    assert_eq!(shape.len(), start.len(), "shape/start dimension mismatch");
    for d in 0..shape.len() {
        assert!(
            start[d] + sub[d] <= shape[d] && sub[d] > 0,
            "window [{}, {}) does not fit dimension {d} of size {}",
            start[d],
            start[d] + sub[d],
            shape[d]
        );
    }
    // Normalise to C order: dims[0] slowest ... dims[n-1] contiguous.
    let (shape_c, sub_c, start_c): (Vec<usize>, Vec<usize>, Vec<usize>) = match order {
        ArrayOrder::C => (shape.to_vec(), sub.to_vec(), start.to_vec()),
        ArrayOrder::Fortran => (
            shape.iter().rev().copied().collect(),
            sub.iter().rev().copied().collect(),
            start.iter().rev().copied().collect(),
        ),
    };
    let esize = elem.extent() as i64;
    let ndims = shape_c.len();

    // Row strides in elements, innermost dimension first.
    let mut stride = vec![1i64; ndims];
    for d in (0..ndims.saturating_sub(1)).rev() {
        stride[d] = stride[d + 1] * shape_c[d + 1] as i64;
    }

    // Innermost dimension: a contiguous run of elements.
    let mut t = Datatype::contiguous(sub_c[ndims - 1], elem);
    // Wrap outward: each dimension replicates with the row stride.
    for d in (0..ndims.saturating_sub(1)).rev() {
        t = Datatype::hvector(sub_c[d], 1, stride[d] * esize, &t);
    }
    // Place at the start offset, and pad the extent to the full array via
    // an hindexed envelope: one block at the start displacement plus
    // explicit lb/ub through a struct with zero-length markers.
    let start_disp: i64 = (0..ndims)
        .map(|d| start_c[d] as i64 * stride[d] * esize)
        .sum();
    let total: i64 = shape_c.iter().product::<usize>() as i64 * esize;
    // A struct of [data at start_disp, empty marker at 0, empty marker at
    // total] pins lb = 0 and ub = total (the MPI_LB/MPI_UB idiom).
    let marker = Datatype::contiguous(0, &Datatype::byte());
    Datatype::structure(&[
        (1, start_disp, t),
        (1, 0, marker.clone()),
        (1, total, marker),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree;

    fn segments(dt: &Datatype) -> Vec<(i64, usize)> {
        let mut v = Vec::new();
        tree::for_each_segment(dt, 1, |d, l| {
            v.push((d, l));
            core::ops::ControlFlow::Continue(())
        });
        v
    }

    #[test]
    fn one_dimensional_window() {
        // 10 doubles, window of 3 starting at 4.
        let t = subarray(&[10], &[3], &[4], ArrayOrder::C, &Datatype::double());
        assert_eq!(t.size(), 24);
        assert_eq!(segments(&t), vec![(32, 24)]);
    }

    #[test]
    fn extent_spans_whole_array() {
        let t = subarray(&[10], &[3], &[4], ArrayOrder::C, &Datatype::double());
        // lb 0, ub 80: consecutive counts step whole arrays.
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 80);
        assert_eq!(t.extent(), 80);
    }

    #[test]
    fn two_dimensional_interior() {
        // 4x6 ints, 2x3 window at (1,2): rows 1..3, cols 2..5.
        let t = subarray(&[4, 6], &[2, 3], &[1, 2], ArrayOrder::C, &Datatype::int());
        assert_eq!(t.size(), 2 * 3 * 4);
        let segs = segments(&t);
        // Two rows of 12 bytes at (1*6+2)*4 = 32 and (2*6+2)*4 = 56.
        assert_eq!(segs, vec![(32, 12), (56, 12)]);
        assert_eq!(t.extent(), 4 * 6 * 4);
    }

    #[test]
    fn fortran_order_swaps_contiguity() {
        // Same logical window; in Fortran order the FIRST dim is
        // contiguous.
        let c = subarray(&[4, 6], &[2, 3], &[1, 2], ArrayOrder::C, &Datatype::int());
        let f = subarray(
            &[6, 4],
            &[3, 2],
            &[2, 1],
            ArrayOrder::Fortran,
            &Datatype::int(),
        );
        assert_eq!(segments(&c), segments(&f));
    }

    #[test]
    fn three_dimensional_plane_is_double_strided() {
        // The paper's Figure 2: a 3-D grid (z, y, x) C-ordered; the
        // north boundary plane (all z, one y, all x) is singly strided;
        // the east boundary (all z, all y, one x) is double-strided.
        let (nz, ny, nx) = (3usize, 4usize, 5usize);
        let north = subarray(
            &[nz, ny, nx],
            &[nz, 1, nx],
            &[0, 0, 0],
            ArrayOrder::C,
            &Datatype::double(),
        );
        let segs = segments(&north);
        assert_eq!(segs.len(), nz); // one row per level
        assert_eq!(segs[0], (0, nx * 8));
        assert_eq!(segs[1].0, (ny * nx * 8) as i64);

        let east = subarray(
            &[nz, ny, nx],
            &[nz, ny, 1],
            &[0, 0, nx - 1],
            ArrayOrder::C,
            &Datatype::double(),
        );
        let segs = segments(&east);
        assert_eq!(segs.len(), nz * ny); // one element per row per level
        assert!(segs.iter().all(|&(_, l)| l == 8));
    }

    #[test]
    fn full_window_is_contiguous() {
        let t = subarray(&[8, 8], &[8, 8], &[0, 0], ArrayOrder::C, &Datatype::byte());
        assert_eq!(segments(&t), vec![(0, 64)]);
        assert!(t.size() == t.extent());
    }

    #[test]
    fn pack_roundtrip_through_commit() {
        use crate::{ff, Committed};
        let t = subarray(&[6, 6], &[3, 2], &[2, 1], ArrayOrder::C, &Datatype::int());
        let c = Committed::commit(&t);
        assert!(crate::flat::expansion_matches_tree(&c, 2));
        let src: Vec<u8> = (0..t.extent() * 2).map(|i| i as u8).collect();
        let mut sink = ff::VecSink::default();
        ff::pack_ff(&c, 2, &src, 0, 0, usize::MAX, &mut sink).unwrap();
        assert_eq!(sink.data, tree::reference_pack(&t, 2, &src));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_window_panics() {
        let _ = subarray(&[4], &[3], &[2], ArrayOrder::C, &Datatype::int());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let _ = subarray(&[4, 4], &[2], &[0, 0], ArrayOrder::C, &Datatype::int());
    }
}
