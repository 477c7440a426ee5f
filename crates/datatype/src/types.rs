//! MPI datatype construction: basic types and the derived-type
//! constructors (`contiguous`, `vector`, `hvector`, `indexed`, `hindexed`,
//! `struct`), with MPI's size / extent / lb / ub semantics.
//!
//! A datatype is an immutable tree shared by `Arc`; committing one
//! (see [`crate::flat`]) derives the flattened representation used by
//! `direct_pack_ff`.

use std::fmt;
use std::sync::Arc;

/// The predefined (basic) datatypes — the C/Fortran scalars of MPI.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BasicType {
    /// `MPI_BYTE` / `MPI_CHAR` (1 byte).
    Byte,
    /// `MPI_SHORT` (2 bytes).
    Short,
    /// `MPI_INT` (4 bytes).
    Int,
    /// `MPI_FLOAT` (4 bytes).
    Float,
    /// `MPI_LONG` / `MPI_LONG_LONG` (8 bytes).
    Long,
    /// `MPI_DOUBLE` (8 bytes).
    Double,
}

impl BasicType {
    /// Size in bytes.
    pub const fn size(self) -> usize {
        match self {
            BasicType::Byte => 1,
            BasicType::Short => 2,
            BasicType::Int | BasicType::Float => 4,
            BasicType::Long | BasicType::Double => 8,
        }
    }
}

/// The constructor that built a (sub)type.
#[derive(Clone, Debug)]
pub enum TypeKind {
    /// A predefined scalar.
    Basic(BasicType),
    /// `count` children back to back.
    Contiguous {
        /// Replication count.
        count: usize,
        /// Element type.
        child: Datatype,
    },
    /// `count` blocks of `blocklen` children, block starts `stride`
    /// children apart (stride in units of the child's extent).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Children per block.
        blocklen: usize,
        /// Distance between block starts, in child extents.
        stride: isize,
        /// Element type.
        child: Datatype,
    },
    /// Like `Vector` but the stride is in bytes.
    Hvector {
        /// Number of blocks.
        count: usize,
        /// Children per block.
        blocklen: usize,
        /// Distance between block starts, in bytes.
        stride_bytes: i64,
        /// Element type.
        child: Datatype,
    },
    /// Blocks of varying length at varying displacements (displacements in
    /// child extents).
    Indexed {
        /// `(blocklen, displacement)` pairs, displacement in child extents.
        blocks: Vec<(usize, isize)>,
        /// Element type.
        child: Datatype,
    },
    /// Like `Indexed` but displacements are in bytes.
    Hindexed {
        /// `(blocklen, displacement_bytes)` pairs.
        blocks: Vec<(usize, i64)>,
        /// Element type.
        child: Datatype,
    },
    /// Heterogeneous fields at byte displacements (`MPI_Type_struct`).
    Struct {
        /// `(blocklen, displacement_bytes, field_type)` triples.
        fields: Vec<(usize, i64, Datatype)>,
    },
}

#[derive(Debug)]
pub(crate) struct TypeNode {
    pub(crate) kind: TypeKind,
    size: usize,
    lb: i64,
    ub: i64,
    depth: usize,
    /// True if packing this type touches a single gap-free, strictly
    /// ascending byte range — i.e. a pack is exactly one `memcpy`. Stronger
    /// than `size == extent`: an `indexed` type listing adjacent blocks in
    /// descending order is contiguous in *coverage* but not in *pack
    /// order*.
    ordered_dense: bool,
    /// Structural fingerprint: equal trees (same constructors, same
    /// parameters, structurally equal children) hash to the same value.
    /// Child signatures fold in O(1), so construction stays linear in the
    /// constructor's own argument list. Keys the commit-time layout cache
    /// (see [`crate::flat::Committed::commit`]).
    signature: u64,
}

/// An MPI datatype: an immutable, cheaply clonable tree.
#[derive(Clone, Debug)]
pub struct Datatype {
    pub(crate) node: Arc<TypeNode>,
}

impl Datatype {
    fn build(kind: TypeKind) -> Datatype {
        let (size, lb, ub, depth) = match &kind {
            TypeKind::Basic(b) => (b.size(), 0, b.size() as i64, 1),
            TypeKind::Contiguous { count, child } => {
                let ext = child.extent() as i64;
                (
                    child.size() * count,
                    if *count == 0 { 0 } else { child.lb() },
                    if *count == 0 {
                        0
                    } else {
                        child.lb() + ext * (*count as i64 - 1) + child.true_span()
                    },
                    child.depth() + 1,
                )
            }
            TypeKind::Vector {
                count,
                blocklen,
                stride,
                child,
            } => span_of_blocks(
                child,
                (0..*count).map(|i| (*blocklen, i as i64 * *stride as i64 * child.extent() as i64)),
            ),
            TypeKind::Hvector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => span_of_blocks(
                child,
                (0..*count).map(|i| (*blocklen, i as i64 * *stride_bytes)),
            ),
            TypeKind::Indexed { blocks, child } => span_of_blocks(
                child,
                blocks
                    .iter()
                    .map(|&(bl, d)| (bl, d as i64 * child.extent() as i64)),
            ),
            TypeKind::Hindexed { blocks, child } => {
                span_of_blocks(child, blocks.iter().map(|&(bl, d)| (bl, d)))
            }
            TypeKind::Struct { fields } => {
                let mut size = 0usize;
                let mut lb = i64::MAX;
                let mut ub = i64::MIN;
                let mut depth = 0usize;
                for (bl, disp, t) in fields {
                    size += t.size() * bl;
                    if *bl > 0 {
                        lb = lb.min(*disp + t.lb());
                        ub = ub.max(
                            *disp + t.lb() + t.extent() as i64 * (*bl as i64 - 1) + t.true_span(),
                        );
                    }
                    depth = depth.max(t.depth());
                }
                if lb == i64::MAX {
                    lb = 0;
                    ub = 0;
                }
                (size, lb, ub, depth + 1)
            }
        };
        let ordered_dense = if size == 0 {
            true
        } else if size as i64 != ub - lb {
            false
        } else {
            match &kind {
                TypeKind::Basic(_) => true,
                TypeKind::Contiguous { child, .. } => child.ordered_dense(),
                TypeKind::Vector {
                    count,
                    blocklen,
                    stride,
                    child,
                } => child.ordered_dense() && (*count <= 1 || *stride == *blocklen as isize),
                TypeKind::Hvector {
                    count,
                    blocklen,
                    stride_bytes,
                    child,
                } => {
                    child.ordered_dense()
                        && (*count <= 1 || *stride_bytes == (*blocklen * child.extent()) as i64)
                }
                TypeKind::Indexed { blocks, child } => {
                    child.ordered_dense()
                        && adjacent_ascending(
                            blocks.iter().map(|&(bl, d)| (bl, d as i64)),
                            child.extent() as i64,
                            child.extent() as i64,
                        )
                }
                TypeKind::Hindexed { blocks, child } => {
                    child.ordered_dense()
                        && adjacent_ascending(blocks.iter().copied(), 1, child.extent() as i64)
                }
                TypeKind::Struct { fields } => {
                    let mut cursor: Option<i64> = None;
                    let mut ok = true;
                    for (bl, disp, t) in fields {
                        if *bl == 0 || t.size() == 0 {
                            continue;
                        }
                        if !t.ordered_dense() {
                            ok = false;
                            break;
                        }
                        if let Some(c) = cursor {
                            if *disp + t.lb() != c {
                                ok = false;
                                break;
                            }
                        }
                        cursor = Some(*disp + t.lb() + (*bl * t.extent()) as i64);
                    }
                    ok
                }
            }
        };
        let signature = signature_of(&kind);
        Datatype {
            node: Arc::new(TypeNode {
                kind,
                size,
                lb,
                ub,
                depth,
                ordered_dense,
                signature,
            }),
        }
    }

    /// A basic scalar type.
    pub fn basic(b: BasicType) -> Datatype {
        Datatype::build(TypeKind::Basic(b))
    }

    /// `MPI_BYTE`.
    pub fn byte() -> Datatype {
        Datatype::basic(BasicType::Byte)
    }

    /// `MPI_INT`.
    pub fn int() -> Datatype {
        Datatype::basic(BasicType::Int)
    }

    /// `MPI_DOUBLE`.
    pub fn double() -> Datatype {
        Datatype::basic(BasicType::Double)
    }

    /// `MPI_FLOAT`.
    pub fn float() -> Datatype {
        Datatype::basic(BasicType::Float)
    }

    /// `MPI_Type_contiguous`.
    pub fn contiguous(count: usize, child: &Datatype) -> Datatype {
        Datatype::build(TypeKind::Contiguous {
            count,
            child: child.clone(),
        })
    }

    /// `MPI_Type_vector`: `count` blocks of `blocklen` elements, starts
    /// `stride` elements apart.
    pub fn vector(count: usize, blocklen: usize, stride: isize, child: &Datatype) -> Datatype {
        Datatype::build(TypeKind::Vector {
            count,
            blocklen,
            stride,
            child: child.clone(),
        })
    }

    /// `MPI_Type_hvector`: like [`Datatype::vector`] with a byte stride.
    pub fn hvector(count: usize, blocklen: usize, stride_bytes: i64, child: &Datatype) -> Datatype {
        Datatype::build(TypeKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child: child.clone(),
        })
    }

    /// `MPI_Type_indexed`: `(blocklen, displacement)` pairs, displacements
    /// in element extents.
    pub fn indexed(blocks: &[(usize, isize)], child: &Datatype) -> Datatype {
        Datatype::build(TypeKind::Indexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// `MPI_Type_hindexed`: like [`Datatype::indexed`] with byte
    /// displacements.
    pub fn hindexed(blocks: &[(usize, i64)], child: &Datatype) -> Datatype {
        Datatype::build(TypeKind::Hindexed {
            blocks: blocks.to_vec(),
            child: child.clone(),
        })
    }

    /// `MPI_Type_struct`: heterogeneous `(blocklen, byte displacement,
    /// type)` fields.
    pub fn structure(fields: &[(usize, i64, Datatype)]) -> Datatype {
        Datatype::build(TypeKind::Struct {
            fields: fields.to_vec(),
        })
    }

    /// Total payload bytes of one instance (`MPI_Type_size`).
    pub fn size(&self) -> usize {
        self.node.size
    }

    /// Lower bound: smallest byte displacement touched.
    pub fn lb(&self) -> i64 {
        self.node.lb
    }

    /// Upper bound: one past the largest byte displacement touched.
    pub fn ub(&self) -> i64 {
        self.node.ub
    }

    /// Extent (`ub - lb`): the stride between consecutive instances in a
    /// `count > 1` send.
    pub fn extent(&self) -> usize {
        (self.node.ub - self.node.lb).max(0) as usize
    }

    /// `ub - lb` for one child instance placed at displacement 0 (used when
    /// computing spans of replicated children).
    fn true_span(&self) -> i64 {
        self.node.ub - self.node.lb
    }

    /// Depth of the constructor tree (the paper's `D` in the
    /// `find_position` complexity bound).
    pub fn depth(&self) -> usize {
        self.node.depth
    }

    /// The constructor of the root node.
    pub fn kind(&self) -> &TypeKind {
        &self.node.kind
    }

    /// True if the data of one instance is a single gap-free block, i.e.
    /// `size == extent` (the fast path every MPI library special-cases).
    pub fn is_contiguous(&self) -> bool {
        self.size() == self.extent()
    }

    /// True if packing one instance is a single ascending `memcpy`
    /// (contiguous coverage *and* ascending pack order). See
    /// [`crate::tree`] for why order matters.
    pub fn ordered_dense(&self) -> bool {
        self.node.ordered_dense
    }

    /// Structural fingerprint of the constructor tree. Two independently
    /// built types with the same constructors and parameters share a
    /// signature; it is the key of the commit-time layout cache. Collisions
    /// are possible in principle (64-bit FNV fold) — the cache revalidates
    /// size/extent on every hit as a cheap sanity check.
    pub fn signature(&self) -> u64 {
        self.node.signature
    }
}

/// One FNV-1a step over a 64-bit word.
fn sig_word(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fold a structural fingerprint of `kind`: a constructor tag, the
/// constructor's own parameters, and the children's already-computed
/// signatures. Children fold in O(1), so building a depth-`D` tree costs
/// O(total constructor arguments), not O(tree size).
fn signature_of(kind: &TypeKind) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    match kind {
        TypeKind::Basic(b) => sig_word(sig_word(BASIS, 1), b.size() as u64),
        TypeKind::Contiguous { count, child } => {
            let acc = sig_word(sig_word(BASIS, 2), *count as u64);
            sig_word(acc, child.signature())
        }
        TypeKind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let mut acc = sig_word(sig_word(BASIS, 3), *count as u64);
            acc = sig_word(acc, *blocklen as u64);
            acc = sig_word(acc, *stride as u64);
            sig_word(acc, child.signature())
        }
        TypeKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            let mut acc = sig_word(sig_word(BASIS, 4), *count as u64);
            acc = sig_word(acc, *blocklen as u64);
            acc = sig_word(acc, *stride_bytes as u64);
            sig_word(acc, child.signature())
        }
        TypeKind::Indexed { blocks, child } => {
            let mut acc = sig_word(sig_word(BASIS, 5), blocks.len() as u64);
            for &(bl, d) in blocks {
                acc = sig_word(sig_word(acc, bl as u64), d as u64);
            }
            sig_word(acc, child.signature())
        }
        TypeKind::Hindexed { blocks, child } => {
            let mut acc = sig_word(sig_word(BASIS, 6), blocks.len() as u64);
            for &(bl, d) in blocks {
                acc = sig_word(sig_word(acc, bl as u64), d as u64);
            }
            sig_word(acc, child.signature())
        }
        TypeKind::Struct { fields } => {
            let mut acc = sig_word(sig_word(BASIS, 7), fields.len() as u64);
            for (bl, disp, t) in fields {
                acc = sig_word(sig_word(acc, *bl as u64), *disp as u64);
                acc = sig_word(acc, t.signature());
            }
            acc
        }
    }
}

/// True if `(blocklen, displacement)` blocks are adjacent in ascending
/// pack order: each block begins where the previous ended.
/// `disp_unit` scales displacements to bytes; `ext` is the child extent in
/// bytes. Zero-length blocks are skipped.
fn adjacent_ascending(
    blocks: impl Iterator<Item = (usize, i64)>,
    disp_unit: i64,
    ext: i64,
) -> bool {
    let mut cursor: Option<i64> = None;
    for (bl, disp) in blocks {
        if bl == 0 {
            continue;
        }
        let start = disp * disp_unit;
        if let Some(c) = cursor {
            if start != c {
                return false;
            }
        }
        cursor = Some(start + bl as i64 * ext);
    }
    true
}

impl fmt::Display for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            TypeKind::Basic(b) => write!(f, "{b:?}"),
            TypeKind::Contiguous { count, child } => write!(f, "contig({count}, {child})"),
            TypeKind::Vector {
                count,
                blocklen,
                stride,
                child,
            } => write!(f, "vector({count}, {blocklen}, {stride}, {child})"),
            TypeKind::Hvector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => write!(f, "hvector({count}, {blocklen}, {stride_bytes}B, {child})"),
            TypeKind::Indexed { blocks, child } => {
                write!(f, "indexed({} blocks, {child})", blocks.len())
            }
            TypeKind::Hindexed { blocks, child } => {
                write!(f, "hindexed({} blocks, {child})", blocks.len())
            }
            TypeKind::Struct { fields } => write!(f, "struct({} fields)", fields.len()),
        }
    }
}

/// Compute `(size, lb, ub, depth)` of a type made of `(blocklen, byte
/// displacement)` blocks of `child`.
fn span_of_blocks(
    child: &Datatype,
    blocks: impl Iterator<Item = (usize, i64)>,
) -> (usize, i64, i64, usize) {
    let mut size = 0usize;
    let mut lb = i64::MAX;
    let mut ub = i64::MIN;
    let ext = child.extent() as i64;
    for (bl, disp) in blocks {
        size += child.size() * bl;
        if bl > 0 {
            lb = lb.min(disp + child.lb());
            ub = ub.max(disp + child.lb() + ext * (bl as i64 - 1) + child.true_span());
        }
    }
    if lb == i64::MAX {
        lb = 0;
        ub = 0;
    }
    (size, lb, ub, child.depth() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sizes() {
        assert_eq!(Datatype::byte().size(), 1);
        assert_eq!(Datatype::int().size(), 4);
        assert_eq!(Datatype::double().size(), 8);
        assert_eq!(Datatype::double().extent(), 8);
        assert!(Datatype::double().is_contiguous());
    }

    #[test]
    fn contiguous_type() {
        let t = Datatype::contiguous(10, &Datatype::double());
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert!(t.is_contiguous());
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn vector_with_gaps() {
        // The paper's noncontig benchmark type: blocks of doubles, stride
        // twice the blocksize.
        let t = Datatype::vector(4, 2, 4, &Datatype::double());
        assert_eq!(t.size(), 4 * 2 * 8);
        // Last block starts at 3*4*8 = 96, covers 16 → ub 112.
        assert_eq!(t.extent(), 112);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn vector_with_unit_stride_is_contiguous() {
        let t = Datatype::vector(4, 1, 1, &Datatype::int());
        assert_eq!(t.size(), 16);
        assert_eq!(t.extent(), 16);
        assert!(t.is_contiguous());
    }

    #[test]
    fn hvector_byte_stride() {
        let t = Datatype::hvector(3, 1, 10, &Datatype::int());
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 24); // 2*10 + 4
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::indexed(&[(2, 0), (1, 5)], &Datatype::int());
        assert_eq!(t.size(), 12);
        assert_eq!(t.extent(), 24); // block at elem 5: bytes 20..24
    }

    #[test]
    fn hindexed_with_negative_disp() {
        let t = Datatype::hindexed(&[(1, -8), (1, 8)], &Datatype::double());
        assert_eq!(t.size(), 16);
        assert_eq!(t.lb(), -8);
        assert_eq!(t.ub(), 16);
        assert_eq!(t.extent(), 24);
    }

    #[test]
    fn struct_of_int_and_chars() {
        // The paper's Figure 3 struct: int at 0, char[3] at 4, two bytes
        // of gap (extent padded via an explicit byte span would need
        // lb/ub markers; we model the natural span).
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let t = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        assert_eq!(t.size(), 7);
        assert_eq!(t.extent(), 7);
    }

    #[test]
    fn vector_of_structs() {
        // Figure 3: a vector of the struct, with gaps between elements.
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let v = Datatype::hvector(4, 1, 16, &s); // 16-byte stride: 9-byte gap
        assert_eq!(v.size(), 28);
        assert_eq!(v.extent(), 3 * 16 + 7);
        assert_eq!(v.depth(), s.depth() + 1);
    }

    #[test]
    fn zero_count_types_are_empty() {
        let t = Datatype::contiguous(0, &Datatype::double());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        let v = Datatype::vector(0, 3, 5, &Datatype::int());
        assert_eq!(v.size(), 0);
        assert_eq!(v.extent(), 0);
        let s = Datatype::structure(&[]);
        assert_eq!(s.size(), 0);
    }

    #[test]
    fn zero_blocklen_blocks_ignored_in_span() {
        let t = Datatype::indexed(&[(0, 100), (1, 0)], &Datatype::int());
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 4);
    }

    #[test]
    fn nested_vector_extent() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::int()); // 4B data, 12B span
        assert_eq!(inner.extent(), 12);
        let outer = Datatype::vector(2, 1, 2, &inner); // stride = 2*12
        assert_eq!(outer.size(), 16);
        assert_eq!(outer.extent(), 24 + 12);
    }

    #[test]
    fn display_is_readable() {
        let t = Datatype::vector(4, 2, 4, &Datatype::double());
        assert_eq!(format!("{t}"), "vector(4, 2, 4, Double)");
    }

    #[test]
    fn clone_shares_node() {
        let t = Datatype::contiguous(4, &Datatype::int());
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.node, &u.node));
    }

    #[test]
    fn ordered_dense_basics() {
        assert!(Datatype::double().ordered_dense());
        assert!(Datatype::contiguous(5, &Datatype::int()).ordered_dense());
        assert!(Datatype::vector(3, 2, 2, &Datatype::int()).ordered_dense());
        assert!(!Datatype::vector(3, 2, 4, &Datatype::int()).ordered_dense());
    }

    #[test]
    fn descending_adjacent_blocks_are_contiguous_but_not_ordered() {
        // Coverage is bytes 0..8 with no gap, but pack order is 4..8
        // then 0..4 — one memcpy would scramble the payload.
        let t = Datatype::indexed(&[(1, 1), (1, 0)], &Datatype::int());
        assert!(t.is_contiguous());
        assert!(!t.ordered_dense());
    }

    #[test]
    fn signatures_are_structural() {
        // Independently built but structurally identical trees share a
        // signature — that is what makes the layout cache hit across
        // separate `commit` calls.
        let a = Datatype::vector(16, 2, 4, &Datatype::double());
        let b = Datatype::vector(16, 2, 4, &Datatype::double());
        assert!(!Arc::ptr_eq(&a.node, &b.node));
        assert_eq!(a.signature(), b.signature());

        // Any parameter change moves the signature.
        assert_ne!(
            a.signature(),
            Datatype::vector(16, 2, 5, &Datatype::double()).signature()
        );
        assert_ne!(
            a.signature(),
            Datatype::vector(16, 2, 4, &Datatype::float()).signature()
        );
        // Different constructors with the same span differ too.
        assert_ne!(
            Datatype::indexed(&[(2, 0)], &Datatype::int()).signature(),
            Datatype::hindexed(&[(2, 0)], &Datatype::int()).signature()
        );
    }

    #[test]
    fn signature_distinguishes_nesting() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::int());
        let nested = Datatype::vector(3, 1, 2, &inner);
        let flat = Datatype::vector(3, 1, 2, &Datatype::int());
        assert_ne!(nested.signature(), flat.signature());
        // Struct field order matters (pack order differs).
        let s1 = Datatype::structure(&[(1, 0, Datatype::int()), (1, 8, Datatype::double())]);
        let s2 = Datatype::structure(&[(1, 8, Datatype::double()), (1, 0, Datatype::int())]);
        assert_ne!(s1.signature(), s2.signature());
    }

    #[test]
    fn adjacent_struct_is_ordered_dense() {
        let t = Datatype::structure(&[(1, 0, Datatype::int()), (4, 4, Datatype::byte())]);
        assert!(t.ordered_dense());
        let gapped = Datatype::structure(&[(1, 0, Datatype::int()), (4, 8, Datatype::byte())]);
        assert!(!gapped.ordered_dense());
    }
}
