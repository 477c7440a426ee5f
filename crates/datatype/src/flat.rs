//! The committed (flattened) datatype representation of `direct_pack_ff`.
//!
//! Committing a datatype walks its tree once and produces a **list of
//! leaves**: each leaf is a contiguous basic block (`len` bytes at
//! displacement `first`) plus a **stack** describing its repeat pattern —
//! one `(count, extent)` entry per tree level that replicates it (paper
//! §3.3.1, Figure 5). Two merge optimisations shrink the representation:
//!
//! * stack entries with a replication count of 1 are deleted;
//! * a leaf whose innermost stack level strides by exactly the leaf length
//!   is densified (`len *= count`, level removed);
//! * adjacent leaves with identical stacks are concatenated (e.g. the
//!   `int` and `char[3]` fields of Figure 3's struct become one 7-byte
//!   block).
//!
//! Each level also caches the byte count below it (`below`) so
//! `find_position` runs in O(leaves) + O(depth), as the paper requires for
//! partial packs.

use crate::tree;
use crate::types::{Datatype, TypeKind};
use core::ops::ControlFlow;
use std::sync::Arc;

/// One level of a leaf's repeat-pattern stack (outermost first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackLevel {
    /// Replication count at this level.
    pub count: usize,
    /// Byte distance between consecutive replications.
    pub extent: i64,
    /// Payload bytes contributed by one iteration of this level
    /// (product of inner counts × leaf length). Cached for
    /// [`Committed::find_position`].
    pub below: usize,
}

/// One flattened leaf: a contiguous basic block and its repeat pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatLeaf {
    /// Byte displacement of the first block (relative to the instance
    /// origin).
    pub first: i64,
    /// Contiguous bytes per block.
    pub len: usize,
    /// Repeat pattern, outermost level first. Empty for a single block.
    pub stack: Vec<StackLevel>,
    /// Total payload bytes of this leaf per datatype instance.
    pub total: usize,
}

impl FlatLeaf {
    /// Number of basic blocks this leaf expands to per instance.
    pub fn block_count(&self) -> usize {
        self.stack.iter().map(|l| l.count).product::<usize>().max(1)
    }
}

/// A position inside the pack stream of a committed type, resolved by
/// [`Committed::find_position`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FfPosition {
    /// Datatype instance index.
    pub instance: usize,
    /// Leaf index within the instance.
    pub leaf: usize,
    /// Odometer indices, one per stack level of that leaf.
    pub indices: Vec<usize>,
    /// Byte offset inside the current basic block.
    pub intra: usize,
}

/// Density metrics of a flattened layout, computed once at commit time.
/// The adaptive protocol selector uses these (instead of re-deriving them
/// per message) to pick between direct ff-pack, staged pack-buffer, and
/// DMA transfer paths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayoutDensity {
    /// Mean contiguous run length in bytes (`size / blocks`). 0.0 for an
    /// empty type.
    pub avg_block_len: f64,
}

/// The memoised product of flattening one datatype: the optimised leaf
/// list plus the index tables `find_position` needs. Shared by `Arc`
/// between every [`Committed`] of a structurally equal type through the
/// process-wide layout memo, so repeated commits of the same type skip the
/// tree walk entirely.
#[derive(Debug)]
pub struct Layout {
    leaves: Vec<FlatLeaf>,
    /// `prefix[k]` = payload bytes per instance in `leaves[..k]` (length
    /// `leaves.len() + 1`). Lets [`Committed::find_position`] locate the
    /// leaf by binary search in O(log N) instead of a linear scan.
    prefix: Vec<usize>,
    /// Tree-walk operations the flattening performed (recursion steps plus
    /// unrolled leaf copies) — the work a send would re-do per transfer
    /// without the cache; the protocol layer charges virtual time
    /// proportional to it when the cache is off.
    flatten_ops: usize,
    /// Adjacent-leaf merges the flattening performed; credited to
    /// `ff_leaf_merges` once per run that commits the type.
    merges: u64,
    density: LayoutDensity,
    /// Revalidation fields: a 64-bit signature collision would hand back
    /// the layout of a different type, so every cache hit cross-checks
    /// size and extent before accepting it.
    size: usize,
    extent: usize,
}

/// A committed datatype: the original tree plus the (possibly cached)
/// flattened layout.
#[derive(Clone, Debug)]
pub struct Committed {
    dt: Datatype,
    layout: Arc<Layout>,
    cache_hit: bool,
}

impl Committed {
    /// Commit `dt`: resolve the flattened representation through the
    /// process-wide layout memo (building and optimising it on a miss).
    pub fn commit(dt: &Datatype) -> Committed {
        let (layout, cache_hit) = layout_cache::resolve(dt);
        Committed {
            dt: dt.clone(),
            layout,
            cache_hit,
        }
    }

    /// The committed datatype.
    pub fn datatype(&self) -> &Datatype {
        &self.dt
    }

    /// The flattened leaves.
    pub fn leaves(&self) -> &[FlatLeaf] {
        &self.layout.leaves
    }

    /// True if this commit was served from the layout cache rather than by
    /// flattening the tree.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Tree-walk operations the flattening cost (or would have cost — the
    /// value is memoised with the layout). The protocol layer uses this to
    /// charge per-transfer re-flattening time when the cache is disabled.
    pub fn flatten_ops(&self) -> usize {
        self.layout.flatten_ops
    }

    /// Commit-time density metrics driving the adaptive path selector.
    pub fn density(&self) -> LayoutDensity {
        self.layout.density
    }

    /// Payload bytes per instance.
    pub fn size(&self) -> usize {
        self.dt.size()
    }

    /// Extent (instance stride) in bytes.
    pub fn extent(&self) -> usize {
        self.dt.extent()
    }

    /// Basic blocks per instance after merging (the `N` of the paper's
    /// complexity bound).
    pub fn blocks_per_instance(&self) -> usize {
        self.leaves().iter().map(FlatLeaf::block_count).sum()
    }

    /// The smallest basic-block length (compared against the
    /// `min_block_size` protocol knob when choosing the transfer path).
    pub fn min_block_len(&self) -> usize {
        self.leaves().iter().map(|l| l.len).min().unwrap_or(0)
    }

    /// Resolve pack-stream byte offset `skip` to a leaf/odometer position.
    /// The leaf is found by binary search over the cached prefix-sum table
    /// (O(log N)), then the odometer resolves in O(depth) — so a partial
    /// pack resumes in O(log N) + O(D), tightening the paper's
    /// O(N) + O(D) bound for multi-leaf types.
    ///
    /// Returns `None` if the type is empty or `skip` lands beyond the
    /// requested `count` instances.
    pub fn find_position(&self, skip: usize, count: usize) -> Option<FfPosition> {
        let (instance, leaf, mut rem) = self.locate(skip, count)?;
        let stack = &self.leaves()[leaf].stack;
        let mut indices = Vec::with_capacity(stack.len());
        for level in stack {
            indices.push(rem / level.below);
            rem %= level.below;
        }
        Some(FfPosition {
            instance,
            leaf,
            indices,
            intra: rem,
        })
    }

    /// Resolve pack-stream byte offset `skip` to `(instance, leaf, byte
    /// offset within that leaf's stream)` — the O(log N) half of
    /// [`Self::find_position`], which the pack loop resumes from directly.
    pub(crate) fn locate(&self, skip: usize, count: usize) -> Option<(usize, usize, usize)> {
        let size = self.size();
        if size == 0 || count == 0 {
            return None;
        }
        let instance = skip / size;
        if instance >= count {
            return None;
        }
        let rem = skip % size;
        // Last k with prefix[k] <= rem; prefix[leaves.len()] == size > rem,
        // so k indexes a real leaf (empty leaf lists never reach here:
        // size > 0 implies at least one leaf).
        let prefix = &self.layout.prefix;
        let leaf = prefix.partition_point(|&p| p <= rem) - 1;
        (leaf < self.leaves().len()).then(|| (instance, leaf, rem - prefix[leaf]))
    }
}

/// Flatten `dt` from scratch: collect, merge, refold, drop degenerate
/// leaves, and fill the cached index tables.
fn build_layout(dt: &Datatype) -> Layout {
    let mut ops = 0usize;
    let mut leaves = collect(dt, 0, &mut ops);
    let mut merges = merge_adjacent(&mut leaves);
    refold(&mut leaves);
    merges += merge_adjacent(&mut leaves);
    // Commit-time invariant: no zero-length blocks and no count-0 levels.
    // None of the current constructors can produce them (empty subtrees
    // collapse before they reach here), but a degenerate leaf that slipped
    // through the merge passes would emit empty stores on every transfer,
    // so they are dropped defensively and the invariant is pinned by a
    // regression test.
    leaves.retain(|l| l.len != 0 && l.stack.iter().all(|lvl| lvl.count != 0));
    for leaf in &mut leaves {
        finalise(leaf);
    }
    let mut prefix = Vec::with_capacity(leaves.len() + 1);
    let mut acc = 0usize;
    prefix.push(0);
    for leaf in &leaves {
        acc += leaf.total;
        prefix.push(acc);
    }
    let blocks: usize = leaves.iter().map(FlatLeaf::block_count).sum();
    let size = dt.size();
    let extent = dt.extent();
    let density = LayoutDensity {
        avg_block_len: if blocks == 0 {
            0.0
        } else {
            size as f64 / blocks as f64
        },
    };
    Layout {
        leaves,
        prefix,
        flatten_ops: ops,
        merges,
        density,
        size,
        extent,
    }
}

/// Process-wide commit-time layout memo, keyed by the structural
/// [`Datatype::signature`] — a pure function of the type: a hit returns
/// the shared `Arc<Layout>` without re-walking the type tree. The
/// `layout_cache_hits`/`layout_cache_misses` counters do not report this
/// table's state but whether the *run* has committed the signature before
/// ([`obs::count_layout_commit`]), and virtual time never depends on
/// either (the protocol layer charges flattening from `Tuning`).
mod layout_cache {
    use super::{build_layout, Layout};
    use crate::types::Datatype;
    use std::collections::HashMap;
    use std::sync::{Arc, LazyLock, Mutex};

    static TABLE: LazyLock<Mutex<HashMap<u64, Arc<Layout>>>> = LazyLock::new(Default::default);

    /// Resolve `dt`'s layout: memoised `Arc` on a hit, freshly built (and
    /// inserted) on a miss. The second tuple field reports whether the
    /// memo served the layout. One lock spans lookup, build and insert, so
    /// concurrent first commits of one type build it exactly once.
    pub(super) fn resolve(dt: &Datatype) -> (Arc<Layout>, bool) {
        let sig = dt.signature();
        let (layout, hit) = {
            let mut table = TABLE.lock().expect("layout cache poisoned");
            // Reject (astronomically unlikely) signature collisions: the
            // memoised layout must describe a type of identical footprint.
            let cached = table
                .get(&sig)
                .filter(|l| l.size == dt.size() && l.extent == dt.extent());
            match cached {
                Some(l) => (Arc::clone(l), true),
                None => {
                    let l = Arc::new(build_layout(dt));
                    table.insert(sig, Arc::clone(&l));
                    (l, false)
                }
            }
        };
        obs::count_layout_commit(sig, layout.merges);
        (layout, hit)
    }
}

/// Recursive flattening of one instance at displacement `disp`. Returns
/// leaves in **stream (pack) order**; every stack level on a returned leaf
/// replicates that single leaf, so iterating each leaf's odometer fully,
/// leaf by leaf, reproduces canonical MPI pack order exactly.
///
/// Replication over a *multi-leaf* subtree cannot be expressed as a stack
/// level without reordering the stream (all copies of leaf 1 would pack
/// before any copy of leaf 2), so such replications are **unrolled** at
/// commit time. The later [`refold`] pass recovers compact levels whenever
/// adjacent-leaf merging collapses the subtree to a single block (the
/// common case, e.g. Figure 3's struct).
///
/// `ops` tallies the flattening work (one per node visited, one per
/// unrolled leaf copy) — the basis of the re-flattening time charge when
/// the layout cache is off.
fn collect(dt: &Datatype, disp: i64, ops: &mut usize) -> Vec<FlatLeaf> {
    *ops += 1;
    if dt.size() == 0 {
        return Vec::new();
    }
    if dt.ordered_dense() {
        return vec![FlatLeaf {
            first: disp + dt.lb(),
            len: dt.size(),
            stack: Vec::new(),
            total: 0,
        }];
    }
    match dt.kind() {
        TypeKind::Basic(b) => vec![FlatLeaf {
            first: disp,
            len: b.size(),
            stack: Vec::new(),
            total: 0,
        }],
        TypeKind::Contiguous { count, child } => {
            let inner = collect(child, 0, ops);
            replicate(inner, *count, child.extent() as i64, disp, ops)
        }
        TypeKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            let cext = child.extent() as i64;
            let block = replicate(collect(child, 0, ops), *blocklen, cext, 0, ops);
            replicate(block, *count, *stride_bytes, disp, ops)
        }
        TypeKind::Hindexed { blocks, child } => {
            let cext = child.extent() as i64;
            let inner = collect(child, 0, ops);
            let mut out = Vec::new();
            for &(bl, d) in blocks {
                *ops += 1;
                out.extend(replicate(inner.clone(), bl, cext, disp + d, ops));
            }
            out
        }
        TypeKind::Struct { fields } => {
            let mut out = Vec::new();
            for (bl, d, t) in fields {
                let inner = collect(t, 0, ops);
                out.extend(replicate(inner, *bl, t.extent() as i64, disp + d, ops));
            }
            out
        }
    }
}

/// Replicate a leaf list `count` times at `extent`-byte intervals starting
/// at `disp`. Single-leaf lists gain a stack level; multi-leaf lists are
/// unrolled to preserve stream order (each unrolled copy tallies one
/// flattening op).
fn replicate(
    mut leaves: Vec<FlatLeaf>,
    count: usize,
    extent: i64,
    disp: i64,
    ops: &mut usize,
) -> Vec<FlatLeaf> {
    if count == 0 || leaves.is_empty() {
        return Vec::new();
    }
    if leaves.len() == 1 {
        *ops += 1;
        let mut leaf = leaves.pop().expect("len checked");
        leaf.first += disp;
        if count > 1 {
            leaf.stack.insert(
                0,
                StackLevel {
                    count,
                    extent,
                    below: 0,
                },
            );
        }
        return vec![leaf];
    }
    let mut out = Vec::with_capacity(leaves.len() * count);
    for i in 0..count {
        for leaf in &leaves {
            *ops += 1;
            let mut l = leaf.clone();
            l.first += disp + i as i64 * extent;
            out.push(l);
        }
    }
    out
}

/// Adjacent-leaf merge: identical stacks and byte-adjacent blocks become
/// one longer block; densify afterwards since the merge may have closed
/// the last gap. Returns the number of merges performed.
fn merge_adjacent(leaves: &mut Vec<FlatLeaf>) -> u64 {
    for leaf in leaves.iter_mut() {
        optimise(leaf);
    }
    let mut merges = 0;
    let mut merged: Vec<FlatLeaf> = Vec::with_capacity(leaves.len());
    for leaf in leaves.drain(..) {
        if let Some(prev) = merged.last_mut() {
            if prev.stack == leaf.stack && prev.first + prev.len as i64 == leaf.first {
                merges += 1;
                prev.len += leaf.len;
                optimise(prev);
                continue;
            }
        }
        merged.push(leaf);
    }
    *leaves = merged;
    merges
}

/// Recover stack levels from unrolled runs: a run of leaves with equal
/// `(len, stack)` whose `first` values form an arithmetic progression
/// folds back into one leaf with a prepended level. This undoes the
/// unrolling of [`replicate`] wherever merging collapsed a multi-leaf
/// subtree into a single block per iteration.
fn refold(leaves: &mut Vec<FlatLeaf>) {
    let mut out: Vec<FlatLeaf> = Vec::with_capacity(leaves.len());
    let mut i = 0;
    while i < leaves.len() {
        let base = leaves[i].clone();
        let mut run = 1;
        let mut stride = 0i64;
        while i + run < leaves.len() {
            let next = &leaves[i + run];
            if next.len != base.len || next.stack != base.stack {
                break;
            }
            let d = next.first - leaves[i + run - 1].first;
            if run == 1 {
                stride = d;
            } else if d != stride {
                break;
            }
            run += 1;
        }
        if run > 1 && stride > 0 {
            let mut folded = base;
            folded.stack.insert(
                0,
                StackLevel {
                    count: run,
                    extent: stride,
                    below: 0,
                },
            );
            optimise(&mut folded);
            out.push(folded);
            i += run;
        } else {
            out.push(base);
            i += 1;
        }
    }
    *leaves = out;
}

/// Remove count-1 levels and densify the innermost level(s).
fn optimise(leaf: &mut FlatLeaf) {
    leaf.stack.retain(|l| l.count != 1);
    while let Some(last) = leaf.stack.last() {
        if last.extent == leaf.len as i64 {
            leaf.len *= last.count;
            leaf.stack.pop();
        } else {
            break;
        }
    }
}

/// Fill the cached `below`/`total` byte counts.
fn finalise(leaf: &mut FlatLeaf) {
    let mut below = leaf.len;
    for level in leaf.stack.iter_mut().rev() {
        level.below = below;
        below *= level.count;
    }
    leaf.total = below;
}

/// True if a committed type expands to exactly the segments of the
/// reference tree walk (a check for tests).
pub fn expansion_matches_tree(c: &Committed, count: usize) -> bool {
    let mut tree_segs: Vec<(i64, usize)> = Vec::new();
    tree::for_each_segment(c.datatype(), count, |d, l| {
        tree_segs.push((d, l));
        ControlFlow::Continue(())
    });
    let mut ff_segs: Vec<(i64, usize)> = Vec::new();
    crate::ff::for_each_block(c, count, 0, usize::MAX, |disp, len| {
        // Coalesce adjacent exactly like the tree walker.
        if let Some(last) = ff_segs.last_mut() {
            if last.0 + last.1 as i64 == disp {
                last.1 += len;
                return ControlFlow::Continue(());
            }
        }
        ff_segs.push((disp, len));
        ControlFlow::Continue(())
    });
    tree_segs == ff_segs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_type_is_one_leaf_no_stack() {
        let t = Datatype::contiguous(100, &Datatype::double());
        let c = Committed::commit(&t);
        assert_eq!(c.leaves().len(), 1);
        let leaf = &c.leaves()[0];
        assert_eq!(leaf.len, 800);
        assert!(leaf.stack.is_empty());
        assert_eq!(leaf.total, 800);
        assert_eq!(c.blocks_per_instance(), 1);
    }

    #[test]
    fn strided_vector_is_one_leaf_one_level() {
        let t = Datatype::vector(16, 2, 4, &Datatype::double());
        let c = Committed::commit(&t);
        assert_eq!(c.leaves().len(), 1);
        let leaf = &c.leaves()[0];
        assert_eq!(leaf.len, 16); // 2 doubles
        assert_eq!(leaf.stack.len(), 1);
        assert_eq!(leaf.stack[0].count, 16);
        assert_eq!(leaf.stack[0].extent, 32);
        assert_eq!(leaf.total, 256);
        assert_eq!(c.min_block_len(), 16);
    }

    #[test]
    fn dense_vector_densifies_completely() {
        let t = Datatype::vector(16, 4, 4, &Datatype::int());
        let c = Committed::commit(&t);
        assert_eq!(c.leaves().len(), 1);
        assert!(c.leaves()[0].stack.is_empty());
        assert_eq!(c.leaves()[0].len, 256);
    }

    #[test]
    fn figure3_struct_merges_int_and_chars() {
        // struct { int @0; char[3] @4 } — adjacent fields merge to one
        // 7-byte block (paper Figure 5).
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let c = Committed::commit(&s);
        assert_eq!(c.leaves().len(), 1);
        assert_eq!(c.leaves()[0].len, 7);
        assert!(c.leaves()[0].stack.is_empty());
    }

    #[test]
    fn figure5_vector_of_structs() {
        // hvector(4, 1, 16B) of the Figure 3 struct: one leaf, len 7,
        // stack [(4, 16)].
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let v = Datatype::hvector(4, 1, 16, &s);
        let c = Committed::commit(&v);
        assert_eq!(c.leaves().len(), 1, "leaves: {:?}", c.leaves());
        let leaf = &c.leaves()[0];
        assert_eq!(leaf.len, 7);
        assert_eq!(leaf.stack.len(), 1);
        assert_eq!(
            leaf.stack[0],
            StackLevel {
                count: 4,
                extent: 16,
                below: 7
            }
        );
        assert_eq!(leaf.total, 28);
        assert_eq!(c.blocks_per_instance(), 4);
    }

    #[test]
    fn gapped_struct_refolds_into_strided_leaf() {
        // Two equal-size fields 8 bytes apart: the refold pass recognises
        // the arithmetic progression and represents them as one leaf with
        // a count-2 level — even more compact than two leaves.
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 8, Datatype::int())]);
        let c = Committed::commit(&s);
        assert_eq!(c.leaves().len(), 1);
        let leaf = &c.leaves()[0];
        assert_eq!((leaf.first, leaf.len), (0, 4));
        assert_eq!(
            leaf.stack,
            vec![StackLevel {
                count: 2,
                extent: 8,
                below: 4
            }]
        );
    }

    #[test]
    fn unequal_struct_fields_keep_two_leaves() {
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 8, Datatype::double())]);
        let c = Committed::commit(&s);
        assert_eq!(c.leaves().len(), 2);
        assert_eq!(c.leaves()[0].first, 0);
        assert_eq!(c.leaves()[0].len, 4);
        assert_eq!(c.leaves()[1].first, 8);
        assert_eq!(c.leaves()[1].len, 8);
    }

    #[test]
    fn interleaved_multi_leaf_replication_preserves_stream_order() {
        // The proptest-found case: replication over a multi-leaf subtree
        // must unroll (or refold compatibly), never reorder the stream.
        let s = Datatype::structure(&[(1, 0, Datatype::byte()), (1, 2, Datatype::byte())]);
        let h = Datatype::hvector(1, 1, 3, &s);
        let t = Datatype::contiguous(2, &h);
        let c = Committed::commit(&t);
        assert!(expansion_matches_tree(&c, 1));
        assert!(expansion_matches_tree(&c, 3));
    }

    #[test]
    fn count1_levels_are_elided() {
        // vector(1, 3, 100, int): the count-1 level must vanish, leaving a
        // dense 12-byte leaf.
        let t = Datatype::vector(1, 3, 100, &Datatype::int());
        let c = Committed::commit(&t);
        assert_eq!(c.leaves().len(), 1);
        assert_eq!(c.leaves()[0].len, 12);
        assert!(c.leaves()[0].stack.is_empty());
    }

    #[test]
    fn nested_vector_keeps_two_levels() {
        let inner = Datatype::vector(4, 1, 2, &Datatype::double()); // strided
        let outer = Datatype::hvector(3, 1, 100, &inner);
        let c = Committed::commit(&outer);
        assert_eq!(c.leaves().len(), 1);
        let leaf = &c.leaves()[0];
        assert_eq!(leaf.len, 8);
        assert_eq!(leaf.stack.len(), 2);
        assert_eq!(leaf.stack[0].count, 3);
        assert_eq!(leaf.stack[0].extent, 100);
        assert_eq!(leaf.stack[1].count, 4);
        assert_eq!(leaf.stack[1].extent, 16);
        assert_eq!(leaf.stack[1].below, 8);
        assert_eq!(leaf.stack[0].below, 32);
        assert_eq!(leaf.total, 96);
        assert_eq!(c.blocks_per_instance(), 12);
    }

    #[test]
    fn find_position_walks_levels() {
        let t = Datatype::vector(16, 2, 4, &Datatype::double()); // leaf len 16
        let c = Committed::commit(&t);
        // Offset 0.
        let p = c.find_position(0, 2).unwrap();
        assert_eq!((p.instance, p.leaf, p.intra), (0, 0, 0));
        assert_eq!(p.indices, vec![0]);
        // Offset 40 = block 2 (bytes 32..48), intra 8.
        let p = c.find_position(40, 2).unwrap();
        assert_eq!(p.indices, vec![2]);
        assert_eq!(p.intra, 8);
        // Second instance: offset 256+16 → instance 1, block 1.
        let p = c.find_position(272, 2).unwrap();
        assert_eq!(p.instance, 1);
        assert_eq!(p.indices, vec![1]);
        assert_eq!(p.intra, 0);
        // Beyond the data.
        assert!(c.find_position(512, 2).is_none());
    }

    #[test]
    fn find_position_multi_leaf() {
        // Unequal fields stay as two leaves; stream offset 5 is inside
        // the second field.
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 8, Datatype::double())]);
        let c = Committed::commit(&s);
        let p = c.find_position(5, 1).unwrap();
        assert_eq!(p.leaf, 1);
        assert_eq!(p.intra, 1);
        // And in the refolded equal-field struct, offset 5 maps to the
        // second odometer position of the single leaf.
        let s2 = Datatype::structure(&[(1, 0, Datatype::int()), (1, 8, Datatype::int())]);
        let c2 = Committed::commit(&s2);
        let p2 = c2.find_position(5, 1).unwrap();
        assert_eq!(p2.leaf, 0);
        assert_eq!(p2.indices, vec![1]);
        assert_eq!(p2.intra, 1);
    }

    #[test]
    fn empty_type_has_no_leaves() {
        let t = Datatype::contiguous(0, &Datatype::double());
        let c = Committed::commit(&t);
        assert!(c.leaves().is_empty());
        assert_eq!(c.blocks_per_instance(), 0);
        assert!(c.find_position(0, 1).is_none());
    }

    #[test]
    fn layout_cache_shares_layout_across_commits() {
        // Two commits of structurally equal (but separately built) types
        // must share one Arc'd layout; an unusual stride keeps the key
        // private to this test.
        let a = Datatype::vector(13, 3, 11, &Datatype::double());
        let b = Datatype::vector(13, 3, 11, &Datatype::double());
        let ca = Committed::commit(&a);
        let cb = Committed::commit(&b);
        assert!(Arc::ptr_eq(&ca.layout, &cb.layout));
        assert!(cb.cache_hit());
        assert_eq!(ca.leaves(), cb.leaves());
        assert_eq!(ca.flatten_ops(), cb.flatten_ops());
    }

    #[test]
    fn concurrent_first_commits_build_the_layout_once() {
        // Eight threads commit one never-seen type at the same moment:
        // the table lock spans lookup + build + insert, so exactly one of
        // them flattens and the other seven share its layout.
        let t = Datatype::vector(17, 5, 23, &Datatype::double());
        let start = std::sync::Barrier::new(8);
        let commits: Vec<Committed> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        Committed::commit(&t)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(commits.iter().filter(|c| !c.cache_hit()).count(), 1);
        assert!(commits
            .iter()
            .all(|c| Arc::ptr_eq(&c.layout, &commits[0].layout)));
    }

    #[test]
    fn cold_commit_reports_miss_and_correct_metadata() {
        let t = Datatype::vector(9, 2, 7, &Datatype::int());
        let c = Committed::commit(&t);
        assert!(!c.cache_hit() || Committed::commit(&t).cache_hit());
        assert!(c.flatten_ops() > 0);
        // 9 blocks of 8 bytes.
        assert!((c.density().avg_block_len - 8.0).abs() < 1e-9);
    }

    #[test]
    fn density_of_contiguous_type_is_one_block() {
        let t = Datatype::contiguous(64, &Datatype::double());
        let c = Committed::commit(&t);
        assert_eq!(c.density().avg_block_len, 512.0);
        // Empty types report a harmless density.
        let e = Committed::commit(&Datatype::contiguous(0, &Datatype::int()));
        assert_eq!(e.density().avg_block_len, 0.0);
    }

    #[test]
    fn no_zero_length_leaves_survive_commit() {
        // Regression: degenerate blocks (zero count, zero blocklen,
        // empty children) must never leave a zero-length leaf behind —
        // such a leaf would emit empty stores on every transfer. Mix
        // degenerate entries through every constructor that takes them.
        let empty = Datatype::contiguous(0, &Datatype::double());
        let cases = [
            Datatype::indexed(&[(0, 3), (2, 0), (0, 9)], &Datatype::int()),
            Datatype::hindexed(&[(1, 8), (0, 0)], &Datatype::double()),
            Datatype::structure(&[
                (0, 0, Datatype::int()),
                (1, 4, Datatype::int()),
                (3, 16, empty.clone()),
            ]),
            Datatype::vector(4, 2, 3, &Datatype::structure(&[(1, 0, Datatype::byte())])),
            Datatype::hvector(3, 2, 64, &empty),
            Datatype::contiguous(5, &Datatype::structure(&[])),
        ];
        for t in &cases {
            let c = Committed::commit(t);
            for leaf in c.leaves() {
                assert!(leaf.len > 0, "zero-length leaf for {t}: {leaf:?}");
                assert!(
                    leaf.stack.iter().all(|l| l.count > 0),
                    "count-0 level for {t}: {leaf:?}"
                );
            }
            // And the expansion emits no empty stores.
            crate::ff::for_each_block(&c, 2, 0, usize::MAX, |_, len| {
                assert!(len > 0, "empty store emitted for {t}");
                ControlFlow::Continue(())
            });
            assert!(expansion_matches_tree(&c, 2), "expansion broke for {t}");
        }
    }

    #[test]
    fn find_position_agrees_with_linear_scan_on_multi_leaf_types() {
        // The prefix-sum binary search must match the old linear walk at
        // every stream offset, including leaf boundaries.
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[
            (1, 0, Datatype::int()),
            (1, 8, Datatype::double()),
            (2, 24, chars),
        ]);
        let c = Committed::commit(&s);
        let size = c.size();
        for skip in 0..size * 2 {
            let p = c.find_position(skip, 2).expect("in range");
            // Reference: linear scan over leaves.
            let mut rem = skip % size;
            let mut leaf_idx = 0;
            for (k, leaf) in c.leaves().iter().enumerate() {
                if rem >= leaf.total {
                    rem -= leaf.total;
                } else {
                    leaf_idx = k;
                    break;
                }
            }
            assert_eq!(p.instance, skip / size, "skip {skip}");
            assert_eq!(p.leaf, leaf_idx, "skip {skip}");
            let mut expect_rem = rem;
            let mut expect_indices = Vec::new();
            for level in &c.leaves()[leaf_idx].stack {
                expect_indices.push(expect_rem / level.below);
                expect_rem %= level.below;
            }
            assert_eq!(p.indices, expect_indices, "skip {skip}");
            assert_eq!(p.intra, expect_rem, "skip {skip}");
        }
        assert!(c.find_position(size * 2, 2).is_none());
    }

    #[test]
    fn expansion_matches_tree_for_samples() {
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let samples = [
            Datatype::double(),
            Datatype::contiguous(7, &Datatype::int()),
            Datatype::vector(5, 2, 3, &Datatype::double()),
            Datatype::hvector(4, 1, 16, &s),
            Datatype::indexed(&[(2, 0), (1, 5), (3, 10)], &Datatype::int()),
            Datatype::hindexed(&[(1, 24), (2, 0)], &Datatype::double()),
            Datatype::structure(&[
                (2, 0, Datatype::int()),
                (1, 16, Datatype::vector(3, 1, 2, &Datatype::double())),
            ]),
        ];
        for t in &samples {
            let c = Committed::commit(t);
            for count in [1usize, 2, 3] {
                assert!(
                    expansion_matches_tree(&c, count),
                    "mismatch for {t} count {count}"
                );
            }
        }
    }
}
