//! Differential pack oracle (seeded property tests, tier-1 adjacent).
//!
//! Random datatype trees — including zero-count and zero-extent
//! degenerate shapes that the ordinary constructors allow — are driven
//! through `direct_pack_ff` and compared bit-for-bit against the
//! reference tree walker, on the commit that flattens each tree and on one
//! served from the layout memo. A second suite sweeps *every* byte-offset boundary of the
//! datatype-gallery types through `find_position`, checking that resumed
//! partial packs splice back into the full stream bit-identically. A third
//! holds the run-granular pack loop, for every `(skip, max)`, against a
//! block-by-block expansion of the committed leaves — and its segment
//! count against the reference walker's coalesced segments, which the
//! generic cost mode is charged from. The last two hold the `gather` and
//! `scatter` kernels against a byte loop and the run-taking sinks against
//! the block-taking ones. A normal-form check holds every random `vector`
//! and `indexed` against its byte-unit twin (`hvector` / `hindexed`).
//!
//! The random trees are drawn at every seed of [`SEEDS`].

mod cells;

use mpi_datatype::{ff, subarray, tree, ArrayOrder, Committed, Datatype, FfPosition, FlatLeaf};
use simclock::SplitMix64;
use std::ops::ControlFlow;

/// The seeds every random-tree test runs at.
const SEEDS: [u64; 4] = [0x0AC1E, 1, 42, 20260805];

/// A random datatype tree of at most `depth` nested levels. Unlike the
/// in-crate randomized suite, this generator deliberately mixes in
/// zero-count blocks and zero-extent children (the degenerate shapes the
/// commit-time leaf filter must absorb).
fn random_datatype(rng: &mut SplitMix64, depth: usize) -> Datatype {
    random_datatype_with(rng, depth, &mut Vec::new())
}

/// [`random_datatype`], also pushing onto `twins` every `vector` and
/// `indexed` node it builds beside the same layout in byte units: the
/// `hvector` with stride `stride * extent(child)` and the `hindexed` with
/// displacements `disp * extent(child)`. Building a twin draws nothing from
/// `rng`, so the trees are the ones [`random_datatype`] builds.
fn random_datatype_with(
    rng: &mut SplitMix64,
    depth: usize,
    twins: &mut Vec<(Datatype, Datatype)>,
) -> Datatype {
    let leaf = |rng: &mut SplitMix64| match rng.next_below(4) {
        0 => Datatype::byte(),
        1 => Datatype::int(),
        2 => Datatype::double(),
        _ => Datatype::float(),
    };
    if depth == 0 || rng.chance(0.3) {
        return leaf(rng);
    }
    let inner = if rng.chance(0.08) {
        // Zero-extent child: contiguous(0, _) has no bytes at all.
        Datatype::contiguous(0, &leaf(rng))
    } else {
        random_datatype_with(rng, depth - 1, twins)
    };
    let ext = inner.extent() as i64;
    match rng.next_below(5) {
        0 => Datatype::contiguous(rng.next_range(1, 4) as usize, &inner),
        // vector with stride >= blocklen (no overlap)
        1 => {
            let bl = rng.next_range(1, 3) as usize;
            let extra = rng.next_below(4) as isize;
            let (n, stride) = (rng.next_range(1, 4) as usize, bl as isize + extra);
            let dt = Datatype::vector(n, bl, stride, &inner);
            let bytes = Datatype::hvector(n, bl, stride as i64 * ext, &inner);
            twins.push((dt.clone(), bytes));
            dt
        }
        // hvector with byte stride >= blocklen * extent
        2 => {
            let bl = rng.next_range(1, 3) as usize;
            let extra = rng.next_below(16) as i64;
            Datatype::hvector(
                rng.next_range(1, 3) as usize,
                bl,
                (bl * inner.extent()) as i64 + extra,
                &inner,
            )
        }
        // indexed with ascending non-overlapping blocks; some zero-count
        3 => {
            let n = rng.next_range(1, 4) as usize;
            let mut disp = 0isize;
            let blocks: Vec<(usize, isize)> = (0..n)
                .map(|_| {
                    let bl = if rng.chance(0.2) {
                        0
                    } else {
                        rng.next_range(1, 2) as usize
                    };
                    let gap = rng.next_below(3) as isize;
                    let b = (bl, disp);
                    disp += bl as isize + gap;
                    b
                })
                .collect();
            let dt = Datatype::indexed(&blocks, &inner);
            let in_bytes: Vec<(usize, i64)> =
                blocks.iter().map(|&(bl, d)| (bl, d as i64 * ext)).collect();
            twins.push((dt.clone(), Datatype::hindexed(&in_bytes, &inner)));
            dt
        }
        // struct of two fields at ascending displacements; field A may be
        // zero-count
        _ => {
            let a = inner;
            let b = random_datatype_with(rng, depth - 1, twins);
            let gap = rng.next_below(8) as i64;
            let bl = if rng.chance(0.15) {
                0
            } else {
                rng.next_range(1, 2) as usize
            };
            let disp_b = (bl * a.extent()) as i64 + gap;
            Datatype::structure(&[(bl, 0, a), (1, disp_b, b)])
        }
    }
}

fn source_buffer(dt: &Datatype, count: usize) -> Vec<u8> {
    // Zero-count leading blocks give some generated types lb > 0, so the
    // footprint of `count` instances is (count-1)*extent + ub, not
    // count*extent.
    let span = count.saturating_sub(1) * dt.extent() + dt.ub().max(0) as usize;
    (0..span + 16)
        .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
        .collect()
}

/// ff pack over one commit == reference, and the packed stream is the
/// right length even for degenerate (zero-size) types.
fn assert_ff_matches_reference(dt: &Datatype, count: usize) {
    let src = source_buffer(dt, count);
    let reference = tree::reference_pack(dt, count, &src);
    assert_eq!(reference.len(), dt.size() * count);

    let c = Committed::commit(dt);
    let mut sink = ff::VecSink::default();
    ff::pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();
    assert_eq!(sink.data, reference, "ff diverged from reference for {dt}");

    // Commit-time invariant: the zero-extent shapes above must never
    // leave a zero-length leaf that would emit empty stores.
    for leaf in c.leaves() {
        assert!(leaf.len > 0, "zero-length leaf survived commit for {dt}");
    }
}

/// Differential oracle over fresh random trees.
#[test]
fn oracle_ff_equals_reference() {
    cells::each(&SEEDS, |seed| {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..300 {
            let dt = random_datatype(&mut rng, 3);
            let count = rng.next_range(1, 3) as usize;
            assert_ff_matches_reference(&dt, count);
            // A second commit of the identical tree (served from the layout
            // memo) must behave identically too.
            assert_ff_matches_reference(&dt, count);
        }
    });
}

/// What committing `dt` yields: its leaves, the flattening work it books,
/// and the adjacent-leaf merges it credits to a run that commits it first.
fn commit_facts(dt: &Datatype) -> (Vec<FlatLeaf>, usize, u64) {
    let recorder = obs::Recorder::new();
    let _bound = recorder.bind(0);
    let c = Committed::commit(dt);
    let merges = recorder.counters()[obs::Counter::FfLeafMerges];
    (c.leaves().to_vec(), c.flatten_ops(), merges)
}

/// Normal form: a `vector` or `indexed` and its byte-unit twin are one
/// layout. They commit to the same leaves with the same flattening work
/// and merges, pack the same bytes, walk the same segments and report the
/// same run stats, at every count. Only their signatures differ, so the
/// layout cache keeps counting them as distinct types.
#[test]
fn vector_and_indexed_equal_their_byte_unit_twins() {
    cells::each(&SEEDS, |seed| {
        let mut rng = SplitMix64::new(seed);
        let mut twins = Vec::new();
        for _ in 0..300 {
            random_datatype_with(&mut rng, 3, &mut twins);
        }
        assert!(twins.len() > 100, "only {} twins", twins.len());
        let segments = |dt: &Datatype, count| {
            let mut v = Vec::new();
            let visits = tree::for_each_segment(dt, count, |d, l| {
                v.push((d, l));
                ControlFlow::Continue(())
            });
            (v, visits)
        };
        for (dt, bytes) in &twins {
            assert_ne!(dt.signature(), bytes.signature(), "{dt}");
            assert_eq!(
                (dt.size(), dt.lb(), dt.ub(), dt.ordered_dense()),
                (bytes.size(), bytes.lb(), bytes.ub(), bytes.ordered_dense()),
                "bounds of {dt}"
            );
            assert_eq!(commit_facts(dt), commit_facts(bytes), "commit of {dt}");
            let (c, cb) = (Committed::commit(dt), Committed::commit(bytes));
            for count in 1..=3 {
                assert_eq!(segments(dt, count), segments(bytes, count), "{dt} x{count}");
                let src = source_buffer(dt, count);
                let total = c.size() * count;
                for (skip, max) in [(0, usize::MAX), (total / 3, total / 2 + 1)] {
                    let (mut a, mut b) = (ff::VecSink::default(), ff::VecSink::default());
                    let sa = ff::pack_ff(&c, count, &src, 0, skip, max, &mut a).unwrap();
                    let sb = ff::pack_ff(&cb, count, &src, 0, skip, max, &mut b).unwrap();
                    assert_eq!(
                        (sa, &a.data),
                        (sb, &b.data),
                        "{dt} x{count} at ({skip}, {max})"
                    );
                }
            }
        }
    });
}

/// The datatype-gallery types: every committed shape the worked example
/// tours (contiguous run, the Fig. 7 vector, the Fig. 3 struct, its
/// hvector, a ragged indexed, and the ocean-boundary subarray).
fn gallery() -> Vec<Datatype> {
    let chars = Datatype::contiguous(3, &Datatype::byte());
    let fig3 = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
    vec![
        Datatype::contiguous(12, &Datatype::double()),
        Datatype::vector(16, 2, 4, &Datatype::double()),
        fig3.clone(),
        Datatype::hvector(4, 1, 16, &fig3),
        Datatype::indexed(&[(2, 0), (3, 2), (1, 9)], &Datatype::int()),
        subarray(
            &[4, 6, 8],
            &[4, 6, 1],
            &[0, 0, 7],
            ArrayOrder::C,
            &Datatype::double(),
        ),
    ]
}

/// Partial-pack resume sweep: for every byte offset of every gallery
/// type, `find_position` resolves, and a pack resumed there splices
/// bit-identically onto the prefix.
#[test]
fn resume_splices_bit_identically_at_every_offset() {
    for dt in gallery() {
        let count = 2usize;
        let c = Committed::commit(&dt);
        let total = c.size() * count;
        let src = source_buffer(&dt, count);
        let whole = tree::reference_pack(&dt, count, &src);
        assert_eq!(whole.len(), total);

        for split in 0..=total {
            // The resume point must resolve for every in-range offset…
            let pos: Option<FfPosition> = c.find_position(split, count);
            if split < total {
                assert!(pos.is_some(), "find_position failed at {split} for {dt}");
            }
            // …and the two halves packed separately must splice into the
            // full stream.
            let mut head = ff::VecSink::default();
            ff::pack_ff(&c, count, &src, 0, 0, split, &mut head).unwrap();
            let mut tail = ff::VecSink::default();
            ff::pack_ff(&c, count, &src, 0, split, usize::MAX, &mut tail).unwrap();
            assert_eq!(head.data.len(), split, "short head at {split} for {dt}");
            let mut spliced = head.data;
            spliced.extend_from_slice(&tail.data);
            assert_eq!(spliced, whole, "splice mismatch at {split} for {dt}");
        }
    }
}

/// Zero-count and zero-extent fixed cases, spelled out (the random
/// generator reaches these shapes probabilistically; these always run).
#[test]
fn degenerate_types_pack_to_empty_or_exact_streams() {
    let empty = Datatype::contiguous(0, &Datatype::double());
    let cases = [
        Datatype::indexed(&[(0, 3), (2, 0), (0, 9)], &Datatype::int()),
        Datatype::hindexed(&[(1, 8), (0, 0)], &Datatype::double()),
        Datatype::structure(&[(0, 0, Datatype::int()), (1, 4, Datatype::int())]),
        Datatype::hvector(3, 2, 64, &empty),
        Datatype::contiguous(5, &Datatype::structure(&[])),
        empty,
    ];
    for dt in &cases {
        for count in [0usize, 1, 3] {
            let src = source_buffer(dt, count.max(1));
            let reference = tree::reference_pack(dt, count, &src);
            let c = Committed::commit(dt);
            let mut sink = ff::VecSink::default();
            ff::pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();
            assert_eq!(sink.data, reference, "degenerate {dt} x{count}");
            assert_eq!(sink.data.len(), dt.size() * count);
        }
    }
}

/// Block-by-block reference: every basic block of `count` instances in
/// pack order, each leaf expanded by a plain odometer over its stack.
fn reference_blocks(c: &Committed, count: usize) -> Vec<(i64, usize)> {
    let mut out = Vec::new();
    for j in 0..count {
        for leaf in c.leaves() {
            let mut idx = vec![0usize; leaf.stack.len()];
            'leaf: loop {
                let disp = leaf.first
                    + (j * c.extent()) as i64
                    + idx
                        .iter()
                        .zip(&leaf.stack)
                        .map(|(&i, level)| i as i64 * level.extent)
                        .sum::<i64>();
                out.push((disp, leaf.len));
                // Innermost level fastest.
                let mut level = idx.len();
                loop {
                    if level == 0 {
                        break 'leaf;
                    }
                    level -= 1;
                    idx[level] += 1;
                    if idx[level] < leaf.stack[level].count {
                        break;
                    }
                    idx[level] = 0;
                }
            }
        }
    }
    out
}

/// The bytes `[skip, skip + max)` of the stream `blocks` spell out, as
/// (possibly split) blocks. Clips segments the same way.
fn reference_range(blocks: &[(i64, usize)], skip: usize, max: usize) -> Vec<(i64, usize)> {
    let end = skip.saturating_add(max);
    let mut out = Vec::new();
    let mut at = 0usize;
    for &(disp, len) in blocks {
        let (lo, hi) = (skip.max(at), end.min(at + len));
        if lo < hi {
            out.push((disp + (lo - at) as i64, hi - lo));
        }
        at += len;
    }
    out
}

/// The types the run sweep walks: the `partial_packs_reassemble` vector,
/// the gallery, and leaves of stack depth 0 and 2, single-block inner
/// levels, multi-leaf types and types with zero-count parts.
fn run_sweep_types() -> Vec<(Datatype, usize)> {
    let strided = Datatype::vector(4, 1, 2, &Datatype::int());
    let mut types = vec![
        (Datatype::vector(6, 3, 5, &Datatype::int()), 3),
        (Datatype::contiguous(9, &Datatype::int()), 2),
        (Datatype::hvector(3, 1, 100, &strided), 2),
        (
            Datatype::hvector(2, 1, 400, &Datatype::hvector(3, 1, 100, &strided)),
            1,
        ),
        (Datatype::hvector(5, 1, 12, &Datatype::byte()), 3),
        (
            Datatype::structure(&[
                (2, 0, Datatype::int()),
                (1, 16, Datatype::vector(3, 1, 2, &Datatype::double())),
            ]),
            2,
        ),
        (
            Datatype::indexed(&[(0, 3), (2, 0), (0, 9), (1, 5)], &Datatype::int()),
            3,
        ),
        (
            Datatype::structure(&[
                (0, 0, Datatype::int()),
                (1, 4, Datatype::int()),
                (3, 16, Datatype::contiguous(0, &Datatype::double())),
                (2, 24, Datatype::vector(3, 1, 3, &Datatype::float())),
            ]),
            2,
        ),
    ];
    types.extend(gallery().into_iter().map(|dt| (dt, 2)));
    types
}

/// Run emission against the block-by-block reference, for every
/// `(skip, max)`: the same (split) blocks in the same order, whole blocks
/// only inside multi-block runs, and `PackStats` counting one block per
/// emitted block — virtual pack cost is charged from them.
#[test]
fn runs_spell_out_the_reference_blocks_for_every_skip_and_max() {
    for (dt, count) in run_sweep_types() {
        let c = Committed::commit(&dt);
        let total = c.size() * count;
        let blocks = reference_blocks(&c, count);
        assert_eq!(blocks.iter().map(|b| b.1).sum::<usize>(), total, "{dt}");
        let src = source_buffer(&dt, count);
        let maxes = |skip: usize| (0..=total - skip + 1).chain([usize::MAX]);
        for (skip, max) in (0..=total).flat_map(|skip| maxes(skip).map(move |max| (skip, max))) {
            let expect = reference_range(&blocks, skip, max);

            let mut by_block = Vec::new();
            let stats = ff::for_each_block(&c, count, skip, max, |disp, len| {
                by_block.push((disp, len));
                ControlFlow::Continue(())
            });
            assert_eq!(by_block, expect, "blocks of {dt} at ({skip}, {max})");
            assert_eq!(
                (stats.bytes, stats.blocks),
                (expect.iter().map(|b| b.1).sum::<usize>(), expect.len()),
                "stats of {dt} at ({skip}, {max})"
            );

            let mut by_run = Vec::new();
            ff::for_each_run(&c, count, skip, max, |run| {
                assert!(run.n >= 1 && run.len >= 1, "empty run for {dt}");
                by_run.extend((0..run.n as i64).map(|i| (run.disp + i * run.stride, run.len)));
                ControlFlow::Continue(())
            });
            assert_eq!(by_run, expect, "runs of {dt} at ({skip}, {max})");

            // And the packer built on the runs reports the same stats.
            let mut sink = ff::VecSink::default();
            let packed = ff::pack_ff(&c, count, &src, 0, skip, max, &mut sink).unwrap();
            assert_eq!(packed, stats, "pack_ff stats of {dt} at ({skip}, {max})");
        }
    }
}

/// The inner level of a strided leaf comes out as one run per row, not as
/// one call per block.
#[test]
fn whole_rows_are_single_runs() {
    let c = Committed::commit(&Datatype::hvector(
        3,
        1,
        100,
        &Datatype::vector(4, 1, 2, &Datatype::int()),
    ));
    let mut runs = Vec::new();
    ff::for_each_run(&c, 2, 0, usize::MAX, |run| {
        runs.push((run.disp, run.len, run.stride, run.n));
        ControlFlow::Continue(())
    });
    let row = |disp| (disp, 4, 8, 4);
    let ext = c.extent() as i64;
    assert_eq!(
        runs,
        [0, 100, 200, ext, ext + 100, ext + 200].map(row),
        "leaves: {:?}",
        c.leaves()
    );
}

/// `for_each_run`'s segment and byte counts at `(skip, max)` against the
/// reference walker's segments, which coalesce adjacent blocks as it walks
/// the tree, clipped to the range: the generic cost mode charges one
/// traversal per segment.
fn assert_segments_match_reference(dt: &Datatype, c: &Committed, count: usize) {
    let total = c.size() * count;
    let mut segments = Vec::new();
    tree::for_each_segment(dt, count, |disp, len| {
        segments.push((disp, len));
        ControlFlow::Continue(())
    });
    // Every (skip, max) of a short stream; every skip and the maxes around
    // both ends of a long one. Not `max == 0`: nothing packs zero bytes of
    // a stream.
    let maxes = |skip: usize| {
        let rest = total - skip;
        let ends = [1, 2, 3, 5, 8, 13, rest.saturating_sub(1), rest, rest + 1];
        let pick: Vec<usize> = if total <= 80 {
            (1..=rest + 1).collect()
        } else {
            ends.into_iter()
                .filter(|m| (1..=rest + 1).contains(m))
                .collect()
        };
        pick.into_iter().chain([usize::MAX])
    };
    for skip in 0..=total {
        for max in maxes(skip) {
            let reference = reference_range(&segments, skip, max);
            let runs = ff::for_each_run(c, count, skip, max, |_| ControlFlow::Continue(()));
            assert_eq!(
                (runs.segments, runs.bytes),
                (reference.len(), reference.iter().map(|s| s.1).sum()),
                "segments of {dt} x{count} at ({skip}, {max})"
            );
        }
    }
}

#[test]
fn run_segments_equal_the_reference_block_count() {
    cells::each(&SEEDS, |seed| {
        let mut rng = SplitMix64::new(seed);
        let random = (0..300).map(|_| {
            let dt = random_datatype(&mut rng, 3);
            (dt, rng.next_range(1, 3) as usize)
        });
        // `count = 3` of a type that ends where its next instance begins: the
        // junction between instances merges.
        let abutting = Datatype::hindexed(&[(4, 8), (2, 20), (6, 26)], &Datatype::byte());
        for (dt, count) in random
            .chain(run_sweep_types())
            .chain([(abutting, 3)])
            .collect::<Vec<_>>()
        {
            assert_segments_match_reference(&dt, &Committed::commit(&dt), count);
        }
    });
}

/// The two copy kernels against a byte loop, for block lengths on both
/// sides of every fixed-size move, strides of either sign and none, and
/// empty runs.
#[test]
fn gather_and_scatter_equal_a_byte_loop() {
    let buf: Vec<u8> = (0..40 * 200 + 130).map(|i| (i * 31 + 5) as u8).collect();
    for len in 1..=130usize {
        for stride in [
            len as i64,
            len as i64 + 7,
            200,
            0,
            -(len as i64),
            -200,
            3,
            -3,
        ] {
            for n in [0usize, 1, 2, 3, 7, 40] {
                // Far enough in for a negative stride to stay inside.
                let first = if stride < 0 { buf.len() - len } else { 0 };
                if (n as i64 - 1).max(0) * stride.abs() + len as i64 > buf.len() as i64 {
                    continue;
                }
                let at = |i: usize| (first as i64 + i as i64 * stride) as usize;
                let run = ff::Run {
                    disp: first as i64,
                    len,
                    stride,
                    n,
                };
                let packed: Vec<u8> = (0..n)
                    .flat_map(|i| buf[at(i)..at(i) + len].to_vec())
                    .collect();

                let mut gathered = Vec::with_capacity(n * len);
                ff::gather(&buf, run, &mut gathered.spare_capacity_mut()[..n * len]);
                // SAFETY: gather initialised exactly n * len bytes.
                unsafe { gathered.set_len(n * len) };
                assert_eq!(gathered, packed, "gather len {len} stride {stride} n {n}");

                // Blocks that overlap in the destination land in order.
                let mut expect = vec![0xEEu8; buf.len()];
                for (i, block) in packed.chunks_exact(len).enumerate() {
                    expect[at(i)..at(i) + len].copy_from_slice(block);
                }
                let mut scattered = vec![0xEEu8; buf.len()];
                ff::scatter(&packed, &mut scattered, run);
                assert_eq!(scattered, expect, "scatter len {len} stride {stride} n {n}");
            }
        }
    }
}

/// A sink that only knows `put` (so every run reaches it block by block
/// through the trait's default) and a source that only knows `take`.
#[derive(Default)]
struct ByBlock {
    data: Vec<u8>,
    pos: usize,
}

impl ff::PackSink for ByBlock {
    type Error = std::convert::Infallible;
    fn put(&mut self, src: &[u8]) -> Result<(), Self::Error> {
        self.data.extend_from_slice(src);
        Ok(())
    }
}

impl ff::UnpackSource for ByBlock {
    type Error = std::convert::Infallible;
    fn take(&mut self, dst: &mut [u8]) -> Result<(), Self::Error> {
        dst.copy_from_slice(&self.data[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
        Ok(())
    }
}

/// A sink that takes its runs a batch at a time, as `PioSink` does, and
/// records the length of every batch `pack_ff` handed it.
#[derive(Default)]
struct ByBatch {
    data: Vec<u8>,
    batches: Vec<usize>,
}

impl ff::PackSink for ByBatch {
    type Error = std::convert::Infallible;
    fn put(&mut self, _: &[u8]) -> Result<(), Self::Error> {
        unreachable!("pack_ff hands its runs to put_runs")
    }
    fn put_runs(&mut self, src: &[u8], runs: &[ff::Run]) -> Result<(), Self::Error> {
        self.batches.push(runs.len());
        for run in runs {
            (0..run.n).for_each(|i| self.data.extend_from_slice(&src[run.at(i)..][..run.len]));
        }
        Ok(())
    }
}

/// Panic unless every batch but the last fills the buffer (is as long as
/// the first) and none is empty; the number of batches.
fn check_splits(batches: &[usize], what: &str) -> usize {
    if let Some((&last, full)) = batches.split_last() {
        let cap = batches[0];
        assert!(last >= 1 && last <= cap, "{what}: batches {batches:?}");
        assert!(
            full.iter().all(|&b| b == cap),
            "{what}: batches {batches:?}"
        );
    }
    batches.len()
}

/// Sinks and sources that override the run methods see the stream the
/// default per-block loop delivers, whole and from every resume point; a
/// sink that takes runs in batches sees it across every split of the
/// batch buffer, whole and packed in chunks that resume mid-stream.
#[test]
fn run_sinks_receive_the_stream_block_sinks_do() {
    let most_batches = std::cell::Cell::new(0);
    let split = |batches: &[usize], what: String| {
        most_batches.set(most_batches.get().max(check_splits(batches, &what)));
    };
    cells::each(&SEEDS, |seed| {
        let mut rng = SplitMix64::new(seed);
        let random = (0..100).map(|_| (random_datatype(&mut rng, 3), 2));
        for (dt, count) in random.chain(run_sweep_types()).collect::<Vec<_>>() {
            let c = Committed::commit(&dt);
            let src = source_buffer(&dt, count);
            let total = c.size() * count;
            for (skip, max) in [
                (0, usize::MAX),
                (total / 3, total / 2),
                (1, 7),
                (total / 2, usize::MAX),
            ] {
                let mut by_block = ByBlock::default();
                let mut by_run = ff::VecSink::default();
                let a = ff::pack_ff(&c, count, &src, 0, skip, max, &mut by_block).unwrap();
                let b = ff::pack_ff(&c, count, &src, 0, skip, max, &mut by_run).unwrap();
                assert_eq!(a, b, "pack stats of {dt} at ({skip}, {max})");
                assert_eq!(
                    by_block.data, by_run.data,
                    "stream of {dt} at ({skip}, {max})"
                );

                let (mut into_a, mut into_b) = (vec![0xEEu8; src.len()], vec![0xEEu8; src.len()]);
                let len = by_run.data.len();
                let mut source = ff::SliceSource::new(&by_run.data);
                ff::unpack_ff(&c, count, &mut into_a, 0, skip, len, &mut by_block).unwrap();
                ff::unpack_ff(&c, count, &mut into_b, 0, skip, len, &mut source).unwrap();
                assert_eq!(into_a, into_b, "unpack of {dt} at ({skip}, {max})");
                assert_eq!((by_block.pos, source.consumed()), (len, len));

                let mut by_batch = ByBatch::default();
                let c_stats = ff::pack_ff(&c, count, &src, 0, skip, max, &mut by_batch).unwrap();
                assert_eq!(
                    c_stats, a,
                    "pack stats of {dt} at ({skip}, {max}), in batches"
                );
                assert_eq!(
                    by_batch.data, by_block.data,
                    "stream of {dt} at ({skip}, {max}), in batches"
                );
                split(&by_batch.batches, format!("{dt} at ({skip}, {max})"));
            }
            // The whole stream in chunks, each resuming where the last
            // one stopped.
            let mut whole = ByBlock::default();
            ff::pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut whole).unwrap();
            for chunk in [7, 64, 1000] {
                let mut by_batch = ByBatch::default();
                for skip in (0..total).step_by(chunk) {
                    let before = by_batch.batches.len();
                    ff::pack_ff(&c, count, &src, 0, skip, chunk, &mut by_batch).unwrap();
                    let what = format!("{dt} in {chunk}-byte chunks at {skip}");
                    split(&by_batch.batches[before..], what);
                }
                assert_eq!(by_batch.data, whole.data, "{dt} in {chunk}-byte chunks");
            }
        }
    });
    assert!(most_batches.get() > 1, "no pack filled the batch buffer");
}
