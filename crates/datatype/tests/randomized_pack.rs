//! Randomized differential testing of `direct_pack_ff` against the
//! reference tree walker.
//!
//! The core correctness claim of `direct_pack_ff` is that it produces
//! *exactly* the byte stream of the recursive tree traversal, for any
//! datatype, any instance count, and any partial-pack split. These tests
//! drive randomly constructed datatype trees through the engine and the
//! reference walker (`tree::reference_pack`/`reference_unpack`) and
//! compare. Deterministic seeded randomness (`SplitMix64`) replaces an
//! external property-testing framework.
//!
//! `PACK_ORACLE_SEED=<n>` re-seeds every test (each folds its own salt
//! into it); unset, each test keeps its own fixed seed.

use mpi_datatype::{ff, flat, tree, Committed, Datatype};
use simclock::SplitMix64;

/// The generator for the test whose fixed seed is `default`: that seed
/// unless `PACK_ORACLE_SEED` is set, else the variable folded with it.
fn rng(default: u64) -> SplitMix64 {
    let seed = std::env::var("PACK_ORACLE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(default, |s| s ^ default.rotate_left(32));
    SplitMix64::new(seed)
}

/// A random (small) datatype tree, recursing at most `depth` levels.
fn random_datatype(rng: &mut SplitMix64, depth: usize) -> Datatype {
    let leaf = |rng: &mut SplitMix64| match rng.next_below(4) {
        0 => Datatype::byte(),
        1 => Datatype::int(),
        2 => Datatype::double(),
        _ => Datatype::float(),
    };
    if depth == 0 || rng.chance(0.35) {
        return leaf(rng);
    }
    let inner = random_datatype(rng, depth - 1);
    match rng.next_below(5) {
        // contiguous
        0 => Datatype::contiguous(rng.next_range(1, 4) as usize, &inner),
        // vector with stride >= blocklen (no overlap)
        1 => {
            let bl = rng.next_range(1, 3) as usize;
            let extra = rng.next_below(4) as isize;
            Datatype::vector(
                rng.next_range(1, 4) as usize,
                bl,
                bl as isize + extra,
                &inner,
            )
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
        // indexed with ascending non-overlapping blocks
        3 => {
            let n = rng.next_range(1, 3) as usize;
            let mut disp = 0isize;
            let blocks: Vec<(usize, isize)> = (0..n)
                .map(|_| {
                    let bl = rng.next_range(1, 2) as usize;
                    let gap = rng.next_below(3) as isize;
                    let b = (bl, disp);
                    disp += bl as isize + gap;
                    b
                })
                .collect();
            Datatype::indexed(&blocks, &inner)
        }
        // struct of two fields at ascending displacements
        _ => {
            let a = inner;
            let b = random_datatype(rng, depth - 1);
            let gap = rng.next_below(8) as i64;
            let bl = rng.next_range(1, 2) as usize;
            let disp_b = (bl * a.extent()) as i64 + gap;
            Datatype::structure(&[(bl, 0, a), (1, disp_b, b)])
        }
    }
}

fn source_buffer(dt: &Datatype, count: usize) -> Vec<u8> {
    (0..dt.extent() * count + 16)
        .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
        .collect()
}

/// ff full pack == reference full pack.
#[test]
fn ff_pack_equals_generic() {
    let mut rng = rng(0xF1A6);
    for _ in 0..256 {
        let dt = random_datatype(&mut rng, 3);
        let count = rng.next_range(1, 3) as usize;
        let src = source_buffer(&dt, count);
        let generic = tree::reference_pack(&dt, count, &src);

        let c = Committed::commit(&dt);
        let mut sink = ff::VecSink::default();
        ff::pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();
        assert_eq!(&sink.data, &generic);
        assert_eq!(generic.len(), dt.size() * count);
    }
}

/// The committed expansion covers exactly the tree segments.
#[test]
fn flat_expansion_matches_tree() {
    let mut rng = rng(0xF1A7);
    for _ in 0..256 {
        let dt = random_datatype(&mut rng, 3);
        let count = rng.next_range(1, 3) as usize;
        let c = Committed::commit(&dt);
        assert!(flat::expansion_matches_tree(&c, count));
    }
}

/// Partial ff packs of arbitrary chunk size reassemble to the whole.
#[test]
fn ff_partial_packs_reassemble() {
    let mut rng = rng(0xF1A8);
    for _ in 0..256 {
        let dt = random_datatype(&mut rng, 3);
        let count = rng.next_range(1, 2) as usize;
        let chunk = rng.next_range(1, 63) as usize;
        let src = source_buffer(&dt, count);
        let whole = tree::reference_pack(&dt, count, &src);

        let c = Committed::commit(&dt);
        let mut pieced = Vec::new();
        let mut skip = 0usize;
        while skip < whole.len() {
            let mut sink = ff::VecSink::default();
            ff::pack_ff(&c, count, &src, 0, skip, chunk, &mut sink).unwrap();
            assert!(!sink.data.is_empty(), "pack stalled at {}", skip);
            skip += sink.data.len();
            pieced.extend_from_slice(&sink.data);
        }
        assert_eq!(pieced, whole);
    }
}

/// Pack then unpack (engine and reference crossed) restores the data
/// bytes.
#[test]
fn cross_engine_roundtrip() {
    let mut rng = rng(0xF1A9);
    for _ in 0..256 {
        let dt = random_datatype(&mut rng, 3);
        let count = rng.next_range(1, 2) as usize;
        let src = source_buffer(&dt, count);
        let c = Committed::commit(&dt);

        // Pack with ff, unpack with the reference.
        let mut sink = ff::VecSink::default();
        ff::pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();
        let mut dst1 = vec![0u8; src.len()];
        tree::reference_unpack(&dt, count, &mut dst1, &sink.data);

        // Pack with the reference, unpack with ff.
        let generic = tree::reference_pack(&dt, count, &src);
        let mut dst2 = vec![0u8; src.len()];
        let mut source = ff::SliceSource::new(&generic);
        ff::unpack_ff(&c, count, &mut dst2, 0, 0, usize::MAX, &mut source).unwrap();

        assert_eq!(&dst1, &dst2);

        // Re-packing the unpacked buffer yields the same stream.
        assert_eq!(tree::reference_pack(&dt, count, &dst1), generic);
    }
}

/// Packing from an arbitrary offset must equal the tail of the full
/// stream (find_position agrees with linear stream arithmetic).
#[test]
fn find_position_consistent() {
    let mut rng = rng(0xF1AA);
    for _ in 0..256 {
        let dt = random_datatype(&mut rng, 3);
        let count = rng.next_range(1, 2) as usize;
        let frac = rng.next_f64();
        let c = Committed::commit(&dt);
        let total = dt.size() * count;
        if total == 0 {
            continue;
        }
        let skip = ((total - 1) as f64 * frac) as usize;
        let src = source_buffer(&dt, count);

        let whole = tree::reference_pack(&dt, count, &src);
        let mut sink = ff::VecSink::default();
        ff::pack_ff(&c, count, &src, 0, skip, usize::MAX, &mut sink).unwrap();
        assert_eq!(&sink.data[..], &whole[skip..]);
    }
}

/// Merging never changes the block count seen by a sink in a way that
/// loses bytes, and committed metadata is consistent.
#[test]
fn committed_metadata_consistent() {
    let mut rng = rng(0xF1AB);
    for _ in 0..256 {
        let dt = random_datatype(&mut rng, 3);
        let c = Committed::commit(&dt);
        let leaf_total: usize = c.leaves().iter().map(|l| l.total).sum();
        assert_eq!(leaf_total, dt.size());
        for leaf in c.leaves() {
            let blocks = leaf.block_count();
            assert_eq!(leaf.total, blocks * leaf.len);
            for level in &leaf.stack {
                assert!(level.count > 1, "count-1 level survived merge");
            }
        }
    }
}
