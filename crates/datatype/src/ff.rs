//! `direct_pack_ff` — flattening-on-the-fly packing (paper §3.3).
//!
//! The committed leaf list ([`crate::flat::Committed`]) drives two nested
//! loops with only simple array (stack) operations per basic block,
//! replacing the generic engine's recursive tree traversal. Because the
//! consumer is an abstract [`PackSink`], the very same loop packs
//!
//! * into a local buffer (classic packing, [`VecSink`]), or
//! * **directly into remote SCI memory** through a `PioStream`-backed sink
//!   (implemented in the `scimpi` crate), which eliminates both local copy
//!   operations of the generic path — the paper's headline optimisation
//!   (Figure 4, bottom).
//!
//! The algorithm supports packing any byte range `[skip, skip+max)` of the
//! stream — the "split blocks" handling of Figure 6: `find_position`
//! locates the resume point in O(N)+O(D), then `copy_leaf_basic` emits
//! whole blocks (partial at the boundaries).

use crate::flat::Committed;
use crate::tree::PackStats;
use core::convert::Infallible;
use core::ops::ControlFlow;

/// Destination of a pack stream. `put` is called once per (possibly
/// partial) basic block, in stream order.
pub trait PackSink {
    /// Error the sink can raise (e.g. a remote write failure).
    type Error;
    /// Consume the next `src.len()` bytes of the stream.
    fn put(&mut self, src: &[u8]) -> Result<(), Self::Error>;
}

/// Source of an unpack stream. `take` is called once per (possibly
/// partial) basic block, in stream order.
pub trait UnpackSource {
    /// Error the source can raise.
    type Error;
    /// Fill `dst` with the next `dst.len()` bytes of the stream.
    fn take(&mut self, dst: &mut [u8]) -> Result<(), Self::Error>;
}

/// A sink appending to a `Vec<u8>` (local packing).
#[derive(Debug, Default)]
pub struct VecSink {
    /// The packed bytes.
    pub data: Vec<u8>,
}

impl PackSink for VecSink {
    type Error = Infallible;
    #[inline]
    fn put(&mut self, src: &[u8]) -> Result<(), Infallible> {
        self.data.extend_from_slice(src);
        Ok(())
    }
}

/// A source reading from a byte slice (local unpacking).
#[derive(Debug)]
pub struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Read from `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSource { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl UnpackSource for SliceSource<'_> {
    type Error = Infallible;
    #[inline]
    fn take(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        let end = self.pos + dst.len();
        assert!(end <= self.data.len(), "unpack source exhausted");
        dst.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        Ok(())
    }
}

/// A run of equally long, equally spaced basic blocks: block `i` of `n`
/// covers `len` bytes at displacement `disp + i * stride` (relative to the
/// buffer origin). A partial block at either end of a byte range is a run
/// of one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Displacement of the first block.
    pub disp: i64,
    /// Bytes per block.
    pub len: usize,
    /// Byte distance between consecutive blocks (may be negative).
    pub stride: i64,
    /// Number of blocks, at least 1.
    pub n: usize,
}

impl Run {
    /// Offsets of the run's blocks in a buffer of `buf_len` bytes whose
    /// displacement 0 is byte `origin`. Panics if any block lies outside.
    fn offsets(self, origin: usize, buf_len: usize) -> impl Iterator<Item = usize> {
        let first = origin as i64 + self.disp;
        let last = first + (self.n as i64 - 1) * self.stride;
        let (lo, hi) = (first.min(last), first.max(last) + self.len as i64);
        assert!(
            lo >= 0 && hi as usize <= buf_len,
            "ff segment [{lo}, {hi}) outside buffer of {buf_len} bytes"
        );
        (0..self.n as i64).map(move |i| (first + i * self.stride) as usize)
    }
}

/// Drive `f` over the byte range `[skip, skip + max)` of the pack stream of
/// `count` instances, one [`Run`] per stretch of whole blocks along a
/// leaf's innermost stack level. This is the core loop of Figure 6, with
/// the stack resolved to a displacement once per run instead of an
/// odometer walked once per block.
///
/// The returned stats count one block and one stack visit per basic block
/// handed to `f`, a run `f` breaks on included whole.
pub fn for_each_run(
    c: &Committed,
    count: usize,
    skip: usize,
    max: usize,
    mut f: impl FnMut(Run) -> ControlFlow<()>,
) -> PackStats {
    let mut stats = PackStats::default();
    if max == 0 {
        return stats;
    }
    // find initial position for partial sends (paper Figure 6).
    let Some((j0, k0, within0)) = c.locate(skip, count) else {
        return stats;
    };
    let ext = c.extent() as i64;
    let mut remaining = max;
    let mut within = within0;
    for j in j0..count {
        let leaf_start = if j == j0 { k0 } else { 0 };
        for leaf in &c.leaves()[leaf_start..] {
            let len = leaf.len;
            let (outer, inner_n, inner_ext) = match leaf.stack.split_last() {
                Some((inner, outer)) => (outer, inner.count, inner.extent),
                None => (&leaf.stack[..], 1, 0),
            };
            let rows: usize = outer.iter().map(|level| level.count).product();
            // Position in the leaf: row of the outer levels, column along
            // the innermost one, byte inside the block. Only the resume
            // leaf starts anywhere but at its beginning.
            let (mut row, mut col, mut intra) = match std::mem::take(&mut within) {
                0 => (0, 0, 0),
                w => (w / len / inner_n, w / len % inner_n, w % len),
            };
            while row < rows {
                // Row -> displacement (copy_leaf_basic's stack, innermost
                // level fastest).
                let mut disp = leaf.first + j as i64 * ext + col as i64 * inner_ext;
                let mut o = row;
                for level in outer.iter().rev() {
                    disp += (o % level.count) as i64 * level.extent;
                    o /= level.count;
                }
                let run = if intra > 0 || remaining < len {
                    // Split block (resume point or end of the range).
                    Run {
                        disp: disp + intra as i64,
                        len: (len - intra).min(remaining),
                        stride: 0,
                        n: 1,
                    }
                } else {
                    let rest_of_row = inner_n - col;
                    Run {
                        disp,
                        len,
                        stride: inner_ext,
                        n: if remaining >= rest_of_row * len {
                            rest_of_row
                        } else {
                            remaining / len
                        },
                    }
                };
                intra = 0;
                col += run.n;
                if col == inner_n {
                    (row, col) = (row + 1, 0);
                }
                remaining -= run.n * run.len;
                stats.bytes += run.n * run.len;
                stats.blocks += run.n;
                stats.visits += run.n;
                if f(run).is_break() || remaining == 0 {
                    return stats;
                }
            }
        }
    }
    stats
}

/// Drive `f(disp, len)` over every (possibly partial) basic block of the
/// byte range `[skip, skip + max)` of the pack stream of `count` instances:
/// [`for_each_run`] with every run spelled out block by block.
pub fn for_each_block(
    c: &Committed,
    count: usize,
    skip: usize,
    max: usize,
    mut f: impl FnMut(i64, usize) -> ControlFlow<()>,
) -> PackStats {
    for_each_run(c, count, skip, max, |run| {
        (0..run.n as i64).try_for_each(|i| f(run.disp + i * run.stride, run.len))
    })
}

/// Pack `[skip, skip+max)` of the stream of `count` instances of `c` from
/// `src` (displacement 0 at byte `origin`) into `sink`.
pub fn pack_ff<S: PackSink>(
    c: &Committed,
    count: usize,
    src: &[u8],
    origin: usize,
    skip: usize,
    max: usize,
    sink: &mut S,
) -> Result<PackStats, S::Error> {
    obs::inc(obs::Counter::FfPackCalls);
    if skip > 0 {
        obs::inc(obs::Counter::FfPartialResumes);
    }
    let mut res = Ok(());
    let stats = for_each_run(c, count, skip, max, |run| {
        res = run
            .offsets(origin, src.len())
            .try_for_each(|at| sink.put(&src[at..at + run.len]));
        match res {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    });
    res.map(|()| stats)
}

/// Unpack `[skip, skip+max)` of the stream into `count` instances of `c`
/// in `dst` — the receive side uses the same loop with the copy direction
/// swapped (paper §3.3.2).
pub fn unpack_ff<S: UnpackSource>(
    c: &Committed,
    count: usize,
    dst: &mut [u8],
    origin: usize,
    skip: usize,
    max: usize,
    source: &mut S,
) -> Result<PackStats, S::Error> {
    obs::inc(obs::Counter::FfPackCalls);
    if skip > 0 {
        obs::inc(obs::Counter::FfPartialResumes);
    }
    let mut res = Ok(());
    let stats = for_each_run(c, count, skip, max, |run| {
        res = run
            .offsets(origin, dst.len())
            .try_for_each(|at| source.take(&mut dst[at..at + run.len]));
        match res {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    });
    res.map(|()| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree;
    use crate::types::Datatype;

    fn commit(dt: &Datatype) -> Committed {
        Committed::commit(dt)
    }

    fn buffer_for(dt: &Datatype, count: usize) -> Vec<u8> {
        (0..dt.extent() * count)
            .map(|i| (i * 13 + 7) as u8)
            .collect()
    }

    fn generic_pack(dt: &Datatype, count: usize, src: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        tree::pack(dt, count, src, 0, &mut out);
        out
    }

    #[test]
    fn full_pack_matches_generic() {
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let cases = [
            Datatype::vector(16, 2, 4, &Datatype::double()),
            Datatype::hvector(4, 1, 16, &s),
            Datatype::indexed(&[(2, 0), (1, 7), (3, 12)], &Datatype::int()),
            Datatype::structure(&[
                (2, 0, Datatype::int()),
                (1, 16, Datatype::vector(3, 1, 2, &Datatype::double())),
            ]),
        ];
        for dt in &cases {
            for count in [1usize, 2, 5] {
                let src = buffer_for(dt, count);
                let c = commit(dt);
                let mut sink = VecSink::default();
                let stats = pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();
                assert_eq!(stats.bytes, dt.size() * count);
                assert_eq!(
                    sink.data,
                    generic_pack(dt, count, &src),
                    "type {dt} count {count}"
                );
            }
        }
    }

    #[test]
    fn partial_packs_reassemble_for_every_chunk_size() {
        let dt = Datatype::vector(6, 3, 5, &Datatype::int());
        let count = 3;
        let src = buffer_for(&dt, count);
        let c = commit(&dt);
        let whole = generic_pack(&dt, count, &src);
        for chunk in [1usize, 2, 3, 5, 7, 11, 16, 64, 1000] {
            let mut pieced = Vec::new();
            let mut skip = 0;
            while skip < whole.len() {
                let mut sink = VecSink::default();
                pack_ff(&c, count, &src, 0, skip, chunk, &mut sink).unwrap();
                assert!(sink.data.len() <= chunk);
                assert!(!sink.data.is_empty(), "stalled at {skip}");
                skip += sink.data.len();
                pieced.extend_from_slice(&sink.data);
            }
            assert_eq!(pieced, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn unpack_ff_inverts_pack_ff() {
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let dt = Datatype::hvector(5, 2, 40, &s);
        let count = 2;
        let src = buffer_for(&dt, count);
        let c = commit(&dt);
        let mut sink = VecSink::default();
        pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();

        let mut dst = vec![0u8; dt.extent() * count];
        let mut source = SliceSource::new(&sink.data);
        let stats = unpack_ff(&c, count, &mut dst, 0, 0, usize::MAX, &mut source).unwrap();
        assert_eq!(stats.bytes, dt.size() * count);

        // Compare against the generic unpack of the same stream.
        let mut dst2 = vec![0u8; dt.extent() * count];
        tree::unpack(&dt, count, &mut dst2, 0, &sink.data);
        assert_eq!(dst, dst2);
    }

    #[test]
    fn chunked_unpack_matches_full_unpack() {
        let dt = Datatype::vector(8, 1, 3, &Datatype::double());
        let count = 2;
        let src = buffer_for(&dt, count);
        let c = commit(&dt);
        let mut sink = VecSink::default();
        pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();

        let mut dst = vec![0u8; dt.extent() * count];
        let mut off = 0;
        for chunk in sink.data.chunks(13) {
            let mut source = SliceSource::new(chunk);
            unpack_ff(&c, count, &mut dst, 0, off, chunk.len(), &mut source).unwrap();
            off += chunk.len();
        }
        let mut dst2 = vec![0u8; dt.extent() * count];
        tree::unpack(&dt, count, &mut dst2, 0, &sink.data);
        assert_eq!(dst, dst2);
    }

    #[test]
    fn stats_count_blocks_not_visits() {
        let dt = Datatype::vector(64, 1, 2, &Datatype::double());
        let src = buffer_for(&dt, 1);
        let c = commit(&dt);
        let mut sink = VecSink::default();
        let ff = pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap();
        let mut out = Vec::new();
        let generic = tree::pack(&dt, 1, &src, 0, &mut out);
        assert_eq!(ff.bytes, generic.bytes);
        assert_eq!(ff.blocks, 64);
        // The ff loop does one stack operation per block; the generic
        // engine additionally walks the tree.
        assert!(ff.visits <= generic.visits);
    }

    #[test]
    fn skip_beyond_stream_is_empty() {
        let dt = Datatype::vector(4, 1, 2, &Datatype::int());
        let c = commit(&dt);
        let src = buffer_for(&dt, 1);
        let mut sink = VecSink::default();
        let stats = pack_ff(&c, 1, &src, 0, dt.size(), 100, &mut sink).unwrap();
        assert_eq!(stats.bytes, 0);
        assert!(sink.data.is_empty());
    }

    #[test]
    fn zero_max_is_empty() {
        let dt = Datatype::double();
        let c = commit(&dt);
        let mut sink = VecSink::default();
        let stats = pack_ff(&c, 1, &[0u8; 8], 0, 0, 0, &mut sink).unwrap();
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn sink_error_propagates() {
        struct FailAfter(usize);
        impl PackSink for FailAfter {
            type Error = &'static str;
            fn put(&mut self, src: &[u8]) -> Result<(), &'static str> {
                if self.0 < src.len() {
                    Err("sink full")
                } else {
                    self.0 -= src.len();
                    Ok(())
                }
            }
        }
        let dt = Datatype::vector(10, 1, 2, &Datatype::double());
        let c = commit(&dt);
        let src = buffer_for(&dt, 1);
        let mut sink = FailAfter(20);
        let err = pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap_err();
        assert_eq!(err, "sink full");
    }

    #[test]
    fn mid_block_resume_positions() {
        // Resume exactly inside a block: skip = 1.5 blocks.
        let dt = Datatype::vector(4, 2, 4, &Datatype::double()); // 16B blocks
        let c = commit(&dt);
        let src = buffer_for(&dt, 1);
        let whole = generic_pack(&dt, 1, &src);
        let mut sink = VecSink::default();
        pack_ff(&c, 1, &src, 0, 24, 16, &mut sink).unwrap();
        assert_eq!(sink.data, &whole[24..40]);
    }
}
