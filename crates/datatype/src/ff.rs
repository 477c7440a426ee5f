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
//! whole blocks (partial at the boundaries) — as [`Run`]s of equal blocks,
//! which a sink takes whole ([`PackSink::put_run`]): the [`gather`] and
//! [`scatter`] kernels check their ranges and pick their copy once per
//! run, not once per block.

use crate::flat::Committed;
use core::convert::Infallible;
use core::mem::MaybeUninit;
use core::ops::ControlFlow;

/// Cost-model observables of one pack/unpack operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Payload bytes moved.
    pub bytes: usize,
    /// Basic blocks of the committed leaves copied: one stack operation
    /// each for `direct_pack_ff`.
    pub blocks: usize,
    /// Maximal stretches of bytes that lie back to back in the buffer, in
    /// pack order — what the blocks coalesce into, and what the generic
    /// cost mode charges one tree traversal for.
    pub segments: usize,
}

impl PackStats {
    /// Accumulate another operation's stats.
    pub fn merge(&mut self, other: PackStats) {
        self.bytes += other.bytes;
        self.blocks += other.blocks;
        self.segments += other.segments;
    }
}

/// A run of equally long, equally spaced basic blocks: block `i` of `n`
/// covers `len` bytes at displacement `disp + i * stride` — relative to the
/// buffer origin as [`for_each_run`] emits it, to the start of the buffer
/// as the sinks, sources and copy kernels take it. A partial block at
/// either end of a byte range is a run of one.
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
    /// The run with its displacements counted from the start of a buffer
    /// whose displacement 0 is byte `origin`.
    fn in_buffer(self, origin: usize) -> Run {
        let disp = self.disp + origin as i64;
        Run { disp, ..self }
    }

    /// Index of block `i`. A block before the buffer comes out as an index
    /// past any buffer.
    pub fn at(self, i: usize) -> usize {
        (self.disp + i as i64 * self.stride) as usize
    }

    /// Panic unless each of the `n >= 1` blocks lies inside a buffer of
    /// `buf_len` bytes: a caller that returns from here may touch every
    /// block unchecked.
    fn check_inside(self, buf_len: usize) {
        // Nothing here can leave an `i128`.
        let (first, reach) = (
            self.disp as i128,
            (self.n as i128 - 1) * self.stride as i128,
        );
        let (lo, hi) = (
            first + reach.min(0),
            first + reach.max(0) + self.len as i128,
        );
        assert!(
            lo >= 0 && hi <= buf_len as i128,
            "{self:?} outside buffer of {buf_len} bytes"
        );
    }
}

/// Destination of a pack stream. The stream arrives in order, one
/// [`Run`] at a time.
pub trait PackSink {
    /// Error the sink can raise (e.g. a remote write failure).
    type Error;
    /// Consume the next `src.len()` bytes of the stream.
    fn put(&mut self, src: &[u8]) -> Result<(), Self::Error>;
    /// Consume the blocks of `run` in `src`. Unless overridden, one
    /// [`Self::put`] per block.
    fn put_run(&mut self, src: &[u8], run: Run) -> Result<(), Self::Error> {
        (0..run.n).try_for_each(|i| self.put(&src[run.at(i)..][..run.len]))
    }
}

/// Source of an unpack stream, the mirror of [`PackSink`].
pub trait UnpackSource {
    /// Error the source can raise.
    type Error;
    /// Fill `dst` with the next `dst.len()` bytes of the stream.
    fn take(&mut self, dst: &mut [u8]) -> Result<(), Self::Error>;
    /// Deliver the blocks of `run` in `dst`. Unless overridden, one
    /// [`Self::take`] per block.
    fn take_run(&mut self, dst: &mut [u8], run: Run) -> Result<(), Self::Error> {
        (0..run.n).try_for_each(|i| self.take(&mut dst[run.at(i)..][..run.len]))
    }
}

/// Copy `n` blocks of `len` bytes, block `i` from `src + i * src_stride` to
/// `dst + i * dst_stride`: one dispatch on `len` per run, fixed-size moves
/// for the common power-of-two blocks.
///
/// # Safety
///
/// Every block must be readable at its source and writable at its
/// destination, and no source block may overlap a destination block.
#[inline]
unsafe fn copy_blocks(
    src: *const u8,
    src_stride: isize,
    dst: *mut u8,
    dst_stride: isize,
    len: usize,
    n: usize,
) {
    // With a constant length the copy compiles to a fixed-size move.
    macro_rules! copy {
        ($len:expr) => {
            for i in 0..n as isize {
                // SAFETY: the caller's contract, block by block.
                unsafe {
                    let (from, to) = (src.offset(i * src_stride), dst.offset(i * dst_stride));
                    core::ptr::copy_nonoverlapping(from, to, $len);
                }
            }
        };
    }
    match len {
        8 => copy!(8),
        16 => copy!(16),
        32 => copy!(32),
        64 => copy!(64),
        _ => copy!(len),
    }
}

/// Gather the blocks of `run` in `src` back to back into `dst`, which must
/// be exactly `n * len` long. Panics if a block lies outside `src`.
pub fn gather(src: &[u8], run: Run, dst: &mut [MaybeUninit<u8>]) {
    assert_eq!(Some(dst.len()), run.n.checked_mul(run.len), "{run:?}");
    if run.n == 0 {
        return;
    }
    run.check_inside(src.len());
    // SAFETY: `check_inside` proved every source block inside `src`, the
    // length assert proved every destination block inside `dst`, and a `&`
    // and a `&mut` slice cannot overlap.
    unsafe {
        let (from, to) = (src.as_ptr().add(run.at(0)), dst.as_mut_ptr().cast());
        copy_blocks(
            from,
            run.stride as isize,
            to,
            run.len as isize,
            run.len,
            run.n,
        );
    }
}

/// Scatter the `n * len` bytes of `src` to the blocks of `run` in `dst` —
/// [`gather`] with the copy direction swapped. Panics if a block lies
/// outside `dst`.
pub fn scatter(src: &[u8], dst: &mut [u8], run: Run) {
    assert_eq!(Some(src.len()), run.n.checked_mul(run.len), "{run:?}");
    if run.n == 0 {
        return;
    }
    run.check_inside(dst.len());
    // SAFETY: the length assert proved every source block inside `src`,
    // `check_inside` proved every destination block inside `dst`, and a `&`
    // and a `&mut` slice cannot overlap. Destination blocks that overlap
    // each other (a stride below the block length) are written in order.
    unsafe {
        let (from, to) = (src.as_ptr(), dst.as_mut_ptr().add(run.at(0)));
        copy_blocks(
            from,
            run.len as isize,
            to,
            run.stride as isize,
            run.len,
            run.n,
        );
    }
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

    #[inline]
    fn put_run(&mut self, src: &[u8], run: Run) -> Result<(), Infallible> {
        let bytes = run.n * run.len;
        self.data.reserve(bytes);
        // Straight into the spare capacity: zero-filling it first would
        // write every byte twice.
        gather(src, run, &mut self.data.spare_capacity_mut()[..bytes]);
        // SAFETY: `gather` initialised the first `bytes` spare bytes.
        unsafe { self.data.set_len(self.data.len() + bytes) };
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

    /// The next `len` bytes of the stream.
    fn next(&mut self, len: usize) -> &'a [u8] {
        let end = self.pos + len;
        assert!(end <= self.data.len(), "unpack source exhausted");
        let bytes = &self.data[self.pos..end];
        self.pos = end;
        bytes
    }
}

impl UnpackSource for SliceSource<'_> {
    type Error = Infallible;
    #[inline]
    fn take(&mut self, dst: &mut [u8]) -> Result<(), Infallible> {
        dst.copy_from_slice(self.next(dst.len()));
        Ok(())
    }

    #[inline]
    fn take_run(&mut self, dst: &mut [u8], run: Run) -> Result<(), Infallible> {
        scatter(self.next(run.n * run.len), dst, run);
        Ok(())
    }
}

/// Drive `f` over the byte range `[skip, skip + max)` of the pack stream of
/// `count` instances, one [`Run`] per stretch of whole blocks along a
/// leaf's innermost stack level. This is the core loop of Figure 6, with
/// the stack resolved to a displacement once per run instead of an
/// odometer walked once per block.
///
/// The returned stats count one block per basic block handed to `f`, and
/// one segment per maximal stretch of blocks that lie back to back in the
/// buffer (a run starting where the previous one ended continues its
/// stretch) — the segments [`crate::tree::for_each_segment`]'s coalescing
/// walk yields over the same byte range. A run `f` breaks on is included
/// whole.
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
    // Displacement just past the last block emitted so far.
    let mut stream_end = i64::MIN;
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
                // Commit folds an innermost level whose extent is its block
                // length into the block, so a run's blocks never lie back
                // to back: each opens a segment, except the first where it
                // starts at the end of the previous run.
                stats.segments += run.n - (run.disp == stream_end) as usize;
                stream_end = run.disp + (run.n as i64 - 1) * run.stride + run.len as i64;
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
    count_ff_call(skip);
    pack_runs(c, count, src, origin, skip, max, sink)
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
    count_ff_call(skip);
    unpack_runs(c, count, dst, origin, skip, max, source)
}

fn count_ff_call(skip: usize) {
    obs::inc(obs::Counter::FfPackCalls);
    if skip > 0 {
        obs::inc(obs::Counter::FfPartialResumes);
    }
}

/// [`pack_ff`] without its counters: one [`PackSink::put_run`] per
/// [`Run`]. For callers that book the traversal under another engine's
/// name (the generic baseline is a cost mode over the same runs).
pub fn pack_runs<S: PackSink>(
    c: &Committed,
    count: usize,
    src: &[u8],
    origin: usize,
    skip: usize,
    max: usize,
    sink: &mut S,
) -> Result<PackStats, S::Error> {
    let mut res = Ok(());
    let stats = for_each_run(c, count, skip, max, |run| {
        let run = run.in_buffer(origin);
        res = match run.n {
            1 => sink.put(&src[run.at(0)..][..run.len]),
            _ => sink.put_run(src, run),
        };
        match res {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    });
    res.map(|()| stats)
}

/// [`unpack_ff`] without its counters: one [`UnpackSource::take_run`] per
/// [`Run`] (see [`pack_runs`]).
pub fn unpack_runs<S: UnpackSource>(
    c: &Committed,
    count: usize,
    dst: &mut [u8],
    origin: usize,
    skip: usize,
    max: usize,
    source: &mut S,
) -> Result<PackStats, S::Error> {
    let mut res = Ok(());
    let stats = for_each_run(c, count, skip, max, |run| {
        let run = run.in_buffer(origin);
        res = match run.n {
            1 => source.take(&mut dst[run.at(0)..][..run.len]),
            _ => source.take_run(dst, run),
        };
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
            // An empty type packs nothing, at any count.
            Datatype::contiguous(0, &Datatype::double()),
        ];
        for dt in &cases {
            for count in [0usize, 1, 2, 5] {
                let src = buffer_for(dt, count);
                let c = commit(dt);
                let mut sink = VecSink::default();
                let stats = pack_ff(&c, count, &src, 0, 0, usize::MAX, &mut sink).unwrap();
                assert_eq!(stats.bytes, dt.size() * count);
                assert_eq!(
                    sink.data,
                    tree::reference_pack(dt, count, &src),
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
        let whole = tree::reference_pack(&dt, count, &src);
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

        // Compare against the reference unpack of the same stream.
        let mut dst2 = vec![0u8; dt.extent() * count];
        tree::reference_unpack(&dt, count, &mut dst2, &sink.data);
        assert_eq!(dst, dst2);

        // A negative displacement, with displacement 0 at byte 8 of the
        // buffer.
        let neg = commit(&Datatype::hindexed(&[(1, -8), (1, 8)], &Datatype::double()));
        let src: Vec<u8> = (0..32).collect();
        let mut sink = VecSink::default();
        pack_ff(&neg, 1, &src, 8, 0, usize::MAX, &mut sink).unwrap();
        assert_eq!(sink.data, [&src[0..8], &src[16..24]].concat());
        let mut dst = vec![0u8; 32];
        let mut source = SliceSource::new(&sink.data);
        unpack_ff(&neg, 1, &mut dst, 8, 0, 16, &mut source).unwrap();
        let kept = |i: usize| i < 8 || (16..24).contains(&i);
        assert!((0..32).all(|i| dst[i] == if kept(i) { src[i] } else { 0 }));
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
        tree::reference_unpack(&dt, count, &mut dst2, &sink.data);
        assert_eq!(dst, dst2);
    }

    #[test]
    fn stats_count_blocks_and_segments() {
        let dt = Datatype::vector(64, 1, 2, &Datatype::double());
        let src = buffer_for(&dt, 1);
        let c = commit(&dt);
        let mut sink = VecSink::default();
        let ff = pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap();
        assert_eq!((ff.bytes, ff.blocks, ff.segments), (dt.size(), 64, 64));
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
    fn vec_sink_gathers_into_spare_capacity() {
        // A run lands in the spare capacity and only then joins the
        // stream: no zero-fill ahead of the copy (it would write every
        // byte twice), so a gather that panics leaves the stream as it was.
        let src: Vec<u8> = (0..64).collect();
        let run = |n| Run {
            disp: 4,
            len: 8,
            stride: 16,
            n,
        };
        let mut sink = VecSink::default();
        sink.put_run(&src, run(3)).unwrap();
        assert_eq!(sink.data[..8], src[4..12]);
        assert_eq!(sink.data[16..], src[36..44]);
        let before = sink.data.clone();
        let past_the_end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sink.put_run(&src, run(5));
        }));
        assert!(past_the_end.is_err(), "block 4 ends at byte 76 of 64");
        assert_eq!(sink.data, before);

        // A whole pack over a buffer too small panics the same way.
        let c = commit(&Datatype::vector(4, 1, 4, &Datatype::double()));
        let too_small = std::panic::catch_unwind(|| {
            pack_ff(&c, 1, &[0u8; 8], 0, 0, usize::MAX, &mut VecSink::default())
        });
        assert!(too_small.is_err(), "block 1 starts at byte 32 of 8");
    }

    #[test]
    fn mid_block_resume_positions() {
        // Resume exactly inside a block: skip = 1.5 blocks.
        let dt = Datatype::vector(4, 2, 4, &Datatype::double()); // 16B blocks
        let c = commit(&dt);
        let src = buffer_for(&dt, 1);
        let whole = tree::reference_pack(&dt, 1, &src);
        let mut sink = VecSink::default();
        pack_ff(&c, 1, &src, 0, 24, 16, &mut sink).unwrap();
        assert_eq!(sink.data, &whole[24..40]);
    }
}
