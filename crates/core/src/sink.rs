//! Bridges between the datatype engines and the fabric.
//!
//! [`PioSink`] is the heart of the paper's first optimisation: it feeds
//! `direct_pack_ff` blocks straight into a remote-memory [`PioStream`] at
//! strictly ascending addresses, so the adapter's stream buffers can merge
//! them — no intermediate pack buffer exists at all (Figure 4, bottom).
//!
//! The receive side needs no mirror type: `unpack_ff` reads the packed
//! stream out of a borrowed view of the (receiver-local) ring slot
//! (`SharedMem::with_bytes`).
//!
//! [`StagingLedger`] governs the *buffered* engines' memory: paths that
//! stage packed data in an intermediate buffer (DMA pack buffers, the
//! generic staged engine) lease their bytes from a per-rank budget, so
//! an overloaded rank degrades to the bufferless `direct_pack_ff` path
//! instead of growing staging memory without bound (see
//! `docs/BACKPRESSURE.md`).

use core::mem::MaybeUninit;
use mpi_datatype::ff::{gather, Run};
use mpi_datatype::PackSink;
use sci_fabric::{PioStream, SciError};
use simclock::Clock;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A per-rank staging-buffer budget (`Tuning::staging_budget_bytes`).
///
/// Buffered pack paths lease bytes before allocating their staging
/// buffers and the lease returns them on drop, so peak staging memory is
/// capped. Only the owning rank's thread acquires leases, which keeps
/// the grant/deny verdict — and therefore the chosen pack path —
/// deterministic.
pub struct StagingLedger {
    in_use: AtomicUsize,
    budget: usize,
}

impl StagingLedger {
    /// A ledger with `budget` leasable bytes.
    pub fn new(budget: usize) -> Self {
        StagingLedger {
            in_use: AtomicUsize::new(0),
            budget,
        }
    }

    /// Lease `len` bytes of staging memory, or `None` when the budget
    /// cannot cover them (callers degrade to a less buffer-hungry path).
    pub fn try_acquire(&self, len: usize) -> Option<StagingLease<'_>> {
        let cur = self.in_use.load(Ordering::Relaxed);
        if cur.saturating_add(len) > self.budget {
            return None;
        }
        self.in_use.fetch_add(len, Ordering::Relaxed);
        Some(StagingLease { ledger: self, len })
    }

    /// Bytes currently leased.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// The leasable budget.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

/// RAII lease of staging bytes; returns them to the ledger on drop.
pub struct StagingLease<'a> {
    ledger: &'a StagingLedger,
    len: usize,
}

impl StagingLease<'_> {
    /// Bytes held by this lease.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the lease holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for StagingLease<'_> {
    fn drop(&mut self) {
        let prev = self.ledger.in_use.fetch_sub(self.len, Ordering::Relaxed);
        debug_assert!(prev >= self.len, "staging lease release underflow");
    }
}

/// A [`PackSink`] that streams blocks into remote memory through a
/// [`PioStream`] at consecutive ascending offsets, one
/// [`PioStream::write_run`] per run of the datatype.
pub struct PioSink<'a> {
    stream: &'a mut PioStream,
    clock: &'a mut Clock,
    offset: usize,
    batching: bool,
}

impl<'a> PioSink<'a> {
    /// Stream into `stream` starting at byte `offset` of the mapped
    /// segment.
    pub fn new(stream: &'a mut PioStream, clock: &'a mut Clock, offset: usize) -> Self {
        PioSink {
            stream,
            clock,
            offset,
            batching: false,
        }
    }

    /// Enable write-combining store batching: small blocks are staged in
    /// the stream's WC window and flushed as full aligned transactions.
    /// Callers that enable this must call [`PioSink::finish`] before
    /// issuing a barrier, or the tail of the stream stays buffered.
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Flush any store still staged in the write-combining window.
    pub fn finish(&mut self) -> Result<(), SciError> {
        self.stream.flush_wc(self.clock)
    }
}

impl PackSink for PioSink<'_> {
    type Error = SciError;

    #[inline]
    fn put(&mut self, src: &[u8]) -> Result<(), SciError> {
        if self.batching {
            self.stream.write_batched(self.clock, self.offset, src)?;
        } else {
            self.stream.write(self.clock, self.offset, src)?;
        }
        self.offset += src.len();
        Ok(())
    }

    #[inline]
    fn put_run(&mut self, src: &[u8], run: Run) -> Result<(), SciError> {
        self.stream.write_run(
            self.clock,
            self.offset,
            run.len,
            run.n,
            self.batching,
            |i| &src[run.at(i)..][..run.len],
            |stores, dst| {
                let (disp, n) = (run.at(stores.start) as i64, stores.len());
                // SAFETY: `u8` and `MaybeUninit<u8>` share a layout, and
                // `gather` only ever writes initialised bytes.
                let dst = unsafe { &mut *(dst as *mut [u8] as *mut [MaybeUninit<u8>]) };
                gather(src, Run { disp, n, ..run }, dst)
            },
        )?;
        self.offset += run.n * run.len;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_datatype::{ff, Committed, Datatype};
    use sci_fabric::{Fabric, FabricSpec, NodeId};

    #[test]
    fn pio_sink_streams_ff_blocks_into_remote_memory() {
        let fabric = Fabric::new(FabricSpec::default());
        let seg = fabric.export(NodeId(1), 1 << 16);
        let dt = Datatype::vector(8, 2, 4, &Datatype::double());
        let c = Committed::commit(&dt);
        let src: Vec<u8> = (0..dt.extent()).map(|i| i as u8).collect();

        let mut clock = Clock::new();
        let mut stream = fabric.pio_stream(NodeId(0), &seg, dt.size());
        let stats = {
            let mut sink = PioSink::new(&mut stream, &mut clock, 64);
            ff::pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap()
        };
        stream.barrier(&mut clock);
        assert_eq!(stats.bytes, dt.size());

        // The remote segment now holds the packed stream at offset 64.
        let mut sink = ff::VecSink::default();
        ff::pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap();
        let mut got = vec![0u8; dt.size()];
        seg.mem().read(64, &mut got).unwrap();
        assert_eq!(got, sink.data);
    }

    #[test]
    fn batched_pio_sink_places_identical_bytes_for_less_time() {
        // Fine-grained type: 16 B blocks, gap as large as the block —
        // exactly the shape WC batching exists for.
        let dt = Datatype::vector(64, 2, 4, &Datatype::double());
        let c = Committed::commit(&dt);
        let src: Vec<u8> = (0..dt.extent()).map(|i| (i * 7) as u8).collect();

        let run = |batching: bool| {
            let fabric = Fabric::new(FabricSpec::default());
            let seg = fabric.export(NodeId(1), 1 << 16);
            let mut clock = Clock::new();
            let mut stream = fabric.pio_stream(NodeId(0), &seg, dt.size());
            {
                let mut sink = PioSink::new(&mut stream, &mut clock, 0).with_batching(batching);
                ff::pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap();
                sink.finish().unwrap();
            }
            stream.barrier(&mut clock);
            let mut got = vec![0u8; dt.size()];
            seg.mem().read(0, &mut got).unwrap();
            (got, clock.now())
        };

        let (plain_bytes, plain_time) = run(false);
        let (batched_bytes, batched_time) = run(true);
        assert_eq!(plain_bytes, batched_bytes);
        assert!(
            batched_time < plain_time,
            "batched {batched_time:?} should beat unbatched {plain_time:?}"
        );
    }

    #[test]
    fn staging_ledger_leases_and_releases() {
        let ledger = StagingLedger::new(100);
        let a = ledger.try_acquire(60).expect("60 of 100 fits");
        assert_eq!(ledger.in_use(), 60);
        assert!(ledger.try_acquire(50).is_none(), "110 > budget");
        let b = ledger.try_acquire(40).expect("exactly fills the budget");
        assert_eq!(b.len(), 40);
        assert!(!b.is_empty());
        assert_eq!(ledger.in_use(), 100);
        drop(a);
        assert_eq!(ledger.in_use(), 40);
        drop(b);
        assert_eq!(ledger.in_use(), 0);
        assert_eq!(ledger.budget(), 100);
    }

    #[test]
    fn pio_sink_out_of_bounds_is_error() {
        let fabric = Fabric::new(FabricSpec::default());
        let seg = fabric.export(NodeId(1), 16);
        let dt = Datatype::contiguous(8, &Datatype::double());
        let c = Committed::commit(&dt);
        let src = vec![0u8; 64];
        let mut clock = Clock::new();
        let mut stream = fabric.pio_stream(NodeId(0), &seg, 64);
        let mut sink = PioSink::new(&mut stream, &mut clock, 0);
        assert!(ff::pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).is_err());
    }
}
