//! `PioStream::write_run` against the loop it stands for.
//!
//! Two identical fabrics, two streams, one seeded sequence of batches of
//! stores: one side gets each batch as a `write_run` call, the other the
//! same stores spelled out through `write` / `write_batched`. After every
//! batch the clocks, the outstanding arrival, the byte count, the
//! write-combining window, the route state, the verdict and the segment
//! bytes around the batch must agree; at the end so must the traffic
//! counters, `WcCoalescedStores`, the silent faults applied and every byte
//! of the segment.
//!
//! Two families of batches: one run of equal stores, and lists of unequal
//! stores — runs of one interleaved with runs of equal stores. The store
//! lengths divide the batch, do not, and exceed it; a batch starts on a
//! batch boundary, off the write-combine boundary (the misaligned-thrash
//! first burst), continuing the last burst, behind a window the previous
//! batch left half full, or on a fresh stream; it may leave the segment in
//! its middle. Between batches competitors open and close (the contention
//! generation), a demand cap applies, a cable is pulled and plugged back
//! in — on a healthy, a lossy and a silently faulty fabric, for three
//! batch sizes.
//!
//! Every scenario runs at every seed of [`SEEDS`].

use sci_fabric::{
    Fabric, FabricSpec, FaultConfig, LinkId, NodeId, PioStream, SciParams, Segment, Topology,
};
use simclock::{Clock, SplitMix64};
use std::sync::Arc;

const SEG_LEN: usize = 512 * 1024;
const RUNS: usize = 700;

/// The seeds of the sequence of runs.
const SEEDS: [u64; 4] = [0x0AC1E, 1, 42, 20260805];

/// One of the two sides.
struct Side {
    fabric: Arc<Fabric>,
    seg: Arc<Segment>,
    stream: PioStream,
    clock: Clock,
    recorder: Arc<obs::Recorder>,
    competitors: Vec<PioStream>,
    silent_faults: u64,
}

const IMPORTER: NodeId = NodeId(0);

impl Side {
    fn new(faults: FaultConfig, wc_batch_bytes: usize) -> Side {
        // Importer 0, owner 2, both on ring 0 of two: primary route L0 L1,
        // failover route L3 L2.
        let fabric = Fabric::new(FabricSpec {
            topology: Topology::multi_ring(2, 4),
            params: SciParams {
                wc_batch_bytes,
                ..SciParams::default()
            },
            faults,
            seed: 0x0901_DE18,
        });
        let seg = fabric.export(NodeId(2), SEG_LEN);
        let stream = fabric.pio_stream(IMPORTER, &seg, 16 * 1024);
        Side {
            fabric,
            seg,
            stream,
            clock: Clock::new(),
            recorder: obs::Recorder::new(),
            competitors: Vec::new(),
            silent_faults: 0,
        }
    }

    /// What a caller can see of the stream after a call.
    fn state(
        &mut self,
        verdict: Result<(), sci_fabric::SciError>,
    ) -> impl PartialEq + std::fmt::Debug {
        self.silent_faults += self.stream.take_silent_faults();
        (
            self.clock.now(),
            self.stream.outstanding(),
            self.stream.bytes_written(),
            self.stream.wc_pending_bytes(),
            self.stream.is_degraded(),
            self.silent_faults,
            verdict,
        )
    }
}

/// A run of a batch as the sequence draws it: `n` stores of `len` bytes,
/// store `i` is `source[first + i * stride..][..len]`.
#[derive(Clone, Copy, Debug)]
struct Stores {
    len: usize,
    n: usize,
    first: usize,
    stride: usize,
}

/// A batch of stores landing back to back from `offset` on.
#[derive(Debug)]
struct Batch {
    offset: usize,
    runs: Vec<Stores>,
    batched: bool,
}

fn draw_len(rng: &mut SplitMix64, batch: usize) -> usize {
    match rng.next_below(10) {
        // Divides the batch (when the batch is a power of two; 24 takes 1, 2, 4, 8 too).
        0..=3 => 1 << rng.next_below(4),
        4 => batch / 2,
        // Does not divide it.
        5..=6 => rng.next_range(3, 2 * batch as u64) as usize,
        // A batch or more: straight to `write`.
        7 => batch,
        8 => rng.next_range(batch as u64 + 1, 512) as usize,
        _ => rng.next_range(513, 4096) as usize,
    }
}

fn draw_stores(rng: &mut SplitMix64, len: usize, n: usize, source_len: usize) -> Stores {
    let stride = match rng.next_below(3) {
        0 => len,
        1 => 0,
        _ => len + rng.next_range(1, 64) as usize,
    };
    let span = (n - 1) * stride + len;
    // Spans longer than the source fold back onto a stride of zero.
    let stride = if span > source_len { 0 } else { stride };
    let span = (n - 1) * stride + len;
    Stores {
        len,
        n,
        first: rng.next_below((source_len - span + 1) as u64) as usize,
        stride,
    }
}

fn draw_batch(rng: &mut SplitMix64, batch: usize, source_len: usize, cursor: usize) -> Batch {
    const MAX_BYTES: usize = 96 * 1024;
    let runs = if rng.chance(0.5) {
        // One run of equal stores.
        let len = draw_len(rng, batch);
        let n = match rng.next_below(10) {
            0 => 1,
            1..=4 => rng.next_range(2, 40) as usize,
            5..=8 => rng.next_range(41, 600) as usize,
            _ => 600,
        }
        .min((MAX_BYTES / len).max(1));
        vec![draw_stores(rng, len, n, source_len)]
    } else {
        // Unequal stores: runs of one between runs of equal stores.
        let mut runs = Vec::new();
        let mut bytes = 0;
        for _ in 0..rng.next_range(1, 48) {
            let len = draw_len(rng, batch);
            let n = if rng.chance(0.6) {
                1
            } else {
                rng.next_range(2, 40) as usize
            };
            if bytes + len * n > MAX_BYTES {
                break;
            }
            bytes += len * n;
            runs.push(draw_stores(rng, len, n, source_len));
        }
        runs
    };
    let total: usize = runs.iter().map(|r| r.len * r.n).sum();
    let offset = match rng.next_below(10) {
        // Continues the previous batch (and inherits whatever window it left).
        0..=3 => cursor,
        // A fresh burst on a batch boundary.
        4..=5 => (cursor + rng.next_range(1, 900) as usize).next_multiple_of(batch),
        // On the write-combine boundary but not the batch's.
        6 => (cursor + rng.next_range(1, 900) as usize).next_multiple_of(32),
        // Off the write-combine boundary (the misaligned-thrash path).
        7..=8 => {
            (cursor + rng.next_range(1, 900) as usize).next_multiple_of(32)
                + rng.next_range(1, 31) as usize
        }
        // Leaves the segment somewhere in its middle.
        _ => SEG_LEN - total / 2 - rng.next_below(64) as usize,
    };
    Batch {
        offset,
        runs,
        batched: rng.chance(0.7),
    }
}

fn scenario(seed: u64, faults: FaultConfig, batch: usize) {
    let mut rng = SplitMix64::new(seed ^ (batch as u64) << 32);
    let source: Vec<u8> = (0..64 * 1024).map(|_| rng.next_u64() as u8).collect();
    let mut by_run = Side::new(faults.clone(), batch);
    let mut by_store = Side::new(faults, batch);
    let mut cursor = 0usize;
    let mut cable_pulled = false;

    for step in 0..RUNS {
        // Something changes between runs, one time in four.
        if rng.chance(0.25) {
            let event = rng.next_below(8);
            for side in [&mut by_run, &mut by_store] {
                let _bound = side.recorder.bind(0);
                match event {
                    // Five more streams on the segment push the share
                    // below this stream's demand; one alone does not.
                    0 => side
                        .competitors
                        .extend((0..5).map(|_| side.fabric.pio_stream(IMPORTER, &side.seg, 4096))),
                    1 => side
                        .competitors
                        .push(side.fabric.pio_stream(NodeId(1), &side.seg, 4096)),
                    2 => side.competitors.clear(),
                    3 => side
                        .stream
                        .cap_demand(side.fabric.params().node_injection_cap),
                    4 => {
                        let flushed = side.stream.flush_wc(&mut side.clock);
                        side.state(flushed);
                    }
                    5 => {
                        side.stream.barrier(&mut side.clock);
                    }
                    6 if cable_pulled => side.fabric.faults().restore_link(LinkId(0)),
                    6 => side.fabric.faults().fail_link(LinkId(0)),
                    _ => {
                        side.stream.barrier(&mut side.clock);
                        side.stream = side.fabric.pio_stream(IMPORTER, &side.seg, 1 << 20);
                    }
                }
            }
            cable_pulled ^= event == 6;
        }

        let b = draw_batch(&mut rng, batch, source.len(), cursor);
        let store = |r: &Stores, i: usize| &source[r.first + i * r.stride..][..r.len];
        let total: usize = b.runs.iter().map(|r| r.len * r.n).sum();

        let ran = {
            let side = &mut by_run;
            let _bound = side.recorder.bind(0);
            let verdict = side.stream.write_run(
                &mut side.clock,
                b.offset,
                &b.runs,
                b.batched,
                |r| (r.len, r.n),
                store,
                |r, blocks, dst| {
                    assert_eq!(dst.len(), blocks.len() * r.len, "gather of {r:?}");
                    for (i, to) in blocks.zip(dst.chunks_exact_mut(r.len)) {
                        to.copy_from_slice(store(r, i));
                    }
                },
            );
            side.state(verdict)
        };
        let spelled_out = {
            let side = &mut by_store;
            let _bound = side.recorder.bind(0);
            let mut at = b.offset;
            let verdict = b.runs.iter().try_for_each(|r| {
                (0..r.n).try_for_each(|i| {
                    let data = store(r, i);
                    let res = if b.batched {
                        side.stream.write_batched(&mut side.clock, at, data)
                    } else {
                        side.stream.write(&mut side.clock, at, data)
                    };
                    at += r.len;
                    res
                })
            });
            side.state(verdict)
        };
        assert_eq!(ran, spelled_out, "batch {batch}, step {step}: {b:?}");
        // What landed around the batch, and nothing staged ahead of time.
        let lo = b.offset.saturating_sub(2 * batch).min(SEG_LEN);
        let hi = (b.offset + total + 2 * batch).min(SEG_LEN);
        let landed = |side: &Side| {
            let mut bytes = vec![0u8; hi - lo];
            side.seg.mem().read(lo, &mut bytes).unwrap();
            bytes
        };
        assert!(
            landed(&by_run) == landed(&by_store),
            "batch {batch}, step {step}: segment bytes differ in {lo}..{hi}"
        );

        cursor = b.offset + total;
        if cursor + 128 * 1024 > SEG_LEN {
            cursor %= 4096;
        }
    }

    for side in [&mut by_run, &mut by_store] {
        side.stream.barrier(&mut side.clock);
    }
    let traffic = |side: &Side| {
        let t = side.fabric.links().traffic();
        (t.total_data(), t.total_fc(), t.max_link_bytes(), t.per_link)
    };
    assert_eq!(traffic(&by_run), traffic(&by_store), "batch {batch}");
    let coalesced = |side: &Side| side.recorder.counters()[obs::Counter::WcCoalescedStores];
    assert_eq!(coalesced(&by_run), coalesced(&by_store), "batch {batch}");
    assert_eq!(
        by_run.recorder.counters().iter().collect::<Vec<_>>(),
        by_store.recorder.counters().iter().collect::<Vec<_>>(),
        "batch {batch}"
    );
    assert_eq!(by_run.clock.now(), by_store.clock.now(), "batch {batch}");
    assert!(
        by_run.seg.mem().snapshot() == by_store.seg.mem().snapshot(),
        "batch {batch}: segment bytes differ"
    );
    // The sequence must have reached what it is there to compare.
    assert!(coalesced(&by_run) > 0, "no store ever staged");
    assert!(by_run.stream.bytes_written() > 0);
}

/// Run the scenario on `faults` at every seed of [`SEEDS`] and batch
/// size; a red cell is the last one printed before the failure.
fn every_cell(faults: FaultConfig) {
    for seed in SEEDS {
        for batch in [24, 32, 64] {
            println!("cell seed {seed}, batch {batch}");
            scenario(seed, faults.clone(), batch);
        }
    }
}

#[test]
fn healthy_fabric_runs_equal_their_stores() {
    every_cell(FaultConfig::default());
}

#[test]
fn lossy_fabric_runs_equal_their_stores() {
    every_cell(FaultConfig::lossy(0.01));
}

#[test]
fn silently_faulty_fabric_runs_equal_their_stores() {
    every_cell(FaultConfig::silent(1e-3, 1e-3));
}
