//! Golden pin of the PIO store cost model.
//!
//! One seeded sequence of mixed `write` / `write_batched` / `flush_wc` /
//! `barrier` / `write_strided` calls per scenario (three fault
//! configurations × two write-combine batch sizes), with contention
//! changes, a demand cap, both memory-bandwidth tiers, out-of-bounds
//! stores and a link failure that forces failover and heal in the middle
//! of it. Every call folds the clock, the stream's outstanding arrival,
//! its byte count, its route state and the call's verdict into a rolling
//! digest; the end state is compared with constants.
//!
//! The constants were recorded at commit 4c27180 (PR 12), before the store
//! path was touched. They pin that host-side restructuring of
//! `PioStream` — memoised burst pricing, a reused write-combine window,
//! lock-free route checks — re-prices on every contention change and
//! route switch exactly as the per-call computation did, and that fault
//! dice still roll once per transaction in the same order. A deliberate
//! model change must re-record them and say so.

use sci_fabric::{
    Fabric, FabricSpec, FaultConfig, LinkId, NodeId, PioStream, SciParams, SeqStatus, Topology,
};
use simclock::{Clock, SplitMix64};

const SEG_LEN: usize = 256 * 1024;
const OPS_PER_PHASE: usize = 600;

/// What one scenario leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// Rolling digest over every call (see [`Run::observe`]).
    trace: u64,
    now_ps: u64,
    outstanding_ps: u64,
    bytes_written: u64,
    traffic_data: u64,
    traffic_fc: u64,
    busiest_link: u64,
    segment_fnv: u64,
}

fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

struct Run {
    clock: Clock,
    rng: SplitMix64,
    source: Vec<u8>,
    trace: u64,
    bytes_written: u64,
    /// End of the last plain store (the next burst-continuing offset).
    cursor: usize,
    /// End of the last batched store (the next window-adjacent offset).
    wc_cursor: usize,
}

impl Run {
    fn observe(&mut self, s: &mut PioStream, verdict: u64) {
        fold(&mut self.trace, self.clock.now().as_ps());
        fold(&mut self.trace, s.outstanding().as_ps());
        fold(&mut self.trace, s.bytes_written());
        fold(&mut self.trace, s.wc_pending_bytes() as u64);
        fold(&mut self.trace, s.is_degraded() as u64);
        fold(&mut self.trace, s.take_silent_faults());
        fold(&mut self.trace, verdict);
    }

    fn len(&mut self) -> usize {
        match self.rng.next_below(10) {
            0..=4 => self.rng.next_range(1, 16) as usize,
            5..=7 => self.rng.next_range(17, 128) as usize,
            _ => self.rng.next_range(129, 4096) as usize,
        }
    }

    fn data(&mut self, len: usize) -> std::ops::Range<usize> {
        let at = self.rng.next_below((self.source.len() - len) as u64) as usize;
        at..at + len
    }

    /// Keep offsets inside the segment with room for the largest store.
    fn wrap(at: usize) -> usize {
        if at + 3 * 4096 > SEG_LEN {
            at % 4096
        } else {
            at
        }
    }

    /// One seeded call on `s`.
    fn step(&mut self, s: &mut PioStream) {
        let kind = self.rng.next_below(100);
        let len = self.len();
        let verdict = match kind {
            // Burst-continuing store.
            0..=27 => {
                let at = Self::wrap(self.cursor);
                let r = self.data(len);
                let res = s.write(&mut self.clock, at, &self.source[r]);
                self.cursor = at + len;
                res.is_err() as u64
            }
            // New burst on a write-combine boundary.
            28..=37 => {
                let gap = self.rng.next_range(1, 512) as usize;
                let at = Self::wrap((self.cursor + gap).next_multiple_of(32));
                let r = self.data(len);
                let res = s.write(&mut self.clock, at, &self.source[r]);
                self.cursor = at + len;
                res.is_err() as u64
            }
            // New burst off the write-combine boundary (the §4.3 cliff).
            38..=45 => {
                let gap = self.rng.next_range(1, 512) as usize;
                let off = self.rng.next_range(1, 31) as usize;
                let at = Self::wrap((self.cursor + gap).next_multiple_of(32)) + off;
                let r = self.data(len);
                let res = s.write(&mut self.clock, at, &self.source[r]);
                self.cursor = at + len;
                res.is_err() as u64
            }
            // Batched store adjacent to the window.
            46..=70 => {
                let len = if self.rng.chance(0.9) {
                    self.rng.next_range(1, 48) as usize
                } else {
                    len
                };
                let at = Self::wrap(self.wc_cursor);
                let r = self.data(len);
                let res = s.write_batched(&mut self.clock, at, &self.source[r]);
                self.wc_cursor = at + len;
                res.is_err() as u64
            }
            // Batched store overlapping the tail of the window; may grow
            // it across a batch boundary.
            71..=78 => {
                let back = self.rng.next_below(1 + s.wc_pending_bytes() as u64) as usize;
                let len = self.rng.next_range(1, 96) as usize;
                let end = Self::wrap(self.wc_cursor);
                let at = end - back.min(end);
                let r = self.data(len);
                let res = s.write_batched(&mut self.clock, at, &self.source[r]);
                self.wc_cursor = end.max(at + len);
                res.is_err() as u64
            }
            // Batched store away from the window: closes it.
            79..=83 => {
                let gap = self.rng.next_range(65, 1024) as usize;
                let len = self.rng.next_range(1, 80) as usize;
                let at = Self::wrap(self.wc_cursor + gap);
                let r = self.data(len);
                let res = s.write_batched(&mut self.clock, at, &self.source[r]);
                self.wc_cursor = at + len;
                res.is_err() as u64
            }
            84..=87 => s.flush_wc(&mut self.clock).is_err() as u64,
            88..=91 => s.barrier(&mut self.clock).as_ps(),
            // The §4.3 strided-write helper.
            92..=96 => {
                let block = self.rng.next_range(8, 256) as usize;
                let stride = block + self.rng.next_below(96) as usize;
                let count = self.rng.next_range(2, 16) as usize;
                let base = Self::wrap(self.cursor);
                let r = self.data(block * count);
                let res =
                    s.write_strided(&mut self.clock, base, block, stride, count, &self.source[r]);
                self.cursor = base + stride * (count - 1) + block;
                res.is_err() as u64
            }
            // Out of bounds, plain and batched: an error, no time, no dice.
            _ => {
                let r = self.data(len);
                let at = SEG_LEN - self.rng.next_below(len as u64) as usize;
                let res = if kind == 97 {
                    s.write_batched(&mut self.clock, at, &self.source[r])
                } else {
                    s.write(&mut self.clock, at, &self.source[r])
                };
                2 + res.is_err() as u64
            }
        };
        self.observe(s, verdict);
    }

    /// Close a phase: flush, barrier, sequence verdict, then drop the
    /// stream (its link registration goes with it).
    fn close(&mut self, mut s: PioStream) {
        let flushed = s.flush_wc(&mut self.clock).is_err() as u64;
        self.observe(&mut s, flushed);
        let at = s.barrier(&mut self.clock).as_ps();
        self.observe(&mut s, at);
        let tainted = (s.check_sequence(&mut self.clock) == SeqStatus::Tainted) as u64;
        self.observe(&mut s, tainted);
        self.bytes_written += s.bytes_written();
    }
}

fn scenario(faults: FaultConfig, wc_batch_bytes: usize) -> Golden {
    let fabric = Fabric::new(FabricSpec {
        topology: Topology::multi_ring(2, 4),
        params: SciParams {
            wc_batch_bytes,
            ..SciParams::default()
        },
        faults,
        seed: 0x0901_DE17,
    });
    let mut rng = SplitMix64::new(0x5EED_0013 ^ wc_batch_bytes as u64);
    let source: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
    // Importer 0, owner 2, both on ring 0: primary route L0 L1, failover
    // route L3 L2.
    let (importer, owner) = (NodeId(0), NodeId(2));
    let seg = fabric.export(owner, SEG_LEN);
    let mut run = Run {
        clock: Clock::new(),
        rng,
        source,
        trace: 0xcbf2_9ce4_8422_2325,
        bytes_written: 0,
        cursor: 0,
        wc_cursor: 64 * 1024,
    };

    // Phase 1: contention comes and goes. One competitor leaves the share
    // above the stream's demand; five push it below (633 MiB/s ÷ 6).
    let mut s = fabric.pio_stream(importer, &seg, 16 * 1024);
    s.start_sequence(&mut run.clock);
    let mut competitors: Vec<PioStream> = Vec::new();
    for op in 0..OPS_PER_PHASE {
        match op {
            120 => competitors.push(fabric.pio_stream(importer, &seg, 4096)),
            240 => competitors.extend((0..4).map(|_| fabric.pio_stream(importer, &seg, 4096))),
            360 => competitors.truncate(2),
            480 => competitors.clear(),
            _ => {}
        }
        run.step(&mut s);
    }
    run.close(s);

    // Phase 2: a demand-capped stream (the one-sided window setting),
    // contended for its whole life, then not.
    let mut s = fabric.pio_stream(importer, &seg, 64 * 1024);
    s.cap_demand(fabric.params().node_injection_cap);
    s.start_sequence(&mut run.clock);
    competitors.extend((0..7).map(|_| fabric.pio_stream(NodeId(1), &seg, 4096)));
    for op in 0..OPS_PER_PHASE {
        if op == 300 {
            competitors.clear();
        }
        run.step(&mut s);
    }
    run.close(s);

    // Phase 3: the cable of L0 is pulled mid-stream (failover to the
    // degraded route) and plugged back in (heal at the next store).
    let mut s = fabric.pio_stream(importer, &seg, 16 * 1024);
    s.start_sequence(&mut run.clock);
    for op in 0..OPS_PER_PHASE {
        match op {
            150 => fabric.faults().fail_link(LinkId(0)),
            250 => competitors.extend((0..5).map(|_| fabric.pio_stream(NodeId(3), &seg, 4096))),
            450 => fabric.faults().restore_link(LinkId(0)),
            _ => {}
        }
        run.step(&mut s);
    }
    competitors.clear();
    run.close(s);

    // Phase 4: a source working set past L2 (Figure 1's dip).
    let mut s = fabric.pio_stream(importer, &seg, 1 << 20);
    s.start_sequence(&mut run.clock);
    for _ in 0..OPS_PER_PHASE {
        run.step(&mut s);
    }
    let outstanding_ps = s.outstanding().as_ps();
    run.close(s);

    let traffic = fabric.links().traffic();
    Golden {
        trace: run.trace,
        now_ps: run.clock.now().as_ps(),
        outstanding_ps,
        bytes_written: run.bytes_written,
        traffic_data: traffic.total_data(),
        traffic_fc: traffic.total_fc(),
        busiest_link: traffic.max_link_bytes(),
        segment_fnv: seg.mem().checksum(0, SEG_LEN).unwrap(),
    }
}

fn check(name: &str, faults: FaultConfig, expect: [Golden; 2]) {
    let got = [32, 64].map(|batch| scenario(faults.clone(), batch));
    assert_eq!(got, expect, "{name}, wc_batch_bytes 32 and 64");
}

#[test]
fn healthy_fabric_matches_the_recorded_model() {
    check(
        "healthy",
        FaultConfig::default(),
        [
            Golden {
                trace: 8_490_585_086_003_924_576,
                now_ps: 55_007_940_782,
                outstanding_ps: 55_006_240_782,
                bytes_written: 736_998,
                traffic_data: 1_473_996,
                traffic_fc: 114_326,
                busiest_link: 654_931,
                segment_fnv: 16_822_066_579_176_944_906,
            },
            Golden {
                trace: 14_537_011_842_127_515_720,
                now_ps: 49_515_089_058,
                outstanding_ps: 49_513_079_100,
                bytes_written: 695_720,
                traffic_data: 1_391_440,
                traffic_fc: 108_524,
                busiest_link: 615_482,
                segment_fnv: 14_198_023_730_989_118_913,
            },
        ],
    );
}

#[test]
fn lossy_fabric_matches_the_recorded_model() {
    check(
        "lossy(0.01)",
        FaultConfig::lossy(0.01),
        [
            Golden {
                trace: 15_279_573_934_179_250_365,
                now_ps: 57_977_942_312,
                outstanding_ps: 57_976_242_312,
                bytes_written: 736_998,
                traffic_data: 1_473_996,
                traffic_fc: 114_326,
                busiest_link: 654_931,
                segment_fnv: 16_822_066_579_176_944_906,
            },
            Golden {
                trace: 12_314_005_214_025_978_719,
                now_ps: 52_172_496_834,
                outstanding_ps: 52_170_486_876,
                bytes_written: 695_720,
                traffic_data: 1_391_440,
                traffic_fc: 108_524,
                busiest_link: 615_482,
                segment_fnv: 14_198_023_730_989_118_913,
            },
        ],
    );
}

#[test]
fn silently_faulty_fabric_matches_the_recorded_model() {
    check(
        "silent(1e-3, 1e-3)",
        FaultConfig::silent(1e-3, 1e-3),
        [
            Golden {
                trace: 14_871_935_777_791_970_749,
                now_ps: 55_007_940_782,
                outstanding_ps: 55_006_240_782,
                bytes_written: 736_998,
                traffic_data: 1_473_996,
                traffic_fc: 114_326,
                busiest_link: 654_931,
                segment_fnv: 15_763_151_504_867_578_991,
            },
            Golden {
                trace: 11_276_097_220_137_986_160,
                now_ps: 49_515_089_058,
                outstanding_ps: 49_513_079_100,
                bytes_written: 695_720,
                traffic_data: 1_391_440,
                traffic_fc: 108_524,
                busiest_link: 615_482,
                segment_fnv: 16_575_988_376_086_101_447,
            },
        ],
    );
}
