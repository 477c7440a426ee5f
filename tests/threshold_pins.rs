//! Golden pin of the two protocol switch points no other golden test or
//! committed baseline crosses: the short-protocol threshold (messages of
//! at most 128 bytes skip the receiver's copy charge) and the mean block
//! length below which a large typed put to a shared window goes to the
//! DMA engine (256 bytes).
//!
//! Moving either value by one moves nothing in `typed_path_golden`,
//! `requests_golden`, `osc_golden`, `backend_diff` or the committed
//! BENCH/PROFILE documents: no program there sends 129 bytes into a byte
//! buffer or puts a layout whose blocks are 256 bytes long. These tests
//! do, on both sides of each switch point, and hold the virtual clocks
//! and the selected pack path to constants recorded before the values
//! became constants. A mismatch prints the table as run.

use mpi_datatype::{Committed, Datatype};
use obs::Counter;
use scimpi::{run, run_report, ClusterSpec, ObsConfig, Source, TagSel, WinMemory};

/// Message sizes around the short-protocol threshold.
const SHORT_SIZES: [usize; 4] = [127, 128, 129, 130];

/// Per size: the sender's and the receiver's clock (ps) after the
/// exchange.
const SHORT_CLOCKS: [(u64, u64); 4] = [
    (2_316_594, 3_351_594),
    (2_320_740, 3_355_740),
    (2_324_886, 3_476_775),
    (2_329_033, 3_481_519),
];

#[test]
fn short_threshold_boundary_matches_the_recorded_clocks() {
    let got: Vec<(u64, u64)> = SHORT_SIZES
        .iter()
        .map(|&len| {
            let clocks = run(ClusterSpec::ringlet(2), move |r| {
                if r.rank() == 0 {
                    r.send(1, 7, &vec![0x5a; len]).unwrap();
                } else {
                    let mut buf = vec![0u8; len];
                    r.recv(Source::Rank(0), TagSel::Value(7), &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == 0x5a));
                }
                r.now().as_ps()
            });
            (clocks[0], clocks[1])
        })
        .collect();
    assert_eq!(got, SHORT_CLOCKS, "recorded table: {got:?}");
}

/// Block lengths around the DMA block cut-off; each layout moves at
/// least 128 KiB, so only the block length decides.
const DMA_BLOCKS: [usize; 3] = [255, 256, 257];

/// Per block length: `path_selected_dma`, `path_selected_direct_ff`, the
/// origin's and the target's clock (ps) after the closing fence.
const DMA_PATHS: [(u64, u64, u64, u64); 3] = [
    (1, 0, 818_354_889, 818_354_889),
    (0, 1, 1_213_537_792, 1_213_537_792),
    (0, 1, 16_842_328_304, 16_842_328_304),
];

#[test]
fn dma_block_boundary_matches_the_recorded_paths() {
    let got: Vec<(u64, u64, u64, u64)> = DMA_BLOCKS
        .iter()
        .map(|&block| {
            let count = (128 * 1024usize).div_ceil(block);
            let dt = Datatype::vector(count, block, 2 * block as isize, &Datatype::byte());
            let spec = ClusterSpec::ringlet(2).obs(ObsConfig::enabled());
            let (clocks, report) = run_report(spec, move |r| {
                let c = Committed::commit(&dt);
                let mem = r.alloc_mem(dt.extent()).unwrap();
                let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
                win.fence(r).unwrap();
                if r.rank() == 0 {
                    let buf = vec![0xa5u8; dt.extent()];
                    win.put_typed(r, 1, 0, &c, 1, &buf, 0).unwrap();
                }
                win.fence(r).unwrap();
                r.now().as_ps()
            });
            (
                report.counters[Counter::PathSelectedDma],
                report.counters[Counter::PathSelectedDirectFf],
                clocks[0],
                clocks[1],
            )
        })
        .collect();
    assert_eq!(got, DMA_PATHS, "recorded table: {got:?}");
}
