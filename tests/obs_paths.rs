//! The observability counters must attribute each protocol decision to
//! the right path: eager vs rendezvous sends, shared vs emulated window
//! accesses. Each scenario reads the report of its own run (that a run
//! with the recorder off reports nothing is `tests/concurrent_runs.rs`).

use obs::Counter;
use scimpi::{run_report, ClusterSpec, ObsConfig, Rank, Source, TagSel, WinMemory};

fn enabled_spec() -> ClusterSpec {
    ClusterSpec::ringlet(2).obs(ObsConfig::enabled())
}

fn shared_window(r: &mut Rank, len: usize) -> scimpi::Window {
    let mem = r.alloc_mem(len).unwrap();
    r.win_create(WinMemory::Alloc(mem)).unwrap()
}

#[test]
fn counters_attribute_protocol_paths() {
    // --- 1. Small message: eager, no rendezvous traffic. ---
    let (_, report) = run_report(enabled_spec(), |r| {
        if r.rank() == 0 {
            r.send(1, 0, &[7u8; 128]).unwrap();
        } else {
            let mut buf = [0u8; 128];
            r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
        }
    });
    assert_eq!(report.counters[Counter::EagerSends], 1);
    assert_eq!(report.counters[Counter::RendezvousSends], 0);
    assert_eq!(report.counters[Counter::RendezvousChunks], 0);

    // --- 2. Large message: rendezvous, chunked through the pair ring. ---
    let spec = enabled_spec();
    let total = 160 * 1024;
    assert!(total > spec.tuning.eager_threshold);
    let expected_chunks = total.div_ceil(spec.tuning.rendezvous_chunk) as u64;
    let (_, report) = run_report(spec, move |r| {
        if r.rank() == 0 {
            r.send(1, 0, &vec![1u8; total]).unwrap();
        } else {
            let mut buf = vec![0u8; total];
            r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
        }
    });
    assert_eq!(report.counters[Counter::EagerSends], 0);
    assert_eq!(report.counters[Counter::RendezvousSends], 1);
    assert_eq!(report.counters[Counter::RendezvousChunks], expected_chunks);

    // --- 3. Put into a shared (MPI_Alloc_mem) window: direct path. ---
    let (_, report) = run_report(enabled_spec(), |r| {
        let mut win = shared_window(r, 1024);
        if r.rank() == 0 {
            win.put(r, 1, 0, &[3u8; 64]).unwrap();
        }
        win.fence(r).unwrap();
    });
    assert_eq!(report.counters[Counter::OscPutShared], 1);
    assert_eq!(report.counters[Counter::OscPutEmulated], 0);

    // --- 4. Put into a private window: emulation path. ---
    let (_, report) = run_report(enabled_spec(), |r| {
        let mut win = r.win_create(WinMemory::Private(1024)).unwrap();
        if r.rank() == 0 {
            win.put(r, 1, 0, &[4u8; 64]).unwrap();
        }
        win.fence(r).unwrap();
    });
    assert_eq!(report.counters[Counter::OscPutShared], 0);
    assert_eq!(report.counters[Counter::OscPutEmulated], 1);

    // --- 5. Gets split by the remote-put conversion threshold. ---
    let spec = enabled_spec();
    let threshold = spec.tuning.get_remote_put_threshold;
    let (_, report) = run_report(spec, move |r| {
        let mut win = shared_window(r, 2 * threshold);
        win.fence(r).unwrap();
        if r.rank() == 0 {
            let mut small = vec![0u8; 16];
            win.get(r, 1, 0, &mut small).unwrap();
            let mut large = vec![0u8; threshold];
            win.get(r, 1, 0, &mut large).unwrap();
        }
        win.fence(r).unwrap();
    });
    assert_eq!(report.counters[Counter::OscGetDirect], 1);
    assert_eq!(report.counters[Counter::OscGetRemotePut], 1);
}
