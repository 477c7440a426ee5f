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

/// Every one-sided verb records exactly one span, named after the verb
/// and labelled with the path `Window::access` took. `get_typed` and the
/// DMA put had none before they joined the skeleton.
#[test]
fn every_one_sided_verb_records_one_span_naming_its_path() {
    use mpi_datatype::{Committed, Datatype};
    use scimpi::AccumulateOp;

    // (verb, shared target?, large?) → (span, path). `large` is 128 KiB of
    // 64-byte blocks for the typed verbs (above every threshold), 4 KiB
    // for `get`.
    let table = [
        ("put", true, false, "osc.put", "shared"),
        ("put", false, false, "osc.put", "emulated"),
        ("get", true, false, "osc.get", "direct"),
        ("get", true, true, "osc.get", "remote_put"),
        ("get", false, false, "osc.get", "emulated"),
        ("accumulate", true, false, "osc.accumulate", "shared"),
        ("accumulate", false, false, "osc.accumulate", "emulated"),
        ("put_typed", true, false, "osc.put_typed", "shared"),
        ("put_typed", true, true, "osc.put_typed", "dma"),
        ("put_typed", false, true, "osc.put_typed", "emulated"),
        ("put_typed_dma", true, false, "osc.put_typed", "dma"),
        ("get_typed", true, false, "osc.get_typed", "direct"),
        ("get_typed", true, true, "osc.get_typed", "remote_put"),
        ("get_typed", false, false, "osc.get_typed", "emulated"),
    ];
    // Only a run that writes a trace file keeps its events.
    let trace = std::env::temp_dir().join(format!("scimpi_obs_paths_{}.json", std::process::id()));
    for (verb, shared, large, span, path) in table {
        let spec = ClusterSpec::ringlet(2).obs(ObsConfig::with_trace(&trace));
        let (_, report) = run_report(spec, move |r| {
            let blocks = if large { 2048 } else { 4 };
            let c = Committed::commit(&Datatype::vector(blocks, 64, 128, &Datatype::byte()));
            let len = 2 * c.extent();
            let mut win = match shared {
                true => shared_window(r, len),
                false => r.win_create(WinMemory::Private(len)).unwrap(),
            };
            win.fence(r).unwrap();
            if r.rank() == 0 {
                let mut buf = vec![1u8; c.extent()];
                let contiguous = if large { 4096 } else { 64 };
                match verb {
                    "put" => win.put(r, 1, 0, &buf[..contiguous]),
                    "get" => win.get(r, 1, 0, &mut buf[..contiguous]),
                    "accumulate" => win.accumulate(r, 1, 0, AccumulateOp::SumI64, &buf[..64]),
                    "put_typed" => win.put_typed(r, 1, 0, &c, 1, &buf, 0),
                    "put_typed_dma" => win.put_typed_dma(r, 1, 0, &c, 1, &buf, 0),
                    _ => win.get_typed(r, 1, 0, &c, 1, &mut buf, 0),
                }
                .unwrap();
            }
            win.fence(r).unwrap();
        });
        let spans: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.name.starts_with("osc."))
            .map(|e| (e.name, e.args.iter().find(|a| a.0 == "path").map(|a| &a.1)))
            .collect();
        let expect = obs::Arg::Str(path.into());
        assert_eq!(
            spans,
            [(span, Some(&expect))],
            "{verb}, shared {shared}, large {large}"
        );
    }
    let _ = std::fs::remove_file(&trace);
}
