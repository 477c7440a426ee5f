//! Golden pin of the typed two-sided path, end to end.
//!
//! One typed `send_typed`/`recv_typed` per case with
//! the recorder on: four tunings (`full_ff_comparison()`,
//! `generic_only()`, default, `without_pack_engine()`) × ten layouts
//! (vectors of 8/16/24/64/128/1024-byte blocks, the Fig. 3
//! vector-of-struct, a seeded irregular `hindexed`, a 2-D subarray, and
//! `count = 3` of a type whose last block abuts the next instance's
//! first) × three sizes (eager, one rendezvous chunk, five chunks plus a
//! ragged tail, so chunk boundaries split blocks) × three fabrics
//! (healthy, `lossy(0.01)`, `silent(1e-3, 1e-3)` under `SequenceCheck`).
//! Each case folds the received buffer's checksum, both verdicts, both
//! ranks' finish times in picoseconds and every non-zero counter into one
//! digest.
//!
//! The constants were recorded at commit ff688ac (PR 16), before
//! `ff::Run` crossed the crate boundary. They pin that handing the sinks
//! and the fabric whole runs, pricing equal bursts in closed form and
//! driving the generic engine's cost model over the same runs leave
//! virtual time, the counter table and every landed byte — silent faults
//! included — exactly where the block-by-block code put them. A
//! deliberate model change must re-record them (a mismatch prints the
//! table) and say so.

use mpi_datatype::{subarray, tree, ArrayOrder, Committed, Datatype};
use sci_fabric::{fnv1a, FaultConfig};
use scimpi::{run_report, ClusterSpec, ErrorMode, IntegrityMode, Source, TagSel, Tuning};
use simclock::SplitMix64;

/// Eager, one rendezvous chunk, five chunks and a ragged tail (default
/// `eager_threshold` 16 KiB, `rendezvous_chunk` 64 KiB).
const SIZES: [usize; 3] = [6_000, 40_000, 5 * 65_536 + 12_345];

struct Layout {
    name: &'static str,
    dt: Datatype,
    count: usize,
}

/// The ten layouts, each scaled to about `target` payload bytes.
fn layouts(target: usize) -> Vec<Layout> {
    let byte = Datatype::byte();
    let mut out: Vec<Layout> = [
        ("vector.b8", 8),
        ("vector.b16", 16),
        ("vector.b24", 24),
        ("vector.b64", 64),
        ("vector.b128", 128),
        ("vector.b1024", 1024),
    ]
    .into_iter()
    .map(|(name, block)| Layout {
        name,
        dt: Datatype::vector((target / block).max(2), block, 2 * block as isize, &byte),
        count: 1,
    })
    .collect();

    // The paper's Figure 3: a struct of an int and three chars (7 data
    // bytes), repeated every 16.
    let chars = Datatype::contiguous(3, &byte);
    let fig3 = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
    out.push(Layout {
        name: "fig3.hvector_of_struct",
        dt: Datatype::hvector(target / 7, 1, 16, &fig3),
        count: 1,
    });

    // Every block its own length; one gap in five is zero, so neighbours
    // coalesce.
    let mut rng = SplitMix64::new(0x1220_6A11);
    let (mut blocks, mut at, mut bytes) = (Vec::new(), 0i64, 0usize);
    while bytes < target {
        let len = rng.next_range(1, 96) as usize;
        blocks.push((len, at));
        bytes += len;
        at += len as i64;
        if !rng.chance(0.2) {
            at += rng.next_range(1, 40) as i64;
        }
    }
    out.push(Layout {
        name: "irregular.hindexed",
        dt: Datatype::hindexed(&blocks, &byte),
        count: 1,
    });

    // 40 of 96 doubles per row: 320-byte blocks every 768.
    let rows = target / 320 + 2;
    out.push(Layout {
        name: "subarray.2d",
        dt: subarray(
            &[rows, 96],
            &[rows - 2, 40],
            &[1, 13],
            ArrayOrder::C,
            &Datatype::double(),
        ),
        count: 1,
    });

    // lb = 8 and the extent ends with the last block, so instance j + 1
    // starts where instance j stops: the junction merges.
    let n = (target / (3 * 24)).max(2);
    let abutting: Vec<(usize, i64)> = (0..n as i64).map(|i| (24, 8 + 40 * i)).collect();
    out.push(Layout {
        name: "abutting.count3",
        dt: Datatype::hindexed(&abutting, &byte),
        count: 3,
    });
    out
}

fn tunings() -> [(&'static str, Tuning); 4] {
    [
        ("ff", Tuning::default().full_ff_comparison()),
        ("generic", Tuning::default().generic_only()),
        ("default", Tuning::default()),
        ("no_engine", Tuning::default().without_pack_engine()),
    ]
}

fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

/// One message through a two-rank ringlet; the digest of what it left.
fn case(tuning: Tuning, faults: FaultConfig, layout: &Layout) -> u64 {
    let eager = layout.dt.size() * layout.count <= tuning.eager_threshold;
    let spec = ClusterSpec::ringlet(2)
        .tuning(tuning)
        .seed(0x7E57_0018)
        .errors(ErrorMode::ErrorsReturn)
        .obs(obs::ObsConfig::enabled());
    let (dt, count) = (layout.dt.clone(), layout.count);
    let span = (count - 1) * dt.extent() + dt.ub().max(0) as usize;
    let src: Vec<u8> = (0..span)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
        .collect();
    // Where nothing corrupts silently the digest must pin the right bytes:
    // the reference engine's pack and unpack of the same buffer.
    let exact = (faults.corrupt_rate == 0.0 && faults.drop_rate == 0.0).then(|| {
        let mut image = vec![0xEEu8; span];
        tree::reference_unpack(
            &dt,
            count,
            &mut image,
            &tree::reference_pack(&dt, count, &src),
        );
        fnv1a(&image)
    });
    let spec = spec.faults(faults);
    let (ranks, report) = run_report(spec, move |r| {
        let c = Committed::commit(&dt);
        if r.rank() == 0 {
            let sent = r.send_typed(1, 0, &c, count, &src, 0);
            if sent.is_err() && eager {
                // A detect-only eager send that found corruption delivers
                // nothing; an empty message (never faulted) releases the
                // receiver. A failed rendezvous aborts it by itself.
                r.send(1, 0, &[]).expect("empty messages always arrive");
            }
            (sent.is_err() as u64, r.now().as_ps())
        } else {
            let mut buf = vec![0xEEu8; span];
            let got = r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, count, &mut buf, 0);
            let mut verdict = fnv1a(&buf);
            assert!(exact.is_none_or(|image| image == verdict), "wrong bytes");
            fold(&mut verdict, got.map_or(u64::MAX, |st| st.len as u64));
            (verdict, r.now().as_ps())
        }
    });
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (verdict, finish_ps) in ranks {
        fold(&mut h, verdict);
        fold(&mut h, finish_ps);
    }
    for (name, value) in report.counters.iter().filter(|c| c.1 != 0) {
        fold(&mut h, fnv1a(name.as_bytes()));
        fold(&mut h, value);
    }
    h
}

/// Every case of one fabric, in tuning × size × layout order.
fn check(fabric: &str, faults: FaultConfig, integrity_mode: IntegrityMode, expect: &[u64]) {
    let mut names = Vec::new();
    let mut got = Vec::new();
    for (tuning_name, tuning) in tunings() {
        let tuning = Tuning {
            integrity_mode,
            ..tuning
        };
        for target in SIZES {
            for layout in layouts(target) {
                names.push(format!("{tuning_name} / {target} B / {}", layout.name));
                got.push(case(tuning.clone(), faults.clone(), &layout));
            }
        }
    }
    if got != expect {
        let moved: Vec<&String> = names
            .iter()
            .enumerate()
            .filter(|&(i, _)| expect.get(i) != Some(&got[i]))
            .map(|(_, name)| name)
            .collect();
        let table: Vec<String> = got
            .chunks(4)
            .map(|row| {
                let row: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
                format!("    {},", row.join(", "))
            })
            .collect();
        panic!(
            "{fabric}: {} of {} cases moved: {moved:#?}\nthe table as run:\n{}",
            moved.len(),
            got.len(),
            table.join("\n")
        );
    }
}

#[test]
fn healthy_fabric_matches_the_recorded_typed_path() {
    check(
        "healthy",
        FaultConfig::default(),
        IntegrityMode::Off,
        &HEALTHY,
    );
}

#[test]
fn lossy_fabric_matches_the_recorded_typed_path() {
    check(
        "lossy(0.01)",
        FaultConfig::lossy(0.01),
        IntegrityMode::Off,
        &LOSSY,
    );
}

#[test]
fn silently_faulty_fabric_under_sequence_check_matches_the_recorded_typed_path() {
    check(
        "silent(1e-3, 1e-3), SequenceCheck",
        FaultConfig::silent(1e-3, 1e-3),
        IntegrityMode::SequenceCheck,
        &SILENT,
    );
}

#[rustfmt::skip]
const HEALTHY: [u64; 120] = [
    0xa25938fdf12741af, 0x18a347f9bc04929f, 0x7be1b68be1020d2f, 0x94c8c8fcb1fb2cb1,
    0xf50a0270d4e018cc, 0x4be663b22907ab92, 0x6c4bd4f0275f33b4, 0xa468d3b6ff520027,
    0xeeb4aa6b696d3efa, 0xaaf6f660931591a8, 0x0d3ec5c21b3b2b60, 0x8206882a36c2b10c,
    0x8abaf4dd8bc8f621, 0x18c57b29437f311d, 0xadd5325c10534e17, 0xd9e8b2db85abee69,
    0xa3a208337da5f035, 0x844d7855fa20802c, 0x0aee7d1b6397fcd3, 0x0ddcf2803e21ebcc,
    0xf2b20c3ef16eade2, 0xb0ec9cd1345f32c2, 0xc27cf6997a87dc3d, 0x02fe816ff8e5ab77,
    0x841c58fc0e90ce77, 0x5e5517573035c29b, 0x4926585dbb5520e5, 0x584d2c52b7854688,
    0xd5b2d83045dc814f, 0x307a40862fa4251b, 0x7b51be9a4db978c8, 0xe05f81658eed51a8,
    0x4fd4b1daf2597288, 0x4030dda30256fa9e, 0xbe87b5fb0610a553, 0xee54cebdae069ea5,
    0x43d2e4177f605a27, 0x52096425f75bc16c, 0x58f0c5f060bc4bfd, 0x33df03930819287f,
    0x5845482651167e78, 0x084048d5bf8d04d8, 0xc35d38984e3fafd5, 0x023b0aa7b4cfcd78,
    0xee41d94793b73c8e, 0xb2f65f0798c8a06e, 0x8d046608b72b5ab6, 0x0a08b49fb267db09,
    0x7293111fd25869f8, 0x5a885455cce27763, 0x2ca0c840b991a764, 0xecccbf64bd55b86e,
    0xa6f18af2b32c3f37, 0x922bb85540cd32ca, 0xae7cd448e8aa6fca, 0xde3f879da7ea71ca,
    0xd1a2fd1d77c0c5a0, 0xf669ff9dd828715e, 0xcc5bcb270adfdd74, 0x86bde2cd80d806c7,
    0x7b51be9a4db978c8, 0x18a347f9bc04929f, 0x7be1b68be1020d2f, 0x94c8c8fcb1fb2cb1,
    0xf50a0270d4e018cc, 0x4be663b22907ab92, 0x43d2e4177f605a27, 0xa468d3b6ff520027,
    0xeeb4aa6b696d3efa, 0xaaf6f660931591a8, 0x5845482651167e78, 0x8206882a36c2b10c,
    0x8abaf4dd8bc8f621, 0x18c57b29437f311d, 0xadd5325c10534e17, 0xd9e8b2db85abee69,
    0x8d046608b72b5ab6, 0x844d7855fa20802c, 0x0aee7d1b6397fcd3, 0x0ddcf2803e21ebcc,
    0x2ca0c840b991a764, 0xb0ec9cd1345f32c2, 0xc27cf6997a87dc3d, 0x02fe816ff8e5ab77,
    0x841c58fc0e90ce77, 0x5e5517573035c29b, 0xd1a2fd1d77c0c5a0, 0x584d2c52b7854688,
    0xd5b2d83045dc814f, 0x307a40862fa4251b, 0xffd58a61b9d88a48, 0x14111a92ce16f8df,
    0x19da9ad1c15fcf6f, 0xd1a41406e6b60f71, 0xf2e9f2c027e9d20c, 0x88ec8349bce41cd2,
    0x007fcc43aa088da7, 0x9fdb7566436053e7, 0xa146388b0a37acfa, 0x91c5e1637473d1a8,
    0x9a3cd3861743d978, 0x830db36b6d626bc5, 0x2744fb859a1a7b12, 0xcdcf51fa0ee09edd,
    0x2b756d5addacca17, 0x139ffb7bb4d589e9, 0x74aa163a85d49336, 0xa4002b54733cb9de,
    0xe0a95b253622aed3, 0x8a0e33bc9087dac0, 0xeab320da5586c5e4, 0x04756588b256245f,
    0xfc0689cb2c418a08, 0x1dff5b6f97292037, 0x15293764de2dc537, 0x7df5aaeee9bde61b,
    0x404f7e83754cffe0, 0xfa2163b0a7932027, 0x0075a5e64d12874f, 0xc68d9370533ece2e,
];

#[rustfmt::skip]
const LOSSY: [u64; 120] = [
    0xa25938fdf12741af, 0x18a347f9bc04929f, 0x7be1b68be1020d2f, 0x94c8c8fcb1fb2cb1,
    0xf50a0270d4e018cc, 0x4be663b22907ab92, 0x6c4bd4f0275f33b4, 0xa468d3b6ff520027,
    0xeeb4aa6b696d3efa, 0xaaf6f660931591a8, 0xf926b86a5743e148, 0x981f8fda2f611594,
    0x3d77d46a930f657d, 0x8df70fd3d4647775, 0xedcf393a55ec7aa3, 0xafadff8f889091c9,
    0x433df4c6f10f5025, 0xf55417dbfbfc034c, 0x4ce006b14f830607, 0x33d8feefa9104314,
    0x1d3083c02f123c27, 0xd12acf8d3b0af93f, 0xea706a3fb4262d14, 0xfa259dffed289b8e,
    0x4a8626a20bba168e, 0x0ad4e22a58695d4a, 0xad6b8b217253f7a4, 0x3a784e6374f510a1,
    0xe6d46fd88b608c86, 0x2c16d8a29d53589a, 0x7b51be9a4db978c8, 0xe05f81658eed51a8,
    0x4fd4b1daf2597288, 0x4030dda30256fa9e, 0xbe87b5fb0610a553, 0xee54cebdae069ea5,
    0x43d2e4177f605a27, 0x52096425f75bc16c, 0x58f0c5f060bc4bfd, 0x33df03930819287f,
    0xa804292554dc6788, 0xbda3c90023ee38e8, 0xc69aeca7dd849f49, 0x5aecac7588c9c4c8,
    0x8da9c6888c4912fe, 0x31cca6c4df7658de, 0x751835bc6d8ffde2, 0x94beb6483e258735,
    0x60e7ff451ff7f948, 0x0cca70069eb6de57, 0xeb29633453630157, 0xd1f779206a3e9481,
    0xad68a3855e220242, 0xb7b64949dbeb4c34, 0x4cc6e644d7dd4d34, 0xdd1d3ed58a0af183,
    0x58c4fee579a766a3, 0x7010b56e1fb68199, 0xae0742388bec004b, 0xba08faf0892b9eca,
    0x7b51be9a4db978c8, 0x18a347f9bc04929f, 0x7be1b68be1020d2f, 0x94c8c8fcb1fb2cb1,
    0xf50a0270d4e018cc, 0x4be663b22907ab92, 0x43d2e4177f605a27, 0xa468d3b6ff520027,
    0xeeb4aa6b696d3efa, 0xaaf6f660931591a8, 0xa804292554dc6788, 0x981f8fda2f611594,
    0x3d77d46a930f657d, 0x8df70fd3d4647775, 0xedcf393a55ec7aa3, 0xafadff8f889091c9,
    0x751835bc6d8ffde2, 0xf55417dbfbfc034c, 0x4ce006b14f830607, 0x33d8feefa9104314,
    0xeb29633453630157, 0xd12acf8d3b0af93f, 0xea706a3fb4262d14, 0xfa259dffed289b8e,
    0x4a8626a20bba168e, 0x0ad4e22a58695d4a, 0x58c4fee579a766a3, 0x3a784e6374f510a1,
    0xe6d46fd88b608c86, 0x2c16d8a29d53589a, 0xffd58a61b9d88a48, 0x14111a92ce16f8df,
    0x19da9ad1c15fcf6f, 0xd1a41406e6b60f71, 0xf2e9f2c027e9d20c, 0x88ec8349bce41cd2,
    0x007fcc43aa088da7, 0x9fdb7566436053e7, 0xa146388b0a37acfa, 0x91c5e1637473d1a8,
    0x5a9c2eb231e88448, 0x074054d0ade48df9, 0x9c7e5c5d4c8a24dc, 0xb194ecef689698b5,
    0x32d0fed46e00e8a3, 0xb7fa586eecb01749, 0x59e3838deebc7ae2, 0x7ede8f9d41b6140c,
    0x51995c7a93bbd007, 0xae0b5a0aee2ba8b2, 0x6644339ea0c2d217, 0x0e487932f7d604af,
    0x65fced67fae44d89, 0x6d32facc0e0cabce, 0x91a15c12226cf6ce, 0x920fc61662464e4a,
    0x2ddad9be65a9cda3, 0x256eedffe9ab9b8b, 0x76d392220ed46c86, 0x9c7a8ee89f6fda4f,
];

#[rustfmt::skip]
const SILENT: [u64; 120] = [
    0x6366532adacc94af, 0xf131e513e89ee41f, 0x259b6c6b547d54af, 0x00fda81d42de1eb1,
    0x8d1770945a8a3f4c, 0x634ce6591c0ad712, 0x4b755e590f95cf34, 0x2d4095cd726519a7,
    0x9f8a1adef5d19efa, 0xc3d114393efcec28, 0xff9f5e9a8dc541e0, 0xc9fa3353b13cd68c,
    0xd8aed6f8b97ec8a1, 0xaf820a7f0300739d, 0x3bb81e49051e6e17, 0xb72e35e2acb025e9,
    0x4a482e6ec4ce3535, 0x2ba91325ea143aac, 0xfcf3d9396af84c53, 0x8a4053876c3ea2cc,
    0x45920605131d95f2, 0x15856f8f5f78d852, 0xb6d751c7605fa312, 0x9c5b1d70ae3a64f6,
    0x6921dcce4c0003f6, 0xa83dc78cfae344f6, 0x88d9318e05122362, 0xbcd090f59767bfc0,
    0x4a6d560ded69d52e, 0x40cd0fd66e4ac472, 0xba562ec4237544c8, 0xbe848caf624ce628,
    0xf91f849a14a65188, 0xb85d6ddf90f1609e, 0x7944875d4ffbd753, 0xe4987bef907e2ca5,
    0xdb6824e46f801ba7, 0x72c207eb8f79a16c, 0xf2a7bd0398672bfd, 0x92e87dad12a07eff,
    0xd6e93d0adb60ee78, 0xaf9cd1e3678f8758, 0xe7e49620310ff755, 0x3af80d3e681eef78,
    0xbd99c7b523dfd50e, 0x90e058c9a691a86e, 0xe206ac46086d5d36, 0x4ebe34c9f63bae89,
    0x828930ce6b7107f8, 0xf7ae1485c2338ae3, 0xec32e94ceffc3698, 0x2e976f1ef4a1c1f8,
    0x51fdf1247e87bd78, 0xd59a4658e8517f38, 0x22a8b549c6095a38, 0x554491bae61eb838,
    0x78d172d7b5eab808, 0x5ca53bf72f6cae39, 0x10b46e721e6b1f38, 0xc5e62f8ce5fe8a58,
    0xba562ec4237544c8, 0xf131e513e89ee41f, 0x259b6c6b547d54af, 0x00fda81d42de1eb1,
    0x8d1770945a8a3f4c, 0x634ce6591c0ad712, 0xdb6824e46f801ba7, 0x2d4095cd726519a7,
    0x9f8a1adef5d19efa, 0xc3d114393efcec28, 0xd6e93d0adb60ee78, 0xc9fa3353b13cd68c,
    0xd8aed6f8b97ec8a1, 0xaf820a7f0300739d, 0x3bb81e49051e6e17, 0xb72e35e2acb025e9,
    0xe206ac46086d5d36, 0x2ba91325ea143aac, 0xfcf3d9396af84c53, 0x8a4053876c3ea2cc,
    0xec32e94ceffc3698, 0x15856f8f5f78d852, 0xb6d751c7605fa312, 0x9c5b1d70ae3a64f6,
    0x6921dcce4c0003f6, 0xa83dc78cfae344f6, 0x78d172d7b5eab808, 0xbcd090f59767bfc0,
    0x4a6d560ded69d52e, 0x40cd0fd66e4ac472, 0xbaa70878d6b5af48, 0x3c67853848077ddf,
    0xb164b5aabf156a6f, 0x48a634b3160cf3f1, 0x9af74ba9db590c0c, 0x9c79327fe41b12d2,
    0xc7d6905f80118627, 0x25c7096b027f0ce7, 0x758d3ffe189798fa, 0x512f490df4fe2828,
    0x819b248763dbe578, 0xd7df7870015fc782, 0xbe8713aeab6dad12, 0xe9f8d6f8cdcbd1dd,
    0xa6fc6e754745ac17, 0xb3560a4930a67869, 0x30505d736fbe1db6, 0xb9828532dfe853de,
    0xbe5a3bdeb3642653, 0xad7a0baa72a8a3c0, 0x820b94892fbaed18, 0xf2f54acad857bdfb,
    0x241f525a089ba7e2, 0x089ac083b84293b6, 0x155763b14f4b84b6, 0xf0df3764efcd6436,
    0xf4afbf43e0ed67c8, 0xb652a8ab09760086, 0x7c5babdef0ba2b2e, 0x6df125da12a4c2e2,
];
