//! Golden pin of one-sided communication, end to end.
//!
//! Five programs — contiguous `put`/`iput`, `get`/`iget` on both sides of
//! `get_remote_put_threshold`, `put_typed` (a DirectFf-, a Staged- and a
//! Dma-selected layout, one reaching below its origin, one forced through
//! `put_typed_dma`), `get_typed` on both sides of the threshold, and
//! `accumulate` with all four operators — each against a shared, a
//! private and a demoted target (both routes severed under
//! `osc_fallback_threshold: 1`, so the probing put is served by emulation;
//! the closing fence re-promotes), inside a fence, a post/start/complete/
//! wait and a `locked` epoch, on a healthy, a `lossy(0.01)`, a
//! `silent(1e-3, 1e-3)` and a `silent(0.05, 0.02)` fabric (noisy enough
//! that every retransmit loop turns and some exhaust their budget of 4),
//! under `Off`, `SequenceCheck` and `EndToEnd`: 540 runs of a three-rank
//! ringlet with the recorder on.
//! Rank 0 drives the program at rank 1; rank 2 is a second origin with
//! one put of its own, so PSCW and the lock see two parties.
//!
//! Each case folds every rank's window bytes, every origin buffer, the
//! verdict of every verb and synchronisation call (`Ok`, or the error's
//! kind), every rank's finish time in picoseconds and every non-zero
//! counter into one digest. Spans are not in it.
//!
//! It is a model table (`golden/mod.rs`), recorded at commit b0ce5fd,
//! before the verbs of `osc.rs` shared one `access` skeleton: virtual
//! time, the counter table and every landed byte — silent faults
//! included — stay where the six hand-carried pipelines put them.

mod golden;

use golden::{Log, MODES};
use mpi_datatype::{typed, Committed, Datatype};
use sci_fabric::{FaultConfig, LinkId};
use scimpi::{
    run_report, AccumulateOp, ClusterSpec, ErrorMode, IntegrityMode, ObsConfig, Rank, Tuning,
    WinMemory, Window,
};
use simclock::SimDuration;

/// Rank 0 runs the program, rank 2 one put beside it, both at rank 1.
const TARGET: usize = 1;
const ORIGINS: [usize; 2] = [0, 2];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mem {
    Shared,
    Private,
    Demoted,
}

#[derive(Clone, Copy, Debug)]
enum Epoch {
    Fence,
    Pscw,
    Locked,
}

#[derive(Clone, Copy, Debug)]
enum Program {
    Put,
    Get,
    PutTyped,
    GetTyped,
    Accumulate,
}

const PROGRAMS: [Program; 5] = [
    Program::Put,
    Program::Get,
    Program::PutTyped,
    Program::GetTyped,
    Program::Accumulate,
];
const MEMS: [Mem; 3] = [Mem::Shared, Mem::Private, Mem::Demoted];
const EPOCHS: [Epoch; 3] = [Epoch::Fence, Epoch::Pscw, Epoch::Locked];

/// Deterministic filler, different per `salt`.
fn pattern(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect()
}

fn window_len(program: Program) -> usize {
    match program {
        Program::PutTyped => 320 * 1024,
        Program::Accumulate => 4096,
        _ => 16 * 1024,
    }
}

/// A type whose first block lies below displacement 0 (lb −16, ub 32).
fn reaches_below() -> Datatype {
    Datatype::hindexed(&[(8, -16), (8, 0), (8, 24)], &Datatype::byte())
}

/// A type that starts above displacement 0 (lb 8, ub 72).
fn starts_above() -> Datatype {
    Datatype::hindexed(&[(24, 8), (24, 48)], &Datatype::byte())
}

fn put_program(win: &mut Window, r: &mut Rank, log: &mut Log, len: usize) {
    let src = pattern(5000, 1);
    log.verdict(win.put(r, TARGET, 64, &src[..200]));
    log.verdict(win.put(r, TARGET, 1024, &src));
    log.verdict(win.put(r, TARGET, 7000, &src[..1]));
    for (off, n) in [(8192, 96), (9000, 3000)] {
        if let Some(mut req) = log.verdict(win.iput(r, TARGET, off, &src[..n])) {
            r.compute(SimDuration::from_us(3));
            log.verdict(r.wait(&mut req));
        }
    }
    log.verdict(win.put(r, TARGET, len - 32, &src[..64]));
}

fn get_program(win: &mut Window, r: &mut Rank, log: &mut Log, len: usize) {
    // 512 is the default `get_remote_put_threshold`.
    for (off, n) in [(100, 64), (1000, 511), (2048, 512), (4096, 4096)] {
        let mut buf = vec![0xEEu8; n];
        log.verdict(win.get(r, TARGET, off, &mut buf));
        log.bytes(&buf);
    }
    for (off, n) in [(9000, 64), (10_000, 2048)] {
        if let Some(mut req) = log.verdict(win.iget(r, TARGET, off, n)) {
            r.compute(SimDuration::from_us(20));
            if let Some(got) = log.verdict(r.wait(&mut req)) {
                log.bytes(&got);
            }
        }
    }
    let mut buf = [0xEEu8; 64];
    log.verdict(win.get(r, TARGET, len - 32, &mut buf));
    log.bytes(&buf);
}

fn put_typed_program(win: &mut Window, r: &mut Rank, log: &mut Log, mem: Mem) {
    let byte = Datatype::byte();
    // 64-byte blocks clear `FF_MIN_BLOCK`: DirectFf. Two instances.
    let direct = Committed::commit(&Datatype::vector(32, 64, 96, &byte));
    log.verdict(win.put_typed(r, TARGET, 1024, &direct, 2, &pattern(6080, 2), 0));
    // 8-byte blocks do not: Staged.
    let staged = Committed::commit(&Datatype::vector(64, 1, 2, &Datatype::double()));
    log.verdict(win.put_typed(r, TARGET, 8192, &staged, 1, &pattern(1016, 3), 0));
    // Displacement 0 is byte 32 of the buffer, byte 12 352 of the window.
    let below = Committed::commit(&reaches_below());
    log.verdict(win.put_typed(r, TARGET, 12_352, &below, 1, &pattern(64, 4), 32));
    // Forced through the descriptor list, where the parent supports it.
    if mem == Mem::Shared {
        let forced = Committed::commit(&Datatype::vector(16, 32, 64, &byte));
        log.verdict(win.put_typed_dma(r, TARGET, 16_384, &forced, 1, &pattern(992, 5), 0));
    }
    // 128 KiB of 64-byte blocks: Dma where the target offers it.
    let dma = Committed::commit(&Datatype::vector(2048, 64, 128, &byte));
    log.verdict(win.put_typed(r, TARGET, 32_768, &dma, 1, &pattern(262_080, 6), 0));
}

fn get_typed_program(win: &mut Window, r: &mut Rank, log: &mut Log, len: usize) {
    let double = Datatype::double();
    // (layout, count, window offset, buffer length, origin): 128 B, 4 KiB,
    // 24 B reaching below the origin, 144 B and 576 B starting above it.
    let small = Datatype::vector(8, 2, 4, &double);
    let cases = [
        (small.clone(), 1, 512, 240, 0),
        (Datatype::vector(256, 2, 4, &double), 1, 2048, 8176, 0),
        (reaches_below(), 1, 11_000, 64, 32),
        (starts_above(), 3, 12_000, 200, 0),
        (starts_above(), 12, 13_000, 776, 0),
        (small, 1, len - 100, 240, 0),
    ];
    for (dt, count, off, buf_len, origin) in cases {
        let c = Committed::commit(&dt);
        let mut buf = vec![0xEEu8; buf_len];
        log.verdict(win.get_typed(r, TARGET, off, &c, count, &mut buf, origin));
        log.bytes(&buf);
    }
}

fn accumulate_program(win: &mut Window, r: &mut Rank, log: &mut Log, len: usize) {
    let doubles: Vec<f64> = (0..8).map(|i| 1.5 * i as f64 - 3.0).collect();
    let f = typed::to_bytes(&doubles);
    let ints: Vec<u8> = (0..8i64)
        .flat_map(|i| (i * 1000 - 7).to_le_bytes())
        .collect();
    log.verdict(win.accumulate(r, TARGET, 0, AccumulateOp::SumF64, &f));
    // Overlaps the first: its ledger record supersedes.
    log.verdict(win.accumulate(r, TARGET, 32, AccumulateOp::SumF64, &f));
    log.verdict(win.accumulate(r, TARGET, 256, AccumulateOp::MaxF64, &f));
    log.verdict(win.accumulate(r, TARGET, 512, AccumulateOp::SumI64, &ints));
    log.verdict(win.accumulate(r, TARGET, 1024, AccumulateOp::Replace, &pattern(100, 7)));
    log.verdict(win.accumulate(r, TARGET, 2048, AccumulateOp::Replace, &pattern(600, 8)));
    log.verdict(win.accumulate(r, TARGET, len - 32, AccumulateOp::Replace, &f));
}

/// What each rank's window holds before the epoch: doubles for the
/// accumulate program (arithmetic on arbitrary bytes would meet NaNs),
/// filler for the others.
fn prefill(program: Program, len: usize, rank: usize) -> Vec<u8> {
    match program {
        Program::Accumulate => {
            let doubles: Vec<f64> = (0..len / 8).map(|i| 0.25 * i as f64).collect();
            typed::to_bytes(&doubles)
        }
        _ => pattern(len, 100 + rank as u32),
    }
}

/// One run; the digest of what it left.
fn case(program: Program, mem: Mem, epoch: Epoch, faults: FaultConfig, mode: IntegrityMode) -> u64 {
    let tuning = Tuning {
        integrity_mode: mode,
        osc_fallback_threshold: if mem == Mem::Demoted { 1 } else { 2 },
        ..Tuning::default()
    };
    let spec = ClusterSpec::ringlet(3)
        .tuning(tuning)
        .seed(0x7E57_0024)
        .errors(ErrorMode::ErrorsReturn)
        .faults(faults)
        .obs(ObsConfig::enabled());
    let len = window_len(program);
    let (ranks, report) = run_report(spec, move |r| {
        let me = r.rank();
        let mut log = Log::NEW;
        let contribution = match mem {
            Mem::Private => WinMemory::Private(len),
            _ => WinMemory::Alloc(r.alloc_mem(len).expect("pool holds the window")),
        };
        let mut win = r.win_create(contribution).expect("window");
        win.write_local(r, 0, &prefill(program, len, me));
        log.verdict(win.fence(r));
        if mem == Mem::Demoted && me == 0 {
            // The only route 0 → 1 of a ringlet: the probing put fails
            // directly, demotes rank 1 and is served by emulation.
            r.fabric().faults().fail_link(LinkId(0));
            log.verdict(win.put(r, TARGET, len - 48, &[0x5A; 8]));
        }
        // Origin-side work of the epoch.
        let body = |win: &mut Window, r: &mut Rank, log: &mut Log| {
            if me == 2 {
                log.verdict(win.put(r, TARGET, len - 96, &[0xC2; 32]));
                return;
            }
            match program {
                Program::Put => put_program(win, r, log, len),
                Program::Get => get_program(win, r, log, len),
                Program::PutTyped => put_typed_program(win, r, log, mem),
                Program::GetTyped => get_typed_program(win, r, log, len),
                Program::Accumulate => accumulate_program(win, r, log, len),
            }
        };
        match epoch {
            Epoch::Fence => {
                log.verdict(win.fence(r));
                if me != TARGET {
                    body(&mut win, r, &mut log);
                }
                log.verdict(win.fence(r));
            }
            Epoch::Pscw if me == TARGET => {
                win.post(r, &ORIGINS);
                log.verdict(win.wait(r, &ORIGINS));
            }
            Epoch::Pscw => {
                log.verdict(win.start(r, &[TARGET]));
                body(&mut win, r, &mut log);
                log.verdict(win.complete(r, &[TARGET]));
            }
            Epoch::Locked => {
                if me != TARGET {
                    let held = win.locked(r, TARGET, |win, r| body(win, r, &mut log));
                    log.verdict(held);
                }
                r.barrier();
            }
        }
        if mem == Mem::Demoted && me == 0 {
            r.fabric().faults().restore_link(LinkId(0));
        }
        // This fence probes the restored route and re-promotes.
        log.verdict(win.fence(r));
        if me == 0 {
            log.verdict(win.put(r, TARGET, len - 32, &[0xD1; 16]));
        }
        log.verdict(win.fence(r));
        let mut image = vec![0u8; len];
        win.read_local(r, 0, &mut image);
        log.bytes(&image);
        (log.0, r.now().as_ps())
    });
    let ranks = ranks.into_iter().flat_map(|(log, ps)| [log, ps]);
    golden::digest(ranks, report.counters.iter().filter(|c| c.1 != 0), None)
}

/// Every case of one fabric, in program × target × epoch × mode order.
fn check(fabric: &str, faults: FaultConfig, expect: &[u64]) {
    let mut table = golden::Table::default();
    for program in PROGRAMS {
        for mem in MEMS {
            for epoch in EPOCHS {
                for mode in MODES {
                    let name = format!("{program:?} / {mem:?} / {epoch:?} / {mode:?}");
                    table.push(name, case(program, mem, epoch, faults.clone(), mode));
                }
            }
        }
    }
    table.check(fabric, 3, expect, None);
}

#[test]
fn healthy_fabric_matches_the_recorded_one_sided_paths() {
    check("healthy", FaultConfig::default(), &HEALTHY);
}

#[test]
fn lossy_fabric_matches_the_recorded_one_sided_paths() {
    check("lossy(0.01)", FaultConfig::lossy(0.01), &LOSSY);
}

#[test]
fn silently_faulty_fabric_matches_the_recorded_one_sided_paths() {
    check(
        "silent(1e-3, 1e-3)",
        FaultConfig::silent(1e-3, 1e-3),
        &SILENT,
    );
}

#[test]
fn noisy_fabric_matches_the_recorded_one_sided_paths() {
    check(
        "silent(0.05, 0.02)",
        FaultConfig::silent(0.05, 0.02),
        &NOISY,
    );
}

// One row per (program, target, epoch): Off, SequenceCheck, EndToEnd.
#[rustfmt::skip]
const HEALTHY: [u64; 135] = [
    0x51e714627d8d456b, 0x7c020c7f954dfdab, 0xdafc9998c3c0bb92,
    0x27dec76cfe0ba763, 0x3e1963f2a610062b, 0x4e9409eddee1543a,
    0xf078ac089a957d6b, 0x29c0a643b3e2b46b, 0x1b8c8b86c21dc792,
    0x5d13a9cf8bbc9e3a, 0x5d13a9cf8bbc9e3a, 0x829f65d540cc0a5e,
    0x860523501e424c02, 0x860523501e424c02, 0x5a878b7641114b66,
    0xd10d065acb5b4468, 0xd10d065acb5b4468, 0x2a04ba6e05636d64,
    0x22f02b5fae48a190, 0x04121c17e64394d0, 0x98e01476eaf5830c,
    0xa79cd92986f42763, 0x9b36eb661baafd23, 0xc43ec2f6c766f29f,
    0x3b38379f28382e57, 0x3b38379f28382e57, 0xdb6414763da7ecdb,
    0x1e171e367d10e433, 0x1aa3a97ab6073fb3, 0x50ed45369f954d07,
    0x495ea435396eee77, 0x3e096582766224b7, 0x13ecbd1c69ef9e83,
    0x84a1f68a8aae9f65, 0x6b7d34b30f91f9a5, 0x1ae823f773fc2aa1,
    0x1983bca2e7e95149, 0x1983bca2e7e95149, 0xbf19d6fa83877b5b,
    0x38fb167f5f33fb7d, 0x38fb167f5f33fb7d, 0x8d953898583050bf,
    0xd7d4377afc76604b, 0xd7d4377afc76604b, 0x6baa2520fda57239,
    0xe8950e9db1339457, 0x2864fe37e4687297, 0x25b342478b8858d5,
    0x20da9acba353d486, 0x947bb6505534e546, 0x18de0ef20f795188,
    0x2d12c02e6349d374, 0x2d12c02e6349d374, 0x7aa4f45296d14af2,
    0x589699bc371621d6, 0x5499faf851bbb796, 0xdbc31140510341d6,
    0xbbc52020c91fc5aa, 0x3190ab9da8b03f92, 0x8af572a3853b65aa,
    0x2073f39bc5c47054, 0x0554729bf90a9554, 0xbfa4f0a21df7a054,
    0x15b70ba1887c973b, 0x15b70ba1887c973b, 0x2157aaacbd6a7b3b,
    0xe6c47d094e54b6d7, 0xe6c47d094e54b6d7, 0xbbe4ed03f22022d7,
    0x010721054adfc231, 0x010721054adfc231, 0xecc81b9095c74631,
    0xb65e2720d6e2b32d, 0xf632d051b445e9ed, 0x21e4b02e5f147b2d,
    0x28e93b79155272b0, 0x382c07b7baf8cc70, 0x28a3bb0614acceb0,
    0x9f11ae0b1161ea86, 0x9f11ae0b1161ea86, 0xe2bdfaaebf8f8a86,
    0xf3affc51c3a9491a, 0xfa787f1d33ae3b9a, 0x17e29bb68cd2151a,
    0xf898d2879d7c41e6, 0x1794be02328309a6, 0x312734fce5abede6,
    0xbbfedfbb4830310a, 0xee59417c9f3e65ca, 0x79cf09a5d728bd0a,
    0x5cc4891330418ba3, 0x5cc4891330418ba3, 0xc9349baa946a37a3,
    0x3b40ce4ceb15fb8b, 0x3b40ce4ceb15fb8b, 0xd5ee1b83e5f4878b,
    0x6d5fb6ff97535cd9, 0x6d5fb6ff97535cd9, 0x43093362f96090d9,
    0x10010cfbd2edfa41, 0x9bc628828d049c81, 0xfb5e02f279f0ba41,
    0xe58bbe6d2f026c64, 0x879649a9cd6abea4, 0x3689947b18c34864,
    0xfb864993b0155f56, 0xfb864993b0155f56, 0x9cb2e1b349e07756,
    0x3516122a18c19c35, 0x493c487448d077f5, 0x081edb52b972f27d,
    0xdf90b52684d64901, 0xc52a1d741988f689, 0x78d87b138167ffc9,
    0xa50008292945104f, 0x1d3789d482d06d4f, 0xffacdc9108fd13a7,
    0x5d76f90ccf9a1af9, 0x5d76f90ccf9a1af9, 0xa885279f7de4e2f9,
    0x740481acb55bde45, 0x740481acb55bde45, 0xf1c43c5c167f7645,
    0x07a65728a4a0c235, 0x07a65728a4a0c235, 0x808ad92f4c02fa35,
    0x365152adc5e15c9b, 0xac6e6969e3882d5b, 0x75700cd5c9d4909b,
    0x42e66a1dfdd719b6, 0xa6fe08afefe5a0f6, 0x8480c918a8579db6,
    0x3bd1702c1110ef84, 0x3bd1702c1110ef84, 0x16f9a63da42f1384,
];

#[rustfmt::skip]
const LOSSY: [u64; 135] = [
    0x68f69b72c81705b0, 0xabea77e6663efff0, 0xdaf353e39c316fed,
    0x4f3c71be33413fd8, 0x4b1080c88cd25170, 0x2f01b94717f67165,
    0xcd30ebbba86efeb0, 0x51e0002412cc75b0, 0x6c6a17c0f18126ed,
    0x5d13a9cf8bbc9e3a, 0x5d13a9cf8bbc9e3a, 0x829f65d540cc0a5e,
    0x860523501e424c02, 0x860523501e424c02, 0x5a878b7641114b66,
    0xd10d065acb5b4468, 0xd10d065acb5b4468, 0x2a04ba6e05636d64,
    0x22f02b5fae48a190, 0x04121c17e64394d0, 0x98e01476eaf5830c,
    0xa79cd92986f42763, 0x9b36eb661baafd23, 0xc43ec2f6c766f29f,
    0x3b38379f28382e57, 0x3b38379f28382e57, 0xdb6414763da7ecdb,
    0x1e171e367d10e433, 0x1aa3a97ab6073fb3, 0x50ed45369f954d07,
    0x495ea435396eee77, 0x3e096582766224b7, 0x13ecbd1c69ef9e83,
    0x84a1f68a8aae9f65, 0x6b7d34b30f91f9a5, 0x1ae823f773fc2aa1,
    0x1983bca2e7e95149, 0x1983bca2e7e95149, 0xbf19d6fa83877b5b,
    0x38fb167f5f33fb7d, 0x38fb167f5f33fb7d, 0x8d953898583050bf,
    0xd7d4377afc76604b, 0xd7d4377afc76604b, 0x6baa2520fda57239,
    0xe8950e9db1339457, 0x2864fe37e4687297, 0x25b342478b8858d5,
    0x20da9acba353d486, 0x947bb6505534e546, 0x18de0ef20f795188,
    0x2d12c02e6349d374, 0x2d12c02e6349d374, 0x7aa4f45296d14af2,
    0x6cbcf425a40e1555, 0x612533902804d215, 0x13e5edac82377555,
    0xe1466737e61721ac, 0x617cf6cbaeef2d34, 0x3bc47b845be841ac,
    0x3b6038ff5e668226, 0x10215b92aac8b326, 0xb9e284f341ced226,
    0x15b70ba1887c973b, 0x15b70ba1887c973b, 0x2157aaacbd6a7b3b,
    0xe6c47d094e54b6d7, 0xe6c47d094e54b6d7, 0xbbe4ed03f22022d7,
    0x010721054adfc231, 0x010721054adfc231, 0xecc81b9095c74631,
    0xb65e2720d6e2b32d, 0xf632d051b445e9ed, 0x21e4b02e5f147b2d,
    0x28e93b79155272b0, 0x382c07b7baf8cc70, 0x28a3bb0614acceb0,
    0x9f11ae0b1161ea86, 0x9f11ae0b1161ea86, 0xe2bdfaaebf8f8a86,
    0xf3affc51c3a9491a, 0xfa787f1d33ae3b9a, 0x17e29bb68cd2151a,
    0xf898d2879d7c41e6, 0x1794be02328309a6, 0x312734fce5abede6,
    0xbbfedfbb4830310a, 0xee59417c9f3e65ca, 0x79cf09a5d728bd0a,
    0x5cc4891330418ba3, 0x5cc4891330418ba3, 0xc9349baa946a37a3,
    0x3b40ce4ceb15fb8b, 0x3b40ce4ceb15fb8b, 0xd5ee1b83e5f4878b,
    0x6d5fb6ff97535cd9, 0x6d5fb6ff97535cd9, 0x43093362f96090d9,
    0x10010cfbd2edfa41, 0x9bc628828d049c81, 0xfb5e02f279f0ba41,
    0xe58bbe6d2f026c64, 0x879649a9cd6abea4, 0x3689947b18c34864,
    0xfb864993b0155f56, 0xfb864993b0155f56, 0x9cb2e1b349e07756,
    0x3516122a18c19c35, 0x493c487448d077f5, 0x081edb52b972f27d,
    0xdf90b52684d64901, 0xc52a1d741988f689, 0x78d87b138167ffc9,
    0xa50008292945104f, 0x1d3789d482d06d4f, 0xffacdc9108fd13a7,
    0x5d76f90ccf9a1af9, 0x5d76f90ccf9a1af9, 0xa885279f7de4e2f9,
    0x740481acb55bde45, 0x740481acb55bde45, 0xf1c43c5c167f7645,
    0x07a65728a4a0c235, 0x07a65728a4a0c235, 0x808ad92f4c02fa35,
    0x365152adc5e15c9b, 0xac6e6969e3882d5b, 0x75700cd5c9d4909b,
    0x42e66a1dfdd719b6, 0xa6fe08afefe5a0f6, 0x8480c918a8579db6,
    0x3bd1702c1110ef84, 0x3bd1702c1110ef84, 0x16f9a63da42f1384,
];

#[rustfmt::skip]
const SILENT: [u64; 135] = [
    0x5fa67c22868bbe8b, 0xe0d8a615e7742d4e, 0x897eb1d122497e06,
    0x2789ce7916f53183, 0xf9b91df447bda562, 0x717a57d44990e4ee,
    0xe0f621cf3257f24b, 0xb05b479e1fb7ce66, 0x599a4a59f15c5336,
    0xe79f414bb3fab4ea, 0xe79f414bb3fab4ea, 0xd0f3a8ec77175b54,
    0xd86afb86a8a1ee92, 0xd86afb86a8a1ee92, 0x678dc6332b0cce30,
    0x07229bd0e2d5b790, 0x07229bd0e2d5b790, 0x2080a13654b163cc,
    0xbfcf658208e95a58, 0x926cacd4d7972c18, 0x8a15d51522b32be8,
    0x0598f39f8e32c813, 0x50401951a2a70dd3, 0x58dfbabe4a134177,
    0xe3d01fab12751c4f, 0xe3d01fab12751c4f, 0xd64bac630c4dd3db,
    0x752171e5dec8aa70, 0x7aed2678ca607cf0, 0x8d55ea2752c8aadb,
    0x5d08ce8217232500, 0x862c09b7ddeaa6c0, 0x5e0986d75754a95f,
    0x112f294492159206, 0xdb10ce7c76e00446, 0xbe7a2c1f39550f75,
    0x9881e267f18a0b0d, 0x9881e267f18a0b0d, 0xc36b648b431c1067,
    0xbe8ed9ef7d6ef1f9, 0xbe8ed9ef7d6ef1f9, 0x2151851dc67df8c3,
    0x755678610e9b0d1f, 0x755678610e9b0d1f, 0x0d3b51738ab57a6d,
    0x2e63a5f76f299e73, 0xc01846ba92e4ffb3, 0x72968b50eee61bd9,
    0xae5192b6073657ca, 0xa542d2c10a10ad8a, 0x9d1b6ea019664b18,
    0x8e9e8170bc1a8a58, 0x8e9e8170bc1a8a58, 0x8ba9e6a038346366,
    0x7bcbcb65ba1b8460, 0xb8bb8588c973e835, 0x106cb250d5caa471,
    0x934f9a6e0d95a3b4, 0x5290a8110d269bbd, 0xae1e6246cd7eb9ad,
    0x97cb7ce6c8dfa13e, 0xadb4fb05b07dff67, 0x94291b56be03d31f,
    0xcec3d01484cd63ae, 0xcec3d01484cd63ae, 0x51c8c418f5f31cf2,
    0x4cddcbe1ca03b022, 0x4cddcbe1ca03b022, 0x653226bc178cfd9e,
    0x15093805de99a764, 0x15093805de99a764, 0xc6ccd162f7301d8a,
    0x5c7672cd00cc2164, 0x8a9f93899856a9a4, 0x90d21a222ee7de18,
    0x303be294aced7d41, 0x4727e6565bd7da01, 0x642df08bad3a47f9,
    0x9b33c94f861b6337, 0x9b33c94f861b6337, 0x7e567807cbfe346f,
    0x52858300ca5a3697, 0xde7647e8e64da617, 0x3b7ab9585c2dca18,
    0xfe0fcfe48578619f, 0xfec4c4bd0fdc92df, 0xf86bd9ac9088b978,
    0x9cd450d23aaeb8c3, 0x5062e627fcaa2f83, 0x3b330ff134f5ea6e,
    0x518dc45d41e2ead7, 0x518dc45d41e2ead7, 0xe7e9dcf4af3bea69,
    0x3106c3ddd03a926f, 0x3106c3ddd03a926f, 0x333b2dabfe4c9835,
    0x9f07db1d246e3e8d, 0x9f07db1d246e3e8d, 0x1b6ad7491a7da829,
    0xe044f95a9b87ede5, 0xf6b1cd231aedf6a5, 0x3a265da3dc3c0a13,
    0xea8fcb6b9ff712d8, 0xb5c363732c915f98, 0x56163a77ffe73b52,
    0x4d10e02e7b22168a, 0x4d10e02e7b22168a, 0xed79e70cbd7e67a4,
    0x3516122a18c19c35, 0x493c487448d077f5, 0x081edb52b972f27d,
    0xdf90b52684d64901, 0xc52a1d741988f689, 0x78d87b138167ffc9,
    0xa50008292945104f, 0x1d3789d482d06d4f, 0xffacdc9108fd13a7,
    0x5d76f90ccf9a1af9, 0x5d76f90ccf9a1af9, 0xa885279f7de4e2f9,
    0x740481acb55bde45, 0x740481acb55bde45, 0xf1c43c5c167f7645,
    0x07a65728a4a0c235, 0x07a65728a4a0c235, 0x808ad92f4c02fa35,
    0x365152adc5e15c9b, 0xac6e6969e3882d5b, 0x75700cd5c9d4909b,
    0x42e66a1dfdd719b6, 0xa6fe08afefe5a0f6, 0x8480c918a8579db6,
    0x3bd1702c1110ef84, 0x3bd1702c1110ef84, 0x16f9a63da42f1384,
];

#[rustfmt::skip]
const NOISY: [u64; 135] = [
    0xd229a5e53448e5e3, 0x5a38390646fd98b8, 0x06041a34833b8aff,
    0xb102a20280380c0b, 0x2030d8d5364a5f5c, 0x0c0346de1db5e2bb,
    0x13eea28fde620e23, 0x011a6e4a50a0bd90, 0x48d13322dccd9123,
    0x9fd0ad6b8fc6aa4b, 0x9fd0ad6b8fc6aa4b, 0x599c083c7e4b0df9,
    0x5b94c38405850403, 0x5b94c38405850403, 0x4303cdd1d4c7f719,
    0xea83df98ce675c81, 0xea83df98ce675c81, 0x6914fea58e4c7e9b,
    0xb37b72771c4e02fd, 0x37eae4c7d0fb7ce0, 0x51f4bd6fd5c58a5c,
    0x18f3c8db0f9a0cb2, 0xb5068b9c1a79318f, 0xa595bfd383497093,
    0xb8d4de358d68a1da, 0x0d26ea5a27bb854f, 0x3cf5cc84ba3f9aa3,
    0x8e6da7dc6035fb34, 0x33061b11acf5abb4, 0x96bb78e4ac04e64f,
    0x8e5e2fc1df52c10c, 0xef388fd9524d7acc, 0xdf818a6208b95153,
    0x52c658a8298dc922, 0x51ab1f1ae38b8162, 0x0be14cdb5ebfa6a5,
    0x24fd68973f7728e9, 0x24fd68973f7728e9, 0x93ee95405e20f8f2,
    0x8a7a62aef6953075, 0x8a7a62aef6953075, 0xf66bd029aea7713a,
    0x6dc5da46d971d31b, 0x6dc5da46d971d31b, 0x491476b334eb178c,
    0xd9aa455ac0e1a69f, 0x143af6f94c8c9c5f, 0x3463cb6728ed654c,
    0xa285c696525cddce, 0xd27c4d95df68bf8e, 0x3a5777c6021bd509,
    0xe3bfbebea4d6c10c, 0xe3bfbebea4d6c10c, 0xb0b756b7df60f997,
    0x32f4ec0811a2998f, 0x1b0dbffb8dc9532d, 0x0f42075c6b23d077,
    0x19080fe1b9975b8b, 0x32e849488c8ab8f5, 0x592a1fb72d227573,
    0xd228ac94d441e64d, 0x95eedd375778b4c7, 0x1fccc54f013615a1,
    0xa327b7f75cf54f75, 0xa327b7f75cf54f75, 0xa6da9e523a30537c,
    0xb8677891f91b8b81, 0xb8677891f91b8b81, 0x7b154f9cb92e6980,
    0xff9c18e3dd12c223, 0xff9c18e3dd12c223, 0xe0cf614bf7e6aa2a,
    0x627d6f09e7b087f8, 0x84f7321ccd7a6a38, 0x54af51c588ff9212,
    0xb903c5610e9fac8d, 0x8d9772164e44da4d, 0xa1474fb5a85c6e8f,
    0xb3692c3eeb0c06f3, 0xb3692c3eeb0c06f3, 0x787fbf73c9bf41f1,
    0x650bcf08fa3668bd, 0x3e054c1576bf253d, 0x3bfefeb15781ed53,
    0x7ef88faed62ed0e5, 0xbc1af8c37957c425, 0x41948c9f5f2c2ebf,
    0xbfe05fd581bd5ea9, 0x978307ed0213d3e9, 0x5a3bde2a336a6479,
    0xdf2f878bddeb19df, 0xdf2f878bddeb19df, 0xffe60dbfd3de3df5,
    0xf1633bdedd6bb887, 0xf1633bdedd6bb887, 0xcb9e43a7520b2799,
    0x97a8461e004ea155, 0x97a8461e004ea155, 0x685c7fc8b366a7c3,
    0xa6dafd71f175f62d, 0x6246d16f8cdda0ed, 0x7a2613650f723587,
    0x59a273755118fd80, 0xdb001135ba613c40, 0x254dbb3893b02cae,
    0xad79237e0ff692d2, 0xad79237e0ff692d2, 0x3890b18e476f9c3c,
    0xc2a96b1278da863b, 0x3df5cbc78235ca0f, 0xfb614e71dbb1154b,
    0x22c50180fb195017, 0x3afa66a0552a920f, 0x544eef349c6e60cb,
    0x9463b1891a8811e5, 0x968f0b16b52c6049, 0xe09332f64938fc51,
    0x932d252bd9f2241f, 0x932d252bd9f2241f, 0xac74458d966030c5,
    0x31998356d5c027db, 0x31998356d5c027db, 0xbc0cd1c7efec7841,
    0x61de589240d54a2f, 0x61de589240d54a2f, 0xa0f7da7acb47cb93,
    0xe6f46e183ed316d9, 0x7c378608d4e3a619, 0xdd12758550b284bd,
    0x9d91ee0d91b02ae0, 0x18e679cdebeb53a0, 0xb2526850932d7148,
    0x4de325bc6be54322, 0x4de325bc6be54322, 0x9d97535fe2906f36,
];
