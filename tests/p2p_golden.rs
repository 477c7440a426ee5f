//! Golden pin of two-sided point-to-point communication, end to end.
//!
//! Twelve programs with the recorder on, on a ringlet of two or three
//! ranks under `ErrorsReturn`:
//!
//! * contiguous sends on both sides of the eager threshold (16 KiB) and
//!   of one rendezvous chunk (64 KiB);
//! * typed sends of a DirectFf- and a Staged-selected layout, eager and
//!   rendezvous, and the same program with the generic engine forced;
//! * `sendrecv` exchanges, eager and rendezvous (the send half of the
//!   latter runs on its own task);
//! * wildcard receives of two senders' mixed traffic;
//! * truncating receives, contiguous and typed, eager and rendezvous;
//! * a failed eager and a failed rendezvous transfer followed by more
//!   traffic on the same pair, with four eager credit slots;
//! * the four overload policies under a binding credit budget.
//!
//! The short-protocol threshold is pinned by `threshold_pins` and not
//! repeated here.
//!
//! Each program runs on a healthy, a `lossy(0.01)`, a `silent(1e-3,
//! 1e-3)` and a `silent(0.05, 0.02)` fabric (noisy enough that the
//! retransmit budget of 4 runs out), under `Off`, `SequenceCheck` and
//! `EndToEnd`: 144 runs. A program survives lost messages: an eager
//! message the integrity check refused was never delivered, so its
//! sender follows it with an empty tombstone (no bytes, so no fault can
//! touch it) under the same tag; a refused rendezvous transfer fails at
//! both ends.
//!
//! Each case is checked against a model and a schedule table
//! (`golden/mod.rs`). Its model digest folds every rank's log (the
//! verdict of every call, every receive status, every received byte) and
//! finish time in picoseconds, the whole counter table and the profile
//! JSON.

mod golden;

use golden::{Log, Schedule, MODES, SAME};
use mpi_datatype::{Committed, Datatype};
use sci_fabric::FaultConfig;
use scimpi::{
    run_report, ClusterSpec, ErrorMode, IntegrityMode, ObsConfig, OverloadPolicy, Rank, RecvBuf,
    ScimpiError, SendData, Source, Tag, TagSel, Tuning,
};
use simclock::SimDuration;

/// `len` bytes only `(who, tag)` produce.
fn payload(who: usize, tag: Tag, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i * 7 + who * 31 + tag as usize * 13) as u8)
        .collect()
}

/// Was this the failure of an eager message, which delivered nothing?
fn eager_lost<T>(res: &Result<T, ScimpiError>) -> bool {
    matches!(
        res,
        Err(ScimpiError::DataCorruption {
            what: "eager message",
            ..
        })
    )
}

/// Send message `tag` to `dst`; an eager message that was refused is
/// followed by its tombstone.
fn send(r: &mut Rank, log: &mut Log, dst: usize, tag: Tag, data: SendData<'_>) {
    let res = r
        .start_send(dst, tag, data)
        .and_then(|op| r.finish_send(op));
    log.verdict(res.as_ref());
    if eager_lost(&res) {
        tombstone(r, dst, tag);
    }
}

/// An empty message under `tag`: it cannot be corrupted, only refused
/// for credits, so it is sent until it goes.
fn tombstone(r: &mut Rank, dst: usize, tag: Tag) {
    while r.send(dst, tag, &[]).is_err() {}
}

/// Receive message `tag` from `src` into `into` and log what came.
fn recv(r: &mut Rank, log: &mut Log, src: Source, tag: TagSel, into: RecvBuf<'_>) {
    let res = r.recv_into(src, tag, into);
    log.verdict(res.as_ref());
    if let Ok(st) = res {
        log.word(st.src as u64);
        log.word(st.tag as u64);
        log.word(st.len as u64);
    }
}

fn recv_bytes(r: &mut Rank, log: &mut Log, src: usize, tag: Tag, len: usize) {
    let mut buf = vec![0xEEu8; len];
    recv(
        r,
        log,
        Source::Rank(src),
        TagSel::Value(tag),
        RecvBuf::Bytes(&mut buf),
    );
    log.bytes(&buf);
}

/// Contiguous sizes: tiny, the eager threshold ± 1, one rendezvous chunk
/// and one byte past it, and a message of three chunks.
const SIZES: [usize; 8] = [1, 4096, 16_383, 16_384, 16_385, 65_536, 65_537, 150_000];

fn contiguous(r: &mut Rank, log: &mut Log) {
    for (tag, len) in (0..).zip(SIZES) {
        if r.rank() == 0 {
            send(r, log, 1, tag, SendData::Bytes(&payload(0, tag, len)));
        } else {
            recv_bytes(r, log, 0, tag, len);
        }
    }
}

/// 64-byte blocks clear `FF_MIN_BLOCK`: DirectFf.
fn wide_blocks(count: usize) -> Committed {
    Committed::commit(&Datatype::vector(count, 64, 96, &Datatype::byte()))
}

/// 8-byte blocks do not: Staged.
fn narrow_blocks(count: usize) -> Committed {
    Committed::commit(&Datatype::vector(count, 1, 2, &Datatype::double()))
}

/// Buffer bytes `count` instances of `c` span.
fn span(c: &Committed, count: usize) -> usize {
    c.extent() * count
}

/// Each layout eager (8 KiB) and rendezvous (96 KiB), received into the
/// same layout; the Staged one is then received contiguously.
fn typed(r: &mut Rank, log: &mut Log) {
    let layouts = [
        wide_blocks(128),
        wide_blocks(1536),
        narrow_blocks(1024),
        narrow_blocks(12_288),
    ];
    for (tag, c) in (0..).zip(&layouts) {
        let len = span(c, 1);
        if r.rank() == 0 {
            let buf = payload(0, tag, len);
            send(
                r,
                log,
                1,
                tag,
                SendData::Typed {
                    c,
                    count: 1,
                    buf: &buf,
                    origin: 0,
                },
            );
        } else {
            let mut buf = vec![0xEEu8; len];
            let into = RecvBuf::Typed {
                c,
                count: 1,
                buf: &mut buf,
                origin: 0,
            };
            recv(r, log, Source::Rank(0), TagSel::Value(tag), into);
            log.bytes(&buf);
        }
    }
    let c = &layouts[3];
    if r.rank() == 0 {
        let buf = payload(0, 9, span(c, 1));
        send(
            r,
            log,
            1,
            9,
            SendData::Typed {
                c,
                count: 1,
                buf: &buf,
                origin: 0,
            },
        );
    } else {
        recv_bytes(r, log, 0, 9, c.size());
    }
}

/// Both ranks exchange at once, eager then rendezvous. A refused eager
/// message is followed by its tombstone, which a rank inside `sendrecv`
/// sends only after its receive half ran: were both eager halves
/// refused, each would wait for the other's. So rank 1 takes the eager
/// round as a `send`, its tombstone if refused, and a `recv`; rank 0 and
/// the rendezvous round use `sendrecv`.
fn sendrecv(r: &mut Rank, log: &mut Log) {
    let peer = 1 - r.rank();
    for (tag, len) in [(1, 2048usize), (2, 100_000)] {
        let out = payload(r.rank(), tag, len);
        let mut buf = vec![0xEEu8; len];
        let res = if r.rank() == 1 && tag == 1 {
            let sent = r.send(peer, tag, &out);
            if eager_lost(&sent) {
                tombstone(r, peer, tag);
            }
            let got = r.recv(Source::Rank(peer), TagSel::Value(tag), &mut buf);
            sent.and(got)
        } else {
            let res = r.sendrecv(
                peer,
                tag,
                SendData::Bytes(&out),
                Source::Rank(peer),
                TagSel::Value(tag),
                RecvBuf::Bytes(&mut buf),
            );
            if eager_lost(&res) {
                tombstone(r, peer, tag);
            }
            res
        };
        log.verdict(res.as_ref());
        log.bytes(&buf);
    }
}

/// Ranks 0 and 2 each send rank 1 an eager, a rendezvous and a short
/// message; rank 1 takes all six with `(Any, Any)`.
fn wildcard(r: &mut Rank, log: &mut Log) {
    const LENS: [usize; 3] = [1000, 30_000, 16];
    if r.rank() == 1 {
        for _ in 0..2 * LENS.len() {
            let mut buf = vec![0xEEu8; 30_000];
            recv(r, log, Source::Any, TagSel::Any, RecvBuf::Bytes(&mut buf));
            log.bytes(&buf);
        }
    } else {
        for (tag, len) in (0..).zip(LENS) {
            send(
                r,
                log,
                1,
                tag,
                SendData::Bytes(&payload(r.rank(), tag, len)),
            );
        }
    }
}

/// Messages longer than their buffers: contiguous eager and rendezvous,
/// typed eager and rendezvous.
fn truncate(r: &mut Rank, log: &mut Log) {
    for (tag, (len, room)) in (0..).zip([(200, 100), (20_000, 10_000)]) {
        if r.rank() == 0 {
            send(r, log, 1, tag, SendData::Bytes(&payload(0, tag, len)));
        } else {
            recv_bytes(r, log, 0, tag, room);
        }
    }
    let c = wide_blocks(1);
    for (tag, (count, room)) in (2..).zip([(100, 60), (400, 250)]) {
        if r.rank() == 0 {
            let buf = payload(0, tag, span(&c, count));
            send(
                r,
                log,
                1,
                tag,
                SendData::Typed {
                    c: &c,
                    count,
                    buf: &buf,
                    origin: 0,
                },
            );
        } else {
            let mut buf = vec![0xEEu8; span(&c, room)];
            let into = RecvBuf::Typed {
                c: &c,
                count: room,
                buf: &mut buf,
                origin: 0,
            };
            recv(r, log, Source::Rank(0), TagSel::Value(tag), into);
            log.bytes(&buf);
        }
    }
}

/// Rank 0 sends `first` (a transfer the noisy fabric refuses), then
/// twelve 1 KiB eager messages and two rendezvous ones on the same pair.
fn after_failure(r: &mut Rank, log: &mut Log, first: usize) {
    let mut lens = vec![first];
    lens.extend([1024; 12]);
    lens.extend([70_000; 2]);
    for (tag, len) in (0..).zip(lens) {
        if r.rank() == 0 {
            send(r, log, 1, tag, SendData::Bytes(&payload(0, tag, len)));
        } else {
            recv_bytes(r, log, 0, tag, len);
        }
    }
}

/// Four eager credit slots, so credits a failed send kept would stall.
fn four_slots(t: Tuning) -> Tuning {
    Tuning {
        eager_credit_slots: 4,
        ..t
    }
}

/// Message size of the overload programs: two fit the budget.
const CREDITED: usize = 8 * 1024;

/// Room for two [`CREDITED`] messages under `policy`.
fn tight(t: Tuning, policy: OverloadPolicy) -> Tuning {
    Tuning {
        eager_credits_bytes: 16 * 1024,
        overload_policy: policy,
        ..t
    }
}

/// Rank 0 sends six messages while rank 1 computes, then rank 1 takes
/// them one by one: a `Stall` sender waits for grants, a `Degrade` one
/// goes rendezvous.
fn overload_counted(r: &mut Rank, log: &mut Log) {
    for tag in 0..6 {
        if r.rank() == 0 {
            send(r, log, 1, tag, SendData::Bytes(&payload(0, tag, CREDITED)));
        } else {
            if tag == 0 {
                r.compute(SimDuration::from_us(50));
            }
            recv_bytes(r, log, 0, tag, CREDITED);
        }
    }
}

/// Rank 0 sends six messages, and both ranks meet at a barrier; rank 1
/// then drains what arrived. A `Shed` sender dropped the rest, an `Error`
/// one was refused them.
fn overload_drained(r: &mut Rank, log: &mut Log) {
    if r.rank() == 0 {
        for tag in 0..6 {
            let res = r.send(1, tag, &payload(0, tag, CREDITED));
            log.verdict(res.as_ref());
        }
    }
    r.barrier();
    if r.rank() == 1 {
        while let Some((_, tag)) = r.probe(Source::Rank(0), TagSel::Any) {
            recv_bytes(r, log, 0, tag, CREDITED);
        }
    }
}

type Program = golden::Program<fn(&mut Rank, &mut Log)>;

const PROGRAMS: [Program; 12] = [
    (2, "contiguous", contiguous, SAME),
    (2, "typed", typed, SAME),
    (2, "typed.generic", typed, Tuning::generic_only),
    (2, "sendrecv", sendrecv, SAME),
    (3, "wildcard", wildcard, SAME),
    (2, "truncate", truncate, SAME),
    (
        2,
        "after_failure.eager",
        |r, log| after_failure(r, log, 16_000),
        four_slots,
    ),
    (
        2,
        "after_failure.rendezvous",
        |r, log| after_failure(r, log, 200_000),
        four_slots,
    ),
    (2, "overload.stall", overload_counted, |t| {
        tight(t, OverloadPolicy::Stall)
    }),
    (2, "overload.degrade", overload_counted, |t| {
        tight(t, OverloadPolicy::Degrade)
    }),
    (2, "overload.shed", overload_drained, |t| {
        tight(t, OverloadPolicy::Shed)
    }),
    (2, "overload.error", overload_drained, |t| {
        tight(t, OverloadPolicy::Error)
    }),
];

/// One program under one mode on one fabric: the model digest of what
/// the run left and the schedule it took.
fn case(
    &(ranks, _, body, tune): &Program,
    faults: FaultConfig,
    mode: IntegrityMode,
) -> (u64, Schedule) {
    let tuning = Tuning {
        integrity_mode: mode,
        ..Tuning::default()
    };
    let spec = ClusterSpec::ringlet(ranks)
        .tuning(tune(tuning))
        .faults(faults)
        .seed(0x7E57_0036)
        .errors(ErrorMode::ErrorsReturn)
        .obs(ObsConfig::enabled());
    let (per_rank, report) = run_report(spec, move |r| {
        let mut log = Log::NEW;
        body(r, &mut log);
        (log.0, r.now().as_ps())
    });
    let ranks = per_rank.into_iter().flat_map(|(log, ps)| [log, ps]);
    let profile = report.profile_json();
    let model = golden::digest(ranks, report.counters.iter(), Some(&profile));
    (model, golden::schedule(&report))
}

/// Every program on one fabric, in [`PROGRAMS`] × [`MODES`] order,
/// against its model and schedule tables.
fn check(fabric: &str, faults: FaultConfig, (model, schedule): (&[u64], &[Schedule])) {
    let mut table = golden::Table::default();
    for program in &PROGRAMS {
        for mode in MODES {
            let name = format!("{} / {mode:?}", program.1);
            table.push_scheduled(name, case(program, faults.clone(), mode));
        }
    }
    table.check(fabric, 3, model, Some(schedule));
}

#[test]
fn healthy_fabric_matches_the_recorded_p2p_paths() {
    check(
        "healthy",
        FaultConfig::default(),
        (&HEALTHY, &HEALTHY_SCHEDULE),
    );
}

#[test]
fn lossy_fabric_matches_the_recorded_p2p_paths() {
    check(
        "lossy(0.01)",
        FaultConfig::lossy(0.01),
        (&LOSSY, &LOSSY_SCHEDULE),
    );
}

#[test]
fn silently_faulty_fabric_matches_the_recorded_p2p_paths() {
    check(
        "silent(1e-3, 1e-3)",
        FaultConfig::silent(1e-3, 1e-3),
        (&SILENT, &SILENT_SCHEDULE),
    );
}

#[test]
fn noisy_fabric_matches_the_recorded_p2p_paths() {
    check(
        "silent(0.05, 0.02)",
        FaultConfig::silent(0.05, 0.02),
        (&NOISY, &NOISY_SCHEDULE),
    );
}

#[rustfmt::skip]
const HEALTHY: [u64; 36] = [
    0x01b78d1d00aa703e, 0x467df034848e6c7b, 0xdab19461b85febf1,
    0xb5e3e3e9b9f8cd0a, 0x1e832fba6ef20cd4, 0xa99868430011eb1a,
    0xe1be0d8e4d57572d, 0xcebc8da9fbe3bd77, 0x84a3f9daf348d4c6,
    0x1a42506f9792bf15, 0xbbcca4c08dd61a1e, 0xa3b3c84dd0fd7702,
    0x93a0730f2a1e9a6d, 0x769285b587dae7c0, 0x6e71f0be5c5d2112,
    0xe2d866b73499fc5a, 0xe8000fcb80d2628b, 0xfb55478ed11f22d3,
    0xc8e263b4fa921055, 0x83d106e867e54fe8, 0x10e53601d2c76006,
    0xc99a698aefe79e13, 0x403c380b66946025, 0xb856dbdbb4a6e1d9,
    0x91fc274f4be543fc, 0x3f2af7df3d9c4f51, 0x18c210626c721499,
    0xc65be7aa25bdd9dd, 0x536fefc9d456bb13, 0x53567b8e17953986,
    0x22a169e1e841df19, 0x7cd5a596bbef9afe, 0x92d0f5e5b2994485,
    0xf214cd8acfeb18a1, 0x9521d64943398356, 0x5629317b11c6648d,
];

#[rustfmt::skip]
const HEALTHY_SCHEDULE: [Schedule; 36] = [
    [12, 2, 2, 0], // contiguous / Off
    [12, 2, 2, 0], // contiguous / SequenceCheck
    [23, 2, 2, 0], // contiguous / EndToEnd
    [8, 2, 2, 0], // typed / Off
    [8, 2, 2, 0], // typed / SequenceCheck
    [19, 2, 2, 0], // typed / EndToEnd
    [8, 2, 2, 0], // typed.generic / Off
    [8, 2, 2, 0], // typed.generic / SequenceCheck
    [19, 2, 2, 0], // typed.generic / EndToEnd
    [11, 3, 4, 0], // sendrecv / Off
    [11, 3, 4, 0], // sendrecv / SequenceCheck
    [19, 3, 4, 0], // sendrecv / EndToEnd
    [8, 3, 3, 0], // wildcard / Off
    [8, 3, 3, 0], // wildcard / SequenceCheck
    [11, 3, 3, 0], // wildcard / EndToEnd
    [6, 2, 2, 0], // truncate / Off
    [6, 2, 2, 0], // truncate / SequenceCheck
    [9, 2, 2, 0], // truncate / EndToEnd
    [12, 2, 2, 0], // after_failure.eager / Off
    [12, 2, 2, 0], // after_failure.eager / SequenceCheck
    [19, 2, 2, 0], // after_failure.eager / EndToEnd
    [14, 2, 2, 0], // after_failure.rendezvous / Off
    [14, 2, 2, 0], // after_failure.rendezvous / SequenceCheck
    [27, 2, 2, 0], // after_failure.rendezvous / EndToEnd
    [6, 2, 2, 0], // overload.stall / Off
    [6, 2, 2, 0], // overload.stall / SequenceCheck
    [6, 2, 2, 0], // overload.stall / EndToEnd
    [10, 2, 2, 0], // overload.degrade / Off
    [10, 2, 2, 0], // overload.degrade / SequenceCheck
    [17, 2, 2, 0], // overload.degrade / EndToEnd
    [3, 2, 2, 0], // overload.shed / Off
    [3, 2, 2, 0], // overload.shed / SequenceCheck
    [3, 2, 2, 0], // overload.shed / EndToEnd
    [3, 2, 2, 0], // overload.error / Off
    [3, 2, 2, 0], // overload.error / SequenceCheck
    [3, 2, 2, 0], // overload.error / EndToEnd
];

#[rustfmt::skip]
const LOSSY: [u64; 36] = [
    0xb5fea65ea24d93dd, 0x87ec7fcc4e9e7f69, 0xde3aeb9e3405da72,
    0xbc53c284a1c1475d, 0x0a5762baad94713c, 0xe9060acac6beede8,
    0xd5e50bb6f16dc791, 0xa7790518db76eb0b, 0x4712fa1990125756,
    0xc5ed51d37f0f2ae4, 0xbdec6da4dc39ba38, 0xee4a30a437f50ea2,
    0xce00f8eb5964f8e9, 0x7b7a96e4cd45e46c, 0x2c7e51428f868241,
    0x08c25274a963fa4c, 0x90b28d00e3c2ee14, 0x1f1be76b3f51d734,
    0xe2486ba944ef37d8, 0xfbfe0537b35f9814, 0xed4a17e4444b2b6f,
    0x52404f67eed47d0c, 0xa3c575a948bd0acb, 0xa79d66192412b473,
    0x91fc274f4be543fc, 0x3f2af7df3d9c4f51, 0x18c210626c721499,
    0x58d50d3d8470d09d, 0xa971cc61a405b143, 0x1838ddb84c2efc34,
    0x22a169e1e841df19, 0x7cd5a596bbef9afe, 0x92d0f5e5b2994485,
    0xf214cd8acfeb18a1, 0x9521d64943398356, 0x5629317b11c6648d,
];

#[rustfmt::skip]
const LOSSY_SCHEDULE: [Schedule; 36] = [
    [12, 2, 2, 0], // contiguous / Off
    [12, 2, 2, 0], // contiguous / SequenceCheck
    [23, 2, 2, 0], // contiguous / EndToEnd
    [8, 2, 2, 0], // typed / Off
    [8, 2, 2, 0], // typed / SequenceCheck
    [19, 2, 2, 0], // typed / EndToEnd
    [8, 2, 2, 0], // typed.generic / Off
    [8, 2, 2, 0], // typed.generic / SequenceCheck
    [19, 2, 2, 0], // typed.generic / EndToEnd
    [11, 3, 4, 0], // sendrecv / Off
    [11, 3, 4, 0], // sendrecv / SequenceCheck
    [19, 3, 4, 0], // sendrecv / EndToEnd
    [8, 3, 3, 0], // wildcard / Off
    [8, 3, 3, 0], // wildcard / SequenceCheck
    [11, 3, 3, 0], // wildcard / EndToEnd
    [6, 2, 2, 0], // truncate / Off
    [6, 2, 2, 0], // truncate / SequenceCheck
    [9, 2, 2, 0], // truncate / EndToEnd
    [12, 2, 2, 0], // after_failure.eager / Off
    [12, 2, 2, 0], // after_failure.eager / SequenceCheck
    [19, 2, 2, 0], // after_failure.eager / EndToEnd
    [14, 2, 2, 0], // after_failure.rendezvous / Off
    [14, 2, 2, 0], // after_failure.rendezvous / SequenceCheck
    [27, 2, 2, 0], // after_failure.rendezvous / EndToEnd
    [6, 2, 2, 0], // overload.stall / Off
    [6, 2, 2, 0], // overload.stall / SequenceCheck
    [6, 2, 2, 0], // overload.stall / EndToEnd
    [10, 2, 2, 0], // overload.degrade / Off
    [10, 2, 2, 0], // overload.degrade / SequenceCheck
    [17, 2, 2, 0], // overload.degrade / EndToEnd
    [3, 2, 2, 0], // overload.shed / Off
    [3, 2, 2, 0], // overload.shed / SequenceCheck
    [3, 2, 2, 0], // overload.shed / EndToEnd
    [3, 2, 2, 0], // overload.error / Off
    [3, 2, 2, 0], // overload.error / SequenceCheck
    [3, 2, 2, 0], // overload.error / EndToEnd
];

#[rustfmt::skip]
const SILENT: [u64; 36] = [
    0x343833a62889a011, 0x08a6acb6d0eca412, 0x5f0ae0c37c8ba448,
    0xc0693a64fa37e7c1, 0x15fa407569dcf76d, 0x1f732ccf6a68a640,
    0xfa25e0ba9164b386, 0xd948233e5d95242d, 0xe918fbc0b42bfe90,
    0xea68182cf62ff2c1, 0x657aa5917f71d4fb, 0xc7c51a53401e06a5,
    0x71e7c42fe63f57d1, 0xdc88f79aca91d7e3, 0x926bd3d918e37bd8,
    0x63697c510f351322, 0x20729f854358570c, 0x1977d6150fa560a4,
    0xaf687d92738663c9, 0x879e5de822244a21, 0xfcd140b37fe0a656,
    0xa665b9a1f0ff3601, 0x4b94af3e07c960a1, 0x82efbfcdd9d9872a,
    0x3ea819bc71359aa4, 0x0302f6fbd7f1e3bf, 0x277c0d6d09486d54,
    0x43f5c9bba9d9f515, 0x25058a3d220be1ab, 0xe57af6b60de0f4fb,
    0x22a169e1e841df19, 0x7cd5a596bbef9afe, 0x92d0f5e5b2994485,
    0xf214cd8acfeb18a1, 0x9521d64943398356, 0x5629317b11c6648d,
];

#[rustfmt::skip]
const SILENT_SCHEDULE: [Schedule; 36] = [
    [12, 2, 2, 0], // contiguous / Off
    [10, 2, 2, 0], // contiguous / SequenceCheck
    [42, 2, 2, 0], // contiguous / EndToEnd
    [8, 2, 2, 0], // typed / Off
    [8, 2, 2, 0], // typed / SequenceCheck
    [39, 2, 2, 0], // typed / EndToEnd
    [8, 2, 2, 0], // typed.generic / Off
    [8, 2, 2, 0], // typed.generic / SequenceCheck
    [39, 2, 2, 0], // typed.generic / EndToEnd
    [11, 3, 4, 0], // sendrecv / Off
    [11, 3, 4, 0], // sendrecv / SequenceCheck
    [42, 3, 4, 0], // sendrecv / EndToEnd
    [8, 3, 3, 0], // wildcard / Off
    [8, 3, 3, 0], // wildcard / SequenceCheck
    [17, 3, 3, 0], // wildcard / EndToEnd
    [6, 2, 2, 0], // truncate / Off
    [6, 2, 2, 0], // truncate / SequenceCheck
    [11, 2, 2, 0], // truncate / EndToEnd
    [12, 2, 2, 0], // after_failure.eager / Off
    [12, 2, 2, 0], // after_failure.eager / SequenceCheck
    [33, 2, 2, 0], // after_failure.eager / EndToEnd
    [14, 2, 2, 0], // after_failure.rendezvous / Off
    [12, 2, 2, 0], // after_failure.rendezvous / SequenceCheck
    [53, 2, 2, 0], // after_failure.rendezvous / EndToEnd
    [6, 2, 2, 0], // overload.stall / Off
    [6, 2, 2, 0], // overload.stall / SequenceCheck
    [6, 2, 2, 0], // overload.stall / EndToEnd
    [10, 2, 2, 0], // overload.degrade / Off
    [10, 2, 2, 0], // overload.degrade / SequenceCheck
    [19, 2, 2, 0], // overload.degrade / EndToEnd
    [3, 2, 2, 0], // overload.shed / Off
    [3, 2, 2, 0], // overload.shed / SequenceCheck
    [3, 2, 2, 0], // overload.shed / EndToEnd
    [3, 2, 2, 0], // overload.error / Off
    [3, 2, 2, 0], // overload.error / SequenceCheck
    [3, 2, 2, 0], // overload.error / EndToEnd
];

#[rustfmt::skip]
const NOISY: [u64; 36] = [
    0x533aa7795103fbc1, 0x4783225edd68d7d3, 0x83f750543097fce0,
    0x01ad1282cac3d0a8, 0xb91f4c0108c30b18, 0xaf3ce8bb613558fd,
    0x2cef69354af2f7b7, 0x9fb2c418bbe4e0a3, 0x36a1a6748658b500,
    0x335d8fb072ddec16, 0x6841412a765f38a9, 0x06ca82bb79907d92,
    0xcfb0443600c46356, 0x96ba07e6619d3dd8, 0x6f83815bca612cfa,
    0x9933a152fdd16813, 0xed65ba43c2a258f4, 0x0810e87ee2fe28b7,
    0xf8635d99373ba734, 0xc18d33bfd9c0d23b, 0xd7e3b6378c85598a,
    0x374e01a40d249d2c, 0x66c8a50d8121e27a, 0x45b75595e553e604,
    0x1471ae56a7d9d0f0, 0x011227f4c286a762, 0x3f3ebc1590bacff6,
    0x33f8ec01aea08559, 0x011227f4c286a762, 0x3f3ebc1590bacff6,
    0xffde21dd7facba55, 0x566ca306def533cc, 0x2cde4e39f635cbc8,
    0xb34b5844ae746e8d, 0x566ca306def533cc, 0x2cde4e39f635cbc8,
];

#[rustfmt::skip]
const NOISY_SCHEDULE: [Schedule; 36] = [
    [12, 2, 2, 0], // contiguous / Off
    [10, 2, 2, 0], // contiguous / SequenceCheck
    [50, 2, 2, 0], // contiguous / EndToEnd
    [8, 2, 2, 0], // typed / Off
    [8, 2, 2, 0], // typed / SequenceCheck
    [38, 2, 2, 0], // typed / EndToEnd
    [8, 2, 2, 0], // typed.generic / Off
    [8, 2, 2, 0], // typed.generic / SequenceCheck
    [38, 2, 2, 0], // typed.generic / EndToEnd
    [11, 3, 4, 0], // sendrecv / Off
    [11, 3, 4, 0], // sendrecv / SequenceCheck
    [36, 3, 4, 0], // sendrecv / EndToEnd
    [8, 3, 3, 0], // wildcard / Off
    [8, 3, 3, 0], // wildcard / SequenceCheck
    [28, 3, 3, 0], // wildcard / EndToEnd
    [6, 2, 2, 0], // truncate / Off
    [6, 2, 2, 0], // truncate / SequenceCheck
    [26, 2, 2, 0], // truncate / EndToEnd
    [12, 2, 2, 0], // after_failure.eager / Off
    [12, 2, 2, 0], // after_failure.eager / SequenceCheck
    [32, 2, 2, 0], // after_failure.eager / EndToEnd
    [14, 2, 2, 0], // after_failure.rendezvous / Off
    [12, 2, 2, 0], // after_failure.rendezvous / SequenceCheck
    [42, 2, 2, 0], // after_failure.rendezvous / EndToEnd
    [6, 2, 2, 0], // overload.stall / Off
    [2, 2, 2, 0], // overload.stall / SequenceCheck
    [2, 2, 2, 0], // overload.stall / EndToEnd
    [10, 2, 2, 0], // overload.degrade / Off
    [2, 2, 2, 0], // overload.degrade / SequenceCheck
    [2, 2, 2, 0], // overload.degrade / EndToEnd
    [3, 2, 2, 0], // overload.shed / Off
    [3, 2, 2, 0], // overload.shed / SequenceCheck
    [3, 2, 2, 0], // overload.shed / EndToEnd
    [3, 2, 2, 0], // overload.error / Off
    [3, 2, 2, 0], // overload.error / SequenceCheck
    [3, 2, 2, 0], // overload.error / EndToEnd
];
