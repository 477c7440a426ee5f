//! Determinism suite (the file keeps the name it had as the thread-vs-
//! event differential suite): every scenario runs twice from the same
//! spec and the two runs must agree *bit for bit* — delivered payloads,
//! per-rank virtual times, the full observability counter table, and the
//! profile report JSON — and fold into the digest recorded for the
//! scenario while the thread backend still existed and agreed with it.
//! One representative scenario per test family rides here: eager and
//! rendezvous p2p, sendrecv, collectives, one-sided communication,
//! nonblocking overlap, rank death plus shrink, end-to-end integrity
//! retransmission, and the overload policies. A seed-sweep property test
//! replays randomized workloads; CI sweeps `BACKEND_DIFF_SEED` over
//! several values. See `docs/SCHEDULER.md` for the execution model.

mod golden;

use mpi_datatype::{Committed, Datatype};
use sci_fabric::{fnv1a, FaultConfig};
use scimpi::{
    revoke, run_report, shrink, AccumulateOp, ClusterSpec, ErrorMode, IntegrityMode,
    OverloadPolicy, Rank, ReduceOp, Source, TagSel, Tuning, WinMemory,
};
use simclock::{SimDuration, SimTime};

/// Everything observable from one run: per-rank scenario output bytes,
/// per-rank finish times, the counter table, and the profile JSON.
#[derive(Debug, PartialEq)]
struct Artifacts {
    per_rank: Vec<(Vec<u8>, SimTime)>,
    counters: Vec<(&'static str, u64)>,
    profile: String,
}

/// Run `f` on `spec` with observability enabled and capture the
/// comparable artifacts.
fn capture<F>(spec: ClusterSpec, f: F) -> Artifacts
where
    F: Fn(&mut Rank) -> Vec<u8> + Send + Sync,
{
    let spec = spec.obs(obs::ObsConfig::enabled());
    let (per_rank, report) = run_report(spec, |r| {
        let bytes = f(r);
        (bytes, r.now())
    });
    Artifacts {
        per_rank,
        counters: report.counters.iter().collect(),
        profile: report.profile_json(),
    }
}

impl Artifacts {
    /// Everything in the artifacts folded into one digest: per rank the
    /// payload's length and hash and the finish time in ps, then the
    /// counter table and the profile JSON.
    fn digest(&self) -> u64 {
        let ranks = (self.per_rank.iter())
            .flat_map(|(bytes, finish)| [bytes.len() as u64, fnv1a(bytes), finish.as_ps()]);
        golden::digest(ranks, self.counters.iter().copied(), Some(&self.profile))
    }

    /// What differs from `other`, one line per artifact class, so a
    /// divergence names what broke; empty when the two are equal.
    fn divergence(&self, other: &Artifacts) -> Vec<String> {
        let mut lines = Vec::new();
        for (rank, (a, b)) in self.per_rank.iter().zip(&other.per_rank).enumerate() {
            if a != b {
                let (first, second) = ((a.0.len(), a.1), (b.0.len(), b.1));
                lines.push(format!(
                    "rank {rank}: (bytes, finish) {first:?} vs {second:?}"
                ));
            }
        }
        for ((n, a), (_, b)) in self.counters.iter().zip(&other.counters) {
            if a != b {
                lines.push(format!("counter `{n}`: {a} vs {b}"));
            }
        }
        if self.profile != other.profile {
            lines.push("profile JSON diverged".into());
        }
        lines
    }
}

/// The digest each scenario recorded, by the name it passes to [`diff`];
/// debug and release record the same table.
const SCENARIO_DIGESTS: [(&str, u64); 12] = [
    ("p2p_eager_ring", 0xbfce60fb80c7af23),
    ("p2p_rendezvous", 0x406bf8418add73aa),
    ("collectives", 0xbaed6f03eb75dbbc),
    ("one_sided", 0x1946853fdfc9e275),
    ("arbitration", 0xc7860fe1f7107ddc),
    ("nonblocking", 0x12a4cd985c169ded),
    ("chaos_death", 0x788d48670db90a18),
    ("integrity", 0x80d7e63a927d201f),
    ("overload_Stall", 0xa9e529ad652f9796),
    ("overload_Degrade", 0x9a43c3c3231b0f8d),
    ("overload_shed", 0x9c3f35a26bbc7835),
    ("overload_error", 0xcff0db9b16d49195),
];

/// The heart of the suite: run `f` twice from `spec` and demand
/// byte-identical artifacts, then `recorded` where there is one.
fn replay<F>(what: &str, spec: ClusterSpec, f: F, recorded: Option<u64>)
where
    F: Fn(&mut Rank) -> Vec<u8> + Send + Sync,
{
    let first = capture(spec.clone(), &f);
    let moved = first.divergence(&capture(spec, &f));
    assert!(moved.is_empty(), "{what}: two runs diverged: {moved:#?}");
    if let Some(pinned) = recorded {
        let got = first.digest();
        assert_eq!(
            got, pinned,
            "{what}: digest moved: as run {got:#018x}, recorded {pinned:#018x}"
        );
    }
}

/// A scenario against the digest [`SCENARIO_DIGESTS`] records for it.
fn diff<F>(name: &str, spec: ClusterSpec, f: F)
where
    F: Fn(&mut Rank) -> Vec<u8> + Send + Sync,
{
    let pinned = SCENARIO_DIGESTS.iter().find(|(n, _)| *n == name);
    let pinned = pinned.expect("a recorded digest").1;
    replay(&format!("[{name}]"), spec, f, Some(pinned));
}

// ---------------------------------------------------------------------
// Representative scenario per test family.
// ---------------------------------------------------------------------

/// p2p family, eager protocol: a ring pass of 4 KiB messages (below the
/// eager threshold) with full payload capture.
#[test]
fn diff_p2p_eager_ring() {
    diff("p2p_eager_ring", ClusterSpec::ringlet(4), |r| {
        let me = r.rank();
        let n = r.size();
        let payload: Vec<u8> = (0..4096).map(|i| (me * 31 + i * 7) as u8).collect();
        let mut buf = vec![0u8; 4096];
        r.sendrecv(
            (me + 1) % n,
            1,
            scimpi::SendData::Bytes(&payload),
            Source::Rank((me + n - 1) % n),
            TagSel::Value(1),
            scimpi::RecvBuf::Bytes(&mut buf),
        )
        .unwrap();
        r.barrier();
        buf
    });
}

/// p2p family, rendezvous protocol: a 600 KB transfer (ring-slot
/// pipelined) between a pair, plus a reverse small message.
#[test]
fn diff_p2p_rendezvous_pair() {
    diff("p2p_rendezvous", ClusterSpec::ringlet(2), |r| {
        if r.rank() == 0 {
            let data: Vec<u8> = (0..600_000).map(|i| (i * 13) as u8).collect();
            r.send(1, 7, &data).unwrap();
            let mut ack = vec![0u8; 32];
            r.recv(Source::Rank(1), TagSel::Value(8), &mut ack).unwrap();
            ack
        } else {
            let mut buf = vec![0u8; 600_000];
            r.recv(Source::Rank(0), TagSel::Value(7), &mut buf).unwrap();
            r.send(0, 8, &buf[..32]).unwrap();
            buf
        }
    });
}

/// Collective family: bcast, allreduce, alltoall, and a barrier, all
/// folded into one deterministic digest.
#[test]
fn diff_collectives() {
    diff("collectives", ClusterSpec::ringlet(4), |r| {
        let me = r.rank();
        let n = r.size();
        let mut root_msg = vec![0u8; 64];
        if me == 0 {
            root_msg = (0..64).map(|i| (i * 3) as u8).collect();
        }
        r.bcast(0, &mut root_msg).unwrap();
        let mut summed = [me as f64, 1.0, me as f64 * 0.5];
        r.allreduce(&mut summed, ReduceOp::Sum).unwrap();
        let blocks: Vec<Vec<u8>> = (0..n).map(|dst| vec![(me * 16 + dst) as u8; 128]).collect();
        let gathered = r.alltoall(&blocks).unwrap();
        r.barrier();
        let mut out = root_msg;
        out.extend(summed.iter().flat_map(|v| v.to_le_bytes()));
        out.extend(gathered.into_iter().flatten());
        out
    });
}

/// One-sided family: fence-synchronised typed put, get, and locked
/// accumulates from a single origin (order-deterministic).
#[test]
fn diff_one_sided_fence() {
    diff("one_sided", ClusterSpec::ringlet(3), |r| {
        let me = r.rank();
        let dt = Datatype::vector(16, 4, 8, &Datatype::double());
        let c = Committed::commit(&dt);
        let mem = r.alloc_mem(c.extent().max(512)).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.write_local(r, 0, &vec![0u8; 512]);
        win.fence(r).unwrap();
        if me == 0 {
            let src: Vec<u8> = (0..c.extent()).map(|i| (i ^ 0x5C) as u8).collect();
            win.put_typed(r, 1, 0, &c, 1, &src, 0).unwrap();
            win.accumulate(r, 2, 0, AccumulateOp::SumI64, &5i64.to_le_bytes())
                .unwrap();
            win.accumulate(r, 2, 0, AccumulateOp::SumI64, &7i64.to_le_bytes())
                .unwrap();
        }
        win.fence(r).unwrap();
        let mut got = vec![0u8; 256];
        win.get(r, 1, 0, &mut got).unwrap();
        win.fence(r).unwrap();
        let mut local = vec![0u8; 64];
        win.read_local(r, 0, &mut local);
        got.extend(local);
        got
    });
}

/// Saturated-segment arbitration: two origins keep direct-path streams
/// open across a shared ring segment into the same target. Window
/// streams are created lazily on first use and then stay open, so a
/// barrier relay pins the *arrival order* — the arbitration order
/// bandwidth shares resolve in. The contended puts that follow then see
/// a constant competitor count, which is exactly the scheduler-owned
/// arbitration policy `docs/ASYNC.md` documents: contention outcomes are
/// a function of stream lifetime, not host-scheduler timing.
#[test]
fn diff_saturated_segment_arbitration() {
    const BLOCK: usize = 96 * 1024; // saturates the shared segment
    diff("arbitration", ClusterSpec::ringlet(3), |r| {
        let me = r.rank();
        let mem = r.alloc_mem(1 << 18).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        // Phase A: open the streams one origin at a time. On the
        // unidirectional ringlet both routes (1->2->0 and 2->0) cross
        // the segment into node 0.
        if me == 1 {
            win.put(r, 0, 0, &[0x11; 64]).unwrap();
        }
        r.barrier();
        if me == 2 {
            win.put(r, 0, 64, &[0x22; 64]).unwrap();
        }
        r.barrier();
        let topo = r.fabric().topology();
        let shared = *topo
            .route(sci_fabric::NodeId(2), sci_fabric::NodeId(0))
            .links
            .last()
            .expect("remote route crosses at least one segment");
        let open = r.fabric().links().open_streams(shared);
        assert_eq!(open.len(), 2, "both direct-path streams stay open");
        assert!(open[0] < open[1], "arrival stamps preserve open order");
        // Phase B: contend. Both origins push a large put through the
        // saturated segment; the competitor count is pinned at two for
        // the whole phase, so every share each transfer samples is
        // deterministic.
        if me != 0 {
            let block = vec![me as u8; BLOCK];
            win.put(r, 0, 4096 + (me - 1) * BLOCK, &block).unwrap();
        }
        win.fence(r).unwrap();
        let mut out: Vec<u8> = open.iter().flat_map(|s| s.to_le_bytes()).collect();
        if me == 0 {
            let mut snap = vec![0u8; 4096 + 2 * BLOCK];
            win.read_local(r, 0, &mut snap);
            out.extend(snap);
        }
        out
    });
}

/// Nonblocking family: isend/irecv with compute overlap, waitany on a
/// mixed eager/rendezvous pair, then waitall.
#[test]
fn diff_nonblocking_overlap() {
    diff("nonblocking", ClusterSpec::ringlet(3), |r| {
        if r.rank() == 0 {
            let mut reqs = vec![
                r.irecv(Source::Rank(1), TagSel::Value(1), 150_000).unwrap(),
                r.irecv(Source::Rank(2), TagSel::Value(2), 64).unwrap(),
            ];
            r.compute(SimDuration::from_us(300));
            let (first, res) = r.waitany(&mut reqs);
            let a = res.unwrap();
            let (_second, res) = r.waitany(&mut reqs);
            let b = res.unwrap();
            let mut out = vec![first as u8];
            out.extend(&a.data[..32.min(a.data.len())]);
            out.extend(&b.data[..32.min(b.data.len())]);
            out
        } else if r.rank() == 1 {
            let bulk: Vec<u8> = (0..150_000).map(|i| (i * 11) as u8).collect();
            let mut req = r.isend(0, 1, &bulk).unwrap();
            r.compute(SimDuration::from_us(100));
            r.wait(&mut req).unwrap();
            Vec::new()
        } else {
            r.send(0, 2, &[9u8; 64]).unwrap();
            Vec::new()
        }
    });
}

/// Chaos family: an administrative mid-run rank death with a single
/// detector — rank 3 runs into the corpse, charges the deterministic
/// timeout/backoff schedule, and revokes; ranks 0 and 1 sit blocked on
/// live peers and escape through the gossip front. One detector means
/// one revocation front, so the escape times are a pure function of the
/// spec.
#[test]
fn diff_chaos_death_and_shrink() {
    let spec = ClusterSpec::ringlet(4).errors(ErrorMode::ErrorsReturn);
    diff("chaos_death", spec, |r| {
        let me = r.world_rank();
        r.barrier();
        if me == 2 {
            r.fabric().faults().kill_node(2);
            return b"dead".to_vec();
        }
        let mut buf = [0u8; 64];
        let err = match me {
            // The only rank talking to the corpse: detects the death.
            3 => r
                .recv(Source::Rank(2), TagSel::Value(9), &mut buf)
                .expect_err("recv from a dead rank must fail"),
            // Blocked on live-but-stuck peers: escape via revocation.
            0 => r
                .recv(Source::Rank(3), TagSel::Value(9), &mut buf)
                .expect_err("revocation must unblock the wait"),
            _ => r
                .recv(Source::Rank(0), TagSel::Value(9), &mut buf)
                .expect_err("revocation must unblock the wait"),
        };
        let _ = format!("{err:?}");
        if me == 3 {
            revoke(r);
        }
        let report = shrink(r).expect("survivors agree in one epoch");
        let mut sum = [me as f64 + 1.0];
        r.allreduce(&mut sum, ReduceOp::Sum)
            .expect("post-shrink collective");
        let mut out = sum.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>();
        out.push(report.dead.len() as u8);
        out.push(r.size() as u8);
        out
    });
}

/// Integrity family: deterministic silent corruption under `EndToEnd`
/// integrity — both protocols retransmit to bit-perfect delivery.
#[test]
fn diff_integrity_retransmit() {
    let tuning = Tuning {
        integrity_mode: IntegrityMode::EndToEnd,
        max_retransmits: 64,
        ..Tuning::default()
    };
    let mut spec = ClusterSpec::ringlet(2).tuning(tuning);
    spec.faults = FaultConfig::silent(3e-4, 1e-4);
    spec.seed = 20020415;
    diff("integrity", spec, |r| {
        if r.rank() == 0 {
            let eager: Vec<u8> = (0..4096).map(|i| (i * 13) as u8).collect();
            let large: Vec<u8> = (0..300_000).map(|i| (i * 31) as u8).collect();
            r.send(1, 1, &eager).unwrap();
            r.send(1, 2, &large).unwrap();
            Vec::new()
        } else {
            let mut eager = vec![0u8; 4096];
            let mut large = vec![0u8; 300_000];
            r.recv(Source::Rank(0), TagSel::Value(1), &mut eager)
                .unwrap();
            r.recv(Source::Rank(0), TagSel::Value(2), &mut large)
                .unwrap();
            assert!(eager.iter().enumerate().all(|(i, &b)| b == (i * 13) as u8));
            assert!(large.iter().enumerate().all(|(i, &b)| b == (i * 31) as u8));
            eager.extend(large.into_iter().step_by(1009));
            eager
        }
    });
}

/// Overload family, `Stall` and `Degrade`: a governed eager flood with
/// a paced receiver delivers everything — `Stall` by parking the sender
/// on returned credits (the backpressure park/wake path), `Degrade` by
/// rerouting overflow to the uncredited path.
#[test]
fn diff_overload_stall_and_degrade() {
    for policy in [OverloadPolicy::Stall, OverloadPolicy::Degrade] {
        let tuning = Tuning {
            eager_credits_bytes: 16 * 1024,
            eager_credit_slots: 256,
            overload_policy: policy,
            ..Tuning::default()
        };
        let spec = ClusterSpec::ringlet(2).tuning(tuning);
        diff(&format!("overload_{policy:?}"), spec, |r| {
            const MSG: usize = 4096;
            const COUNT: usize = 32;
            let pattern =
                |i: usize| -> Vec<u8> { (0..MSG).map(|j| (i * 131 + j * 7) as u8).collect() };
            if r.rank() == 0 {
                for i in 0..COUNT {
                    r.send(1, 9, &pattern(i)).expect("flood send");
                }
                r.barrier();
                Vec::new()
            } else {
                let mut digest = Vec::new();
                for i in 0..COUNT {
                    r.compute(SimDuration::from_us(200));
                    let mut buf = vec![0u8; MSG];
                    r.recv(Source::Rank(0), TagSel::Value(9), &mut buf)
                        .expect("flood recv");
                    assert_eq!(buf, pattern(i), "in order and bit-perfect");
                    digest.push(buf[MSG / 2]);
                }
                r.barrier();
                digest
            }
        });
    }
}

/// Overload family, `Shed`: a burst past the slot budget drops exactly
/// the overflow; the delivered prefix arrives intact.
#[test]
fn diff_overload_shed() {
    const SLOTS: usize = 4;
    const TOTAL: usize = 12;
    let tuning = Tuning {
        eager_credit_slots: SLOTS,
        eager_credits_bytes: 64 * 1024,
        overload_policy: OverloadPolicy::Shed,
        ..Tuning::default()
    };
    diff(
        "overload_shed",
        ClusterSpec::ringlet(2).tuning(tuning),
        |r| {
            if r.rank() == 0 {
                for i in 0..TOTAL {
                    r.send(1, 5, &[i as u8; 512]).expect("shed send is local");
                }
                r.barrier();
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..SLOTS {
                    let mut buf = [0u8; 512];
                    r.recv(Source::Rank(0), TagSel::Value(5), &mut buf)
                        .expect("delivered prefix");
                    got.push(buf[0]);
                }
                r.barrier();
                got
            }
        },
    );
}

/// Overload family, `Error`: exhausted slots refuse the send with
/// `ResourceExhausted`; the verdict sequence and the delivered prefix
/// must repeat.
#[test]
fn diff_overload_error() {
    const SLOTS: usize = 2;
    let tuning = Tuning {
        eager_credit_slots: SLOTS,
        eager_credits_bytes: 64 * 1024,
        overload_policy: OverloadPolicy::Error,
        ..Tuning::default()
    };
    let spec = ClusterSpec::ringlet(2)
        .tuning(tuning)
        .errors(ErrorMode::ErrorsReturn);
    diff("overload_error", spec, |r| {
        if r.rank() == 0 {
            let mut verdicts = Vec::new();
            for i in 0..SLOTS + 2 {
                verdicts.push(match r.send(1, 3, &[i as u8; 64]) {
                    Ok(()) => 1u8,
                    Err(_) => 0u8,
                });
            }
            r.barrier();
            verdicts
        } else {
            let mut got = Vec::new();
            for _ in 0..SLOTS {
                let mut buf = [0u8; 64];
                r.recv(Source::Rank(0), TagSel::Value(3), &mut buf)
                    .expect("delivered prefix");
                got.push(buf[0]);
            }
            r.barrier();
            got
        }
    });
}

// ---------------------------------------------------------------------
// Seed-sweep property test: randomized workloads replayed from their
// seed.
// ---------------------------------------------------------------------

/// Tiny deterministic PRNG (xorshift64*), so the sweep needs no
/// external crates and a failing case reproduces from its seed alone.
struct Prng(u64);

impl Prng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One randomized workload drawn from `seed`: a ring of 2..=8 ranks
/// (CI keeps the per-case cost low; the megascale bench runs the large
/// sizes), mixed eager and
/// rendezvous sendrecv with per-seed message sizes, a typed-datatype
/// transfer with a randomized vector shape, an optional collective, and
/// an optional governed-flood segment.
#[derive(Debug)]
struct Workload {
    seed: u64,
    ranks: usize,
    msg_len: usize,
    bulk_len: usize,
    vec_count: usize,
    vec_block: usize,
    vec_stride: usize,
    collective: bool,
    governed: bool,
}

impl Workload {
    fn draw(seed: u64) -> Workload {
        let mut rng = Prng(seed);
        Workload {
            seed,
            ranks: 2 + rng.below(7) as usize,
            msg_len: 64 + rng.below(8000) as usize,
            bulk_len: 20_000 + rng.below(400_000) as usize,
            vec_count: 1 + rng.below(64) as usize,
            vec_block: 1 + rng.below(8) as usize,
            vec_stride: 0,
            collective: rng.below(2) == 1,
            governed: rng.below(2) == 1,
        }
        .fix()
    }

    fn fix(mut self) -> Workload {
        // Stride must cover the block.
        let mut rng = Prng(self.seed ^ 0x9E3779B97F4A7C15);
        self.vec_stride = self.vec_block + rng.below(8) as usize;
        self
    }

    fn spec(&self) -> ClusterSpec {
        let mut spec = ClusterSpec::ringlet(self.ranks).errors(ErrorMode::ErrorsReturn);
        spec.seed = self.seed;
        if self.governed {
            spec = spec.tuning(Tuning {
                eager_credits_bytes: 16 * 1024,
                eager_credit_slots: 256,
                overload_policy: OverloadPolicy::Stall,
                ..Tuning::default()
            });
        }
        spec
    }

    fn body(&self, r: &mut Rank) -> Vec<u8> {
        let me = r.rank();
        let n = r.size();
        let mut out = Vec::new();
        // Phase 1: eager ring pass.
        let msg: Vec<u8> = (0..self.msg_len)
            .map(|i| (me * 37 + i * 11) as u8)
            .collect();
        let mut buf = vec![0u8; self.msg_len];
        r.sendrecv(
            (me + 1) % n,
            1,
            scimpi::SendData::Bytes(&msg),
            Source::Rank((me + n - 1) % n),
            TagSel::Value(1),
            scimpi::RecvBuf::Bytes(&mut buf),
        )
        .unwrap();
        out.extend(buf.iter().step_by(97));
        // Phase 2: rendezvous bulk between neighbours 0 -> n-1.
        if me == 0 {
            let bulk: Vec<u8> = (0..self.bulk_len).map(|i| (i * 29) as u8).collect();
            r.send(n - 1, 2, &bulk).unwrap();
        } else if me == n - 1 {
            let mut bulk = vec![0u8; self.bulk_len];
            r.recv(Source::Rank(0), TagSel::Value(2), &mut bulk)
                .unwrap();
            out.extend(bulk.iter().step_by(1013));
        }
        // Phase 3: typed transfer with the drawn vector shape.
        let dt = Datatype::vector(
            self.vec_count,
            self.vec_block,
            self.vec_stride as isize,
            &Datatype::double(),
        );
        let c = Committed::commit(&dt);
        if me == 0 {
            let src: Vec<u8> = (0..c.extent()).map(|i| (i ^ 0xA5) as u8).collect();
            r.send_typed(1 % n, 3, &c, 1, &src, 0).unwrap();
            if n == 1 {
                unreachable!("ranks >= 2 by construction");
            }
        } else if me == 1 {
            let mut t = vec![0u8; c.extent()];
            r.recv_typed(Source::Rank(0), TagSel::Value(3), &c, 1, &mut t, 0)
                .unwrap();
            out.extend(t.iter().step_by(53));
        }
        // Phase 4: optional collective.
        if self.collective {
            let mut s = [me as f64 + 0.5, self.seed as u32 as f64];
            r.allreduce(&mut s, ReduceOp::Max).unwrap();
            out.extend(s.iter().flat_map(|v| v.to_le_bytes()));
        }
        // Phase 5: optional governed flood 0 -> 1 (stall policy).
        if self.governed {
            if me == 0 {
                for i in 0..16 {
                    r.send(1, 4, &vec![(i * 3) as u8; 4096]).unwrap();
                }
            } else if me == 1 {
                for _ in 0..16 {
                    r.compute(SimDuration::from_us(150));
                    let mut b = vec![0u8; 4096];
                    r.recv(Source::Rank(0), TagSel::Value(4), &mut b).unwrap();
                    out.push(b[0]);
                }
            }
        }
        r.barrier();
        out
    }
}

/// Recorded digests of the seeds the suite runs by default; a
/// `BACKEND_DIFF_SEED` outside this table is replayed only.
const SEED_DIGESTS: [(u64, u64); 4] = [
    (1, 0xb746d65930097e81),
    (7, 0x383e104a59485c47),
    (20020415, 0x11c3764cdc4a0131),
    (0xDEAD_BEEF, 0xd908ac8b27c6cced),
];

/// Run one drawn workload twice, naming its reproduction recipe if the
/// runs differ; a seed of [`SEED_DIGESTS`] must also produce its
/// recorded digest.
fn check_workload(seed: u64) {
    let w = Workload::draw(seed);
    let what = format!(
        "seed {seed} (BACKEND_DIFF_SEED={seed} cargo test --test backend_diff seed_sweep; {w:?})"
    );
    let pinned = SEED_DIGESTS.iter().find(|(s, _)| *s == seed);
    replay(&what, w.spec(), |r| w.body(r), pinned.map(|p| p.1));
}

/// The sweep: `BACKEND_DIFF_SEED` pins a single seed (the CI matrix
/// sweeps several); unset, a fixed small set runs.
#[test]
fn seed_sweep_randomized_workloads() {
    if let Ok(seed) = std::env::var("BACKEND_DIFF_SEED") {
        let seed: u64 = seed.parse().expect("BACKEND_DIFF_SEED must be an integer");
        for s in [seed, seed.wrapping_mul(3).wrapping_add(1)] {
            check_workload(s);
        }
    } else {
        for s in [1, 20020415, 0xDEAD_BEEF] {
            check_workload(s);
        }
    }
}

/// One more pinned seed, under the name the test had beside the thread
/// backend: the scheduler is a deterministic function of the spec (heap
/// tie-break: time, then rank, then task sequence).
#[test]
fn event_backend_self_deterministic() {
    check_workload(7);
}
