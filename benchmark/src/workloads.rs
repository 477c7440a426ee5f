//! The six workload programs.
//!
//! Each is a fixed program over seed-derived inputs, written against the
//! user-facing surface only (`scimpi::prelude`, `Committed`, `Tuning`
//! presets). A repetition launches its cluster(s), runs the program,
//! checks every received buffer, and returns the operation tally, the
//! virtual finish time, the time it spent verifying, and — when traced —
//! the spans recorded around each call into the runtime.

use crate::inputs::{self, checksum, Layout, PAYLOAD};
use crate::trace::{Span, Tracer, HOST};
use mpi_datatype::Committed;
use scimpi::prelude::*;
use simclock::{SimDuration, SimTime};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 6] = [
    "noncontig",
    "sparse_osc",
    "pingpong",
    "pingpong_obs",
    "halo_requests",
    "scale_ring",
];

/// Why each workload exists, one line each (also in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "noncontig" => "paper 3.4 microbench: datatype kernels and the sci-fabric PIO write path do the host work; sched and obs do almost none",
        "sparse_osc" => "paper Fig. 8/9 sparse put/get/accumulate: tiny sci-fabric transactions, reads beside writes, datatype idle",
        "pingpong" => "contiguous 64 B / 4 KiB / 256 KiB ping-pong: core p2p, mailbox matching and 2-task sched handoff; pack kernels bypassed",
        "pingpong_obs" => "the pingpong program with the recorder and PROFILE export on: the only extra work is obs",
        "halo_requests" => "16 ranks of irecv/isend/waitall/allreduce: request engine and dynamic sched task spawn/join dominate",
        "scale_ring" => "2048 ranks of barrier, ring rounds and allreduce: static many-task sched handoff, cluster launch and collective trees",
        _ => "",
    }
}

/// How a repetition is run.
#[derive(Clone)]
pub struct RepMode {
    pub backend: Backend,
    /// `Some((epoch, repetition id))` records spans.
    pub trace: Option<(Instant, u32)>,
}

impl RepMode {
    pub fn untraced() -> RepMode {
        RepMode {
            backend: Backend::Event,
            trace: None,
        }
    }

    fn host_tracer(&self) -> Tracer {
        match self.trace {
            Some((epoch, rep)) => Tracer::new(true, epoch, HOST, rep, 0),
            None => Tracer::off(),
        }
    }
}

/// Outcome of one repetition.
#[derive(Default)]
pub struct RepOut {
    pub wall: Duration,
    /// Part of `wall` the ranks spent comparing what arrived with what
    /// was expected: the benchmark's work, not the runtime's.
    pub verify: Duration,
    pub attempted: u64,
    pub failed: u64,
    /// Max-over-ranks virtual finish time, summed over the clusters the
    /// repetition launched, in picoseconds.
    pub sim_ps: u64,
    /// Virtual-time observations (`model.*`), exact for a given seed.
    pub model: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl RepOut {
    /// Seconds of the repetition that are the program's: the wall time
    /// less the verification. Under `Backend::Event` one rank runs at a
    /// time, so the ranks' verification intervals do not overlap and all
    /// of them lie on the wall clock.
    pub fn secs(&self) -> f64 {
        self.wall.saturating_sub(self.verify).as_secs_f64()
    }

    fn value(&self, key: &str) -> Option<f64> {
        self.model.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

pub trait Workload {
    /// The fixed operation count of one repetition.
    fn ops(&self) -> u64;
    /// What an operation is (`messages`, `calls`, ...).
    fn op_unit(&self) -> &'static str;
    fn rep(&self, mode: &RepMode) -> RepOut;
    /// `(anchor name, model value, paper value)` if the workload has a
    /// paper anchor.
    fn paper_anchor(&self, _out: &RepOut) -> Option<(&'static str, f64, f64)> {
        None
    }
}

/// Scale divisor: 1 = full size, 20 = `--smoke`.
pub fn prepare(
    name: &str,
    seed: u64,
    scale: usize,
    out_dir: &std::path::Path,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "noncontig" => Box::new(Noncontig::prepare(seed, scale, false)),
        // Not a workload of its own: the recorder-on arm of
        // `obs.on_off_host_ratio.noncontig`.
        "noncontig_obs" => Box::new(Noncontig::prepare(seed, scale, true)),
        "sparse_osc" => Box::new(SparseOsc::prepare(seed, scale)),
        "pingpong" => Box::new(Pingpong::prepare(seed, scale, None)),
        "pingpong_obs" => Box::new(Pingpong::prepare(
            seed,
            scale,
            Some(out_dir.join("profile_pingpong_obs.json")),
        )),
        "halo_requests" => Box::new(Halo::prepare(seed, scale)),
        "scale_ring" => Box::new(ScaleRing::prepare(seed, scale)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Shared launch plumbing
// ---------------------------------------------------------------------

/// What a rank closure hands back.
struct RankOut {
    finish: SimTime,
    attempted: u64,
    failed: u64,
    verify: Duration,
    entered: Instant,
    left: Instant,
    spans: Vec<Span>,
    values: Vec<(String, f64)>,
}

/// Per-rank harness state inside a closure: the tracer and the tally.
pub struct Ctx {
    pub tr: Tracer,
    attempted: u64,
    failed: u64,
    verify: Duration,
    values: Vec<(String, f64)>,
}

impl Ctx {
    /// Count `n` operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count a failed check or an `Err`.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    /// Count the outcome of a check that reads whole buffers, begun at
    /// `since`: its time is kept out of the repetition's.
    pub fn verified(&mut self, since: Instant, ok: bool) {
        self.verify += since.elapsed();
        self.check(ok);
    }

    /// Count an `Err`; hand back the success value.
    pub fn ok<T>(&mut self, r: Result<T, ScimpiError>) -> Option<T> {
        if r.is_err() {
            self.failed += 1;
        }
        r.ok()
    }

    /// `r.barrier()` under a `core.barrier` span: a rank waiting there is
    /// inside the runtime, not in the benchmark's own code.
    pub fn barrier(&mut self, r: &mut Rank, detail: &str) {
        let s = self.tr.begin("core", "core.barrier", detail);
        r.barrier();
        self.tr.end(s, 1, 0);
    }

    pub fn value(&mut self, key: impl Into<String>, v: f64) {
        self.values.push((key.into(), v));
    }
}

/// Launch `spec` and run `body` on every rank, recording `core.run` ⊃
/// `core.launch`, every rank's `rank.body` ⊃ its verb spans,
/// `core.teardown`. A panic inside the
/// runtime (a rank thread that cannot be created, an aborted run) fails
/// every operation of the launch instead of taking the benchmark down.
fn launch<F>(
    spec: ClusterSpec,
    mode: &RepMode,
    host: &mut Tracer,
    detail: &str,
    ops_if_lost: u64,
    out: &mut RepOut,
    body: F,
) where
    F: Fn(&mut Rank, &mut Ctx) + Send + Sync,
{
    let ranks = spec.num_ranks() as u64;
    let run_span = host.begin("core", "core.run", detail);
    let run_id = host.id(run_span);
    let trace = mode.trace;
    let called = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(spec.backend(mode.backend).build(), |r| {
            let entered = Instant::now();
            let tr = match trace {
                Some((epoch, rep)) => Tracer::new(true, epoch, r.rank() as u32, rep, run_id),
                None => Tracer::off(),
            };
            let mut ctx = Ctx {
                tr,
                attempted: 0,
                failed: 0,
                verify: Duration::ZERO,
                values: Vec::new(),
            };
            let whole = ctx.tr.begin("harness", "rank.body", detail);
            body(r, &mut ctx);
            ctx.tr.end(whole, 1, 0);
            RankOut {
                finish: r.now(),
                attempted: ctx.attempted,
                failed: ctx.failed,
                verify: ctx.verify,
                entered,
                left: Instant::now(),
                spans: ctx.tr.into_spans(),
                values: ctx.values,
            }
        })
    }));
    let returned = Instant::now();
    match result {
        Ok(ranks_out) => {
            let first_in = ranks_out.iter().map(|o| o.entered).min().unwrap_or(called);
            let last_out = ranks_out.iter().map(|o| o.left).max().unwrap_or(returned);
            host.record("core", "core.launch", detail, called, first_in, ranks);
            host.record("core", "core.teardown", detail, last_out, returned, ranks);
            let mut finish = SimTime::ZERO;
            for o in ranks_out {
                finish = finish.max(o.finish);
                out.attempted += o.attempted;
                out.failed += o.failed;
                out.verify += o.verify;
                out.spans.extend(o.spans);
                out.model.extend(o.values);
            }
            out.sim_ps += finish.as_ps();
        }
        Err(_) => {
            out.attempted += ops_if_lost;
            out.failed += ops_if_lost;
        }
    }
    host.end(run_span, ranks, 0);
}

fn finish(mut out: RepOut, host: Tracer, started: Instant) -> RepOut {
    out.wall = started.elapsed();
    out.spans.extend(host.into_spans());
    out
}

fn us(d: SimDuration) -> f64 {
    d.as_us_f64()
}

// ---------------------------------------------------------------------
// noncontig
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum CellKind {
    /// `Tuning::full_ff_comparison()` — fig7's `direct_pack_ff` curve.
    Ff,
    /// `Tuning::generic_only()` — fig7's generic curve.
    Generic,
    /// Default tuning (the adaptive selector decides).
    Default,
    /// Plain `send`/`recv` of the same byte count.
    Contiguous,
}

struct Cell {
    key: String,
    kind: CellKind,
    layout: Layout,
    expected: u64,
}

pub struct Noncontig {
    cells: Vec<Cell>,
    src: Vec<u8>,
    messages: usize,
    /// Recorder on (no export), for the on/off comparison.
    obs: bool,
}

impl Noncontig {
    fn prepare(seed: u64, scale: usize, obs: bool) -> Noncontig {
        let mut plan = Vec::new();
        for block in [8, 16, 64, 128, 1024, 16 * 1024] {
            plan.push(("ff", CellKind::Ff, Layout::vector(block, PAYLOAD)));
        }
        plan.push(("auto", CellKind::Default, Layout::irregular(seed, PAYLOAD)));
        plan.push(("ref", CellKind::Contiguous, Layout::contiguous(PAYLOAD)));
        for block in [16, 128] {
            plan.push(("generic", CellKind::Generic, Layout::vector(block, PAYLOAD)));
        }
        let longest = plan.iter().map(|p| p.2.extent).max().unwrap_or(0);
        let src = inputs::bytes(seed, 1, longest);
        let mut cells: Vec<Cell> = plan
            .into_iter()
            .map(|(prefix, kind, layout)| Cell {
                key: format!("{prefix}.{}", layout.label),
                kind,
                expected: checksum(&layout.expected_receive(&src)),
                layout,
            })
            .collect();
        // The sweep-cell order is an input too.
        simclock::SplitMix64::new(seed).fork(2).shuffle(&mut cells);
        Noncontig {
            cells,
            src,
            messages: (96 / scale).max(2),
            obs,
        }
    }

    fn run_cell(&self, cell: &Cell, mode: &RepMode, host: &mut Tracer, out: &mut RepOut) {
        let tuning = match cell.kind {
            CellKind::Ff => Tuning::default().full_ff_comparison(),
            CellKind::Generic => Tuning::default().generic_only(),
            CellKind::Default | CellKind::Contiguous => Tuning::default(),
        };
        let obs = if self.obs {
            ObsConfig::enabled()
        } else {
            ObsConfig::disabled()
        };
        let spec = ClusterSpec::ringlet(2).tuning(tuning).obs(obs);
        let (m, src, key) = (self.messages, &self.src, cell.key.as_str());
        let contiguous = cell.kind == CellKind::Contiguous;
        let layout = &cell.layout;
        let label = layout.label.as_str();
        launch(spec, mode, host, key, m as u64, out, |r, ctx| {
            let me = r.rank();
            let mut buf = vec![0u8; layout.extent];
            ctx.barrier(r, key);
            let t0 = r.now();
            for _ in 0..m {
                // Re-commit per message, as fig7 does: every commit after
                // the first is a layout-cache hit.
                let s = ctx.tr.begin("datatype", "datatype.commit", label);
                let c = Committed::commit(&layout.datatype);
                ctx.tr.end(s, 1, 0);
                if me == 0 {
                    let s = ctx.tr.begin("core", "core.send_typed", key);
                    let res = if contiguous {
                        r.send(1, 0, &src[..PAYLOAD])
                    } else {
                        r.send_typed(1, 0, &c, 1, src, 0)
                    };
                    ctx.tr.end(s, 1, PAYLOAD as u64);
                    ctx.ok(res);
                } else {
                    // A receive that delivered nothing must not pass on
                    // the previous message's bytes.
                    let (first, last) = (
                        layout.blocks[0].0,
                        layout.blocks.last().map_or(0, |b| b.0 + b.1 - 8),
                    );
                    buf[first..first + 8].fill(0);
                    buf[last..last + 8].fill(0);
                    ctx.attempt(1);
                    let s = ctx.tr.begin("core", "core.recv_typed", key);
                    let res = if contiguous {
                        r.recv(Source::Rank(0), TagSel::Value(0), &mut buf)
                    } else {
                        r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, 1, &mut buf, 0)
                    };
                    ctx.tr.end(s, 1, PAYLOAD as u64);
                    let delivered = ctx.ok(res).is_some_and(|st| st.len == PAYLOAD);
                    let t = Instant::now();
                    ctx.verified(t, delivered && checksum(&buf) == cell.expected);
                }
            }
            if me == 1 {
                // Virtual bandwidth as fig7 measures it: payload over the
                // receiver's elapsed virtual time.
                let mibps = (m * PAYLOAD) as f64 / (1024.0 * 1024.0) / (r.now() - t0).as_secs_f64();
                ctx.value(format!("mibps.{key}"), mibps);
            }
            ctx.barrier(r, key);
        });
    }
}

impl Workload for Noncontig {
    fn ops(&self) -> u64 {
        (self.cells.len() * self.messages) as u64
    }

    fn op_unit(&self) -> &'static str {
        "messages"
    }

    fn rep(&self, mode: &RepMode) -> RepOut {
        let started = Instant::now();
        let mut host = mode.host_tracer();
        let mut out = RepOut::default();
        for cell in &self.cells {
            self.run_cell(cell, mode, &mut host, &mut out);
        }
        if let (Some(ff), Some(contig)) =
            (out.value("mibps.ff.b128"), out.value("mibps.ref.contig"))
        {
            out.model
                .push(("model.ff_over_contig.b128".into(), ff / contig));
        }
        if let (Some(ff), Some(generic)) =
            (out.value("mibps.ff.b16"), out.value("mibps.generic.b16"))
        {
            out.model
                .push(("model.ff_over_generic.b16".into(), ff / generic));
        }
        finish(out, host, started)
    }

    fn paper_anchor(&self, out: &RepOut) -> Option<(&'static str, f64, f64)> {
        out.value("model.ff_over_contig.b128")
            .map(|v| ("ff/contig at 128 B", v, 0.90))
    }
}

// ---------------------------------------------------------------------
// sparse_osc
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dir {
    Put,
    Get,
    Accumulate,
}

#[derive(Clone)]
struct Sweep {
    dir: Dir,
    access: usize,
    shared: bool,
    /// Bytes of the window the sweep walks (stride 2 × access).
    span: usize,
    /// Which seeded source buffer puts and accumulates send.
    src: usize,
}

impl Sweep {
    fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        (0..)
            .map(|i| i * 2 * self.access)
            .take_while(|o| o + self.access < self.span)
    }

    fn calls(&self) -> u64 {
        self.offsets().count() as u64
    }

    fn key(&self) -> String {
        let dir = match self.dir {
            Dir::Put => "put",
            Dir::Get => "get",
            Dir::Accumulate => "accumulate",
        };
        let mem = if self.shared { "shared" } else { "private" };
        format!("{dir}.{mem}.{}", inputs::label_for(self.access))
    }
}

pub struct SparseOsc {
    sweeps: Vec<Sweep>,
    rounds: usize,
    base: Vec<u8>,
    srcs: Vec<Vec<u8>>,
}

impl SparseOsc {
    fn prepare(seed: u64, scale: usize) -> SparseOsc {
        let mut sweeps = Vec::new();
        for shared in [true, false] {
            for access in [8usize, 512, 16 * 1024] {
                for dir in [Dir::Put, Dir::Get] {
                    sweeps.push(Sweep {
                        dir,
                        access,
                        shared,
                        span: PAYLOAD,
                        src: 0,
                    });
                }
            }
        }
        sweeps.push(Sweep {
            dir: Dir::Accumulate,
            access: 512,
            shared: true,
            span: PAYLOAD,
            src: 0,
        });
        simclock::SplitMix64::new(seed).fork(3).shuffle(&mut sweeps);
        let mut srcs = Vec::new();
        for s in sweeps.iter_mut().filter(|s| s.dir != Dir::Get) {
            s.src = srcs.len();
            srcs.push(inputs::bytes(seed, 100 + srcs.len() as u64, PAYLOAD));
        }
        SparseOsc {
            sweeps,
            rounds: (40 / scale).max(1),
            base: inputs::bytes(seed, 4, PAYLOAD),
            srcs,
        }
    }
}

impl Workload for SparseOsc {
    fn ops(&self) -> u64 {
        self.rounds as u64 * self.sweeps.iter().map(Sweep::calls).sum::<u64>()
    }

    fn op_unit(&self) -> &'static str {
        "calls"
    }

    fn rep(&self, mode: &RepMode) -> RepOut {
        let started = Instant::now();
        let mut host = mode.host_tracer();
        let mut out = RepOut::default();
        let lost = self.ops();
        launch(
            ClusterSpec::ringlet(2),
            mode,
            &mut host,
            "sparse",
            lost,
            &mut out,
            |r, ctx| {
                let me = r.rank();
                let s = ctx.tr.begin("core", "core.win_create", "");
                let mem = ctx.ok(r.alloc_mem(PAYLOAD));
                let shared = mem.and_then(|m| ctx.ok(r.win_create(WinMemory::Alloc(m))));
                let private = ctx.ok(r.win_create(WinMemory::Private(PAYLOAD)));
                ctx.tr.end(s, 2, 0);
                let (Some(mut shared), Some(mut private)) = (shared, private) else {
                    return;
                };
                // Both ranks track what each window must hold.
                let mut expect = [self.base.clone(), self.base.clone()];
                let mut got = vec![0u8; PAYLOAD];
                for round in 0..self.rounds {
                    let s = ctx.tr.begin("core", "core.win_reset", "");
                    shared.write_local(r, 0, &self.base);
                    private.write_local(r, 0, &self.base);
                    let fenced = [shared.fence(r), private.fence(r)];
                    ctx.tr.end(s, 2, 2 * PAYLOAD as u64);
                    for f in fenced {
                        ctx.ok(f);
                    }
                    expect[0].copy_from_slice(&self.base);
                    expect[1].copy_from_slice(&self.base);
                    for sw in &self.sweeps {
                        let key = sw.key();
                        let (win, model) = if sw.shared {
                            (&mut shared, &mut expect[0])
                        } else {
                            (&mut private, &mut expect[1])
                        };
                        let src = &self.srcs[sw.src];
                        let t0 = r.now();
                        let mut calls = 0u64;
                        if me == 0 {
                            let s = ctx.tr.begin("core", "core.osc_sweep", &key);
                            for o in sw.offsets() {
                                let range = o..o + sw.access;
                                let res = match sw.dir {
                                    Dir::Put => win.put(r, 1, o, &src[range.clone()]),
                                    Dir::Get => win.get(r, 1, o, &mut got[range.clone()]),
                                    Dir::Accumulate => win.accumulate(
                                        r,
                                        1,
                                        o,
                                        AccumulateOp::SumI64,
                                        &src[range.clone()],
                                    ),
                                };
                                ctx.ok(res);
                                if sw.dir == Dir::Get {
                                    ctx.check(got[range.clone()] == model[range]);
                                }
                                calls += 1;
                            }
                            ctx.tr.end(s, calls, calls * sw.access as u64);
                            ctx.attempt(calls);
                        }
                        let s = ctx.tr.begin("core", "core.fence", "");
                        let fenced = win.fence(r);
                        ctx.tr.end(s, 1, 0);
                        ctx.ok(fenced);
                        let elapsed = r.now() - t0;
                        if me == 0 && round == 0 {
                            ctx.value(format!("lat_us.{key}"), us(elapsed) / calls as f64);
                            ctx.value(
                                format!("mibps.{key}"),
                                (calls as usize * sw.access) as f64
                                    / (1024.0 * 1024.0)
                                    / elapsed.as_secs_f64(),
                            );
                        }
                        // Apply the sweep to the model; the target compares
                        // its window memory against it.
                        let t = Instant::now();
                        for o in sw.offsets() {
                            let range = o..o + sw.access;
                            match sw.dir {
                                Dir::Put => model[range.clone()].copy_from_slice(&src[range]),
                                Dir::Accumulate => {
                                    for w in range.step_by(8) {
                                        let a = i64::from_le_bytes(
                                            model[w..w + 8].try_into().expect("8 bytes"),
                                        );
                                        let b = i64::from_le_bytes(
                                            src[w..w + 8].try_into().expect("8 bytes"),
                                        );
                                        model[w..w + 8]
                                            .copy_from_slice(&a.wrapping_add(b).to_le_bytes());
                                    }
                                }
                                Dir::Get => {}
                            }
                        }
                        let mut held = true;
                        if sw.dir != Dir::Get && me == 1 {
                            win.read_local(r, 0, &mut got);
                            held = got == *model;
                        }
                        ctx.verified(t, held);
                        if sw.dir != Dir::Get {
                            // The target's local loads and the origin's next
                            // sweep must not share an access epoch.
                            let s = ctx.tr.begin("core", "core.fence", "after_check");
                            let fenced = win.fence(r);
                            ctx.tr.end(s, 1, 0);
                            ctx.ok(fenced);
                        }
                    }
                }
            },
        );
        let put16k = out.value("mibps.put.shared.b16k");
        if let Some(v) = put16k {
            out.model.push(("model.put_plateau_mibps".into(), v));
        }
        if let (Some(get), Some(put)) = (
            out.value("lat_us.get.shared.b8"),
            out.value("lat_us.put.shared.b8"),
        ) {
            out.model
                .push(("model.get_over_put_latency.b8".into(), get / put));
        }
        finish(out, host, started)
    }

    fn paper_anchor(&self, out: &RepOut) -> Option<(&'static str, f64, f64)> {
        out.value("model.put_plateau_mibps")
            .map(|v| ("sustained put plateau, MiB/s", v, 120.0))
    }
}

// ---------------------------------------------------------------------
// pingpong / pingpong_obs
// ---------------------------------------------------------------------

pub struct Pingpong {
    /// `(bytes, round trips)`: eager, eager, rendezvous.
    phases: Vec<(usize, usize)>,
    payload: Vec<u8>,
    /// `Some(path)`: recorder on, PROFILE exported there.
    profile: Option<PathBuf>,
}

impl Pingpong {
    fn prepare(seed: u64, scale: usize, profile: Option<PathBuf>) -> Pingpong {
        let trips = |n: usize| (n / scale).max(2);
        Pingpong {
            phases: vec![
                (64, trips(24000)),
                (4096, trips(12000)),
                (PAYLOAD, trips(1200)),
            ],
            payload: inputs::bytes(seed, 5, PAYLOAD),
            profile,
        }
    }
}

impl Workload for Pingpong {
    fn ops(&self) -> u64 {
        self.phases.iter().map(|&(_, trips)| 2 * trips as u64).sum()
    }

    fn op_unit(&self) -> &'static str {
        "messages"
    }

    fn rep(&self, mode: &RepMode) -> RepOut {
        let started = Instant::now();
        let mut host = mode.host_tracer();
        let mut out = RepOut::default();
        let mut spec = ClusterSpec::ringlet(2);
        if let Some(path) = &self.profile {
            spec = spec.obs(ObsConfig::enabled().and_profile(path));
        }
        launch(
            spec,
            mode,
            &mut host,
            "pingpong",
            self.ops(),
            &mut out,
            |r, ctx| {
                let me = r.rank();
                let peer = 1 - me;
                let mut want = self.payload.clone();
                let mut buf = vec![0u8; PAYLOAD];
                ctx.barrier(r, "r2");
                for &(bytes, trips) in &self.phases {
                    let label = inputs::label_for(bytes);
                    let phase = ctx.tr.begin("core", "core.pingpong_phase", &label);
                    for i in 0..trips {
                        // Every message differs from the one before it.
                        want[..8].copy_from_slice(&(i as u64).to_le_bytes());
                        if me == 0 {
                            let s = ctx.tr.begin("core", "core.send", &label);
                            let sent = r.send(peer, 0, &want[..bytes]);
                            ctx.tr.end(s, 1, bytes as u64);
                            ctx.ok(sent);
                        }
                        ctx.attempt(1);
                        let s = ctx.tr.begin("core", "core.recv", &label);
                        let res = r.recv(Source::Rank(peer), TagSel::Value(0), &mut buf[..bytes]);
                        ctx.tr.end(s, 1, bytes as u64);
                        let delivered = ctx.ok(res).is_some_and(|st| st.len == bytes);
                        ctx.check(delivered && buf[..bytes] == want[..bytes]);
                        if me == 1 {
                            let sent = r.send(peer, 0, &buf[..bytes]);
                            ctx.ok(sent);
                        }
                    }
                    ctx.tr
                        .end(phase, 2 * trips as u64, (2 * trips * bytes) as u64);
                }
                ctx.barrier(r, "r2");
            },
        );
        finish(out, host, started)
    }
}

// ---------------------------------------------------------------------
// halo_requests
// ---------------------------------------------------------------------

pub struct Halo {
    ranks: usize,
    iterations: usize,
    payload: Vec<u8>,
}

const HALO_BYTES: usize = 8 * 1024;
const HALO_NEIGHBOURS: [isize; 4] = [-2, -1, 1, 2];

impl Halo {
    fn prepare(seed: u64, scale: usize) -> Halo {
        Halo {
            ranks: 16,
            iterations: (100 / scale).max(2),
            payload: inputs::bytes(seed, 6, HALO_BYTES),
        }
    }
}

impl Workload for Halo {
    fn ops(&self) -> u64 {
        (self.ranks * self.iterations * 2 * HALO_NEIGHBOURS.len()) as u64
    }

    fn op_unit(&self) -> &'static str {
        "requests"
    }

    fn rep(&self, mode: &RepMode) -> RepOut {
        let started = Instant::now();
        let mut host = mode.host_tracer();
        let mut out = RepOut::default();
        let n = self.ranks;
        launch(
            ClusterSpec::ringlet(n),
            mode,
            &mut host,
            "halo",
            self.ops(),
            &mut out,
            |r, ctx| {
                let me = r.rank();
                let peer = |d: isize| (me as isize + d).rem_euclid(n as isize) as usize;
                let mut mine = self.payload.clone();
                ctx.barrier(r, "r16");
                for it in 0..self.iterations {
                    mine[..8].copy_from_slice(&(me as u64).to_le_bytes());
                    mine[8..16].copy_from_slice(&(it as u64).to_le_bytes());
                    let s = ctx.tr.begin("core", "core.isend_irecv", "");
                    let mut recvs = Vec::with_capacity(4);
                    let mut sends = Vec::with_capacity(4);
                    // Tag by direction so the two messages of a pair of
                    // ranks two apart cannot be confused.
                    for (k, &d) in HALO_NEIGHBOURS.iter().enumerate() {
                        let posted = r.irecv(
                            Source::Rank(peer(d)),
                            TagSel::Value(3 - k as i32),
                            HALO_BYTES,
                        );
                        recvs.extend(ctx.ok(posted));
                    }
                    for (k, &d) in HALO_NEIGHBOURS.iter().enumerate() {
                        let posted = r.isend(peer(d), k as i32, &mine);
                        sends.extend(ctx.ok(posted));
                    }
                    ctx.tr.end(s, 4, (8 * HALO_BYTES) as u64);
                    r.compute(SimDuration::from_us(50));
                    ctx.attempt(8);
                    let s = ctx.tr.begin("core", "core.waitall", "");
                    let arrived = r.waitall(&mut recvs);
                    let sent = r.waitall(&mut sends);
                    ctx.tr.end(s, 8, 0);
                    ctx.ok(sent);
                    for (done, &d) in ctx
                        .ok(arrived)
                        .unwrap_or_default()
                        .iter()
                        .zip(&HALO_NEIGHBOURS)
                    {
                        let from = peer(d) as u64;
                        let ok = done.data.len() == HALO_BYTES
                            && done.data[..8] == from.to_le_bytes()
                            && done.data[8..16] == (it as u64).to_le_bytes()
                            && done.data[16..] == self.payload[16..];
                        ctx.check(ok);
                    }
                    let mut sum = [(me + it) as f64];
                    let s = ctx.tr.begin("core", "core.allreduce", "r16");
                    let reduced = r.allreduce(&mut sum, ReduceOp::Sum);
                    ctx.tr.end(s, 1, 8);
                    ctx.ok(reduced);
                    ctx.check(sum[0] == (n * (n - 1) / 2 + n * it) as f64);
                }
                ctx.barrier(r, "r16");
            },
        );
        finish(out, host, started)
    }
}

// ---------------------------------------------------------------------
// scale_ring
// ---------------------------------------------------------------------

pub struct ScaleRing {
    ranks: usize,
    payload: Vec<u8>,
    /// False if this process cannot hold one thread per rank.
    launchable: bool,
}

const RING_ROUNDS: usize = 8;
const RING_BYTES: usize = 64;

/// Rank count of `scale_ring` at a scale divisor: 2048 at full size,
/// always even so the parity split never blocks on a blocked peer.
pub fn ring_ranks(scale: usize) -> usize {
    (2048 / scale).max(2) & !1
}

impl ScaleRing {
    fn prepare(seed: u64, scale: usize) -> ScaleRing {
        let ranks = ring_ranks(scale);
        ScaleRing {
            ranks,
            payload: inputs::bytes(seed, 7, RING_BYTES),
            launchable: preflight("scale_ring", scale),
        }
    }
}

/// Whether this process can run workload `name` at all, found out once:
/// `scale_ring` needs one thread per rank. Called before the set-up
/// timer starts, so that spawning the trial threads is not set-up time.
pub fn preflight(name: &str, scale: usize) -> bool {
    static RING_THREADS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    name != "scale_ring" || *RING_THREADS.get_or_init(|| threads_available(ring_ranks(scale)))
}

/// Whether `n` threads with rank-task stacks can exist at once. The
/// runtime waits for every rank to check in before the first dispatch,
/// so a launch that runs out of threads half way never returns; better
/// to find out here and fail the operations than to hang there.
fn threads_available(n: usize) -> bool {
    use std::sync::atomic::{AtomicBool, Ordering};
    let release = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut parked = Vec::with_capacity(n);
        for _ in 0..n {
            let spawned = std::thread::Builder::new()
                .stack_size(1 << 20)
                .spawn_scoped(scope, || {
                    while !release.load(Ordering::SeqCst) {
                        std::thread::park();
                    }
                });
            match spawned {
                Ok(handle) => parked.push(handle),
                Err(_) => break,
            }
        }
        release.store(true, Ordering::SeqCst);
        for handle in &parked {
            handle.thread().unpark();
        }
        parked.len() == n
    })
}

impl Workload for ScaleRing {
    fn ops(&self) -> u64 {
        self.ranks as u64
    }

    fn op_unit(&self) -> &'static str {
        "ranks"
    }

    fn rep(&self, mode: &RepMode) -> RepOut {
        let started = Instant::now();
        let mut host = mode.host_tracer();
        let mut out = RepOut::default();
        let n = self.ranks;
        let size = format!("r{n}");
        if !self.launchable {
            // Refused, not skipped: every rank counts as a failed op.
            out.attempted = n as u64;
            out.failed = n as u64;
            return finish(out, host, started);
        }
        launch(
            ClusterSpec::ringlet(n),
            mode,
            &mut host,
            &size,
            n as u64,
            &mut out,
            |r, ctx| {
                let me = r.rank();
                let (right, left) = ((me + 1) % n, (me + n - 1) % n);
                ctx.attempt(1);
                ctx.barrier(r, &size);
                let mut mine = self.payload.clone();
                let mut buf = [0u8; RING_BYTES];
                let mut ok = true;
                let s = ctx.tr.begin("core", "core.ring_rounds", &size);
                for round in 0..RING_ROUNDS {
                    mine[..8].copy_from_slice(&((me * RING_ROUNDS + round) as u64).to_le_bytes());
                    // Parity split: evens talk first, odds listen first.
                    let sent = if me % 2 == 0 {
                        let sent = r.send(right, 7, &mine);
                        ok &= r
                            .recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                            .is_ok();
                        sent
                    } else {
                        ok &= r
                            .recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                            .is_ok();
                        r.send(right, 7, &mine)
                    };
                    ok &= sent.is_ok();
                    ok &= buf[..8] == ((left * RING_ROUNDS + round) as u64).to_le_bytes()
                        && buf[8..] == self.payload[8..];
                }
                ctx.tr
                    .end(s, 2 * RING_ROUNDS as u64, (RING_ROUNDS * RING_BYTES) as u64);
                let mut sum = [1.0f64];
                let s = ctx.tr.begin("core", "core.allreduce", &size);
                ok &= r.allreduce(&mut sum, ReduceOp::Sum).is_ok();
                ctx.tr.end(s, 1, 8);
                ok &= sum[0] == n as f64;
                ctx.barrier(r, &size);
                ctx.check(ok);
            },
        );
        finish(out, host, started)
    }
}
