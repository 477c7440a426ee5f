//! Direct layer probes: one layer at a time, through its public API, timed
//! from outside with `Instant`. Each probe runs five batches and reports
//! the lower-quartile batch; every output passes through `black_box`. A probe
//! whose self-check fails reports nothing and counts as failed.

use crate::inputs::{self, Layout, PAYLOAD};
use crate::layers::typical;
use crate::report::Metrics;
use crate::trace::{Trace, Tracer, HOST};
use mpi_datatype::{pack_ff, unpack_ff, Committed, Datatype, SliceSource, VecSink};
use sci_fabric::{Fabric, FabricSpec, NodeId, Topology};
use scimpi::PioSink;
use simclock::{Clock, SimDuration, SimTime, SplitMix64};
use smi::{ProcId, ShregAllocator, SmiLock, SmiWorld, TransferMode};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
const GB: f64 = 1e9;

/// Stack of probe task threads — what the runtime gives its rank tasks.
const TASK_STACK: usize = 1 << 20;

/// Body of one probe task: gets every task's handle and its own index.
type TaskBody = Box<dyn FnOnce(&[sched::Handle], usize) + Send>;

pub struct Probes {
    /// Target wall time of one batch.
    batch: Duration,
    seed: u64,
    /// Tasks of the many-task scheduler probes: the `scale_ring` rank count.
    tasks: usize,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    tracer: Tracer,
}

impl Probes {
    pub fn new(seed: u64, scale: usize, tasks: usize, epoch: Instant) -> Probes {
        Probes {
            batch: Duration::from_micros(12_000 / scale as u64),
            seed,
            tasks,
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(true, epoch, HOST, 0, 0),
        }
    }

    /// Median seconds per call of `f` over `BATCHES` batches sized to
    /// roughly `self.batch` each.
    fn per_call(&self, mut f: impl FnMut()) -> f64 {
        f();
        let mut n = 1u64;
        let calls = loop {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            let dt = t.elapsed();
            if dt * 4 >= self.batch || n >= 1 << 28 {
                break ((n as f64 * self.batch.as_secs_f64() / dt.as_secs_f64().max(1e-9)) as u64)
                    .max(1);
            }
            n *= 4;
        };
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..calls {
                    f();
                }
                t.elapsed().as_secs_f64() / calls as f64
            })
            .collect();
        typical(&batches)
    }

    /// Run one probe group under a span of its layer.
    fn group(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Probes) -> bool,
    ) {
        let s = self.tracer.begin(layer, name, "");
        self.attempted += 1;
        let ok =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self))).unwrap_or(false);
        if !ok {
            self.failed += 1;
            eprintln!("hostbench: probe {name} failed its self-check");
        }
        self.tracer.end(s, 1, 0);
    }

    pub fn run_all(&mut self, cpus: &crate::host::Pinning) {
        self.group("datatype", "probe.datatype", Probes::datatype);
        self.group("sci-fabric", "probe.sci-fabric", Probes::fabric);
        self.group("core", "probe.core_sink", Probes::core_sink);
        self.group("sched", "probe.sched", |p| p.sched(cpus));
        self.group("smi", "probe.smi", Probes::smi);
        self.group("simclock", "probe.simclock", Probes::simclock);
    }

    pub fn finish(self, trace: &mut Trace) -> (Metrics, u64, u64) {
        trace.absorb(self.tracer.into_spans());
        (self.metrics, self.attempted, self.failed)
    }

    // -----------------------------------------------------------------
    // datatype
    // -----------------------------------------------------------------

    fn datatype(&mut self) -> bool {
        let layouts = [
            Layout::vector(8, PAYLOAD),
            Layout::vector(128, PAYLOAD),
            Layout::vector(16 * 1024, PAYLOAD),
            Layout::irregular(self.seed, PAYLOAD),
        ];
        let longest = layouts.iter().map(|l| l.extent).max().unwrap_or(0);
        let src = inputs::bytes(self.seed, 10, longest);
        let mut hand = vec![0u8; PAYLOAD];
        let mut packed = vec![0u8; PAYLOAD];
        let mut sink = VecSink::default();

        let t = self.per_call(|| hand.copy_from_slice(black_box(&src[..PAYLOAD])));
        self.metrics
            .push("ref.memcpy_gbps", PAYLOAD as f64 / t / GB, "GB/s");

        for layout in &layouts {
            let label = layout.label.as_str();
            let c = Committed::commit(&layout.datatype);

            // Byte identity first: no GB/s for a kernel that packs
            // something else than the hand loop.
            layout.hand_pack(&src, &mut hand);
            sink.data.clear();
            if pack_ff(&c, 1, &src, 0, 0, usize::MAX, &mut sink).is_err() || sink.data != hand {
                return false;
            }
            let mut position = 0;
            if c.pack(&src, 0, 1, &mut packed, &mut position).is_err()
                || position != PAYLOAD
                || packed != hand
            {
                return false;
            }
            let mut scattered = vec![0u8; layout.extent];
            if unpack_ff(
                &c,
                1,
                &mut scattered,
                0,
                0,
                usize::MAX,
                &mut SliceSource::new(&hand),
            )
            .is_err()
                || scattered != layout.expected_receive(&src)
            {
                return false;
            }
            let mut position = 0;
            scattered.fill(0);
            if c.unpack(&hand, &mut position, &mut scattered, 0, 1)
                .is_err()
                || scattered != layout.expected_receive(&src)
            {
                return false;
            }

            let t_ff = self.per_call(|| {
                sink.data.clear();
                let _ = black_box(pack_ff(&c, 1, black_box(&src), 0, 0, usize::MAX, &mut sink));
                black_box(&sink.data);
            });
            self.metrics.push(
                format!("datatype.pack_ff_gbps.{label}"),
                PAYLOAD as f64 / t_ff / GB,
                "GB/s",
            );
            if label == "irregular" {
                continue;
            }
            let t_loop = self.per_call(|| {
                layout.hand_pack(black_box(&src), &mut hand);
                black_box(&hand);
            });
            self.metrics.push(
                format!("ref.copy_loop_gbps.{label}"),
                PAYLOAD as f64 / t_loop / GB,
                "GB/s",
            );
            self.metrics.push(
                format!("datatype.pack_vs_loop.{label}"),
                t_loop / t_ff,
                "ratio",
            );
            let t_un = self.per_call(|| {
                let mut source = SliceSource::new(black_box(&hand));
                let _ = black_box(unpack_ff(
                    &c,
                    1,
                    &mut scattered,
                    0,
                    0,
                    usize::MAX,
                    &mut source,
                ));
                black_box(&scattered);
            });
            self.metrics.push(
                format!("datatype.unpack_ff_gbps.{label}"),
                PAYLOAD as f64 / t_un / GB,
                "GB/s",
            );
            if label == "b128" {
                let t_pack = self.per_call(|| {
                    let mut position = 0;
                    let _ = black_box(c.pack(black_box(&src), 0, 1, &mut packed, &mut position));
                    black_box(&packed);
                });
                self.metrics.push(
                    "datatype.mpi_pack_gbps.b128",
                    PAYLOAD as f64 / t_pack / GB,
                    "GB/s",
                );
            }
        }

        // Resume lookups at seeded stream offsets of the irregular type.
        let irregular = Committed::commit(&layouts[3].datatype);
        let mut rng = SplitMix64::new(self.seed).fork(11);
        let skips: Vec<usize> = (0..256)
            .map(|_| rng.next_below(PAYLOAD as u64) as usize)
            .collect();
        if skips
            .iter()
            .any(|&s| irregular.find_position(s, 1).is_none())
        {
            return false;
        }
        let t = self.per_call(|| {
            for &s in &skips {
                black_box(irregular.find_position(black_box(s), 1));
            }
        });
        self.metrics.push(
            "datatype.find_position_us",
            t / skips.len() as f64 * 1e6,
            "us",
        );

        let b128 = &layouts[1].datatype;
        let t = self.per_call(|| {
            black_box(Committed::commit(black_box(b128)));
        });
        self.metrics.push("datatype.commit_hit_us", t * 1e6, "us");
        // Cold commits need types the layout cache has never seen: the
        // b128 family with block counts no other probe, workload or
        // earlier call in this process has used. Each batch commits its
        // own fresh types once.
        static NEXT_FRESH: AtomicUsize = AtomicUsize::new(1 << 16);
        let mut hit = false;
        let cold: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let fresh: Vec<Datatype> = (0..256)
                    .map(|_| {
                        Datatype::vector(
                            NEXT_FRESH.fetch_add(1, Ordering::Relaxed),
                            16,
                            32,
                            &Datatype::double(),
                        )
                    })
                    .collect();
                let t = Instant::now();
                for dt in &fresh {
                    hit |= black_box(Committed::commit(dt)).cache_hit();
                }
                t.elapsed().as_secs_f64() / fresh.len() as f64
            })
            .collect();
        let cold = typical(&cold);
        self.metrics
            .push("datatype.commit_cold_us", cold * 1e6, "us");
        !hit
    }

    // -----------------------------------------------------------------
    // sci-fabric
    // -----------------------------------------------------------------

    fn two_nodes() -> Arc<Fabric> {
        Fabric::new(FabricSpec {
            topology: Topology::ringlet(2),
            ..FabricSpec::default()
        })
    }

    fn fabric(&mut self) -> bool {
        const SEG: usize = 1 << 20;
        let fabric = Self::two_nodes();
        let seg = fabric.export(NodeId(1), SEG);
        let data = inputs::bytes(self.seed, 20, 64 * 1024);
        let mut clock = Clock::new();
        let mut ok = true;

        // Sequential stores, as a packed stream produces them.
        let mut stream = fabric.pio_stream(NodeId(0), &seg, PAYLOAD);
        for (label, len) in [
            ("b8", 8usize),
            ("b128", 128),
            ("b64k", 64 * 1024),
            ("tx", 64),
        ] {
            let mut at = 0;
            let t = self.per_call(|| {
                if at + len > SEG {
                    at = 0;
                }
                ok &= stream
                    .write(&mut clock, at, black_box(&data[..len]))
                    .is_ok();
                at += len;
            });
            if label == "tx" {
                self.metrics.push("sci-fabric.pio_tx_per_s", 1.0 / t, "1/s");
            } else {
                self.metrics.push(
                    format!("sci-fabric.pio_write_calls_per_s.{label}"),
                    1.0 / t,
                    "1/s",
                );
            }
        }
        let mut at = 0;
        let t = self.per_call(|| {
            if at + 8 > SEG {
                at = 0;
            }
            ok &= stream
                .write_batched(&mut clock, at, black_box(&data[..8]))
                .is_ok();
            at += 8;
        });
        ok &= stream.flush_wc(&mut clock).is_ok();
        self.metrics.push(
            "sci-fabric.pio_write_batched_calls_per_s.b8",
            1.0 / t,
            "1/s",
        );

        let t = self.per_call(|| {
            ok &= stream.write(&mut clock, 0, black_box(&data[..64])).is_ok();
            black_box(stream.barrier(&mut clock));
        });
        self.metrics.push("sci-fabric.barrier_us", t * 1e6, "us");
        let mut back = vec![0u8; 64];
        ok &= seg.mem().read(0, &mut back).is_ok() && back == data[..64];

        let reader = fabric.pio_reader(NodeId(0), &seg);
        let mut dst = vec![0u8; 64 * 1024];
        for (label, len) in [("b8", 8usize), ("b64k", 64 * 1024)] {
            let mut at = 0;
            let t = self.per_call(|| {
                if at + len > SEG {
                    at = 0;
                }
                ok &= reader.read(&mut clock, at, &mut dst[..len]).is_ok();
                black_box(&dst);
                at += len;
            });
            self.metrics.push(
                format!("sci-fabric.pio_read_calls_per_s.{label}"),
                1.0 / t,
                "1/s",
            );
        }

        let dma = fabric.dma_engine(NodeId(0), &seg);
        let t = self.per_call(|| {
            ok &= black_box(dma.write(&mut clock, 0, black_box(&data))).is_ok();
        });
        self.metrics.push(
            "sci-fabric.dma_write_gbps.b64k",
            data.len() as f64 / t / GB,
            "GB/s",
        );
        ok &= seg.mem().read(0, &mut dst).is_ok() && dst == data;

        let t = self.per_call(|| {
            black_box(fabric.pio_stream(NodeId(0), &seg, PAYLOAD));
        });
        self.metrics
            .push("sci-fabric.stream_open_us", t * 1e6, "us");
        black_box(clock.now());
        ok
    }

    // -----------------------------------------------------------------
    // core: pack_ff into a PioSink, no protocol around it
    // -----------------------------------------------------------------

    fn core_sink(&mut self) -> bool {
        let fabric = Self::two_nodes();
        let seg = fabric.export(NodeId(1), PAYLOAD);
        let mut clock = Clock::new();
        let mut stream = fabric.pio_stream(NodeId(0), &seg, PAYLOAD);
        let mut ok = true;
        for block in [8usize, 128] {
            let layout = Layout::vector(block, PAYLOAD);
            let src = inputs::bytes(self.seed, 30, layout.extent);
            let c = Committed::commit(&layout.datatype);
            let t = self.per_call(|| {
                // Write-combining batching on, as the default tuning has it.
                let mut sink = PioSink::new(&mut stream, &mut clock, 0).with_batching(true);
                ok &=
                    black_box(pack_ff(&c, 1, black_box(&src), 0, 0, usize::MAX, &mut sink)).is_ok();
                ok &= sink.finish().is_ok();
            });
            stream.barrier(&mut clock);
            let mut hand = vec![0u8; PAYLOAD];
            layout.hand_pack(&src, &mut hand);
            ok &= seg.mem().snapshot() == hand;
            self.metrics.push(
                format!("core.sink_ff_gbps.{}", layout.label),
                PAYLOAD as f64 / t / GB,
                "GB/s",
            );
        }
        ok
    }

    // -----------------------------------------------------------------
    // sched: the Scheduler API directly, no runtime
    // -----------------------------------------------------------------

    /// Run `bodies` as root tasks of one scheduler, each on its own
    /// thread. Returns `(launch seconds, run seconds, events)`, or `None`
    /// if a task thread could not be created.
    fn run_tasks(bodies: Vec<TaskBody>) -> Option<(f64, f64, u64)> {
        let n = bodies.len();
        let called = Instant::now();
        let scheduler = sched::Scheduler::new(n);
        let handles: Vec<sched::Handle> = (0..n).map(|i| scheduler.create_root(i as u32)).collect();
        let spans = Mutex::new(Vec::with_capacity(n));
        let mut spawned_all = true;
        std::thread::scope(|scope| {
            for (i, body) in bodies.into_iter().enumerate() {
                let (handles, spans) = (&handles, &spans);
                let spawned = std::thread::Builder::new()
                    .stack_size(TASK_STACK)
                    .spawn_scoped(scope, move || {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handles[i].adopt();
                            let entered = Instant::now();
                            body(handles, i);
                            spans
                                .lock()
                                .expect("span list")
                                .push((entered, Instant::now()));
                        }));
                        if let Err(p) = r {
                            sched::abort_current(p);
                        }
                        sched::retire();
                    });
                if spawned.is_err() {
                    // The tasks already adopted wait for a gate that
                    // will never open: abort them so the scope can end.
                    scheduler.abort_with(Box::new(sched::Aborted));
                    spawned_all = false;
                    break;
                }
            }
        });
        let spans = spans.into_inner().expect("span list");
        if !spawned_all || spans.len() != n || scheduler.take_panic().is_some() {
            return None;
        }
        let first = spans.iter().map(|s| s.0).min()?;
        let last = spans.iter().map(|s| s.1).max()?;
        Some((
            (first - called).as_secs_f64(),
            (last - first).as_secs_f64(),
            scheduler.stats().events,
        ))
    }

    /// Two tasks handing the run token back and forth: each wakes the
    /// other, then parks.
    fn handoff_pair(rounds: usize) -> Option<f64> {
        let done = Arc::new(AtomicBool::new(false));
        let parks = Arc::new(AtomicUsize::new(0));
        let (d0, d1, p0, p1) = (
            Arc::clone(&done),
            Arc::clone(&done),
            Arc::clone(&parks),
            Arc::clone(&parks),
        );
        let (_, run, _) = Self::run_tasks(vec![
            Box::new(move |h, _| {
                let mut t = SimTime::ZERO;
                for _ in 0..rounds {
                    t += SimDuration::from_ns(10);
                    h[1].unpark();
                    sched::park(t);
                }
                p0.fetch_add(rounds, Ordering::Relaxed);
                d0.store(true, Ordering::SeqCst);
                h[1].unpark();
            }),
            Box::new(move |h, _| {
                let mut t = SimTime::ZERO;
                let mut mine = 0;
                while !d1.load(Ordering::SeqCst) {
                    t += SimDuration::from_ns(10);
                    h[0].unpark();
                    sched::park(t);
                    mine += 1;
                }
                p1.fetch_add(mine, Ordering::Relaxed);
            }),
        ])?;
        Some(run / parks.load(Ordering::Relaxed) as f64)
    }

    /// `n` tasks meeting `rounds` times at a wait-queue barrier, the way
    /// the runtime's barriers and collectives park: all but the last
    /// arrival park, the last wakes them all.
    fn handoff_many(n: usize, rounds: usize) -> Option<(f64, f64, u64)> {
        let arrived = Arc::new(Mutex::new(0usize));
        let queue = Arc::new(sched::WaitQueue::new());
        let bodies = (0..n)
            .map(|_| {
                let (arrived, queue) = (Arc::clone(&arrived), Arc::clone(&queue));
                Box::new(move |_: &[sched::Handle], _: usize| {
                    let mut t = SimTime::ZERO;
                    for round in 1..=rounds {
                        t += SimDuration::from_ns(10);
                        let full = n * round;
                        let now = {
                            let mut a = arrived.lock().expect("arrival count");
                            *a += 1;
                            *a
                        };
                        if now == full {
                            queue.wake_all();
                            continue;
                        }
                        loop {
                            queue.register_current();
                            if *arrived.lock().expect("arrival count") >= full {
                                break;
                            }
                            sched::park(t);
                        }
                    }
                }) as TaskBody
            })
            .collect();
        Self::run_tasks(bodies)
    }

    /// One root task spawning and joining `count` dynamic tasks, one at a
    /// time — what a nonblocking request costs the scheduler.
    fn spawn_join(count: usize) -> Option<f64> {
        let (_, run, _) = Self::run_tasks(vec![Box::new(move |_, _| {
            let mut t = SimTime::ZERO;
            for _ in 0..count {
                t += SimDuration::from_ns(10);
                let Some(child) = sched::spawn_handle(0, t) else {
                    return;
                };
                let theirs = child.clone();
                let spawned = std::thread::Builder::new().spawn(move || {
                    theirs.adopt();
                    sched::retire();
                });
                let Ok(thread) = spawned else {
                    // Nobody will adopt the child: end the run instead
                    // of waiting for it.
                    sched::abort_current(Box::new("task thread not created"));
                    return;
                };
                sched::join_task(&child);
                let _ = thread.join();
            }
        })])?;
        Some(run / count as f64)
    }

    fn sched(&mut self, cpus: &crate::host::Pinning) -> bool {
        let n = self.tasks;
        let size = format!("t{n}");
        let batch = self.batch.as_secs_f64();
        // Size the rounds from a short calibration run, then take the
        // typical of three.
        let Some(cal) = Self::handoff_pair(200) else {
            return false;
        };
        let rounds = ((batch * 2.0 / cal) as usize).clamp(50, 200_000);
        let pair: Option<Vec<f64>> = (0..3).map(|_| Self::handoff_pair(rounds)).collect();
        let Some(pair) = pair else { return false };
        self.metrics
            .push("sched.handoff_us.t2", typical(&pair) * 1e6, "us");
        // The same handoff with the two tasks free to sit on different
        // CPUs: what an unpinned run pays, and why the benchmark pins.
        let apart: Option<Vec<f64>> =
            cpus.unpinned(|| (0..3).map(|_| Self::handoff_pair(rounds / 4 + 1)).collect());
        let Some(apart) = apart else { return false };
        self.metrics
            .push("sched.handoff_unpinned_us.t2", typical(&apart) * 1e6, "us");

        let Some(cal) = Self::spawn_join(20) else {
            return false;
        };
        let count = ((batch * 2.0 / cal) as usize).clamp(10, 20_000);
        let sj: Option<Vec<f64>> = (0..3).map(|_| Self::spawn_join(count)).collect();
        let Some(sj) = sj else { return false };
        self.metrics
            .push("sched.spawn_join_us", typical(&sj) * 1e6, "us");

        // The many-task probe: if its threads cannot be created the
        // numbers are refused, not skipped.
        let rounds = 4;
        let runs: Option<Vec<(f64, f64, u64)>> =
            (0..3).map(|_| Self::handoff_many(n, rounds)).collect();
        let Some(runs) = runs else { return false };
        let launch = typical(&runs.iter().map(|r| r.0).collect::<Vec<f64>>());
        let run = typical(&runs.iter().map(|r| r.1).collect::<Vec<f64>>());
        let events = runs[0].2;
        if runs.iter().any(|r| r.2 != events) {
            return false;
        }
        self.metrics.push(
            format!("sched.root_launch_us_per_task.{size}"),
            launch / n as f64 * 1e6,
            "us",
        );
        self.metrics.push(
            format!("sched.handoff_us.{size}"),
            run / (n * rounds) as f64 * 1e6,
            "us",
        );
        self.metrics.push(
            format!("sched.events_per_s.{size}"),
            events as f64 / run,
            "1/s",
        );
        true
    }

    // -----------------------------------------------------------------
    // smi / simclock
    // -----------------------------------------------------------------

    fn smi(&mut self) -> bool {
        let world = SmiWorld::one_per_node(Self::two_nodes());
        let mut clock = Clock::new();
        let mut ok = true;

        let lock = SmiLock::new(Arc::clone(&world), ProcId(1));
        let t = self.per_call(|| {
            let guard = lock.acquire(&mut clock, ProcId(0));
            guard.release(&mut clock);
        });
        self.metrics.push("smi.lock_pairs_per_s", 1.0 / t, "1/s");

        const LEN: usize = 1 << 20;
        let region = world.create_region(ProcId(1), LEN);
        let handle = region.map(ProcId(0));
        let data = inputs::bytes(self.seed, 40, 64);
        let mut at = 0;
        let t = self.per_call(|| {
            if at + 64 > LEN {
                at = 0;
            }
            ok &= handle
                .write(&mut clock, at, black_box(&data), TransferMode::Pio)
                .is_ok();
            at += 64;
        });
        self.metrics
            .push("smi.region_write_calls_per_s.b64", 1.0 / t, "1/s");
        let mut back = vec![0u8; 64];
        ok &= handle
            .read(&mut clock, 0, &mut back, TransferMode::Pio)
            .is_ok()
            && back == data;

        let mut pool = ShregAllocator::new(8 << 20);
        let t = self.per_call(|| match pool.alloc(black_box(4096)) {
            Ok(offset) => ok &= pool.free(offset).is_ok(),
            Err(_) => ok = false,
        });
        self.metrics
            .push("smi.alloc_free_pairs_per_s", 1.0 / t, "1/s");
        ok && pool.used() == 0
    }

    fn simclock(&mut self) -> bool {
        let mut clock = Clock::new();
        let step = SimDuration::from_ns(30);
        let t = self.per_call(|| {
            let now = clock.advance(black_box(step));
            black_box(clock.merge(now + step));
        });
        self.metrics
            .push("simclock.clock_ops_per_s", 2.0 / t, "1/s");
        clock.now() > SimTime::ZERO
    }
}
