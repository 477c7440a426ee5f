//! The two runs of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! metrics.

use crate::layers::{self, iqr_share, median, typical};
use crate::probes::Probes;
use crate::report::{Metrics, RunResult};
use crate::trace::{Span, Trace};
use crate::workloads::{self, RepMode, RepOut, Workload};
use crate::{host, Options};
use scimpi::Backend;
use std::time::{Duration, Instant};

/// Timed set-up passes per run, after the cold one; `setup_s` is typical
/// of them.
const SETUPS: usize = 7;
/// Fewest timed repetitions, however long one takes.
const MIN_REPS: usize = 3;

/// Timed repetitions of one prepared workload.
struct Timed {
    /// The program's seconds per repetition (`RepOut::secs`).
    secs: Vec<f64>,
    /// Wall seconds per repetition, verification included.
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    last: RepOut,
}

/// One warm-up repetition, then timed repetitions until `budget` is
/// spent (at least `MIN_REPS`). A repetition whose virtual finish time
/// differs from `reference` (the warm-up's, if none is given) fails all
/// its operations.
fn repeat(
    w: &dyn Workload,
    mode: &RepMode,
    budget: Duration,
    reference: Option<u64>,
) -> (RepOut, Timed) {
    let warm = w.rep(mode);
    let reference = reference.unwrap_or(warm.sim_ps);
    let mut t = Timed {
        secs: Vec::new(),
        walls: Vec::new(),
        attempted: warm.attempted,
        failed: warm.failed + if warm.sim_ps == reference { 0 } else { w.ops() },
        cpu_s: 0.0,
        last: RepOut::default(),
    };
    let (started, cpu0) = (Instant::now(), host::cpu_seconds());
    while t.secs.len() < MIN_REPS || started.elapsed() < budget {
        let out = w.rep(mode);
        t.secs.push(out.secs());
        t.walls.push(out.wall.as_secs_f64());
        t.attempted += out.attempted;
        t.failed += out.failed;
        if out.sim_ps != reference {
            t.failed += w.ops();
        }
        t.last = out;
    }
    if let (Some(a), Some(b)) = (cpu0, host::cpu_seconds()) {
        t.cpu_s = (b - a) / t.secs.len() as f64;
    }
    (warm, t)
}

fn exact_metrics(
    w: &dyn Workload,
    out: &RepOut,
    attempted: u64,
    failed: u64,
    metrics: &mut Metrics,
) {
    metrics.push("sim_us", out.sim_ps as f64 / 1e6, "us_virtual");
    let dev = w.paper_anchor(out).map_or(0.0, |(_, model, paper)| {
        (model - paper).abs() / paper * 100.0
    });
    metrics.push("paper_dev_pct", dev, "%");
    metrics.push(
        "fail_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
}

/// A value that is not a number cannot be reported: each costs the run
/// a failed operation.
fn refuse_non_finite(metrics: &Metrics, failed: &mut u64) {
    for name in metrics.non_finite() {
        eprintln!("hostbench: metric {name} is not a number");
        *failed += 1;
    }
}

/// `--trace 0`: one cold set-up, `SETUPS` timed ones, then repetitions
/// for `--seconds`.
pub fn untraced(name: &str, opt: &Options) -> Option<RunResult> {
    let mode = RepMode::untraced();
    workloads::preflight(name, opt.scale);
    // Set-up: inputs, commits, and one full untimed repetition including
    // the cluster launch.
    let set_up = || {
        let t = Instant::now();
        let w = workloads::prepare(name, opt.seed, opt.scale, &opt.out_dir)?;
        let warm = w.rep(&mode);
        Some((t.elapsed().as_secs_f64(), w, warm))
    };
    // The first pass also pays the process's cold start — page faults,
    // lazy statics, the first thread — which a user pays once and a
    // median of passes would hide anyway; it is printed, not reported.
    let (cold, mut w, first) = set_up()?;
    let (mut attempted, mut failed) = (first.attempted, first.failed);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (secs, again, warm) = set_up()?;
        setups.push(secs);
        attempted += warm.attempted;
        failed += warm.failed;
        if warm.sim_ps != first.sim_ps {
            failed += again.ops();
        }
        w = again;
    }
    let (_, timed) = repeat(
        w.as_ref(),
        &mode,
        Duration::from_secs_f64(opt.seconds),
        Some(first.sim_ps),
    );
    attempted += timed.attempted;
    failed += timed.failed;

    let mut metrics = Metrics::default();
    metrics.push(
        "ops_per_host_s",
        w.ops() as f64 / typical(&timed.secs),
        "ops/s",
    );
    metrics.push("setup_s", typical(&setups), "s");
    let rss = host::peak_rss_mib();
    if rss.is_none() {
        eprintln!("hostbench: VmHWM of this process could not be read");
        failed += 1;
    }
    metrics.push("peak_rss_mib", rss.unwrap_or(0.0), "MiB");
    refuse_non_finite(&metrics, &mut failed);

    let mut detail = Metrics::default();
    exact_metrics(w.as_ref(), &timed.last, attempted, failed, &mut detail);
    // Each timing's own spread, for `hostbench compare`.
    detail.push("spread.ops_per_host_s", iqr_share(&timed.secs), "ratio");
    detail.push("spread.setup_s", iqr_share(&setups), "ratio");
    detail.push("setup_cold_s", cold, "s");

    let mut sorted = timed.secs.clone();
    sorted.sort_by(f64::total_cmp);
    println!("workload {name}: {}", workloads::why(name));
    println!(
        "  {} {} per repetition; {} timed repetitions: lower quartile {:.4} s, median {:.4} s, min {:.4} s, max {:.4} s, of which verifying {:.4} s; {} set-ups after the cold one",
        w.ops(),
        w.op_unit(),
        sorted.len(),
        typical(&sorted),
        median(&sorted),
        sorted[0],
        sorted[sorted.len() - 1],
        median(&timed.walls) - median(&sorted),
        setups.len()
    );
    let series = |v: &[f64]| {
        let s: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        s.join(" ")
    };
    println!("  repetition seconds: {}", series(&timed.secs));
    println!("  set-up seconds: {}", series(&setups));
    if let Some((what, model, paper)) = w.paper_anchor(&timed.last) {
        println!("  paper anchor: {what}: model {model:.4} vs paper {paper}");
    }
    print!("{}{}", metrics.table(), detail.table());
    Some(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// What a traced run learns about one program.
struct Program {
    /// Typical untraced repetition under `Backend::Event`, program
    /// seconds.
    event_secs: f64,
    /// The same in wall seconds.
    event_wall: f64,
    /// The warm-up repetition.
    warm: RepOut,
    /// Typical traced repetition, program seconds.
    traced_secs: f64,
    /// Wall time and spans of the last traced repetition.
    traced_wall: Duration,
    trace: Trace,
}

/// Warm up, time untraced repetitions for `budget`, then record
/// `traced_reps` traced ones.
fn measure(
    w: &dyn Workload,
    epoch: Instant,
    budget: Duration,
    traced_reps: u32,
    tally: &mut (u64, u64),
) -> (Program, Timed) {
    let (warm, timed) = repeat(w, &RepMode::untraced(), budget, None);
    tally.0 += timed.attempted;
    tally.1 += timed.failed;
    let mut p = Program {
        event_secs: typical(&timed.secs),
        event_wall: typical(&timed.walls),
        warm,
        traced_secs: 0.0,
        traced_wall: Duration::ZERO,
        trace: Trace::default(),
    };
    let mut secs = Vec::new();
    for rep in 1..=traced_reps {
        let out = w.rep(&RepMode {
            backend: Backend::Event,
            trace: Some((epoch, rep)),
        });
        secs.push(out.secs());
        tally.0 += out.attempted;
        tally.1 += out.failed
            + if out.sim_ps == p.warm.sim_ps {
                0
            } else {
                w.ops()
            };
        p.traced_wall = out.wall;
        p.trace = Trace { spans: out.spans };
    }
    p.traced_secs = typical(&secs);
    (p, timed)
}

/// `--trace 1`: the workload's own untraced and traced repetitions, the
/// comparisons only it can make (default backend, recorder on or off),
/// and the direct layer probes.
pub fn traced(name: &str, opt: &Options, cpus: &host::Pinning) -> Option<RunResult> {
    let epoch = Instant::now();
    let ranks = workloads::ring_ranks(opt.scale);
    workloads::preflight(name, opt.scale);
    let mut tally = (0u64, 0u64);
    let prepare = |program: &str| workloads::prepare(program, opt.seed, opt.scale, &opt.out_dir);

    let w = prepare(name)?;
    let traced_reps = if name == "scale_ring" { 1 } else { 3 };
    let (own, timed) = measure(
        w.as_ref(),
        epoch,
        Duration::from_secs_f64(opt.seconds / 2.0),
        traced_reps,
        &mut tally,
    );
    let mut trace = own.trace;
    let mut pool = Metrics::default();
    layers::rep_shares(&trace, own.traced_wall.as_nanos() as u64, &mut pool);
    pool.push("host.cpu_s", timed.cpu_s, "s");
    pool.push("host.iqr_share", iqr_share(&timed.secs), "ratio");
    pool.push(
        "trace.overhead_share",
        own.traced_secs / own.event_secs - 1.0,
        "ratio",
    );

    // What only this workload measures.
    let mut detail = Metrics::default();
    layers::verb_metrics(name, &trace, ranks, &mut detail);
    for (k, v) in own
        .warm
        .model
        .iter()
        .filter(|(k, _)| k.starts_with("model."))
    {
        let unit = if k.ends_with("mibps") {
            "MiB/s"
        } else {
            "ratio"
        };
        detail.push(k.clone(), *v, unit);
    }
    let arm = Duration::from_secs_f64(opt.seconds / 4.0);
    if ["noncontig", "sparse_osc", "pingpong"].contains(&name) {
        let default = RepMode {
            backend: Backend::default(),
            trace: None,
        };
        // Each backend as it runs best: the default backend's
        // free-running rank threads get every CPU, the event backend's
        // one-at-a-time tasks stay on one. Wall against wall: ranks that
        // run side by side also verify side by side.
        let (_, free) = cpus.unpinned(|| repeat(w.as_ref(), &default, arm, None));
        tally.0 += free.attempted;
        tally.1 += free.failed;
        detail.push(
            format!("core.default_vs_event_host_ratio.{name}"),
            typical(&free.walls) / own.event_wall,
            "ratio",
        );
    }
    if name == "noncontig" {
        let on = prepare("noncontig_obs")?;
        let (_, on) = repeat(on.as_ref(), &RepMode::untraced(), arm, None);
        tally.0 += on.attempted;
        tally.1 += on.failed;
        detail.push(
            "obs.on_off_host_ratio.noncontig",
            typical(&on.secs) / own.event_secs,
            "ratio",
        );
    }
    if name == "pingpong_obs" {
        let off = prepare("pingpong")?;
        let (off, _) = measure(off.as_ref(), epoch, arm, 1, &mut tally);
        detail.push(
            "obs.on_off_host_ratio.pingpong",
            own.event_secs / off.event_secs,
            "ratio",
        );
        // What the recorder adds after the ranks have finished: building
        // the profile and writing it.
        let teardown_ms = |t: &Trace| t.named("core.teardown").map(Span::secs).sum::<f64>() * 1e3;
        detail.push(
            "obs.profile_export_ms",
            teardown_ms(&trace) - teardown_ms(&off.trace),
            "ms",
        );
    }

    let mut probes = Probes::new(opt.seed, opt.scale, ranks, epoch);
    probes.run_all(cpus);
    let (probe_metrics, probe_attempted, probe_failed) = probes.finish(&mut trace);
    let (attempted, mut failed) = (tally.0 + probe_attempted, tally.1 + probe_failed);
    pool.extend(probe_metrics);
    refuse_non_finite(&pool, &mut failed);
    refuse_non_finite(&detail, &mut failed);

    // Assemble in table order; a metric that is missing or extra breaks
    // the contract with BENCHMARK.json and fails the run.
    exact_metrics(w.as_ref(), &own.warm, attempted, failed, &mut pool);
    let mut metrics = Metrics::default();
    let wanted = layers::per_layer_names(ranks);
    for n in &wanted {
        match pool.0.iter().find(|m| &m.name == n) {
            Some(m) => metrics.push(m.name.clone(), m.value, &m.unit),
            None => {
                eprintln!("hostbench: per-layer metric {n} was not measured");
                failed += 1;
            }
        }
    }
    for m in pool.0.iter().filter(|m| !wanted.contains(&m.name)) {
        eprintln!("hostbench: metric {} is not in the per-layer list", m.name);
        failed += 1;
    }

    let path = opt.out_dir.join(format!("trace_{name}.json"));
    if let Err(e) = std::fs::write(&path, trace.to_json(name)) {
        eprintln!("hostbench: trace {} not written: {e}", path.display());
    }
    println!(
        "workload {name}, per-layer metrics ({} spans in {}):",
        trace.spans.len(),
        path.display()
    );
    print!("{}", metrics.table());
    if !detail.0.is_empty() {
        println!("workload {name}, what only this workload measures:");
        print!("{}", detail.table());
    }
    Some(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}
