//! `hostbench` — host-time benchmark of the SCI-MPICH reproduction.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hostbench all [--seed <n>] [--seconds <s>] [--out <file>] [--commit <hash>]
//! hostbench compare <a.json> <b.json>
//! hostbench --smoke [--seed <n>] [--workload <name> --trace <0|1>]
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, a table on standard output, and the result object as its
//! last line. See `benchmark/README.md`.

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use report::{Metrics, RunResult};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The issue's default seed (the paper's conference date).
const DEFAULT_SEED: u64 = 20020415;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Size divisor: 1 = full size, 20 = `--smoke`.
    pub scale: usize,
    pub out_dir: PathBuf,
}

struct Cli {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            positional: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        let mut args = args.skip(1);
        while let Some(a) = args.next() {
            if a == "--smoke" {
                cli.smoke = true;
            } else if let Some(key) = a.strip_prefix("--") {
                let value = args.next().ok_or(format!("--{key} needs a value"))?;
                cli.flags.push((key.to_string(), value));
            } else {
                cli.positional.push(a);
            }
        }
        Ok(cli)
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flag(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
            None => Ok(default),
        }
    }

    /// `--smoke` is 1/20 size and the fewest repetitions.
    fn options(&self) -> Result<Options, String> {
        let seconds: f64 = self.number("seconds", 10.0)?;
        if !(0.0..=600.0).contains(&seconds) {
            return Err(format!("--seconds {seconds}: out of range"));
        }
        Ok(Options {
            seed: self.number("seed", DEFAULT_SEED)?,
            seconds: if self.smoke { 0.0 } else { seconds },
            scale: if self.smoke { 20 } else { 1 },
            out_dir: PathBuf::from(self.flag("out-dir").unwrap_or("benchmark/out")),
        })
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <{}> [--seed n] [--seconds s] [--trace 0|1]",
                workloads::NAMES.join("|")
            );
            eprintln!("       hostbench all [--seed n] [--seconds s] [--out file] [--commit hash]");
            eprintln!("       hostbench compare <a.json> <b.json>");
            eprintln!("       hostbench --smoke [--seed n] [--workload name --trace 0|1]");
            ExitCode::from(2)
        }
    }
}

fn dispatch() -> Result<ExitCode, String> {
    let cli = Cli::parse(std::env::args())?;
    if cli.smoke && cli.positional.is_empty() && cli.flag("workload").is_none() {
        return smoke(cli.options()?);
    }
    match cli.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = cli.positional.as_slice() else {
                return Err("compare needs two result files".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let code = compare::run(&read(a)?, &read(b)?)?;
            Ok(ExitCode::from(code as u8))
        }
        Some("all") => all(&cli),
        Some(other) => Err(format!("unknown command {other}")),
        None => {
            let name = cli.flag("workload").ok_or("no --workload given")?;
            if !workloads::NAMES.contains(&name) {
                return Err(format!("unknown workload {name}"));
            }
            let opt = cli.options()?;
            let traced = match cli.flag("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            prepare_out_dir(&opt)?;
            host::one_malloc_arena();
            let cpus = host::Pinning::pin();
            let result = if traced {
                run::traced(name, &opt, &cpus)
            } else {
                run::untraced(name, &opt)
            }
            .ok_or("workload could not be prepared")?;
            println!("{}", result.to_lines());
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// The runtime reports a profile it cannot write on standard error and
/// carries on, so a missing directory would quietly take the export out
/// of `pingpong_obs`.
fn prepare_out_dir(opt: &Options) -> Result<(), String> {
    std::fs::create_dir_all(&opt.out_dir).map_err(|e| format!("{}: {e}", opt.out_dir.display()))
}

/// Every workload, each in a fresh child process (so `peak_rss_mib` is
/// per workload), untraced then traced; every metric is printed by name
/// with its unit, and the result set is written to `--out`. Every traced
/// child measures the workload-independent probe table; the result set
/// keeps it once, each probe as the median of the children's readings.
fn all(cli: &Cli) -> Result<ExitCode, String> {
    let opt = cli.options()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut tables: Vec<Metrics> = Vec::new();
    let mut clean = true;
    for name in workloads::NAMES {
        let mut parts = Vec::new();
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &opt.seed.to_string()])
                .args(["--seconds", &opt.seconds.to_string()])
                .arg("--out-dir")
                .arg(&opt.out_dir)
                .stderr(Stdio::inherit());
            if cli.smoke {
                child.arg("--smoke");
            }
            let output = child
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&output.stdout).into_owned();
            print!("{text}");
            let result = RunResult::from_output(&text)
                .ok_or(format!("{name} --trace {trace}: no result line"))?;
            clean &= output.status.success() && result.correct;
            parts.push(result);
        }
        let (mut own, mut table) = (Metrics::default(), Metrics::default());
        for m in std::mem::take(&mut parts[1].metrics).0 {
            let to = if layers::OWN.contains(&m.name.as_str()) {
                &mut own
            } else {
                &mut table
            };
            to.push(m.name, m.value, &m.unit);
        }
        parts[1].metrics = own;
        tables.push(table);
        entries.push(format!(
            "\"{name}\": {{\"untraced\": {},\n \"traced\": {}}}",
            parts[0].to_entry(),
            parts[1].to_entry()
        ));
    }
    let mut table = Metrics::default();
    for m in &tables[0].0 {
        let readings: Vec<f64> = tables.iter().filter_map(|t| t.get(&m.name)).collect();
        table.push(m.name.clone(), layers::median(&readings), &m.unit);
    }
    let set = format!(
        "{{\"schema\": \"hostbench-results-v2\", \"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"seed\": {}, \"seconds\": {},\n\"layers\": {},\n\"workloads\": {{\n{}\n}}}}\n",
        json::quote(cli.flag("commit").unwrap_or("unknown")),
        host::nproc(),
        json::quote(&host::cpu_model()),
        opt.seed,
        opt.seconds,
        table.to_json(),
        entries.join(",\n")
    );
    let out = cli
        .flag("out")
        .map_or_else(|| opt.out_dir.join("results.json"), PathBuf::from);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload and probe at 1/20 size, asserting only correctness.
fn smoke(opt: Options) -> Result<ExitCode, String> {
    prepare_out_dir(&opt)?;
    host::one_malloc_arena();
    let cpus = host::Pinning::pin();
    let mut problems = Vec::new();
    for name in workloads::NAMES {
        // Two equal-seed runs: same virtual time, no failed operation.
        let runs = [run::untraced(name, &opt), run::untraced(name, &opt)];
        let [Some(a), Some(b)] = runs else {
            return Err(format!("{name}: could not be prepared"));
        };
        if !(a.correct && b.correct) {
            problems.push(format!(
                "{name}: {} + {} failed operations",
                a.failed, b.failed
            ));
        }
        if a.detail.get("sim_us") != b.detail.get("sim_us") || a.detail.get("sim_us").is_none() {
            problems.push(format!("{name}: sim_us differs between equal-seed runs"));
        }
        let t = run::traced(name, &opt, &cpus).ok_or(format!("{name}: could not be prepared"))?;
        if !t.correct {
            problems.push(format!("{name}: traced run had {} failures", t.failed));
        }
        if t.metrics.get("sim_us") != a.detail.get("sim_us") {
            problems.push(format!(
                "{name}: sim_us differs between the traced and the untraced run"
            ));
        }
    }
    for p in &problems {
        eprintln!("hostbench smoke: {p}");
    }
    println!(
        "smoke: {}",
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
