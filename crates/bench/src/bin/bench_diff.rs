//! Bench-regression gate: compare freshly produced `BENCH_*.json` /
//! `PROFILE_*.json` documents against the committed baselines under
//! `bench/baselines/`.
//!
//! Every `*.json` file in the baselines directory is expected to exist,
//! with the same name, in the current directory — the bench binaries
//! write their documents to the working directory, so CI runs the smoke
//! benches first and this gate second. The comparison is exact: a number
//! that differs, a missing series, a new field or a type change fails.
//!
//! ```text
//! bench_diff [--baselines DIR] [--current DIR] [NAME...]
//! ```
//!
//! With `NAME` arguments only those baseline files are checked (`NAME`
//! may be `overlap_halo` or `BENCH_overlap_halo.json`). Exit status is
//! non-zero when any value differs, a document is missing, or a file
//! fails to parse.

use repro_bench::diff::{self, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    baselines: PathBuf,
    current: PathBuf,
    names: Vec<String>,
}

fn usage() -> ! {
    eprintln!("usage: bench_diff [--baselines DIR] [--current DIR] [NAME...]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        baselines: PathBuf::from("bench/baselines"),
        current: PathBuf::from("."),
        names: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baselines" => args.baselines = it.next().unwrap_or_else(|| usage()).into(),
            "--current" => args.current = it.next().unwrap_or_else(|| usage()).into(),
            "--help" | "-h" => usage(),
            _ => args.names.push(a),
        }
    }
    args
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    diff::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Resolve which baseline files to check: explicit names, or every
/// `*.json` in the baselines directory.
fn baseline_files(args: &Args) -> Result<Vec<PathBuf>, String> {
    if !args.names.is_empty() {
        return Ok(args
            .names
            .iter()
            .map(|n| {
                let file = if n.ends_with(".json") {
                    n.clone()
                } else {
                    format!("BENCH_{n}.json")
                };
                args.baselines.join(file)
            })
            .collect());
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(&args.baselines)
        .map_err(|e| format!("{}: {e}", args.baselines.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no baseline documents under {}",
            args.baselines.display()
        ));
    }
    Ok(files)
}

fn main() -> ExitCode {
    let args = parse_args();
    let files = match baseline_files(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for base_path in &files {
        let name = base_path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("?");
        let cur_path = args.current.join(name);
        let outcome = load(base_path).and_then(|baseline| {
            let current = load(&cur_path)?;
            Ok(diff::compare(&baseline, &current))
        });
        match outcome {
            Err(e) => {
                failures += 1;
                println!("FAIL {name}: {e}");
            }
            Ok(mismatches) if mismatches.is_empty() => println!("ok   {name}"),
            Ok(mismatches) => {
                failures += 1;
                println!("FAIL {name}: {} value(s) differ", mismatches.len());
                for m in mismatches.iter().take(20) {
                    println!("     {m}");
                }
                if mismatches.len() > 20 {
                    println!("     ... and {} more", mismatches.len() - 20);
                }
            }
        }
    }
    if failures > 0 {
        println!(
            "bench_diff: {failures} of {} document(s) regressed",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        println!("bench_diff: {} document(s) identical", files.len());
        ExitCode::SUCCESS
    }
}
