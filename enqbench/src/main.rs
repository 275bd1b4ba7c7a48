//! `enqbench` — the repository benchmark.
//!
//! ```text
//! enqbench --workload wire_unique|wire_zipf|paper_offline --seed N \
//!          --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process, checks the program's outputs and prints, as its last
//! stdout line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A metadata line precedes it. See README.md
//! in this directory for the workloads and the metric table.

mod env;
mod eval;
mod offline;
mod report;
mod stats;
mod trace;
mod wire;
mod zipf;

use report::Outcome;
use std::process::ExitCode;

/// Maps an error to a message naming what failed.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["wire_unique", "wire_zipf", "paper_offline"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    let ticks = env::cpu_ticks();
    let scratch = env::Scratch::create(&args.workload, args.seed)
        .map_err(|e| format!("creating the scratch directory: {e}"))?;
    let (mut outcome, extra) = match args.workload.as_str() {
        "wire_unique" => wire::run(wire::Traffic::Unique, args, &scratch)?,
        "wire_zipf" => wire::run(wire::Traffic::Zipf, args, &scratch)?,
        _ => offline::run(args)?,
    };
    let leaked = scratch
        .finish()
        .map_err(|e| format!("cleaning the scratch directory: {e}"))?;
    outcome.metrics.set("leaked_files", leaked as f64);
    outcome.check(leaked == 0);
    outcome.metrics.set("error_share", outcome.error_share());
    outcome
        .metrics
        .set("success_share", 1.0 - outcome.error_share());
    let rss = env::peak_rss_mb().ok_or("reading VmHWM from /proc/self/status")?;
    outcome.metrics.set("peak_rss_mb", rss);
    let steal = ticks
        .zip(env::cpu_ticks())
        .and_then(|(before, after)| env::steal_share(&before, &after));
    let extra = match steal {
        Some(share) => format!("{extra}, \"host_steal_share\": {share:.4}"),
        None => extra,
    };
    Ok((outcome, extra))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("enqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, extra) = match run(&args) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("enqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match outcome.result_line(args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("enqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        env::metadata(&args.workload, args.seed, args.seconds, args.trace, &extra)
    );
    println!("{line}");
    ExitCode::SUCCESS
}
