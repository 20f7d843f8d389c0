//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <attack_grid|serve_mixed|stream_ingest|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Lines before it name each workload's own metrics with
//! units and sample counts. `--workload all` runs every workload, first
//! untraced and then traced, each in a fresh child process, and prints
//! their output in turn.
//!
//! A traced run times calls into each layer's public functions from
//! this package's own code; nothing is instrumented inside the program.
//! A workload reaches only some layers, so a traced run also probes the
//! other layers on small inputs, so that every per-layer metric is
//! measured in every traced run (README.md lists which workload each
//! metric belongs to).

mod attack;
mod report;
mod serve;
mod stats;
mod stream;
mod substrate;
mod sys;

use report::Report;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["attack_grid", "serve_mixed", "stream_ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs one workload in this process. A traced run adds small probes of
/// the layers the workload itself does not reach.
fn run_workload(args: &Args) -> Result<Report, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("attack_grid", false) => attack::run(&attack::full(), attack::SETUP_S, seed, false),
        ("attack_grid", true) => {
            let mut r = attack::run(&attack::full(), attack::SETUP_S, seed, true)?;
            r.absorb_layers("serve_mixed", serve::run(serve::PROBE, seed, true)?);
            r.absorb_layers("stream_ingest", stream::run(stream::PROBE, seed, 1.0)?);
            Ok(r)
        }
        ("serve_mixed", trace) => {
            let mut r = serve::run(serve::full(secs), seed, trace)?;
            if trace {
                r.absorb_layers("attack_grid", attack::run_probe(seed)?);
            }
            Ok(r)
        }
        ("stream_ingest", trace) => {
            let mut r = stream::run(stream::full(secs), seed, secs)?;
            if trace {
                r.absorb_layers("serve_mixed", serve::run(serve::PROBE, seed, true)?);
                r.absorb_layers("attack_grid", attack::run_probe(seed)?);
            }
            Ok(r)
        }
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// `--workload all`: every workload untraced, then traced, each in a
/// fresh child process so set-up time and peak memory are its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in WORKLOADS {
            println!("== {w} (trace {trace}) ==");
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("perfbench: {w} (trace {trace}) exited with {s}");
                    ok = false;
                }
                Err(e) => {
                    eprintln!("perfbench: cannot run {w}: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = match run_workload(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    match report.json(args.trace) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
