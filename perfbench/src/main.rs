//! The repository benchmark. One run drives one workload through the public
//! `Session` API, checks every answer, and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! perfbench --workload <road-serve|social-remote|road-churn> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the run's spans to `perfbench/traces/`. A run with a wrong
//! answer prints its result line and exits 1. See README.md.

mod labeled;
mod recorder;
mod reference;
mod trace;
mod workloads;

use recorder::{json_number, Recorder};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["road-serve", "social-remote", "road-churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder::new(args.trace);
    let ran = match args.workload.as_str() {
        "road-serve" => workloads::road_serve(&mut rec, args.seed, args.seconds),
        "social-remote" => workloads::social_remote(&mut rec, args.seed, args.seconds),
        _ => workloads::road_churn(&mut rec, args.seed, args.seconds),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} could not run: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let metrics: Vec<(String, &str, f64)> = if args.trace {
        rec.per_layer()
    } else {
        rec.end_to_end()
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u, v))
            .collect()
    };
    let mut correct = rec.correct();
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} could not be measured");
        correct = false;
    }
    if let Some(tracer) = &rec.tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
        {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    println!("# detail {}", rec.detail_json());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{name:?}:{{\"value\":{},\"unit\":{unit:?}}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rec.attempted(),
        rec.failed(),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
