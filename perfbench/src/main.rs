//! End-to-end and per-layer benchmark of the TBNet protect, infer and serve
//! paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload protect|infer|int8|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is for people. The last line of standard output
//! is one JSON object: whether the outputs passed their checks, how many
//! operations were attempted and failed, and the figures of the run — the
//! end-to-end metrics with `--trace 0`, the per-layer profile with
//! `--trace 1`. See README.md for the workloads, the metrics and the timing
//! statistic.

mod host;
mod infer;
mod layers;
mod probe;
mod protect;
mod serve;
mod stats;
mod zoo;

use std::process::ExitCode;

use host::CountingAlloc;
use probe::HostProbe;
use stats::RunResult;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload protect|infer|int8|serve --seed N --seconds S --trace 0|1";

/// The run length `BENCHMARK.json` sets, and the one every bound and
/// reference figure in README.md was measured at.
const DEFAULT_SECONDS: f64 = 20.0;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("needs 0 < seconds <= 60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("needs 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["protect", "infer", "int8", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        host::fingerprint(&[protect::THREADS, infer::THREADS, serve::THREADS].join("; "))
    );
    println!(
        "run: workload {} | seed {} | {} s | trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let probe = HostProbe::start();
    let run = match args.workload.as_str() {
        "protect" => protect::run(args.seed, args.seconds, args.trace),
        "infer" => infer::run(args.seed, args.seconds, args.trace, infer::Path::F32),
        "int8" => infer::run(args.seed, args.seconds, args.trace, infer::Path::Int8),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    println!("{}", probe.finish().line());
    let mut r: RunResult = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        r.metrics.push("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    if let Some(m) = r.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("{} measured a non-finite {}", args.workload, m.name);
        return ExitCode::from(1);
    }
    println!(
        "ops: {} attempted {} failed {} | checks {}",
        args.workload,
        r.attempted,
        r.failed,
        if r.correct { "pass" } else { "FAIL" }
    );
    for m in r.metrics.iter() {
        println!("metric: {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        r.metrics.to_json()
    );
    ExitCode::SUCCESS
}
