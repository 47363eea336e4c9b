//! Wall-clock benchmark of the self-join's public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <join-sdss2d|serve-2d|shard-syn4d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload end to end with no tracing and
//! reports the end-to-end metrics; `--trace 1` is the separate traced run
//! that breaks the workload into layers and reports the per-layer
//! metrics. Before the result line, one `record` line carries the detail
//! of the run (seed, revision, sizes, sample counts, every number with
//! its unit and clock). The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `perfbench/README.md` for why each workload and metric exists.

mod check;
mod join;
mod layers;
mod oneshot;
mod report;
mod serve;
mod shard;
mod spans;
mod stats;

use sj_obs::Json;
use std::time::Duration;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = [join::NAME, serve::NAME, shard::NAME];

/// A seed not used while the benchmark was tuned, for confirming later
/// claims on fresh inputs (`--seed 7919`).
const HELD_OUT_SEED: u64 = 7919;

fn usage() -> String {
    format!(
        "usage: sj_perfbench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be in 1..=60".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        join::NAME => join::run(&args),
        serve::NAME => serve::run(&args),
        shard::NAME => shard::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let record = Json::obj()
        .field("record", args.workload.as_str())
        .field("seed", args.seed)
        .field("held_out_seed", HELD_OUT_SEED)
        .field("git_rev", stats::git_rev())
        .field("nproc", stats::nproc() as u64)
        .field("trace", args.trace)
        .field("seconds", args.seconds.as_secs())
        .field("operations", report.tally.to_json())
        .field("metrics", report.metrics_with_clocks())
        .field("detail", report.record.clone());
    println!("{}", record.render());
    println!("{}", report.result_line());
}

/// Writes a traced run's spans as Chrome trace-event JSON under
/// `perfbench/results/` (relative to the working directory).
pub fn write_trace(args: &Args, tr: &spans::Tracer) {
    let dir = std::path::Path::new("perfbench/results");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, tr.chrome_trace().render()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}
