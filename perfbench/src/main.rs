//! `perfbench`: the estimator stack's benchmark, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pk_bank|pk_sequences|fd_joins|window_stream> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process runs one workload, single-threaded, as a closed loop with
//! one client: the next request goes out when the previous one returns.
//! The seed generates every input (through `ucqa_workload`, never timed);
//! the library only receives the generated facts and queries.  A run sets
//! up several times and reports the median set-up, then sends a fixed set
//! of seeded requests in rounds (ticks in epochs on `window_stream`), at
//! least two rounds and on until `--seconds` have passed.  Each request's
//! latency is its fastest execution; the counts of the first round must
//! repeat exactly for a seed, and every later round must reproduce its
//! outcomes bit for bit.  The run checks every answer and prints a table
//! followed by one JSON line.
//!
//! `--trace 0` reports the end-to-end metrics.  `--trace 1` runs the same
//! workload and seed again with spans around the calls into each layer
//! (`db`, `query`, `core.draw`, `core.stop`, `stream`) and reports the
//! per-layer metrics; it also replays every request through the library's
//! public stopping loop with the benchmark's own experiment and requires
//! the replay to reproduce the untraced outcomes bit for bit.  `--smoke`
//! shrinks every workload to a seconds-long size for the self-test.
//! `LAYERS.md` maps each per-layer metric to the end-to-end metric it
//! should move.

mod bank;
mod replay;
mod report;
mod setup;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The command line of one run.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the request loop runs.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Seconds-long sizes for the self-test.
    pub smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(0.0..=3600.0).contains(&seconds) {
            return Err(format!("--seconds must lie in [0, 3600], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            smoke,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::default();
    let tracer_ref = args.trace.then_some(&mut tracer);
    let report = match args.workload.as_str() {
        "window_stream" => stream::run(&args, tracer_ref),
        name => match bank::Workload::named(name, args.smoke) {
            Some(workload) => bank::run(&workload, &args, tracer_ref),
            None => {
                eprintln!(
                    "perfbench: unknown workload {name} \
                     (pk_bank, pk_sequences, fd_joins, window_stream)"
                );
                return ExitCode::from(2);
            }
        },
    };
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(error) = tracer.write_jsonl(&path) {
            eprintln!(
                "perfbench: cannot write spans to {}: {error}",
                path.display()
            );
        }
    }
    report.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}
