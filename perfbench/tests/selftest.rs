//! The benchmark's self-test, at smoke size.
//!
//! Every counted metric must repeat exactly across two traced runs of one
//! seed, a different seed must change the generated inputs, the traced
//! replay must reproduce the untraced outcomes bit for bit on every
//! workload (a divergence turns `correct` false), and every metric that
//! `BENCHMARK.json` registers must be printed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: [&str; 4] = ["pk_bank", "pk_sequences", "fd_joins", "window_stream"];

/// What one smoke run printed.
struct Run {
    counts: Vec<String>,
    digest: String,
    json: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = |prefix: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with(prefix))
            .map(str::to_string)
            .collect()
    };
    Run {
        counts: line("count "),
        digest: line("inputs_digest ").concat(),
        json: stdout.lines().last().unwrap_or_default().to_string(),
    }
}

/// The metric names of one section of `BENCHMARK.json`.
fn registered(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn counts_repeat_replays_match_and_seeds_change_inputs() {
    for workload in WORKLOADS {
        let first = run(workload, 1, true);
        let again = run(workload, 1, true);
        let other = run(workload, 2, true);
        assert!(
            first.json.starts_with("{\"correct\": true,"),
            "{workload}: {}",
            first.json
        );
        assert!(!first.counts.is_empty(), "{workload} prints its counts");
        assert_eq!(
            first.counts, again.counts,
            "{workload}: counts differ for one seed"
        );
        assert_eq!(
            first.digest, again.digest,
            "{workload}: inputs differ for one seed"
        );
        assert_ne!(
            first.digest, other.digest,
            "{workload}: the seed does not change inputs"
        );
    }
}

#[test]
fn every_registered_metric_is_reported() {
    let end_to_end = registered("end_to_end");
    let per_layer = registered("per_layer");
    assert!(end_to_end.iter().any(|name| name == "setup_s"));
    for workload in WORKLOADS {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let json = run(workload, 3, trace).json;
            for name in names {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} (trace {trace}) does not report {name}: {json}"
                );
            }
            assert_eq!(
                json.matches("\"value\"").count(),
                names.len(),
                "{workload} (trace {trace}) reports unregistered metrics: {json}"
            );
        }
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nonesuch", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
