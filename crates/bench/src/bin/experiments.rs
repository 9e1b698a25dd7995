//! Regenerates every experiment table E1–E12 (listed in
//! `ARCHITECTURE.md`).
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin experiments -- all
//! cargo run -p ucqa-bench --release --bin experiments -- e5 e7
//! cargo run -p ucqa-bench --release --bin experiments -- --markdown all
//! ```

use std::time::Instant;

use ucqa_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    let requested = if requested.is_empty() {
        vec!["all".to_string()]
    } else {
        requested
    };

    for which in requested {
        let start = Instant::now();
        let tables = experiments::run(&which);
        for table in &tables {
            if markdown {
                println!("{}", table.to_markdown());
            } else {
                println!("{table}");
            }
        }
        eprintln!(
            "[experiments] `{which}` finished in {:.1?}",
            start.elapsed()
        );
    }
}
