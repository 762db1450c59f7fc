//! `perfbench`: runs the campaign benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload clamr-traced --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--workload all` (the default) each workload runs in a child
//! process of its own, so each reports its own peak resident set; the
//! last line then sums the tallies and prefixes metric names with the
//! workload.

use chaser::{parse_json, Json};
use perfbench::{Args, Workload, USAGE};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => {
            let report = perfbench::run(&args, workload);
            for line in report.records() {
                println!("{line}");
            }
            println!("{}", report.final_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => run_all(&args),
    }
}

/// The string field `key` of a record, or "".
fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.str(key).unwrap_or("")
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.tiny {
            cmd.arg("--tiny");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        let mut summarized = false;
        // Relay the child's records; its own summary line is replaced by
        // the combined one below.
        for line in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("{line}");
            let Ok(v) = parse_json(line) else { continue };
            match field(&v, "record") {
                "metric" => metrics.push(format!(
                    "\"{}/{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    workload.name(),
                    field(&v, "name"),
                    field(&v, "value"),
                    field(&v, "unit"),
                )),
                "summary" => {
                    summarized = true;
                    correct &= v.get("correct") == Some(&Json::Bool(true));
                    attempted += v.u64("attempted").unwrap_or(0);
                    failed += v.u64("failed").unwrap_or(0);
                }
                _ => {}
            }
        }
        if !summarized || !out.status.success() {
            correct = false;
            failed = failed.max(1);
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
