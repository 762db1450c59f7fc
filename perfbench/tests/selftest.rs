//! The benchmark's self-test: every workload in tiny mode, untraced and
//! traced, must emit every metric of its table with the right unit, pass
//! its correctness checks, and print records the journal codec parses.
//! The tables must match `BENCHMARK.json`, and the manifest must map every
//! per-layer metric.

use chaser::{parse_json, Json};
use perfbench::{Args, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tiny(trace: bool) -> Args {
    Args::parse(&["--tiny".to_string()])
        .map(|a| Args { trace, ..a })
        .expect("tiny args parse")
}

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The number between `"<name>":{"value":` and `,"unit":"<unit>"}` in the
/// summary line.
fn summary_value(line: &str, name: &str, unit: &str) -> f64 {
    let head = format!("\"{name}\":{{\"value\":");
    let start = line.find(&head).unwrap_or_else(|| panic!("{name} missing")) + head.len();
    let rest = &line[start..];
    let end = rest
        .find(&format!(",\"unit\":\"{unit}\"}}"))
        .unwrap_or_else(|| panic!("{name} lacks unit {unit}"));
    rest[..end].parse().expect("summary value is a number")
}

fn check_workload(workload: Workload, trace: bool) {
    let report = perfbench::run(&tiny(trace), workload);
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let records: Vec<Json> = report
        .records()
        .iter()
        .map(|line| parse_json(line).unwrap_or_else(|e| panic!("record `{line}`: {e}")))
        .collect();
    for r in &records {
        assert_ne!(r.str("record").ok(), Some("error"), "{workload:?}: {r:?}");
        if r.str("record").ok() == Some("check") {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{workload:?}: {r:?}");
        }
    }
    assert!(
        report.correct(),
        "{workload:?} trace={trace}: {:?}",
        report.records()
    );
    let summary = report.final_line();
    for &(name, unit) in table {
        let emitted = records.iter().any(|r| {
            r.str("record").ok() == Some("metric")
                && r.str("workload").ok() == Some(workload.name())
                && r.str("name").ok() == Some(name)
                && r.str("unit").ok() == Some(unit)
        });
        assert!(
            emitted,
            "{workload:?} trace={trace}: no {name} record in {unit}"
        );
        let value = summary_value(&summary, name, unit);
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(Some(&value), report.metrics().get(name));
    }
    assert_eq!(report.metrics().len(), table.len());
    assert!(summary.starts_with("{\"correct\":true,\"attempted\":"));
    assert!(records
        .iter()
        .any(|r| r.str("record").ok() == Some("host_calibration")));
    if !trace {
        assert_eq!(
            records
                .iter()
                .filter(|r| r.str("record").ok() == Some("paper_reference"))
                .count(),
            3
        );
    }
}

#[test]
fn clamr_traced_emits_every_metric() {
    check_workload(Workload::ClamrTraced, false);
    check_workload(Workload::ClamrTraced, true);
}

#[test]
fn clamr_statistical_emits_every_metric() {
    check_workload(Workload::ClamrStatistical, false);
    check_workload(Workload::ClamrStatistical, true);
}

#[test]
fn matvec_served_emits_every_metric() {
    check_workload(Workload::MatvecServed, false);
    check_workload(Workload::MatvecServed, true);
}

#[test]
fn tables_match_benchmark_json() {
    let text = repo_file("../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    let declared = text.matches("{\"name\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn manifest_maps_every_layer_metric() {
    let manifest = parse_json(&repo_file("manifest.json")).expect("manifest parses");
    let Some(Json::Arr(layers)) = manifest.get("layers") else {
        panic!("manifest has no layers array");
    };
    let mapped: Vec<&str> = layers.iter().filter_map(|l| l.str("metric").ok()).collect();
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(mapped, names);
    let seeds = manifest.get("seeds").expect("seeds");
    assert!(seeds.str("held_out").is_ok() && seeds.str("development").is_ok());
}

#[test]
fn arguments_are_checked() {
    let parse = |a: &[&str]| Args::parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let args = parse(&[
        "--workload",
        "matvec-served",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .expect("valid arguments");
    assert_eq!(args.workload, Some(Workload::MatvecServed));
    assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
    assert_eq!(parse(&["--workload", "all"]).expect("all").workload, None);
    for bad in [
        &["--workload", "nope"][..],
        &["--seed", "x"],
        &["--trace", "2"],
        &["--seconds"],
        &["--frobnicate", "1"],
    ] {
        assert!(parse(bad).is_err(), "{bad:?} accepted");
    }
}
