//! Campaign-level benchmark for Chaser.
//!
//! One command runs the three campaign workloads and prints every
//! end-to-end metric by name and unit: injections per second, set-up time,
//! the paper's Fig. 10 overhead ratios and peak resident memory. A traced
//! run (`--trace 1`) instead prints the per-layer metrics, measured from
//! outside the program: spans around the benchmark's own calls into each
//! layer's public functions, plus the counters `RunReport` and
//! `CampaignResult` already expose.
//!
//! Every record line before the last is a JSON object the journal codec
//! ([`chaser::parse_json`]) reads back; that codec has no floating-point
//! numbers, so record values travel as decimal strings. The last line is
//! the run's summary object, with the same values as JSON numbers.

// The one `unsafe` block is the `getrusage` call behind `peak_rss_mb`.
#![deny(unsafe_code)]

mod clamr_bench;
mod fig10;
mod host;
mod layers;
mod served;

use chaser::{encode_json, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub use host::{median, quantile};

/// End-to-end metrics with their units, emitted by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("injections_per_s", "runs/s"),
    ("setup_s", "s"),
    ("overhead_fi", "ratio"),
    ("overhead_trace", "ratio"),
    ("overhead_fi_trace", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units, emitted by every traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("session.prepare_s", "s"),
    ("session.warm_capture_s", "s"),
    ("session.warm_skip_share", "fraction"),
    ("session.run_ms.p50", "ms"),
    ("session.run_ms.p90", "ms"),
    ("mpi.restore_us", "us"),
    ("mpi.pages_cow", "count"),
    ("mpi.rounds", "count"),
    ("mpi.msgs", "count"),
    ("mpi.bytes", "bytes"),
    ("tcg.translate_us_per_block", "us"),
    ("tcg.translated_insns", "count"),
    ("tcg.base_hit_rate", "fraction"),
    ("vm.guest_minsns_per_s", "Minsn/s"),
    ("vm.slow_path_share", "fraction"),
    ("vm.chain_hits_per_kinsn", "1/kinsn"),
    ("vm.superblock_exec_share", "fraction"),
    ("vm.superblock_bailout_rate", "fraction"),
    ("taint.tax_share", "fraction"),
    ("provenance.tax_share", "fraction"),
    ("provenance.export_us", "us"),
    ("tainthub.published", "count"),
    ("tainthub.poll_hit_rate", "fraction"),
    ("outcome.classify_us", "us"),
    ("outcome.benign", "count"),
    ("outcome.sdc", "count"),
    ("outcome.terminated", "count"),
    ("campaign.skipped_share", "fraction"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_row", "bytes"),
    ("journal.read_us_per_row", "us"),
    ("shard.merge_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.retries", "count"),
    ("serve.first_row_s", "s"),
    ("serve.frame_us", "us"),
    ("serve.pool_hit_rate", "fraction"),
    ("host.calibration_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// The paper's Fig. 10 CLAMR overheads (FI only is an upper bound).
pub const PAPER_FIG10: [(&str, &str); 3] = [
    ("overhead_fi", "<=1.022"),
    ("overhead_trace", "1.157"),
    ("overhead_fi_trace", "1.157"),
];

/// The benchmark's campaign workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CLAMR under full tracing (taint + provenance), warm start, journal.
    ClamrTraced,
    /// The same CLAMR campaign in statistical mode (trace regime off).
    ClamrStatistical,
    /// Matvec served by an in-process `chaser-serve` daemon, taint only.
    MatvecServed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ClamrTraced,
        Workload::ClamrStatistical,
        Workload::MatvecServed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClamrTraced => "clamr-traced",
            Workload::ClamrStatistical => "clamr-statistical",
            Workload::MatvecServed => "matvec-served",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run; `None` runs all of them.
    pub workload: Option<Workload>,
    /// Campaign master seed: the same seed gives the same fault draws.
    pub seed: u64,
    /// Measurement budget in seconds; fixes the amount of work per run.
    pub seconds: u64,
    /// Print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny problem sizes and run counts (the benchmark's self-test mode).
    pub tiny: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str =
    "usage: perfbench [--workload clamr-traced|clamr-statistical|matvec-served|all] \
[--seed N] [--seconds N] [--trace 0|1] [--tiny]";

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// A message naming the bad or unknown argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 10,
            trace: false,
            tiny: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                args.tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{flag}` needs a whole number, got `{value}`"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => args.workload = None,
                "--workload" => {
                    args.workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => args.seed = number()?,
                "--seconds" => args.seconds = number()?.max(1),
                "--trace" => match value.as_str() {
                    "0" => args.trace = false,
                    "1" => args.trace = true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                },
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(args)
    }
}

/// One workload run's output: record lines, metrics, and the correctness
/// tally.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    trace: bool,
    records: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

/// Renders a measured value with every digit `f64` carries.
fn number_text(v: f64) -> String {
    format!("{v}")
}

fn str_field(key: &str, val: &str) -> (String, Json) {
    (key.to_string(), Json::Str(val.to_string()))
}

impl Report {
    fn new(workload: Workload, trace: bool) -> Report {
        Report {
            workload,
            trace,
            records: Vec::new(),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// The metric table this run must fill.
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Records one metric of this run's table.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the run's table: a benchmark bug.
    fn metric(&mut self, name: &str, value: f64) {
        let &(name, unit) = self
            .table()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this run"));
        self.record(
            "metric",
            vec![
                str_field("name", name),
                str_field("unit", unit),
                str_field("value", &number_text(value)),
            ],
        );
        if !value.is_finite() {
            self.fail(&format!("metric {name} is not finite"));
        }
        self.metrics.insert(name, value);
    }

    /// Appends a record line: `{"record": kind, "workload": .., fields..}`.
    fn record(&mut self, kind: &str, fields: Vec<(String, Json)>) {
        let mut obj = vec![
            str_field("record", kind),
            str_field("workload", self.workload.name()),
        ];
        obj.extend(fields);
        let mut line = String::new();
        encode_json(&Json::Obj(obj), &mut line);
        self.records.push(line);
    }

    /// Records the outcome of a correctness check. A failed check counts
    /// `failed_runs` runs (at least one) as failed.
    fn check(&mut self, name: &str, ok: bool, failed_runs: u64) {
        self.record(
            "check",
            vec![str_field("name", name), ("ok".to_string(), Json::Bool(ok))],
        );
        if !ok {
            self.failed += failed_runs.max(1);
        }
    }

    /// Records a harness error (the workload could not finish).
    fn fail(&mut self, msg: &str) {
        self.record("error", vec![str_field("message", msg)]);
        self.failed += 1;
    }

    /// Every record line, in emission order.
    pub fn records(&self) -> &[String] {
        &self.records
    }

    /// The measured metrics by name.
    pub fn metrics(&self) -> &BTreeMap<&'static str, f64> {
        &self.metrics
    }

    /// Runs attempted and runs failed (harness faults and failed checks).
    pub fn tally(&self) -> (u64, u64) {
        (self.attempted.max(1), self.failed)
    }

    /// True when no check failed and every metric of the table is present.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .table()
                .iter()
                .all(|(n, _)| self.metrics.contains_key(n))
    }

    /// The summary line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn final_line(&self) -> String {
        let (attempted, failed) = self.tally();
        let metrics: Vec<String> = self
            .table()
            .iter()
            .filter_map(|&(name, unit)| {
                let v = self.metrics.get(name)?;
                v.is_finite().then(|| {
                    format!(
                        "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                        number_text(*v)
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            self.correct(),
            metrics.join(",")
        )
    }

    /// Closes the record stream with the `summary` record `--workload all`
    /// reads back.
    fn summarize(&mut self) {
        let (attempted, failed) = self.tally();
        let failed_share = failed as f64 / attempted as f64;
        self.record(
            "failed_share",
            vec![
                str_field("unit", "fraction"),
                str_field("value", &number_text(failed_share)),
            ],
        );
        let correct = self.correct();
        self.record(
            "summary",
            vec![
                ("correct".to_string(), Json::Bool(correct)),
                ("attempted".to_string(), Json::Num(attempted.into())),
                ("failed".to_string(), Json::Num(failed.into())),
            ],
        );
    }
}

/// A scratch directory inside the working directory, removed on drop.
/// Paths stay relative so Unix socket names stay short wherever the
/// checkout lives.
#[derive(Debug)]
struct WorkDir(PathBuf);

const WORK_ROOT: &str = ".perfbench_work";

impl WorkDir {
    fn create(workload: Workload) -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            Path::new(WORK_ROOT).join(format!("{}-{}-{n}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Share of `--seconds` the timed campaign gets at the parent commit's
/// speed; the Fig. 10 repetitions get the rest.
const CAMPAIGN_SHARE: f64 = 0.8;

/// Fixed campaign size for a run of `seconds` on a workload that classified
/// `runs_per_s` at the parent commit. The work is fixed per `(seed,
/// seconds)` so counts repeat exactly; a faster program measures less time.
fn fixed_runs(seconds: u64, runs_per_s: f64) -> u64 {
    ((seconds as f64 * CAMPAIGN_SHARE * runs_per_s).round() as u64).max(1)
}

/// Fixed Fig. 10 round count for a run of `seconds`, rounds of `round_s`.
fn fixed_rounds(seconds: u64, round_s: f64) -> usize {
    ((seconds as f64 * (1.0 - CAMPAIGN_SHARE) / round_s).round() as usize).max(3)
}

/// Master seed of campaign `b` of a run with benchmark seed `seed`.
fn batch_seed(seed: u64, b: u64) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(b)
}

/// Probe repetitions of the traced run.
fn layer_sizing(tiny: bool) -> layers::Sizing {
    if tiny {
        layers::Sizing {
            reps: 1,
            tax_sample: 2,
            restores: 2,
            translate_passes: 1,
        }
    } else {
        layers::Sizing {
            reps: 3,
            tax_sample: 24,
            restores: 50,
            translate_passes: 20,
        }
    }
}

/// Runs one workload and returns its report (never panics on a campaign
/// failure: errors become failed checks).
pub fn run(args: &Args, workload: Workload) -> Report {
    let mut report = Report::new(workload, args.trace);
    let probes_before = host::calibrate();
    let outcome = WorkDir::create(workload).and_then(|work| match workload {
        Workload::ClamrTraced | Workload::ClamrStatistical => {
            clamr_bench::run(args, workload, &work, &mut report)
        }
        Workload::MatvecServed => served::run(args, &work, &mut report),
    });
    if let Err(msg) = outcome {
        report.fail(&msg);
    }
    let probes_after = host::calibrate();
    report.record(
        "host_calibration",
        vec![
            str_field("unit", "s"),
            str_field("before", &number_text(probes_before)),
            str_field("after", &number_text(probes_after)),
        ],
    );
    if args.trace {
        report.metric("host.calibration_s", median(&[probes_before, probes_after]));
    } else {
        report.metric("peak_rss_mb", host::peak_rss_mb());
    }
    report.summarize();
    report
}
