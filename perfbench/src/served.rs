//! The `matvec-served` workload: Matvec campaigns submitted over a Unix
//! socket to an in-process `chaser-serve` daemon, one job at a time, each
//! run by two thread-worker shards of one worker under trace=taint, with
//! the default journal fsync interval. Guest work per run is tiny, so the
//! per-run plumbing dominates: restore, classification, journal append and
//! fsync, frame encode and parse, shard merge and the prepared pool.

use crate::fig10::Fig10;
use crate::host::{median, ratio};
use crate::layers::{self, Batch, Subject};
use crate::{Args, Report, WorkDir};
use chaser::{run_app, shard_journal_path, Campaign, Json, RankPool, RunOptions, TraceRegime};
use chaser_isa::InsnClass;
use chaser_serve::{
    build_app, drain, results, status, submit, CampaignSpec, Daemon, Frame, ServeConfig,
};
use chaser_workloads::matvec;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const RANKS: u32 = 4;
const SHARDS: u64 = 2;
/// Runs per submitted job.
const JOB_RUNS: u64 = 2000;
/// Classified runs per second at the parent commit on a 2-core x86-64
/// container; they size one run's fixed work to its time budget.
const SERVED_RUNS_PER_S: f64 = 1700.0;
/// Runs of the job a fresh daemon gets to sample `setup_s`.
const SETUP_JOB_RUNS: u64 = 32;
/// Matvec runs are sub-millisecond, so a Fig. 10 sample averages a block.
const FIG10_BLOCK: usize = 16;
/// Seconds one Fig. 10 round (one block of each configuration) takes.
const FIG10_ROUND_S: f64 = 0.03;

/// The job every measured submission carries (seed aside).
fn spec(seed: u64, runs: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: "bench".to_string(),
        app: "matvec".to_string(),
        size: 0,
        ranks: RANKS,
        runs,
        seed,
        classes: vec![InsnClass::FpArith, InsnClass::Mov],
        rank_pool: RankPool::Random,
        bits_per_fault: 1,
        tracing: true,
        provenance: false,
        trace_regime: TraceRegime::TaintOnly,
        warm_start: true,
        parallelism: 1,
        rank_threads: 1,
        shards: SHARDS,
        subprocess_workers: false,
        ..CampaignSpec::default()
    }
}

/// An in-process daemon that is drained and joined on drop, so no thread
/// outlives the workload even when it fails half-way.
struct Served {
    daemon: Option<Daemon>,
    endpoint: String,
    state: PathBuf,
}

impl Served {
    fn start(dir: &Path) -> Result<Served, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let endpoint = dir.join("sock").display().to_string();
        let state = dir.join("state");
        let daemon = Daemon::start(
            &endpoint,
            &state,
            ServeConfig {
                max_concurrent: 1,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("daemon: {e}"))?;
        Ok(Served {
            daemon: Some(daemon),
            endpoint,
            state,
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            let _ = drain(&self.endpoint);
            daemon.wait();
        }
    }
}

/// One submitted job as the client saw it.
struct JobRun {
    job: u64,
    /// Submit → first streamed row.
    first_row_s: f64,
    /// First streamed row → `Done`.
    stream_s: f64,
    classified: u64,
    harness: u64,
}

fn is_harness_fault(row: &Json) -> bool {
    row.get("outcome")
        .and_then(|o| o.get("kind"))
        .is_some_and(|k| *k == Json::Str("harness_fault".to_string()))
}

fn submit_job(endpoint: &str, spec: &CampaignSpec) -> Result<JobRun, String> {
    let t0 = Instant::now();
    let mut first = None;
    let mut job = 0;
    let mut harness = BTreeSet::new();
    let terminal = submit(endpoint, spec, |j, row| {
        job = j;
        first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
        if is_harness_fault(row) {
            harness.insert(row.u64("run_idx").unwrap_or(u64::MAX));
        }
    })
    .map_err(|e| format!("submit: {e}"))?;
    let done = t0.elapsed().as_secs_f64();
    let Frame::Done { outcomes, .. } = terminal else {
        return Err(format!("job ended without Done: {terminal:?}"));
    };
    let first_row_s = first.unwrap_or(done);
    let harness = harness.len() as u64;
    Ok(JobRun {
        job,
        first_row_s,
        stream_s: done - first_row_s,
        classified: outcomes.saturating_sub(harness),
        harness,
    })
}

/// Records the serve-layer metrics: the median submit-to-first-row
/// latency of `first_rows` and the daemon's prepared-pool hit rate.
fn serve_metrics(served: &Served, first_rows: &[f64], report: &mut Report) -> Result<(), String> {
    let pool = status(&served.endpoint).map_err(|e| e.to_string())?.pool;
    report.metric("serve.first_row_s", median(first_rows));
    report.metric(
        "serve.pool_hit_rate",
        ratio(
            pool.prepared_hits as f64,
            (pool.prepared_hits + pool.prepared_misses) as f64,
        ),
    );
    Ok(())
}

/// Serve-layer metrics for a workload no daemon serves: `specs` submitted
/// one after another to a fresh daemon in `dir`.
pub(crate) fn serve_probe(
    dir: &Path,
    specs: &[CampaignSpec],
    report: &mut Report,
) -> Result<(), String> {
    let served = Served::start(dir)?;
    let mut first_rows = Vec::new();
    for spec in specs {
        first_rows.push(submit_job(&served.endpoint, spec)?.first_row_s);
    }
    serve_metrics(&served, &first_rows, report)
}

/// `(wall_ms per shard, retries)` from a `ShardStats` CSV.
fn shard_walls(csv: &str) -> (Vec<f64>, u64) {
    let mut walls = Vec::new();
    let mut retries = 0;
    for line in csv.lines().skip(1) {
        let cols: Vec<&str> = line.split(',').collect();
        if let (Some(attempts), Some(wall)) = (cols.get(3), cols.get(6)) {
            retries += attempts.parse::<u64>().unwrap_or(1).saturating_sub(1);
            walls.push(wall.parse().unwrap_or(0.0));
        }
    }
    (walls, retries)
}

pub(crate) fn run(args: &Args, work: &WorkDir, report: &mut Report) -> Result<(), String> {
    let app = build_app("matvec", 0, RANKS).ok_or("matvec is not a served application")?;
    let golden = run_app(&app, &RunOptions::golden());
    report.check(
        "golden_matches_reference",
        golden.outputs.first() == Some(&matvec::reference_output(&matvec::MatvecConfig::default())),
        1,
    );

    let (jobs, job_runs) = if args.tiny {
        (2, 12)
    } else {
        let total = crate::fixed_runs(args.seconds, SERVED_RUNS_PER_S);
        (total.div_ceil(JOB_RUNS).max(1), JOB_RUNS)
    };
    let rounds_per_job = if args.tiny {
        1
    } else {
        crate::fixed_rounds(args.seconds, FIG10_ROUND_S).div_ceil(jobs as usize)
    };
    let block = if args.tiny { 1 } else { FIG10_BLOCK };
    let mut fig = Fig10::new(&app, &golden, block);

    // One slice per job: a fresh daemon's first submission (a pool miss)
    // samples `setup_s`, then the measured daemon runs the job, then a few
    // Fig. 10 rounds; so every metric samples the host across the run.
    let served = Served::start(&work.path("serve"))?;
    let mut setup_s = Vec::new();
    let mut runs = Vec::new();
    for j in 0..jobs {
        if !args.trace && j > 0 {
            let fresh = Served::start(&work.path(&format!("setup-{j}")))?;
            let seed = crate::batch_seed(args.seed, 0x8000 + j);
            setup_s.push(submit_job(&fresh.endpoint, &spec(seed, SETUP_JOB_RUNS))?.first_row_s);
        }
        let job_spec = spec(crate::batch_seed(args.seed, j), job_runs);
        let run = submit_job(&served.endpoint, &job_spec)?;
        if j == 0 {
            setup_s.push(run.first_row_s);
        }
        runs.push(run);
        if !args.trace {
            fig.rounds(rounds_per_job);
        }
    }
    report.attempted += jobs * job_runs;
    let harness: u64 = runs.iter().map(|r| r.harness).sum();
    report.check("no_harness_faults", harness == 0, harness);
    let classified: u64 = runs.iter().map(|r| r.classified).sum();
    let stream_s: f64 = runs.iter().map(|r| r.stream_s).sum();
    report.record(
        "served_jobs",
        vec![
            ("jobs".to_string(), Json::Num(jobs.into())),
            ("runs_per_job".to_string(), Json::Num(job_runs.into())),
            ("classified".to_string(), Json::Num(classified.into())),
            ("stream_s".to_string(), Json::Str(format!("{stream_s}"))),
        ],
    );

    // Outside the timed region: the first job's merged artifacts must equal
    // a standalone journaled campaign of the same spec.
    let first = &runs[0];
    let (app1, cfg1) = spec(crate::batch_seed(args.seed, 0), job_runs)
        .build()
        .map_err(|e| e.to_string())?;
    let campaign = Campaign::new(app1.clone(), cfg1);
    let standalone = campaign
        .run_journaled(&work.path("standalone.jsonl"))
        .map_err(|e| format!("standalone campaign: {e}"))?;
    let served_results = results(&served.endpoint, first.job).map_err(|e| e.to_string())?;
    report.check(
        "served_outcome_csv_equals_standalone",
        served_results.outcome_csv == standalone.to_csv(),
        job_runs,
    );
    report.check(
        "served_stats_csv_equals_standalone",
        served_results.stats_csv == standalone.stats_csv(),
        1,
    );

    if !args.trace {
        report.metric("injections_per_s", classified as f64 / stream_s);
        report.metric("setup_s", median(&setup_s));
        fig.finish(report);
        return Ok(());
    }

    let first_rows: Vec<f64> = runs.iter().map(|r| r.first_row_s).collect();
    serve_metrics(&served, &first_rows, report)?;
    let mut batches = Vec::new();
    for (j, run) in runs.iter().enumerate() {
        let job_dir = served.state.join(format!("job-{}", run.job));
        let (_, cfg) = spec(crate::batch_seed(args.seed, j as u64), job_runs)
            .build()
            .map_err(|e| e.to_string())?;
        let csv = std::fs::read_to_string(job_dir.join("shards.csv"))
            .map_err(|e| format!("job {} shards.csv: {e}", run.job))?;
        let (shard_walls_ms, shard_retries) = shard_walls(&csv);
        batches.push(Batch {
            cfg,
            shard_journals: (0..SHARDS)
                .map(|k| shard_journal_path(&job_dir.join("campaign.jsonl"), k))
                .collect(),
            shard_walls_ms,
            shard_retries,
        });
    }
    let prepared = campaign.prepare();
    let subject = Subject {
        app: &app1,
        prepared: &prepared,
        batches,
        untraced_rate: classified as f64 / stream_s,
    };
    layers::measure(&subject, crate::layer_sizing(args.tiny), &work.0, report)
}
