//! The two CLAMR workloads: one campaign, two trace regimes.
//!
//! `clamr-traced` runs under full tracing (taint + provenance) and
//! `clamr-statistical` under the statistical regime (trace off); both use
//! warm start, the shared translation cache and a journal, on 2 inter-run
//! workers, with single-bit `FpArith` faults on a random rank. The same
//! seed gives both the same fault draws, so their classifications must
//! agree run for run.

use crate::fig10::Fig10;
use crate::host::{median, timed};
use crate::layers::{self, Batch, Subject};
use crate::{served, Args, Report, WorkDir, Workload};
use chaser::{
    golden_digest, shard_journal_path, AppSpec, Campaign, CampaignConfig, CampaignResult, Json,
    Outcome, PreparedApp, RankPool, TraceRegime,
};
use chaser_isa::InsnClass;
use chaser_serve::CampaignSpec;
use chaser_workloads::clamr;
use std::collections::BTreeMap;
use std::path::Path;

/// Ranks, one per node.
const RANKS: u32 = 4;
/// Classified runs per second at the parent commit on a 2-core x86-64
/// container; they size one run's fixed work to its time budget.
const TRACED_RUNS_PER_S: f64 = 35.0;
const STATISTICAL_RUNS_PER_S: f64 = 75.0;
/// Seconds one Fig. 10 round (one run of each configuration) takes there.
const FIG10_ROUND_S: f64 = 0.23;
/// Jobs, and runs per job, of the serve-layer probe of the traced run.
const SERVE_PROBE_JOBS: u64 = 3;
const SERVE_PROBE_RUNS: u64 = 4;
/// Leading runs of the first batch whose classification is checked against
/// the other regime's twin run.
const TWIN_RUNS: u64 = 60;

/// 256 cells × 100 steps on 4 ranks retires 1.56 M guest instructions
/// fault-free; the tiny size is the workload crate's default.
fn clamr_config(tiny: bool) -> clamr::ClamrConfig {
    if tiny {
        clamr::ClamrConfig::default()
    } else {
        clamr::ClamrConfig {
            ncells: 256,
            steps: 100,
            ranks: RANKS,
            ..clamr::ClamrConfig::default()
        }
    }
}

fn campaign_config(seed: u64, runs: u64, regime: TraceRegime) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed,
        parallelism: 2,
        classes: vec![InsnClass::FpArith],
        rank_pool: RankPool::Random,
        bits_per_fault: 1,
        tracing: true,
        provenance: true,
        trace_regime: regime,
        shared_tb_cache: true,
        warm_start: true,
        rank_threads: 1,
        shards: 1,
        ..CampaignConfig::default()
    }
}

/// What a repeated `prepare` must reproduce exactly: golden digest, golden
/// instructions, warm-start prefix and the profile counts.
type PreparedCounts = (u64, u64, Option<u64>, BTreeMap<(u32, usize), u64>);

fn prepared_counts(p: &PreparedApp) -> PreparedCounts {
    (
        golden_digest(&p.golden.outputs),
        p.golden.cluster.total_insns,
        p.warm.as_ref().map(|w| w.prefix_insns),
        p.profile_counts.iter().map(|(&k, &v)| (k, v)).collect(),
    )
}

/// Runs the campaign journaled through the shard supervisor (one shard,
/// two workers) on an already prepared application, so the timed region
/// excludes set-up.
fn run_campaign(
    campaign: &Campaign,
    prepared: &PreparedApp,
    base: &Path,
) -> Result<(CampaignResult, f64), String> {
    let (res, secs) = timed(|| campaign.run_sharded_with(prepared, base, None));
    Ok((res.map_err(|e| format!("campaign: {e}"))?, secs))
}

pub(crate) fn run(
    args: &Args,
    workload: Workload,
    work: &WorkDir,
    report: &mut Report,
) -> Result<(), String> {
    let (regime, twin_regime, rate, batch_runs) = match workload {
        Workload::ClamrTraced => (TraceRegime::Full, TraceRegime::Off, TRACED_RUNS_PER_S, 60),
        _ => (
            TraceRegime::Off,
            TraceRegime::Full,
            STATISTICAL_RUNS_PER_S,
            120,
        ),
    };
    let cfg = clamr_config(args.tiny);
    let app = AppSpec::replicated(clamr::program(&cfg), RANKS as usize, RANKS as usize);
    let (batches, batch_runs) = if args.tiny {
        (2, 3)
    } else {
        let total = crate::fixed_runs(args.seconds, rate);
        (total.div_ceil(batch_runs).max(1), batch_runs)
    };
    let batch_config = |b: u64, regime: TraceRegime| {
        campaign_config(crate::batch_seed(args.seed, b), batch_runs, regime)
    };
    let campaign = |cfg: &CampaignConfig| Campaign::new(app.clone(), cfg.clone());

    // The prepared application depends on no seed, so every batch shares
    // it. Untraced runs re-prepare once per batch to sample `setup_s`
    // across the whole run.
    let (prepared, first_setup_s) = timed(|| campaign(&batch_config(0, regime)).prepare());
    report.check(
        "golden_matches_reference",
        prepared.golden.outputs.first() == Some(&clamr::reference_output(&cfg)),
        1,
    );
    let mut setup_s = vec![first_setup_s];
    let mut unsteady = false;
    let rounds_per_batch = if args.tiny {
        1
    } else {
        crate::fixed_rounds(args.seconds, FIG10_ROUND_S).div_ceil(batches as usize)
    };
    let mut fig = Fig10::new(&app, &prepared.golden, 1);
    let mut results = Vec::new();
    let (mut classified, mut harness, mut campaign_s) = (0u64, 0u64, 0.0);
    for b in 0..batches {
        let batch_cfg = batch_config(b, regime);
        let batch = campaign(&batch_cfg);
        if !args.trace && b > 0 {
            let (p, s) = timed(|| batch.prepare());
            setup_s.push(s);
            unsteady |= prepared_counts(&p) != prepared_counts(&prepared);
        }
        let base = work.path(&format!("batch-{b}.jsonl"));
        let (result, secs) = run_campaign(&batch, &prepared, &base)?;
        let faults = result.harness_faults().count() as u64;
        harness += faults;
        classified += result.outcomes.len() as u64 - faults;
        campaign_s += secs;
        if !args.trace {
            fig.rounds(rounds_per_batch);
        }
        results.push((batch_cfg, base, result));
    }
    report.attempted += batches * batch_runs;
    report.check("no_harness_faults", harness == 0, harness);
    report.check("setup_repeats_exactly", !unsteady, 1);
    let untraced_rate = classified as f64 / campaign_s;
    report.record(
        "campaigns",
        vec![
            ("batches".to_string(), Json::Num(batches.into())),
            ("runs_per_batch".to_string(), Json::Num(batch_runs.into())),
            ("classified".to_string(), Json::Num(classified.into())),
            ("campaign_s".to_string(), Json::Str(format!("{campaign_s}"))),
        ],
    );

    if args.trace {
        let subject = Subject {
            app: &app,
            prepared: &prepared,
            batches: results
                .into_iter()
                .map(|(cfg, base, result)| Batch {
                    cfg,
                    shard_journals: vec![shard_journal_path(&base, 0)],
                    shard_walls_ms: result
                        .shard_stats
                        .per_shard
                        .iter()
                        .map(|s| s.wall_ms as f64)
                        .collect(),
                    shard_retries: result.shard_stats.retries,
                })
                .collect(),
            untraced_rate,
        };
        layers::measure(&subject, crate::layer_sizing(args.tiny), &work.0, report)?;
        // No daemon serves these campaigns, so the serve layer is costed on
        // small CLAMR jobs of the daemon's own application ladder.
        let probe: Vec<CampaignSpec> = (0..SERVE_PROBE_JOBS)
            .map(|k| CampaignSpec {
                tenant: "bench".to_string(),
                app: "clamr_sim".to_string(),
                size: cfg.ncells,
                ranks: RANKS,
                runs: SERVE_PROBE_RUNS,
                seed: crate::batch_seed(args.seed, 0x9000 + k),
                classes: vec![InsnClass::FpArith],
                rank_pool: RankPool::Random,
                tracing: true,
                provenance: true,
                trace_regime: regime,
                warm_start: true,
                parallelism: 1,
                shards: 2,
                ..CampaignSpec::default()
            })
            .collect();
        return served::serve_probe(&work.path("serve-probe"), &probe, report);
    }

    report.metric("injections_per_s", untraced_rate);
    report.metric("setup_s", median(&setup_s));
    fig.finish(report);

    // The twin check: batch 0's leading runs under the other regime must
    // classify identically, run for run.
    let n = batch_runs.min(TWIN_RUNS);
    let twin = campaign(&CampaignConfig {
        runs: n,
        ..batch_config(0, twin_regime)
    });
    let (twin_result, _) = run_campaign(&twin, &twin.prepare(), &work.path("twin.jsonl"))?;
    let classes = |r: &CampaignResult| -> BTreeMap<u64, Outcome> {
        r.outcomes
            .iter()
            .filter(|o| o.run_idx < n)
            .map(|o| (o.run_idx, o.outcome.clone()))
            .collect()
    };
    let (ours, theirs) = (classes(&results[0].2), classes(&twin_result));
    let mismatched = (0..n).filter(|i| ours.get(i) != theirs.get(i)).count() as u64;
    report.check("twin_classification_equal", mismatched == 0, mismatched);
    Ok(())
}
