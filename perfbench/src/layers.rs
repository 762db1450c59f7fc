//! The traced run: per-layer timings and counters, measured from outside
//! the program.
//!
//! The workload's own runs are executed again by a benchmark-side copy of
//! the campaign worker loop, built from public layer functions with a span
//! around each call (`run_warm`, `classify_against`, `append_outcome`), on
//! the same number of worker threads. Its rows must equal the campaign's
//! byte for byte. Other layers are costed by probes over the workload's
//! own application, checkpoint and journals.

use crate::host::{median, quantile, ratio, timed};
use crate::Report;
use chaser::{
    merge_shard_journals, prepare_app, run_prepared, run_warm, warm_start_for, AppSpec, CacheStats,
    CampaignConfig, CampaignJournal, Corruption, InjectionSpec, JournalRow, Json, Outcome,
    PreparedApp, ProvenanceGraph, RankPool, RunOptions, RunOutcome, RunReport, TraceRegime,
    Trigger, WarmStartOptions, DEFAULT_SYNC_ROWS,
};
use chaser_isa::{InsnClass, CODE_BASE, INSN_LEN};
use chaser_mpi::Cluster;
use chaser_serve::{read_frame, write_frame, Frame};
use chaser_tainthub::HubStats;
use chaser_tcg::{translate_block, SliceFetcher};
use chaser_vm::{EngineStats, ExecTuning};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One campaign of the workload, finished: its configuration and its
/// complete shard journals.
pub(crate) struct Batch {
    pub(crate) cfg: CampaignConfig,
    pub(crate) shard_journals: Vec<PathBuf>,
    /// Wall milliseconds per shard, from `ShardStats`.
    pub(crate) shard_walls_ms: Vec<f64>,
    /// Shard worker retries, from `ShardStats`.
    pub(crate) shard_retries: u64,
}

/// What the traced run measures: the workload's campaigns, which differ
/// only in seed and so share one prepared application.
pub(crate) struct Subject<'a> {
    pub(crate) app: &'a AppSpec,
    pub(crate) prepared: &'a PreparedApp,
    pub(crate) batches: Vec<Batch>,
    /// Classified runs per second of the untraced campaigns.
    pub(crate) untraced_rate: f64,
}

/// How much probing the traced run does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizing {
    /// Repetitions of set-up calls and journal read/merge probes.
    pub(crate) reps: usize,
    /// Specs re-run under each trace regime to cost taint and provenance.
    pub(crate) tax_sample: u64,
    /// Checkpoint restores timed.
    pub(crate) restores: usize,
    /// Passes of translation over the application's code.
    pub(crate) translate_passes: usize,
}

/// The worker threads of every workload's campaign (the load shape).
const WORKERS: usize = 2;

/// The run's fault draw, exactly as `Campaign` derives it from the master
/// seed and run index: `(spec, class, rank, trigger count)`, or `None`
/// when no targeted class ever executes on the drawn rank.
fn derive_spec(
    app: &AppSpec,
    cfg: &CampaignConfig,
    prepared: &PreparedApp,
    idx: u64,
) -> Option<(InjectionSpec, InsnClass, u32, u64)> {
    let profile = &prepared.profile_counts;
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let rank = match cfg.rank_pool {
        RankPool::Master => 0,
        RankPool::Random => rng.gen_range(0..app.nranks()),
    };
    let viable: Vec<usize> = (0..cfg.classes.len())
        .filter(|&ci| profile.get(&(rank, ci)).copied().unwrap_or(0) > 0)
        .collect();
    let pick = rng
        .gen_range(0..viable.len().max(1))
        .min(viable.len().saturating_sub(1));
    let class_idx = *viable.get(pick)?;
    let class = cfg.classes[class_idx];
    let trigger_n = rng.gen_range(1..=profile[&(rank, class_idx)]);
    let spec = InjectionSpec {
        target_program: app.name.clone(),
        target_rank: rank,
        class,
        trigger: Trigger::AfterN(trigger_n),
        corruption: Corruption::FlipRandomBits(cfg.bits_per_fault),
        operand: cfg.operand,
        max_injections: 1,
        seed: rng.gen(),
    };
    Some((spec, class, rank, trigger_n))
}

/// The per-run options a campaign under `cfg` and `regime` executes with.
fn run_options(cfg: &CampaignConfig, regime: TraceRegime, spec: InjectionSpec) -> RunOptions {
    RunOptions {
        spec: Some(spec),
        tracing: cfg.tracing,
        tracer: cfg.tracer,
        provenance: cfg.provenance,
        regime,
        hook_mpi_symbols: false,
        budget: cfg.run_budget,
        exec_tuning: ExecTuning {
            tb_chaining: cfg.tb_chaining,
            superblocks: cfg.superblocks,
            taint_fast_path: cfg.taint_fast_path,
        },
        rank_threads: cfg.rank_threads,
    }
}

/// Executes one run the way the campaign does: from the warm-start
/// checkpoint when one was captured, else from launch; every workload
/// shares the golden-warmed base translation cache.
fn execute(prepared: &PreparedApp, cfg: &CampaignConfig, opts: &RunOptions) -> RunReport {
    if prepared.warm.is_some() {
        run_warm(prepared, opts, cfg.shared_tb_cache)
    } else {
        run_prepared(prepared, opts)
    }
}

/// One re-executed run: its spans, its row, and the counters of its report.
#[derive(Default)]
struct RunSample {
    run_ms: Option<f64>,
    classify_us: Option<f64>,
    append_us: f64,
    row: Option<String>,
    cache: CacheStats,
    engine: EngineStats,
    pages_cow: u64,
    rounds: u64,
    msgs: u64,
    bytes: u64,
    hub: HubStats,
    executed_insns: u64,
}

/// A run of one batch, as the traced loop executes it.
fn one_run(
    subject: &Subject,
    cfg: &CampaignConfig,
    journal: &CampaignJournal,
    idx: u64,
) -> Result<RunSample, String> {
    let (app, prepared) = (subject.app, subject.prepared);
    let mut sample = RunSample::default();
    let Some((spec, class, rank, trigger_n)) = derive_spec(app, cfg, prepared, idx) else {
        let (res, secs) = timed(|| journal.append_skip(idx, CacheStats::default()));
        res.map_err(|e| e.to_string())?;
        sample.append_us = secs * 1e6;
        return Ok(sample);
    };
    let opts = run_options(cfg, cfg.trace_regime, spec);
    let (report, secs) = timed(|| execute(prepared, cfg, &opts));
    sample.run_ms = Some(secs * 1e3);
    sample.cache = report.cache_stats;
    sample.engine = report.engine_stats;
    sample.pages_cow = report.snapshot.pages_cow;
    sample.rounds = report.parallel.rounds;
    sample.msgs = report.net.sent;
    sample.bytes = report.net.bytes;
    sample.hub = report.hub_stats;
    sample.executed_insns = report
        .cluster
        .total_insns
        .saturating_sub(prepared.warm.as_ref().map_or(0, |w| w.prefix_insns));
    if !report.injected() {
        let (res, secs) = timed(|| journal.append_skip(idx, report.cache_stats));
        res.map_err(|e| e.to_string())?;
        sample.append_us = secs * 1e6;
        return Ok(sample);
    }
    let (outcome, secs) = timed(|| report.classify_against(&prepared.golden));
    sample.classify_us = Some(secs * 1e6);
    let prov = report.provenance.as_ref();
    let row = RunOutcome {
        run_idx: idx,
        outcome,
        class,
        rank,
        trigger_n,
        injected: true,
        taint_reads: report.trace.as_ref().map_or(0, |t| t.taint_reads),
        taint_writes: report.trace.as_ref().map_or(0, |t| t.taint_writes),
        cross_rank: report.cluster.cross_rank_tainted_deliveries,
        taint_sync_lost: report.cluster.taint_sync_lost,
        prov_rank_reach: prov.map_or(0, |g| g.rank_reach().len() as u32),
        prov_blast_radius: prov.map_or(0, ProvenanceGraph::blast_radius_bytes),
        prov_msg_edges: prov.map_or(0, |g| g.msg_edges.len() as u64),
        prov_digest: prov.map_or(0, ProvenanceGraph::digest),
        total_insns: report.cluster.total_insns,
        record: report.injections.first().cloned(),
        cache_stats: report.cache_stats,
        engine_stats: report.engine_stats,
        parallel: report.parallel,
    };
    let (res, secs) = timed(|| journal.append_outcome(&row));
    res.map_err(|e| e.to_string())?;
    sample.append_us = secs * 1e6;
    sample.row = Some(JournalRow::Outcome(Box::new(row)).canonical_line());
    Ok(sample)
}

/// Re-executed runs keyed by `(batch, run index)`.
type Samples = BTreeMap<(usize, u64), RunSample>;

/// The instrumented closed loop over every run of every batch: `WORKERS`
/// threads each take the next `(batch, run)` when their current run
/// finishes, appending to the batch's journal. Returns the samples keyed
/// by `(batch, run index)` and the loop's wall seconds.
fn traced_loop(subject: &Subject, journals: &[CampaignJournal]) -> Result<(Samples, f64), String> {
    let work: Vec<(usize, u64)> = subject
        .batches
        .iter()
        .enumerate()
        .flat_map(|(b, batch)| (0..batch.cfg.runs).map(move |i| (b, i)))
        .collect();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(BTreeMap::new());
    let errors = Mutex::new(Vec::new());
    let ((), secs) = timed(|| {
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    while let Some(&(b, idx)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let cfg = &subject.batches[b].cfg;
                        match one_run(subject, cfg, &journals[b], idx) {
                            Ok(s) => {
                                samples.lock().expect("sample lock").insert((b, idx), s);
                            }
                            Err(e) => errors.lock().expect("error lock").push(e),
                        }
                    }
                });
            }
        });
    });
    if let Some(e) = errors.into_inner().expect("error lock").first() {
        return Err(format!("traced run failed: {e}"));
    }
    Ok((samples.into_inner().expect("sample lock"), secs))
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Median seconds of `reps` calls of `f`, which must succeed, and the
/// last call's result.
fn median_secs<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, s) = timed(&mut f);
        last = Some(out?);
        secs.push(s);
    }
    Ok((median(&secs), last.expect("at least one repetition")))
}

/// One spec re-run under each trace regime: seconds per regime, the Off
/// run's executed instructions, the Full run's provenance graph, and the
/// three classifications (which must agree).
struct TaxRuns {
    secs: [f64; 3],
    off_insns: u64,
    graph: Option<ProvenanceGraph>,
    outcomes: [Outcome; 3],
}

const REGIMES: [TraceRegime; 3] = [TraceRegime::Off, TraceRegime::TaintOnly, TraceRegime::Full];

fn warm_options(app: &AppSpec, cfg: &CampaignConfig, regime: TraceRegime) -> WarmStartOptions {
    let (tracing, provenance) = regime.effective(cfg.tracing, cfg.provenance);
    WarmStartOptions {
        classes: cfg.classes.clone(),
        ranks: match cfg.rank_pool {
            RankPool::Master => vec![0],
            RankPool::Random => (0..app.nranks()).collect(),
        },
        tracing,
        provenance,
        budget: cfg.run_budget,
    }
}

/// Re-runs the first `sample` specs of `cfg` under Off, TaintOnly and
/// Full (taint and provenance both armed, whatever the workload's flags),
/// each regime from its own warm-start checkpoint, rotating which regime
/// goes first.
fn regime_sample(
    app: &AppSpec,
    cfg: &CampaignConfig,
    base: &PreparedApp,
    sample: u64,
) -> Vec<TaxRuns> {
    let cfg = &CampaignConfig {
        tracing: true,
        provenance: true,
        ..cfg.clone()
    };
    let per_regime: Vec<PreparedApp> = REGIMES
        .iter()
        .map(|&regime| {
            let mut p = base.clone();
            p.warm = warm_start_for(base, &warm_options(app, cfg, regime));
            p
        })
        .collect();
    let mut taxes = Vec::new();
    for idx in 0..cfg.runs.min(sample) {
        let Some((spec, ..)) = derive_spec(app, cfg, base, idx) else {
            continue;
        };
        let mut runs = TaxRuns {
            secs: [0.0; 3],
            off_insns: 0,
            graph: None,
            outcomes: [Outcome::Benign, Outcome::Benign, Outcome::Benign],
        };
        for k in 0..REGIMES.len() {
            let r = (k + idx as usize) % REGIMES.len();
            let opts = run_options(cfg, REGIMES[r], spec.clone());
            let (rep, s) = timed(|| execute(&per_regime[r], cfg, &opts));
            runs.secs[r] = s;
            runs.outcomes[r] = rep.classify_against(&base.golden);
            match REGIMES[r] {
                TraceRegime::Off => {
                    let prefix = per_regime[r].warm.as_ref().map_or(0, |w| w.prefix_insns);
                    runs.off_insns = rep.cluster.total_insns.saturating_sub(prefix);
                }
                TraceRegime::Full => runs.graph = rep.provenance,
                TraceRegime::TaintOnly => {}
            }
        }
        taxes.push(runs);
    }
    taxes
}

/// Measures every per-layer metric except `serve.first_row_s`,
/// `serve.pool_hit_rate` (the caller's) and `host.calibration_s` (the
/// run's). Traced journals go to
/// `traced_dir/traced-<batch>.jsonl`.
pub(crate) fn measure(
    subject: &Subject,
    sizing: Sizing,
    traced_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let app = subject.app;
    let cfg = &subject
        .batches
        .first()
        .ok_or("the workload ran no campaign")?
        .cfg;

    // Set-up layers: golden + profiling + base-cache warm-up, then the
    // warm-start capture under the workload's regime.
    let (prepare_s, base) = median_secs(sizing.reps, || Ok(prepare_app(app, &cfg.classes)))?;
    let own = warm_options(app, cfg, cfg.trace_regime);
    let (capture_s, warm) = median_secs(sizing.reps, || Ok(warm_start_for(&base, &own)))?;
    report.metric("session.prepare_s", prepare_s);
    report.metric("session.warm_capture_s", capture_s);
    report.metric(
        "session.warm_skip_share",
        ratio(
            warm.as_ref().map_or(0, |w| w.prefix_insns) as f64,
            base.golden.cluster.total_insns as f64,
        ),
    );

    // Shard merge of each campaign's journals: its rows are the reference
    // the re-execution must reproduce.
    let mut headers = Vec::new();
    let mut merge_s = Vec::new();
    let mut expected: BTreeMap<(usize, u64), String> = BTreeMap::new();
    // Benign, SDC, terminated, quarantined, skipped.
    let mut counts = [0u64; 5];
    let mut runs = 0u64;
    let mut uncovered = 0u64;
    for (b, batch) in subject.batches.iter().enumerate() {
        let (header, _, _) =
            CampaignJournal::read_shard(&batch.shard_journals[0]).map_err(|e| e.to_string())?;
        let (secs, rows) = median_secs(sizing.reps, || {
            merge_shard_journals(&batch.shard_journals, &header).map_err(|e| e.to_string())
        })?;
        merge_s.push(secs);
        uncovered += header.runs.abs_diff(rows.len() as u64);
        for row in rows {
            let slot = match &row {
                JournalRow::Outcome(o) => match o.outcome {
                    Outcome::Benign => 0,
                    Outcome::Sdc => 1,
                    Outcome::Terminated(_) => 2,
                    Outcome::HarnessFault { .. } => 3,
                },
                JournalRow::Skip { .. } => 4,
            };
            counts[slot] += 1;
            if let JournalRow::Outcome(_) = row {
                expected.insert((b, row.run_idx()), row.canonical_line());
            }
        }
        runs += header.runs;
        headers.push(header);
    }
    report.check("shard_merge_covers_every_run", uncovered == 0, uncovered);
    report.metric("outcome.benign", counts[0] as f64);
    report.metric("outcome.sdc", counts[1] as f64);
    report.metric("outcome.terminated", counts[2] as f64);
    report.metric(
        "campaign.skipped_share",
        ratio(counts[4] as f64, runs as f64),
    );
    report.metric("shard.merge_s", median(&merge_s));
    let imbalance: Vec<f64> = subject
        .batches
        .iter()
        .map(|b| {
            let walls = &b.shard_walls_ms;
            let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
            ratio(walls.iter().copied().fold(0.0, f64::max), mean)
        })
        .collect();
    report.metric("shard.imbalance", median(&imbalance));
    report.metric(
        "shard.retries",
        subject.batches.iter().map(|b| b.shard_retries).sum::<u64>() as f64,
    );

    // The instrumented re-execution of every run.
    let mut journals = Vec::new();
    let mut paths = Vec::new();
    for (b, header) in headers.iter().enumerate() {
        let path = traced_dir.join(format!("traced-{b}.jsonl"));
        journals.push(
            CampaignJournal::create_with(&path, *header, DEFAULT_SYNC_ROWS)
                .map_err(|e| e.to_string())?,
        );
        paths.push(path);
    }
    let mut header_bytes = 0;
    for path in &paths {
        header_bytes += file_len(path)?;
    }
    let (samples, loop_s) = traced_loop(subject, &journals)?;
    drop(journals);
    let produced: BTreeMap<(usize, u64), String> = samples
        .iter()
        .filter_map(|(&key, s)| Some((key, s.row.clone()?)))
        .collect();
    let mismatched = samples
        .keys()
        .filter(|key| expected.get(key) != produced.get(key))
        .count() as u64;
    report.check(
        "traced_rows_equal_campaign_rows",
        mismatched == 0,
        mismatched,
    );
    let (frame, intact) = frame_us(&expected);
    report.check("frames_round_trip", intact, 1);
    report.metric("serve.frame_us", frame);

    let run_ms: Vec<f64> = samples.values().filter_map(|s| s.run_ms).collect();
    report.metric("session.run_ms.p50", quantile(&run_ms, 0.5));
    report.metric("session.run_ms.p90", quantile(&run_ms, 0.9));
    let classify_us: Vec<f64> = samples.values().filter_map(|s| s.classify_us).collect();
    report.metric("outcome.classify_us", median(&classify_us));
    let append_us: Vec<f64> = samples.values().map(|s| s.append_us).collect();
    report.metric("journal.append_us", median(&append_us));
    let mut journal_bytes = 0;
    for path in &paths {
        journal_bytes += file_len(path)?;
    }
    report.metric(
        "journal.bytes_per_row",
        ratio((journal_bytes - header_bytes) as f64, samples.len() as f64),
    );
    let traced_rate = produced.len() as f64 / loop_s;
    report.metric("bench.trace_overhead", subject.untraced_rate / traced_rate);

    counter_metrics(&samples, report);

    // Journal read side, on the re-execution's journals.
    let mut read_s = 0.0;
    let mut read_rows = 0;
    for path in &paths {
        let (secs, (_, rows)) = median_secs(sizing.reps, || {
            CampaignJournal::read(path).map_err(|e| e.to_string())
        })?;
        read_s += secs;
        read_rows += rows.len();
    }
    report.check("journal_reads_every_row", read_rows == samples.len(), 1);
    report.metric(
        "journal.read_us_per_row",
        ratio(read_s * 1e6, read_rows as f64),
    );

    // Checkpoint restore and translation, on the workload's own state.
    report.metric("mpi.restore_us", restore_us(subject, cfg, sizing));
    report.metric(
        "tcg.translate_us_per_block",
        translate_us_per_block(app, sizing),
    );

    regime_metrics(app, cfg, &base, sizing, report);
    Ok(())
}

/// The counters of the re-executed runs' reports, summed: the same totals
/// the campaigns' `CampaignResult`s carry.
fn counter_metrics(samples: &Samples, report: &mut Report) {
    let mut cache = CacheStats::default();
    let mut engine = EngineStats::default();
    let mut hub = HubStats::default();
    let (mut pages_cow, mut rounds, mut msgs, mut bytes, mut insns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for s in samples.values() {
        cache.absorb(s.cache);
        engine.absorb(s.engine);
        hub.published += s.hub.published;
        hub.polls += s.hub.polls;
        hub.hits += s.hub.hits;
        pages_cow += s.pages_cow;
        rounds += s.rounds;
        msgs += s.msgs;
        bytes += s.bytes;
        insns += s.executed_insns;
    }
    report.metric(
        "mpi.pages_cow",
        ratio(
            pages_cow as f64,
            samples.values().filter(|s| s.run_ms.is_some()).count() as f64,
        ),
    );
    report.metric("mpi.rounds", rounds as f64);
    report.metric("mpi.msgs", msgs as f64);
    report.metric("mpi.bytes", bytes as f64);
    report.metric("tcg.translated_insns", cache.translated_insns as f64);
    report.metric("tcg.base_hit_rate", cache.base_hit_rate());
    report.metric(
        "vm.slow_path_share",
        ratio(
            engine.slow_path_insns as f64,
            (engine.fast_path_insns + engine.slow_path_insns) as f64,
        ),
    );
    report.metric(
        "vm.chain_hits_per_kinsn",
        ratio(engine.tb_chain_hits as f64, insns as f64 / 1e3),
    );
    report.metric(
        "vm.superblock_exec_share",
        ratio(
            engine.superblock_execs as f64,
            (engine.tb_chain_hits + cache.lookups) as f64,
        ),
    );
    report.metric(
        "vm.superblock_bailout_rate",
        ratio(
            engine.superblock_bailouts as f64,
            engine.superblock_execs as f64,
        ),
    );
    report.metric("tainthub.published", hub.published as f64);
    report.metric(
        "tainthub.poll_hit_rate",
        ratio(hub.hits as f64, hub.polls as f64),
    );
}

/// Median microseconds of restoring a cluster from the workload's
/// warm-start checkpoint (0 when none was captured).
fn restore_us(subject: &Subject, cfg: &CampaignConfig, sizing: Sizing) -> f64 {
    let Some(warm) = &subject.prepared.warm else {
        return 0.0;
    };
    let mut cluster_cfg = subject.app.cluster.clone();
    if cfg.trace_regime == TraceRegime::Off {
        cluster_cfg.taint_policy = chaser_taint::TaintPolicy::Disabled;
    }
    let mut us = Vec::new();
    for _ in 0..sizing.restores.max(1) {
        let c = cluster_cfg.clone();
        let (cluster, secs) = timed(|| Cluster::from_snapshot(c, &warm.snapshot));
        drop(cluster);
        us.push(secs * 1e6);
    }
    median(&us)
}

/// Costs taint and provenance from outside: the same specs under Off,
/// TaintOnly and Full.
fn regime_metrics(
    app: &AppSpec,
    cfg: &CampaignConfig,
    base: &PreparedApp,
    sizing: Sizing,
    report: &mut Report,
) {
    let taxes = regime_sample(app, cfg, base, sizing.tax_sample);
    let disagree = taxes
        .iter()
        .filter(|t| t.outcomes[0] != t.outcomes[1] || t.outcomes[0] != t.outcomes[2])
        .count() as u64;
    report.check("regime_sample_outcomes_agree", disagree == 0, disagree);
    let total = |r: usize| taxes.iter().map(|t| t.secs[r]).sum::<f64>();
    let (off, taint, full) = (total(0), total(1), total(2));
    let off_insns: u64 = taxes.iter().map(|t| t.off_insns).sum();
    report.metric("vm.guest_minsns_per_s", ratio(off_insns as f64 / 1e6, off));
    let mut export_us = Vec::new();
    for graph in taxes.iter().filter_map(|t| t.graph.as_ref()) {
        for _ in 0..5 {
            let (_, s) = timed(|| black_box((graph.to_json(), graph.digest())));
            export_us.push(s * 1e6);
        }
    }
    report.record(
        "regime_sample",
        vec![
            ("specs".to_string(), Json::Num((taxes.len() as u64).into())),
            ("off_s".to_string(), Json::Str(format!("{off}"))),
            ("taint_s".to_string(), Json::Str(format!("{taint}"))),
            ("full_s".to_string(), Json::Str(format!("{full}"))),
        ],
    );
    // Each tax is what the workload's own regime pays; a layer the regime
    // never arms costs it nothing.
    let (tracing, provenance) = cfg.trace_regime.effective(cfg.tracing, cfg.provenance);
    report.metric(
        "taint.tax_share",
        if tracing || provenance {
            ratio(taint - off, off)
        } else {
            0.0
        },
    );
    report.metric(
        "provenance.tax_share",
        if provenance {
            ratio(full - taint, off)
        } else {
            0.0
        },
    );
    report.metric("provenance.export_us", median(&export_us));
}

/// Microseconds per row of framing the workload's rows as serve `Row`
/// frames and parsing them back (median of three passes). Returns the
/// cost and whether every frame came back intact.
fn frame_us(rows: &BTreeMap<(usize, u64), String>) -> (f64, bool) {
    let frames: Vec<Frame> = rows
        .iter()
        .filter_map(|(&(b, _), line)| {
            Some(Frame::Row {
                job: b as u64,
                row: chaser::parse_json(line).ok()?,
            })
        })
        .collect();
    let mut intact = frames.len() == rows.len();
    let mut passes = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..3 {
        let (_, secs) = timed(|| {
            for f in &frames {
                buf.clear();
                intact &= write_frame(&mut buf, f).is_ok();
                intact &= read_frame(&mut &buf[..]).ok().flatten().as_ref() == Some(f);
            }
        });
        passes.push(secs);
    }
    (ratio(median(&passes) * 1e6, frames.len() as f64), intact)
}

/// Mean microseconds per block of translating the application's whole text
/// section block by block (clean translation, no hook).
fn translate_us_per_block(app: &AppSpec, sizing: Sizing) -> f64 {
    let code = app.programs[0].code();
    let fetcher = SliceFetcher::new(CODE_BASE, code);
    let end = CODE_BASE + code.len() as u64;
    let (blocks, secs) = timed(|| {
        let mut blocks = 0u64;
        for _ in 0..sizing.translate_passes.max(1) {
            let mut pc = CODE_BASE;
            while pc < end {
                let tb = translate_block(&fetcher, pc, None);
                let n = tb.insns().len() as u64;
                black_box(&tb);
                blocks += 1;
                if n == 0 {
                    break;
                }
                pc += n * INSN_LEN;
            }
        }
        blocks
    });
    ratio(secs * 1e6, blocks as f64)
}
