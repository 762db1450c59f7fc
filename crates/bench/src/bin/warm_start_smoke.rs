//! CI smoke test for the cluster snapshot/fork subsystem: runs the same
//! small matvec campaign cold and warm-started (every injection run
//! restored from the shared copy-on-write checkpoint ladder) and diffs the
//! outcome CSVs, which must be byte-identical. Also checks the ablation
//! claim: warm runs skip a non-trivial fault-free prefix. A CLAMR stage
//! repeats the diff under trace=off and trace=full and requires the
//! restored rungs to cover at least half of the runs' reported
//! instructions.
//!
//! `cargo run --release -p chaser-bench --bin warm_start_smoke`
//!
//! Exits non-zero (panics) on any divergence; prints a one-line summary
//! per stage otherwise.

use chaser::{AppSpec, Campaign, CampaignConfig, RankPool, TraceRegime};
use chaser_isa::InsnClass;
use chaser_workloads::{clamr, matvec};

/// Least share of the warm CLAMR runs' reported instructions that the
/// restored rungs must have skipped.
const CLAMR_SKIP_FLOOR: f64 = 0.5;

fn campaign(warm_start: bool) -> Campaign {
    let mv = matvec::MatvecConfig::default();
    let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    // A fine scheduling quantum gives the checkpoint round-boundary
    // resolution: the fault-free prefix (init, bcast, first row sends)
    // spans several rounds before the first worker fp instruction.
    app.cluster.quantum = 200;
    Campaign::new(
        app,
        CampaignConfig {
            runs: 30,
            seed: 0xC0FFEE,
            parallelism: 2,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Random,
            warm_start,
            ..CampaignConfig::default()
        },
    )
}

fn main() {
    // Stage 1: the cold reference.
    let cold = campaign(false).run();
    assert_eq!(
        cold.outcomes.len() as u64 + cold.skipped,
        30,
        "campaign must account for every run"
    );
    assert_eq!(
        cold.snapshot_stats,
        chaser::SnapshotStats::default(),
        "cold runs must not restore"
    );
    println!(
        "cold: {} rows ({} skipped), golden {} insns",
        cold.outcomes.len(),
        cold.skipped,
        cold.golden_insns
    );

    // Stage 2: warm-start the same campaign and diff.
    let warm = campaign(true).run();
    assert_eq!(
        cold.to_csv(),
        warm.to_csv(),
        "warm-start campaign diverged from the cold run"
    );
    assert_eq!(cold.skipped, warm.skipped);
    println!("warm: outcome CSV byte-identical to the cold campaign");

    // Stage 3: the ablation claim — measurable prefix skipped per run.
    let s = warm.snapshot_stats;
    assert_eq!(
        s.restores,
        30 - warm.skipped,
        "every executed warm run must restore the checkpoint"
    );
    assert!(s.insns_skipped > 0, "warm runs must skip prefix work");
    assert!(s.pages_shared > 0, "restores must adopt shared pages");
    assert!(
        s.pages_cow < s.pages_shared,
        "the dirty set must stay below full residency"
    );
    let total: u64 = warm.outcomes.iter().map(|r| r.total_insns).sum();
    println!(
        "ablation: {} restores, {} insns skipped ({:.1}% of reported totals), \
         {} pages shared / {} privatised ({:.1}% dirty)",
        s.restores,
        s.insns_skipped,
        100.0 * s.insns_skipped as f64 / total.max(1) as f64,
        s.pages_shared,
        s.pages_cow,
        100.0 * s.pages_cow as f64 / s.pages_shared.max(1) as f64,
    );

    // Stage 4: CLAMR under both trace regimes — late triggers restore late
    // rungs, so most of every run's prefix is skipped.
    for regime in [TraceRegime::Off, TraceRegime::Full] {
        let cold = clamr_campaign(false, regime).run();
        let warm = clamr_campaign(true, regime).run();
        assert_eq!(
            cold.to_csv(),
            warm.to_csv(),
            "warm-start CLAMR campaign diverged from the cold run ({})",
            regime.name()
        );
        let s = warm.snapshot_stats;
        let total: u64 = warm.outcomes.iter().map(|r| r.total_insns).sum();
        let share = s.insns_skipped as f64 / total.max(1) as f64;
        println!(
            "clamr trace={}: outcome CSV byte-identical, {} restores skipped {:.1}% of reported totals",
            regime.name(),
            s.restores,
            100.0 * share
        );
        assert!(
            share >= CLAMR_SKIP_FLOOR,
            "warm CLAMR runs skipped only {:.1}% of their instructions (floor {:.0}%)",
            100.0 * share,
            100.0 * CLAMR_SKIP_FLOOR
        );
    }
    println!("warm start smoke: OK");
}

fn clamr_campaign(warm_start: bool, trace_regime: TraceRegime) -> Campaign {
    let cfg = clamr::ClamrConfig::default();
    let app = AppSpec::replicated(clamr::program(&cfg), cfg.ranks as usize, cfg.ranks as usize);
    Campaign::new(
        app,
        CampaignConfig {
            runs: 40,
            seed: 0xC1A4,
            parallelism: 2,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Random,
            tracing: true,
            provenance: true,
            trace_regime,
            warm_start,
            ..CampaignConfig::default()
        },
    )
}
