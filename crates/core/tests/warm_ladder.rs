//! Checkpoint-ladder equivalence: a run restored from any rung of the
//! warm-start ladder must report exactly what a cold run of the same
//! options reports — every [`RunReport`] field except the cache, engine,
//! parallelism and snapshot counters, which describe how the run executed
//! rather than what it computed.

use chaser::{
    profile_app, run_prepared, run_warm, AppSpec, Campaign, CampaignConfig, Corruption,
    InjectionSpec, OperandSel, PreparedApp, RankPool, RunOptions, RunReport, TraceRegime, Trigger,
};
use chaser_isa::InsnClass;
use chaser_workloads::{clamr, matvec};
use proptest::prelude::*;
use std::sync::OnceLock;

const REGIMES: [TraceRegime; 3] = [TraceRegime::Off, TraceRegime::TaintOnly, TraceRegime::Full];

/// The two applications: matvec on a fine quantum (a multi-round prefix
/// before the first worker fp instruction) and the default CLAMR.
fn app(clamr_app: bool) -> AppSpec {
    if clamr_app {
        let cfg = clamr::ClamrConfig::default();
        AppSpec::replicated(clamr::program(&cfg), cfg.ranks as usize, 2)
    } else {
        let mv = matvec::MatvecConfig::default();
        let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 2);
        app.cluster.quantum = 200;
        app
    }
}

/// Overlapping classes on purpose: every `fadd` is counted under `Fadd`
/// by the profile, and must still count toward `FpArith` on the ladder.
fn classes() -> Vec<InsnClass> {
    vec![InsnClass::Fadd, InsnClass::FpArith]
}

fn config(regime: TraceRegime) -> CampaignConfig {
    CampaignConfig {
        classes: classes(),
        rank_pool: RankPool::Random,
        tracing: true,
        provenance: true,
        trace_regime: regime,
        warm_start: true,
        ..CampaignConfig::default()
    }
}

/// One prepared (ladder-carrying) application per app and regime, shared
/// by every case.
fn prepared(clamr_app: bool, regime: TraceRegime) -> &'static PreparedApp {
    static CELLS: [OnceLock<PreparedApp>; 6] = [const { OnceLock::new() }; 6];
    let idx = usize::from(clamr_app) * 3 + REGIMES.iter().position(|&r| r == regime).unwrap();
    CELLS[idx].get_or_init(|| {
        let p = Campaign::new(app(clamr_app), config(regime)).prepare();
        let warm = p.warm.as_ref().expect("both apps have a warm-start prefix");
        assert!(warm.rungs() > 1, "the ladder must climb past rung 0");
        p
    })
}

fn spec(app: &AppSpec, rank: u32, class: InsnClass, trigger: Trigger, seed: u64) -> InjectionSpec {
    InjectionSpec {
        target_program: app.name.clone(),
        target_rank: rank,
        class,
        trigger,
        corruption: Corruption::FlipRandomBits(1),
        operand: OperandSel::Random,
        max_injections: 1,
        seed,
    }
}

fn options(spec: InjectionSpec, regime: TraceRegime) -> RunOptions {
    RunOptions {
        spec: Some(spec),
        tracing: true,
        provenance: true,
        regime,
        ..RunOptions::default()
    }
}

/// Every field of the two reports except `cache_stats`, `engine_stats`,
/// `parallel` and `snapshot`.
fn assert_equivalent(cold: &RunReport, warm: &RunReport, what: &str) {
    assert_eq!(cold.cluster, warm.cluster, "{what}: cluster");
    assert_eq!(cold.outputs, warm.outputs, "{what}: outputs");
    assert_eq!(cold.stdouts, warm.stdouts, "{what}: stdouts");
    assert_eq!(cold.injections, warm.injections, "{what}: injections");
    assert_eq!(
        cold.injector_exec_count, warm.injector_exec_count,
        "{what}: injector_exec_count"
    );
    assert_eq!(cold.trace, warm.trace, "{what}: trace");
    assert_eq!(cold.hub_stats, warm.hub_stats, "{what}: hub_stats");
    assert_eq!(cold.hub_pending, warm.hub_pending, "{what}: hub_pending");
    assert_eq!(
        cold.hub_published, warm.hub_published,
        "{what}: hub_published"
    );
    assert_eq!(cold.net, warm.net, "{what}: net");
    assert_eq!(cold.fn_hook_hits, warm.fn_hook_hits, "{what}: fn_hook_hits");
    assert_eq!(cold.provenance, warm.provenance, "{what}: provenance");
}

/// Runs `spec` cold and warm under `regime` and compares; returns the
/// instructions the warm run skipped.
fn check(clamr_app: bool, regime: TraceRegime, spec: InjectionSpec) -> u64 {
    let p = prepared(clamr_app, regime);
    let what = format!("{} {regime:?} {:?}", p.app.name, spec.trigger);
    let opts = options(spec, regime);
    let cold = run_prepared(p, &opts);
    let warm = run_warm(p, &opts, true);
    assert_equivalent(&cold, &warm, &what);
    assert_eq!(warm.snapshot.restores, 1);
    warm.snapshot.insns_skipped
}

/// The count of `(rank, class)` at a middle rung, which must be non-zero.
fn middle_rung_count(p: &PreparedApp, rank: u32, class: InsnClass) -> u64 {
    let counts = p.warm.as_ref().unwrap().rung_counts(rank, class).unwrap();
    let count = counts[counts.len() / 2];
    assert!(
        count > 0,
        "the middle rung of {counts:?} must count executions"
    );
    count
}

/// The deterministic-trigger edges on both apps under every regime: one
/// past a rung's count restores that rung, exactly its count falls back
/// to an earlier rung, and the very last execution uses the top rung.
#[test]
fn ladder_edges_match_cold_runs() {
    for clamr_app in [false, true] {
        for regime in REGIMES {
            let p = prepared(clamr_app, regime);
            let (rank, class) = (1, InsnClass::FpArith);
            let count = middle_rung_count(p, rank, class);

            let used = check(
                clamr_app,
                regime,
                spec(&p.app, rank, class, Trigger::AfterN(count + 1), 3),
            );
            let skipped = check(
                clamr_app,
                regime,
                spec(&p.app, rank, class, Trigger::AfterN(count), 3),
            );
            assert!(
                used > skipped,
                "count + 1 must restore a later rung than count"
            );

            // The last execution of the first profiled class (its profile
            // count is the injector's count: nothing precedes it).
            let last = p.profile_counts[&(rank, 0)];
            let top = check(
                clamr_app,
                regime,
                spec(&p.app, rank, classes()[0], Trigger::AfterN(last), 5),
            );
            assert!(top >= used, "the last execution restores the highest rung");
        }
    }
}

/// Probabilistic and periodic triggers restore rung 0 and still match.
#[test]
fn random_and_periodic_triggers_use_rung_zero() {
    for clamr_app in [false, true] {
        for regime in REGIMES {
            let p = prepared(clamr_app, regime);
            let prefix = p.warm.as_ref().unwrap().prefix_insns;
            let count = middle_rung_count(p, 2, InsnClass::FpArith);
            for trigger in [
                Trigger::WithProbability(0.002),
                Trigger::Periodic {
                    start: count + 1,
                    period: 40,
                },
            ] {
                let s = spec(&p.app, 2, InsnClass::FpArith, trigger, 11);
                assert_eq!(check(clamr_app, regime, s), prefix);
            }
        }
    }
}

/// The capture pass's profile counts are exactly `profile_app`'s, for
/// each app and regime.
#[test]
fn capture_profile_counts_equal_profile_app() {
    for clamr_app in [false, true] {
        let (_, reference) = profile_app(&app(clamr_app), &classes());
        for regime in REGIMES {
            assert_eq!(
                prepared(clamr_app, regime).profile_counts,
                reference,
                "clamr={clamr_app} {regime:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any deterministic trigger, on any rank and class, restores a rung
    /// and reports what the cold run reports.
    #[test]
    fn warm_runs_from_the_ladder_match_cold_runs(
        clamr_app in any::<bool>(),
        regime in prop_oneof![
            Just(TraceRegime::Off),
            Just(TraceRegime::TaintOnly),
            Just(TraceRegime::Full)
        ],
        rank in 0u32..4,
        class in prop_oneof![Just(InsnClass::Fadd), Just(InsnClass::FpArith)],
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let p = prepared(clamr_app, regime);
        let total = p.profile_counts.get(&(rank, 0)).copied().unwrap_or(0)
            + p.profile_counts.get(&(rank, 1)).copied().unwrap_or(0);
        prop_assume!(total > 0);
        let n = 1 + (frac * (total - 1) as f64) as u64;
        check(clamr_app, regime, spec(&p.app, rank, class, Trigger::AfterN(n), seed));
    }
}
