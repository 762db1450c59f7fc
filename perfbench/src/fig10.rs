//! Fig. 10 overheads, measured as the repository's `fig10_overhead`
//! harness defines them: the injector writes the original value back, so
//! all four configurations do the same application work.
//!
//! 1. baseline     — no injector, no tracing;
//! 2. FI only      — identity injection at fadd #1000 on rank 0;
//! 3. tracing only — no injector, tracing on;
//! 4. FI + tracing — identity injection, tracing and provenance on.

use crate::host::{median, timed};
use crate::Report;
use chaser::{
    run_app, AppSpec, Corruption, InjectionSpec, Json, OperandSel, RunOptions, RunReport, Trigger,
};
use chaser_isa::InsnClass;

fn identity(app: &AppSpec) -> InjectionSpec {
    InjectionSpec {
        target_program: app.name.clone(),
        target_rank: 0,
        class: InsnClass::Fadd,
        trigger: Trigger::AfterN(1000),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    }
}

/// Accumulates interleaved rounds of the four configurations. A round
/// times one block of `block` consecutive runs per configuration, rotating
/// which configuration goes first; each overhead sample is a block's time
/// over the same round's baseline block, so host slowdowns longer than a
/// round cancel. Every run must reproduce the golden outputs bit for bit,
/// and each configuration must retire the same instruction count on every
/// repetition.
pub(crate) struct Fig10<'a> {
    app: &'a AppSpec,
    golden: &'a RunReport,
    block: usize,
    configs: [RunOptions; 4],
    ratios: [Vec<f64>; 3],
    insns: [Option<u64>; 4],
    bad_runs: u64,
    unsteady: bool,
}

impl<'a> Fig10<'a> {
    pub(crate) fn new(app: &'a AppSpec, golden: &'a RunReport, block: usize) -> Fig10<'a> {
        Fig10 {
            app,
            golden,
            block: block.max(1),
            configs: [
                RunOptions::golden(),
                RunOptions::inject(identity(app)),
                RunOptions {
                    tracing: true,
                    ..RunOptions::default()
                },
                RunOptions::inject_traced(identity(app)),
            ],
            ratios: Default::default(),
            insns: [None; 4],
            bad_runs: 0,
            unsteady: false,
        }
    }

    /// Runs `n` more rounds.
    pub(crate) fn rounds(&mut self, n: usize) {
        for _ in 0..n {
            let first = self.ratios[0].len();
            let mut secs = [0.0; 4];
            for k in 0..self.configs.len() {
                let c = (k + first) % self.configs.len();
                let (reports, s) = timed(|| {
                    (0..self.block)
                        .map(|_| run_app(self.app, &self.configs[c]))
                        .collect::<Vec<_>>()
                });
                secs[c] = s;
                for r in &reports {
                    if r.cluster.hang || r.outputs != self.golden.outputs {
                        self.bad_runs += 1;
                    }
                    let n = r.cluster.total_insns;
                    self.unsteady |= *self.insns[c].get_or_insert(n) != n;
                }
            }
            for (ratios, s) in self.ratios.iter_mut().zip(&secs[1..]) {
                ratios.push(s / secs[0]);
            }
        }
    }

    /// Checks the runs and records the median ratio of each configuration
    /// as its metric, with the paper's CLAMR figure beside it.
    pub(crate) fn finish(self, report: &mut Report) {
        report.check(
            "fig10_outputs_match_golden",
            self.bad_runs == 0,
            self.bad_runs,
        );
        report.check("fig10_insns_repeat", !self.unsteady, 1);
        report.record(
            "fig10_samples",
            vec![
                (
                    "rounds".to_string(),
                    Json::Num((self.ratios[0].len() as u64).into()),
                ),
                ("block".to_string(), Json::Num((self.block as u64).into())),
            ],
        );
        for ((name, paper), ratios) in crate::PAPER_FIG10.iter().zip(&self.ratios) {
            report.metric(name, median(ratios));
            report.record(
                "paper_reference",
                vec![
                    ("name".to_string(), Json::Str(name.to_string())),
                    ("paper_clamr".to_string(), Json::Str(paper.to_string())),
                ],
            );
        }
    }
}
