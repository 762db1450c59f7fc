//! The Chaser session: wires injector, tracer and hooks into a cluster and
//! executes single runs.

use crate::injector::{FnHookLogger, Injector, InjectorHandle, ProfileHandle, ProfileHook};
use crate::outcome::{classify, Outcome};
use crate::plugin::{FiInterface, FiPlugin, HostState, PluginError, PluginHost};
use crate::provenance::{ProvenanceGraph, ProvenanceRecorder, PROV_LOG_CAPACITY};
use crate::spec::{InjectionSpec, Trigger};
use crate::tracer::{TraceSummary, Tracer, TracerConfig};
use chaser_isa::{abi, InsnClass, Program};
use chaser_mpi::{
    Cluster, ClusterConfig, ClusterRun, ClusterSnapshot, NetStats, ParallelStats, RunBudget,
    SharedMpiObserver,
};
use chaser_tainthub::HubStats;
use chaser_tcg::{BaseLayer, CacheStats};
use chaser_vm::{
    EngineStats, ExecTuning, InjectSink, SharedFnHookSink, SharedInjectSink, SharedTaintSink,
    SharedTranslateHook, SharedVmiSink, VmiSink,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The application under test: one guest program per rank plus the cluster
/// configuration to run it on.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// The target program name (what VMI screens for).
    pub name: String,
    /// One program per rank (rank i = `programs[i]`, master = rank 0).
    pub programs: Vec<Program>,
    /// Cluster parameters.
    pub cluster: ClusterConfig,
}

impl AppSpec {
    /// A single-process application on a one-node cluster.
    pub fn single(program: Program) -> AppSpec {
        let name = program.name().to_string();
        AppSpec {
            name,
            programs: vec![program],
            cluster: ClusterConfig {
                nodes: 1,
                ..ClusterConfig::default()
            },
        }
    }

    /// `ranks` copies of the same program on `nodes` machines.
    pub fn replicated(program: Program, ranks: usize, nodes: usize) -> AppSpec {
        let name = program.name().to_string();
        AppSpec {
            name,
            programs: vec![program; ranks],
            cluster: ClusterConfig {
                nodes,
                ..ClusterConfig::default()
            },
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.programs.len() as u32
    }
}

/// How much of the tracing machinery a run (or campaign) arms.
///
/// The paper's enhancement over plain fault injection is elastic taint
/// tracing; ZOFI-style *statistical* campaigns need none of it — inject,
/// run at native speed, classify against the golden digest. This knob
/// selects between those worlds without touching the individual
/// `tracing`/`provenance` flags, so it composes with existing configs:
///
/// * [`TraceRegime::Full`] (the default) honors the `tracing` and
///   `provenance` flags exactly as configured — today's behavior.
/// * [`TraceRegime::TaintOnly`] forces taint tracing on and provenance
///   recording off.
/// * [`TraceRegime::Off`] forces both off: the taint policy is
///   `Disabled`, so no shadow state is ever materialised, no taint sink
///   or observer hooks are registered, the TaintHub never publishes, and
///   every clean block executes through the fast-path memory tier.
///   Outcomes are still classified soundly — see `DESIGN.md` §13.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceRegime {
    /// Statistical mode: never arm taint or provenance, whatever the
    /// `tracing`/`provenance` flags say.
    Off,
    /// Taint tracing without provenance graphs.
    TaintOnly,
    /// Honor the `tracing`/`provenance` flags as configured.
    #[default]
    Full,
}

impl TraceRegime {
    /// The wire name (`off` / `taint` / `full`) used by journals, CLI
    /// tokens and campaign specs.
    pub fn name(self) -> &'static str {
        match self {
            TraceRegime::Off => "off",
            TraceRegime::TaintOnly => "taint",
            TraceRegime::Full => "full",
        }
    }

    /// Parses a wire name produced by [`TraceRegime::name`].
    pub fn from_name(name: &str) -> Option<TraceRegime> {
        match name {
            "off" => Some(TraceRegime::Off),
            "taint" => Some(TraceRegime::TaintOnly),
            "full" => Some(TraceRegime::Full),
            _ => None,
        }
    }

    /// The effective `(tracing, provenance)` pair after this regime is
    /// applied to the configured flags. Every consumer of the raw flags
    /// goes through here, so the regime cannot be half-applied.
    pub fn effective(self, tracing: bool, provenance: bool) -> (bool, bool) {
        match self {
            TraceRegime::Off => (false, false),
            TraceRegime::TaintOnly => (true, false),
            TraceRegime::Full => (tracing, provenance),
        }
    }
}

/// Per-run options.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// The fault to inject, if any.
    pub spec: Option<InjectionSpec>,
    /// Enable the fault-propagation tracer.
    pub tracing: bool,
    /// Tracer parameters.
    pub tracer: TracerConfig,
    /// Record a per-run fault-propagation [`ProvenanceGraph`] (taint
    /// machinery stays on even without `tracing`).
    pub provenance: bool,
    /// Tracing regime: [`TraceRegime::Full`] (default) honors the
    /// `tracing`/`provenance` flags above; `TaintOnly` and `Off` override
    /// them — see [`TraceRegime`].
    pub regime: TraceRegime,
    /// Hook the guest MPI wrapper functions by symbol address (the paper's
    /// interception mechanism; mostly useful for demos and tests — the
    /// runtime-level observers carry the actual taint synchronisation).
    pub hook_mpi_symbols: bool,
    /// Per-run watchdog budget, merged (tighter bound wins) with the
    /// cluster configuration's own [`RunBudget`].
    pub budget: RunBudget,
    /// Hot-path engine knobs (TB chaining, taint-idle fast path). Both
    /// default on; turning either off is observationally equivalent but
    /// slower — see `DESIGN.md` §9.
    pub exec_tuning: ExecTuning,
    /// Worker threads the cluster scheduler's compute phase may fan nodes
    /// out over. `0` inherits the application's own
    /// [`ClusterConfig::rank_threads`]; any other value overrides it.
    /// Observationally inert — see `DESIGN.md` §10.
    pub rank_threads: usize,
}

impl RunOptions {
    /// Options for a golden (fault-free, untraced) run.
    pub fn golden() -> RunOptions {
        RunOptions::default()
    }

    /// Options injecting `spec` with tracing and provenance recording on.
    pub fn inject_traced(spec: InjectionSpec) -> RunOptions {
        RunOptions {
            spec: Some(spec),
            tracing: true,
            provenance: true,
            ..RunOptions::default()
        }
    }

    /// Options injecting `spec` without tracing.
    pub fn inject(spec: InjectionSpec) -> RunOptions {
        RunOptions {
            spec: Some(spec),
            tracing: false,
            ..RunOptions::default()
        }
    }

    /// The effective `(tracing, provenance)` pair after the regime is
    /// applied — what the run actually arms.
    pub fn effective_trace(&self) -> (bool, bool) {
        self.regime.effective(self.tracing, self.provenance)
    }
}

/// Snapshot/restore counters for one run (or summed over a campaign).
/// All zero on cold runs; a warm-started run reports one restore plus its
/// copy-on-write page traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Cluster restores performed (1 for a warm run, 0 for a cold one).
    pub restores: u64,
    /// Pages adopted `Arc`-shared (zero-copy) from the snapshot.
    pub pages_shared: u64,
    /// Shared pages privatised by a suffix write (the run's dirty set).
    pub pages_cow: u64,
    /// Guest instructions the checkpointed prefix covered — work a warm
    /// run did *not* re-execute.
    pub insns_skipped: u64,
}

impl SnapshotStats {
    /// Accumulates `other` into `self` (campaign-level aggregation).
    pub fn absorb(&mut self, other: SnapshotStats) {
        self.restores += other.restores;
        self.pages_shared += other.pages_shared;
        self.pages_cow += other.pages_cow;
        self.insns_skipped += other.insns_skipped;
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The cluster-level result.
    pub cluster: ClusterRun,
    /// Per-rank result-file bytes (fd 3).
    pub outputs: Vec<Vec<u8>>,
    /// Per-rank stdout bytes.
    pub stdouts: Vec<Vec<u8>>,
    /// Faults actually placed.
    pub injections: Vec<crate::injector::InjectionRecord>,
    /// Executions of the targeted class observed by the injector.
    pub injector_exec_count: u64,
    /// Trace results when tracing was enabled.
    pub trace: Option<TraceSummary>,
    /// TaintHub counters.
    pub hub_stats: HubStats,
    /// TaintHub records still queued (unconsumed) at run end — a campaign
    /// over a healthy hub sees this drain to 0 on completed runs.
    pub hub_pending: usize,
    /// Taint records published to the hub over the whole run (lifetime
    /// counter; unaffected by consumption and GC).
    pub hub_published: u64,
    /// Interconnect counters (drops, retransmits, duplicates, losses on an
    /// unreliable fabric).
    pub net: NetStats,
    /// Guest MPI function-hook hits when `hook_mpi_symbols` was set:
    /// `(hook id, pc, args)`.
    pub fn_hook_hits: Vec<(u64, u64, [u64; 6])>,
    /// Translation-cache statistics aggregated over the run's nodes.
    pub cache_stats: CacheStats,
    /// Hot-path engine counters aggregated over the run's nodes (chain
    /// hits/severs, fast- vs slow-path memory operations).
    pub engine_stats: EngineStats,
    /// Snapshot/restore counters (all zero on cold runs).
    pub snapshot: SnapshotStats,
    /// Scheduler-parallelism counters: threads used, rounds that ran work
    /// on more than one worker, and the per-worker instruction balance.
    pub parallel: ParallelStats,
    /// The fault-propagation provenance graph when
    /// [`RunOptions::provenance`] was set.
    pub provenance: Option<ProvenanceGraph>,
}

impl RunReport {
    /// Classifies this run against a golden run's outputs.
    pub fn classify_against(&self, golden: &RunReport) -> Outcome {
        classify(&self.cluster, &self.outputs, &golden.outputs)
    }

    /// Did the injector fire at least once?
    pub fn injected(&self) -> bool {
        !self.injections.is_empty()
    }

    /// The corrupted regions of this run's outputs relative to a golden
    /// run (empty unless the run is an SDC).
    pub fn corrupted_regions(&self, golden: &RunReport) -> Vec<crate::CorruptedRegion> {
        crate::diff_outputs(&self.outputs, &golden.outputs)
    }
}

/// The one typed hook-wiring builder shared by every run flavour: collects
/// whichever sinks a run needs and installs them all in a single pass.
/// Node-level hooks (translate / inject / VMI / guest-function sinks) land
/// on every node; taint sinks and MPI observers register at the cluster so
/// their events commit in canonical rank order at the round barrier. Must
/// be applied before launch so VMI observes process creation.
#[derive(Default)]
pub struct HookRegistry {
    translate: Option<SharedTranslateHook>,
    inject: Option<SharedInjectSink>,
    vmi: Option<SharedVmiSink>,
    fn_hook_sink: Option<SharedFnHookSink>,
    taint_sinks: Vec<SharedTaintSink>,
    observers: Vec<SharedMpiObserver>,
}

impl HookRegistry {
    /// An empty registry.
    pub fn new() -> HookRegistry {
        HookRegistry::default()
    }

    /// Installs `hook` as the translate hook and `handle` as both the
    /// inject sink receiving its `CallInject` callbacks and the VMI sink
    /// screening process events.
    pub fn instrument<H>(mut self, hook: SharedTranslateHook, handle: H) -> HookRegistry
    where
        H: InjectSink + VmiSink + Send + 'static,
    {
        let handle = Arc::new(Mutex::new(handle));
        self.translate = Some(hook);
        self.inject = Some(Arc::clone(&handle) as SharedInjectSink);
        self.vmi = Some(handle as SharedVmiSink);
        self
    }

    /// Registers a cluster-level taint-event sink (tracer, provenance
    /// recorder); events are drained to it at each round barrier.
    pub fn taint_sink(mut self, sink: SharedTaintSink) -> HookRegistry {
        self.taint_sinks.push(sink);
        self
    }

    /// Registers an MPI runtime observer.
    pub fn observer(mut self, obs: SharedMpiObserver) -> HookRegistry {
        self.observers.push(obs);
        self
    }

    /// Installs the guest function-entry sink.
    pub fn fn_hook_sink(mut self, sink: SharedFnHookSink) -> HookRegistry {
        self.fn_hook_sink = Some(sink);
        self
    }

    /// Wires everything collected into `cluster`.
    pub fn apply(self, cluster: &mut Cluster) {
        cluster.for_each_node_mut(|node| {
            let hooks = node.hooks_mut();
            if let Some(translate) = &self.translate {
                hooks.translate = Some(Arc::clone(translate));
            }
            if let Some(inject) = &self.inject {
                hooks.inject = Some(Arc::clone(inject));
            }
            if let Some(vmi) = &self.vmi {
                hooks.vmi.push(Arc::clone(vmi));
            }
            if let Some(sink) = &self.fn_hook_sink {
                hooks.fn_hook_sink = Some(Arc::clone(sink));
            }
        });
        for sink in self.taint_sinks {
            cluster.add_taint_sink(sink);
        }
        for obs in self.observers {
            cluster.add_observer(obs);
        }
    }
}

/// Collects per-rank result-file and stdout bytes.
fn collect_rank_files(cluster: &Cluster) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut outputs = Vec::new();
    let mut stdouts = Vec::new();
    for rank in 0..cluster.nranks() {
        let files = cluster.rank_files(rank);
        outputs.push(files.output.clone());
        stdouts.push(files.stdout.clone());
    }
    (outputs, stdouts)
}

/// Executes one run of `app` under `opts`.
pub fn run_app(app: &AppSpec, opts: &RunOptions) -> RunReport {
    run_app_inner(app, opts, None)
}

/// The cluster configuration a run actually executes under. The paper's
/// "fault propagation tracing" switch governs the whole taint machinery
/// (DECAF++-style elastic tainting): with tracing off, no shadow state is
/// maintained at all, which is what makes the FI-only configuration nearly
/// free (Fig. 10). The per-run watchdog budget is merged in (tighter bound
/// wins). A warm-start prefix must be captured under this same effective
/// configuration, or replay equivalence breaks.
fn effective_cluster_cfg(app: &AppSpec, opts: &RunOptions) -> ClusterConfig {
    let mut cluster_cfg = app.cluster.clone();
    let (tracing, provenance) = opts.effective_trace();
    if !tracing && !provenance {
        cluster_cfg.taint_policy = chaser_taint::TaintPolicy::Disabled;
    }
    cluster_cfg.run_budget = cluster_cfg.run_budget.merge(opts.budget);
    cluster_cfg.exec_tuning = opts.exec_tuning;
    if opts.rank_threads != 0 {
        cluster_cfg.rank_threads = opts.rank_threads;
    }
    if opts.hook_mpi_symbols {
        // Function-entry hits are logged in firing order from inside the
        // compute phase; keep that order deterministic by running serial.
        cluster_cfg.rank_threads = 1;
    }
    cluster_cfg
}

/// Drives `cluster` to completion, sampling tainted-byte counts into the
/// tracer after every round.
fn run_sampled(cluster: &mut Cluster, tracer: Option<&Arc<Mutex<Tracer>>>) -> ClusterRun {
    cluster.run_with(|c| {
        if let Some(tr) = tracer {
            let total = c.total_insns();
            let tainted: usize = c
                .nodes()
                .iter()
                .map(|n| n.taint().mem().tainted_bytes())
                .sum();
            tr.lock().maybe_sample(total, tainted);
        }
    })
}

/// Assembles the [`RunReport`] shared by every run flavour.
fn build_report(
    cluster: &Cluster,
    cluster_run: ClusterRun,
    injector: Option<&Arc<Injector>>,
    tracer: Option<Arc<Mutex<Tracer>>>,
    fn_logger: Option<Arc<Mutex<FnHookLogger>>>,
    snapshot: SnapshotStats,
    recorder: Option<Arc<Mutex<ProvenanceRecorder>>>,
) -> RunReport {
    let provenance = recorder.map(|rec| {
        let mut rank_of: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        for rank in 0..cluster.nranks() {
            let (ni, pid) = cluster.rank_location(rank);
            rank_of.insert((ni as u32, pid), rank);
        }
        rec.lock().to_graph(&rank_of)
    });
    let (outputs, stdouts) = collect_rank_files(cluster);
    RunReport {
        cluster: cluster_run,
        outputs,
        stdouts,
        injections: injector.map(|i| i.records()).unwrap_or_default(),
        injector_exec_count: injector.map_or(0, |i| i.exec_count()),
        trace: tracer.map(|tr| tr.lock().summary().clone()),
        hub_stats: cluster.hub().stats(),
        hub_pending: cluster.hub().pending(),
        hub_published: cluster.hub().published_total(),
        net: cluster.net_stats(),
        fn_hook_hits: fn_logger.map_or_else(Vec::new, |l| l.lock().hits.clone()),
        cache_stats: cluster.tb_cache_stats(),
        engine_stats: cluster.engine_stats(),
        snapshot,
        parallel: cluster.parallel_stats(),
        provenance,
    }
}

/// Builds the hook registry every injection-run flavour shares: injector
/// instrumentation, the tracer and provenance recorder as barrier-drained
/// taint sinks, and the recorder doubling as the cross-rank MPI observer.
fn run_registry(
    injector: Option<&Arc<Injector>>,
    tracer: Option<&Arc<Mutex<Tracer>>>,
    recorder: Option<&Arc<Mutex<ProvenanceRecorder>>>,
) -> HookRegistry {
    let mut registry = HookRegistry::new();
    if let Some(inj) = injector {
        registry = registry.instrument(
            Arc::clone(inj) as SharedTranslateHook,
            InjectorHandle(Arc::clone(inj)),
        );
    }
    if let Some(tr) = tracer {
        registry = registry.taint_sink(Arc::clone(tr) as SharedTaintSink);
    }
    if let Some(rec) = recorder {
        registry = registry
            .taint_sink(Arc::clone(rec) as SharedTaintSink)
            .observer(Arc::clone(rec) as SharedMpiObserver);
    }
    registry
}

fn run_app_inner(
    app: &AppSpec,
    opts: &RunOptions,
    base_caches: Option<&[Arc<BaseLayer>]>,
) -> RunReport {
    let mut cluster = Cluster::new(effective_cluster_cfg(app, opts));
    if let Some(bases) = base_caches {
        cluster.install_base_caches(bases);
    }

    let injector = opts.spec.clone().map(Injector::new);
    let (tracing, provenance) = opts.effective_trace();
    let tracer = tracing.then(|| Arc::new(Mutex::new(Tracer::new(opts.tracer))));
    let recorder =
        provenance.then(|| Arc::new(Mutex::new(ProvenanceRecorder::new(PROV_LOG_CAPACITY))));
    let fn_logger = opts
        .hook_mpi_symbols
        .then(|| Arc::new(Mutex::new(FnHookLogger::default())));

    let mut registry = run_registry(injector.as_ref(), tracer.as_ref(), recorder.as_ref());
    if let Some(logger) = &fn_logger {
        registry = registry.fn_hook_sink(Arc::clone(logger) as SharedFnHookSink);
    }
    registry.apply(&mut cluster);

    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");

    // Hook the guest MPI wrapper symbols by address, per rank.
    if opts.hook_mpi_symbols {
        for rank in 0..cluster.nranks() {
            let (ni, pid) = cluster.rank_location(rank);
            let program = &app.programs[rank as usize];
            for (hook_id, sym) in [
                abi::symbols::MPI_SEND,
                abi::symbols::MPI_RECV,
                abi::symbols::MPI_BCAST,
                abi::symbols::MPI_REDUCE,
            ]
            .iter()
            .enumerate()
            {
                if let Some(addr) = program.symbol(sym) {
                    cluster
                        .node_mut(ni)
                        .hooks_mut()
                        .fn_hooks
                        .insert((pid, addr), hook_id as u64);
                }
            }
        }
    }

    let cluster_run = run_sampled(&mut cluster, tracer.as_ref());
    build_report(
        &cluster,
        cluster_run,
        injector.as_ref(),
        tracer,
        fn_logger,
        SnapshotStats::default(),
        recorder,
    )
}

/// An application prepared for repeated campaign runs: the golden
/// (fault-free) reference report, per-`(rank, class)` dynamic execution
/// counts, and one immutable base translation cache per node, sealed from
/// a hook-free warm-up run. Cheap to share across worker threads — the
/// base layers are read-only `Arc`s that every run's overlay sits on top
/// of, so workers skip almost all translation work.
#[derive(Debug, Clone)]
pub struct PreparedApp {
    /// The application under test.
    pub app: AppSpec,
    /// The golden reference report (produced by the warm-up run).
    pub golden: RunReport,
    /// Dynamic execution counts per `(rank, class index)`.
    pub profile_counts: HashMap<(u32, usize), u64>,
    /// Clean-TB base layers, one per node, warmed by the golden run.
    pub base_caches: Vec<Arc<BaseLayer>>,
    /// Warm-start checkpoint ladder, when one was captured (see
    /// [`warm_start_for`]). `None` means every run executes from launch.
    pub warm: Option<WarmStart>,
}

/// Most rungs one checkpoint ladder holds, rung 0 included.
const MAX_RUNGS: u64 = 32;

/// Guest memory one ladder may pin, counted as each rung's full resident
/// set (an upper bound: pages unchanged between rungs are one shared
/// `Arc`). Rungs are spaced so their count times rung 0's resident set
/// fits, and capture stops adding rungs once the next one would not.
const RUNG_MEMORY_BUDGET: u64 = 64 << 20;

/// One checkpoint of a ladder: the cluster frozen at a round boundary,
/// plus how far the trigger counters had got there.
#[derive(Debug)]
struct Rung {
    snapshot: Arc<ClusterSnapshot>,
    /// Targeted-class executions per rank up to this rung, counted as an
    /// injector counts them; indexed `rank * classes + class index`.
    counts: Vec<u64>,
}

impl Rung {
    /// Scheduler rounds the rung covers: its index into `round_totals`.
    fn rounds(&self) -> usize {
        self.snapshot.round() as usize
    }
}

/// What a campaign run needs to pick and resume from a rung.
#[derive(Debug)]
struct Ladder {
    /// The profiled program (an injector must target it to use a rung).
    program: String,
    /// The profiled classes, in campaign order.
    classes: Vec<InsnClass>,
    /// Ranks the counts cover.
    nranks: u32,
    /// Rung 0 first, then in execution order.
    rungs: Vec<Rung>,
    /// Total retired instructions after each captured round, up to the
    /// last rung: a restored run replays them into its tracer so its
    /// tainted-byte samples match a cold run's (the prefix holds no taint).
    round_totals: Vec<u64>,
}

impl Ladder {
    /// Where `class` in `rank` sits in every rung's counts, when the
    /// ladder profiled them.
    fn slot(&self, rank: u32, class: InsnClass) -> Option<usize> {
        let ci = self.classes.iter().position(|&c| c == class)?;
        (rank < self.nranks).then(|| rank as usize * self.classes.len() + ci)
    }

    /// The trigger count of `spec`'s class in `spec`'s rank at `rung`,
    /// when the ladder profiled them.
    fn count(&self, rung: &Rung, spec: &InjectionSpec) -> Option<u64> {
        if spec.target_program != self.program {
            return None;
        }
        Some(rung.counts[self.slot(spec.target_rank, spec.class)?])
    }

    /// The rung `spec` restores from and the count its injector resumes
    /// at. A deterministic trigger takes the last rung whose count lies
    /// below its `n`, so its `n`-th execution is still ahead. Every other
    /// trigger takes rung 0: probabilistic triggers draw from the
    /// injector's random stream at every execution, so no execution may be
    /// skipped, and rung 0 predates every targetable one.
    fn pick(&self, spec: Option<&InjectionSpec>) -> (&Rung, u64) {
        let rung0 = &self.rungs[0];
        let Some(spec) = spec.filter(|s| s.max_injections > 0) else {
            return (rung0, 0);
        };
        let Some(start) = self.count(rung0, spec) else {
            return (rung0, 0);
        };
        let Trigger::AfterN(n) = spec.trigger else {
            return (rung0, start);
        };
        let below = self
            .rungs
            .partition_point(|r| self.count(r, spec).is_some_and(|c| c < n));
        let rung = &self.rungs[below.saturating_sub(1)];
        (rung, self.count(rung, spec).unwrap_or(start))
    }
}

/// A warm-start checkpoint ladder shared by every injection run of a
/// campaign. Rung 0 is the cluster frozen at the last round boundary
/// *before any targetable instruction executes*; later rungs follow at
/// round boundaries along the same fault-free execution, each carrying
/// the per-`(rank, class)` execution counts reached there. A run restores
/// the last rung its fault cannot precede (see [`run_warm`]) and executes
/// only the suffix, replay-equivalent to a cold run.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Rung 0's copy-on-write checkpoint. Guest pages inside are
    /// `Arc`-shared across worker threads; each run privatises only the
    /// pages its suffix writes.
    pub snapshot: Arc<ClusterSnapshot>,
    /// Scheduler rounds rung 0 covers.
    pub safe_rounds: u64,
    /// Guest instructions rung 0 retired (skipped by every warm run).
    pub prefix_insns: u64,
    ladder: Arc<Ladder>,
}

impl WarmStart {
    /// Number of rungs in the ladder, rung 0 included.
    pub fn rungs(&self) -> usize {
        self.ladder.rungs.len()
    }

    /// The executions of `class` in `rank` retired by each rung, in ladder
    /// order (an injector resuming there starts its trigger counter at
    /// that count); `None` when the ladder did not profile them.
    pub fn rung_counts(&self, rank: u32, class: InsnClass) -> Option<Vec<u64>> {
        let slot = self.ladder.slot(rank, class)?;
        Some(self.ladder.rungs.iter().map(|r| r.counts[slot]).collect())
    }
}

/// What a warm-start capture must know about the campaign it serves: the
/// `(rank, class)` pairs faults may target, and the per-run execution
/// regime (tracing, watchdog budget) the prefix must be captured under.
#[derive(Debug, Clone)]
pub struct WarmStartOptions {
    /// Instruction classes faults may target.
    pub classes: Vec<InsnClass>,
    /// Ranks faults may target (the campaign's rank pool, expanded).
    pub ranks: Vec<u32>,
    /// Whether campaign runs trace fault propagation.
    pub tracing: bool,
    /// Whether campaign runs record provenance graphs (keeps the taint
    /// machinery on, like `tracing`).
    pub provenance: bool,
    /// The campaign's per-run watchdog budget.
    pub budget: RunBudget,
}

/// The products of one capture pass.
struct Capture {
    warm: Option<WarmStart>,
    /// The pass's profile counts (as [`profile_app`] reports them), when
    /// it ran the application to completion; `None` when the campaign's
    /// watchdog budget cut it short.
    profile_counts: Option<HashMap<(u32, usize), u64>>,
}

/// The one capture pass: a profiled cluster under the exact effective
/// configuration injection runs execute with (same taint policy, same
/// merged budget — RNG streams and round clocks must line up) runs the
/// fault-free execution to completion, round by round.
///
/// * **Rung 0** is frozen at the last round boundary with zero executions
///   of any campaign class on any targetable rank: the pass snapshots
///   before every round until one fires, keeping the latest.
/// * **Later rungs** follow every `(golden insns − rung 0's) / k`
///   instructions, `k` = [`MAX_RUNGS`] capped so that `k` copies of rung
///   0's resident set fit [`RUNG_MEMORY_BUDGET`]; capture stops adding
///   rungs when the summed resident sets would pass the budget.
fn capture(prepared: &PreparedApp, wopts: &WarmStartOptions) -> Capture {
    let app = &prepared.app;
    let run_opts = RunOptions {
        tracing: wopts.tracing,
        provenance: wopts.provenance,
        budget: wopts.budget,
        ..RunOptions::default()
    };
    let mut cluster = Cluster::new(effective_cluster_cfg(app, &run_opts));
    cluster.install_base_caches(&prepared.base_caches);
    let profile = ProfileHook::new(app.name.clone(), wopts.classes.clone());
    HookRegistry::new()
        .instrument(
            Arc::clone(&profile) as SharedTranslateHook,
            ProfileHandle(Arc::clone(&profile)),
        )
        .apply(&mut cluster);
    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");

    let nranks = app.nranks();
    let nclasses = wopts.classes.len();
    let targeted = |counts: &[u64]| {
        wopts.ranks.iter().any(|&r| {
            r < nranks
                && counts[r as usize * nclasses..][..nclasses]
                    .iter()
                    .any(|&c| c > 0)
        })
    };
    let mut rungs: Vec<Rung> = Vec::new();
    let mut round_totals = Vec::new();
    // Before rung 0 is fixed: the snapshot of the last round boundary.
    let mut pending: Option<Rung> = None;
    let (mut step, mut next_at, mut pinned) = (0, 0, 0);
    while !cluster.finished() {
        if rungs.is_empty() {
            pending = Some(Rung {
                snapshot: Arc::new(cluster.snapshot_unstamped()),
                counts: vec![0; nranks as usize * nclasses],
            });
        }
        cluster.step_round();
        let total = cluster.total_insns();
        round_totals.push(total);
        if rungs.is_empty() {
            if !targeted(&profile.trigger_counts(nranks)) {
                continue;
            }
            let rung0 = pending.take().expect("a snapshot precedes every round");
            let resident = rung0.snapshot.resident_pages().max(1) * chaser_isa::PAGE_SIZE;
            let k = (RUNG_MEMORY_BUDGET / resident).clamp(1, MAX_RUNGS);
            let prefix = rung0.snapshot.total_insns();
            step = (prepared.golden.cluster.total_insns.saturating_sub(prefix))
                .div_ceil(k)
                .max(1);
            next_at = prefix + step;
            pinned = resident;
            rungs.push(rung0);
        } else if total >= next_at
            && !cluster.finished()
            && (rungs.len() as u64) < MAX_RUNGS
            && pinned <= RUNG_MEMORY_BUDGET
        {
            let snapshot = cluster.snapshot_unstamped();
            pinned += snapshot.resident_pages() * chaser_isa::PAGE_SIZE;
            if pinned <= RUNG_MEMORY_BUDGET {
                rungs.push(Rung {
                    snapshot: Arc::new(snapshot),
                    counts: profile.trigger_counts(nranks),
                });
            }
            while next_at <= total {
                next_at += step;
            }
        }
    }
    let run = cluster.result();
    let profile_counts = (!run.hang && run.budget_exhausted.is_none()).then(|| profile.counts());
    // No targetable instruction ever executed (every run would skip), or
    // the only rung is the launch state: nothing to warm-start from.
    if rungs.is_empty() || (rungs.len() == 1 && rungs[0].rounds() == 0) {
        return Capture {
            warm: None,
            profile_counts,
        };
    }
    round_totals.truncate(rungs.last().map_or(0, Rung::rounds));
    let rung0 = Arc::clone(&rungs[0].snapshot);
    let warm = WarmStart {
        safe_rounds: rung0.round(),
        prefix_insns: rung0.total_insns(),
        snapshot: rung0,
        ladder: Arc::new(Ladder {
            program: app.name.clone(),
            classes: wopts.classes.clone(),
            nranks,
            rungs,
            round_totals,
        }),
    };
    Capture {
        warm: Some(warm),
        profile_counts,
    }
}

/// Captures a warm-start checkpoint ladder for `prepared` under `wopts` in
/// one profiled pass over the fault-free execution (see `DESIGN.md` §7).
///
/// Returns `None` when warm-starting cannot help: no targetable
/// instruction ever executes (every campaign run would skip anyway), or
/// the first one executes in round 0 and the execution is too short for
/// any later rung.
pub fn warm_start_for(prepared: &PreparedApp, wopts: &WarmStartOptions) -> Option<WarmStart> {
    capture(prepared, wopts).warm
}

/// Prepares `app` for a warm-started campaign: the golden run, then the
/// one capture pass, whose profile counts stand in for [`profile_app`]'s
/// (a second profiled execution runs only when the campaign's watchdog
/// budget stopped the capture pass early).
pub(crate) fn prepare_warm(app: &AppSpec, wopts: &WarmStartOptions) -> PreparedApp {
    let mut prepared = prepare_golden(app);
    let captured = capture(&prepared, wopts);
    prepared.profile_counts = captured
        .profile_counts
        .unwrap_or_else(|| profile_app(app, &wopts.classes).1);
    prepared.warm = captured.warm;
    prepared
}

/// Runs the prepared application once from its warm-start ladder: picks
/// the rung for `opts.spec` (the last one before a deterministic trigger,
/// rung 0 otherwise), restores it (zero-copy; guest pages go
/// copy-on-write), wires this run's hooks with the injector's trigger
/// counter resumed at the rung's count, replays VMI process-creation
/// events so the injector arms exactly as a cold run's would, replays the
/// prefix's round totals into the tracer's sampler, and executes only the
/// suffix. With `share_base_caches`, nodes are also born holding the
/// golden-warmed base translation layers.
///
/// Replay-equivalent to [`run_prepared`] under the same options: the rung
/// predates the run's trigger and RNG streams resume at their captured
/// positions, so the report matches a cold run's (modulo `cache_stats`,
/// `engine_stats`, `parallel` and the `snapshot` counters).
///
/// # Panics
///
/// Panics when `prepared` carries no checkpoint, or when
/// `opts.hook_mpi_symbols` is set (unsupported on the warm path).
pub fn run_warm(prepared: &PreparedApp, opts: &RunOptions, share_base_caches: bool) -> RunReport {
    let warm = prepared
        .warm
        .as_ref()
        .expect("prepared application has no warm-start checkpoint");
    assert!(
        !opts.hook_mpi_symbols,
        "symbol hooks are not supported on the warm path"
    );
    let app = &prepared.app;
    let (rung, start_count) = warm.ladder.pick(opts.spec.as_ref());
    let mut cluster = Cluster::from_snapshot(effective_cluster_cfg(app, opts), &rung.snapshot);

    let injector = opts
        .spec
        .clone()
        .map(|spec| Injector::resumed(spec, start_count));
    let (tracing, provenance) = opts.effective_trace();
    let tracer = tracing.then(|| {
        let mut tracer = Tracer::new(opts.tracer);
        for &total in &warm.ladder.round_totals[..rung.rounds()] {
            tracer.maybe_sample(total, 0);
        }
        Arc::new(Mutex::new(tracer))
    });
    let recorder =
        provenance.then(|| Arc::new(Mutex::new(ProvenanceRecorder::new(PROV_LOG_CAPACITY))));
    run_registry(injector.as_ref(), tracer.as_ref(), recorder.as_ref()).apply(&mut cluster);
    cluster.replay_vmi_creations();
    if share_base_caches {
        cluster.install_base_caches(&prepared.base_caches);
    }

    let cluster_run = run_sampled(&mut cluster, tracer.as_ref());
    let mem = cluster.mem_stats();
    let snapshot = SnapshotStats {
        restores: 1,
        pages_shared: mem.pages_shared,
        pages_cow: mem.pages_cow,
        insns_skipped: rung.snapshot.total_insns(),
    };
    build_report(
        &cluster,
        cluster_run,
        injector.as_ref(),
        tracer,
        None,
        snapshot,
        recorder,
    )
}

/// The golden run and the base translation layers it warms, with no
/// profile counts yet.
fn prepare_golden(app: &AppSpec) -> PreparedApp {
    let mut cluster_cfg = app.cluster.clone();
    cluster_cfg.taint_policy = chaser_taint::TaintPolicy::Disabled;
    let mut cluster = Cluster::new(cluster_cfg);
    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");
    let cluster_run = cluster.run();
    assert!(
        !cluster_run.hang,
        "golden run hung — application or cluster configuration is broken"
    );
    let golden = build_report(
        &cluster,
        cluster_run,
        None,
        None,
        None,
        SnapshotStats::default(),
        None,
    );
    PreparedApp {
        app: app.clone(),
        golden,
        profile_counts: HashMap::new(),
        base_caches: cluster.seal_tb_caches(),
        warm: None,
    }
}

/// Prepares `app` for repeated runs: executes one hook-free golden run,
/// seals every node's translation cache into a shareable base layer, and
/// profiles the dynamic execution counts of `classes`.
///
/// The warm-up must be the *golden* run, not the profiling run: with no
/// translate hook installed every block translates clean, so sealing
/// captures the whole guest working set. [`ProfileHook`] instruments the
/// target's blocks, and sealing drops instrumented TBs.
///
/// # Panics
///
/// Panics when the golden run hangs — the application or cluster
/// configuration is broken.
pub fn prepare_app(app: &AppSpec, classes: &[InsnClass]) -> PreparedApp {
    let mut prepared = prepare_golden(app);
    prepared.profile_counts = profile_app(app, classes).1;
    prepared
}

/// Runs the prepared application once under `opts`, with every node born
/// holding the shared base translation cache. Semantics are identical to
/// [`run_app`] on [`PreparedApp::app`] — instrumented blocks always
/// translate fresh into the per-run overlay, and flushes clear only the
/// overlay — so same options and seed give the same [`RunReport`] contents
/// (modulo `cache_stats`).
pub fn run_prepared(prepared: &PreparedApp, opts: &RunOptions) -> RunReport {
    run_app_inner(&prepared.app, opts, Some(&prepared.base_caches))
}

/// Runs `app` fault-free while counting dynamic executions of each class in
/// `classes`, per rank. Returns the golden report and the counts keyed
/// `(rank, class index)`.
pub fn profile_app(
    app: &AppSpec,
    classes: &[InsnClass],
) -> (RunReport, HashMap<(u32, usize), u64>) {
    let mut cluster = Cluster::new(app.cluster.clone());
    let profile = ProfileHook::new(app.name.clone(), classes.to_vec());
    HookRegistry::new()
        .instrument(
            Arc::clone(&profile) as SharedTranslateHook,
            ProfileHandle(Arc::clone(&profile)),
        )
        .apply(&mut cluster);
    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");
    let cluster_run = cluster.run();
    let report = build_report(
        &cluster,
        cluster_run,
        None,
        None,
        None,
        SnapshotStats::default(),
        None,
    );
    (report, profile.counts())
}

/// Runs `app` under *instruction-level* tracing (see
/// [`crate::InsnLevelTracer`]): every instruction of the target is
/// instrumented, the rejected-alternative baseline for the granularity
/// ablation. With `seed_taint`, `F0` is marked fully tainted at the first
/// traced instruction so there is live taint to chase.
pub fn run_app_insn_traced(
    app: &AppSpec,
    seed_taint: bool,
) -> (RunReport, crate::InsnTraceSummary) {
    // The per-instruction log records firing order from inside the compute
    // phase; keep it deterministic by running serial.
    let mut cluster_cfg = app.cluster.clone();
    cluster_cfg.rank_threads = 1;
    let mut cluster = Cluster::new(cluster_cfg);
    let tracer = crate::InsnLevelTracer::new(app.name.clone(), seed_taint);
    HookRegistry::new()
        .instrument(
            Arc::clone(&tracer) as SharedTranslateHook,
            crate::InsnTraceHandle(Arc::clone(&tracer)),
        )
        .apply(&mut cluster);
    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");
    let cluster_run = cluster.run();
    let report = build_report(
        &cluster,
        cluster_run,
        None,
        None,
        None,
        SnapshotStats::default(),
        None,
    );
    (report, tracer.summary())
}

/// The top-level session object: owns the plugin registry and pending
/// injection commands, and runs experiments.
#[derive(Debug, Default)]
pub struct Chaser {
    host: PluginHost,
    state: HostState,
    loaded: Vec<FiInterface>,
}

impl Chaser {
    /// A fresh session with no plugins loaded.
    pub fn new() -> Chaser {
        Chaser::default()
    }

    /// Loads a plugin: calls its `plugin_init` against the registry.
    pub fn load_plugin(&mut self, plugin: &mut dyn FiPlugin) -> FiInterface {
        let iface = plugin.plugin_init(&mut self.host);
        self.loaded.push(iface.clone());
        iface
    }

    /// Executes a terminal command registered by a loaded plugin (e.g.
    /// `inject_fault matvec mov 1000 5`).
    ///
    /// # Errors
    ///
    /// [`PluginError`] on unknown commands or bad arguments.
    pub fn exec_command(&mut self, line: &str) -> Result<String, PluginError> {
        self.host.exec(&mut self.state, line)
    }

    /// The spec deposited by the last `inject_fault`-style command.
    pub fn pending_spec(&self) -> Option<&InjectionSpec> {
        self.state.pending_spec.as_ref()
    }

    /// Takes (and clears) the pending spec.
    pub fn take_pending_spec(&mut self) -> Option<InjectionSpec> {
        self.state.pending_spec.take()
    }

    /// All commands currently registered.
    pub fn commands(&self) -> Vec<crate::plugin::CommandSpec> {
        self.host.commands().to_vec()
    }

    /// Runs `app` once under `opts`.
    pub fn run(&self, app: &AppSpec, opts: &RunOptions) -> RunReport {
        run_app(app, opts)
    }

    /// Runs `app` once injecting the pending command's spec (with tracing),
    /// consuming the pending spec.
    ///
    /// # Panics
    ///
    /// Panics when no spec is pending — execute an `inject_fault` command
    /// first.
    pub fn run_pending(&mut self, app: &AppSpec) -> RunReport {
        let spec = self
            .take_pending_spec()
            .expect("no pending injection spec; run an inject_fault command first");
        run_app(app, &RunOptions::inject_traced(spec))
    }
}
