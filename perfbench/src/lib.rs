//! Staged-client benchmark of the RCA pipeline.
//!
//! One client thread drives the public staged API in a closed loop, one
//! subject after another:
//!
//! 1. [`RcaSession::program_for`] (mutant parse + compile),
//! 2. [`RcaSession::statistics_scenario`] (experimental ensemble + UF-ECT),
//! 3. [`Statistics::slice`](climate_rca::rca::session::Statistics::slice),
//! 4. `Sliced::refine_with` over the session's scenario oracle,
//! 5. `Refined::into_diagnosis`.
//!
//! The program's own fan-outs (ensemble fill, betweenness) use every core;
//! the benchmark never nests them inside a scenario fan-out. A traced run
//! times each stage from outside the call and wraps the oracle in
//! [`TimedOracle`], a decorator that forwards everything the pipeline asks
//! of the oracle, so the traced pipeline is the shipped one.

use climate_rca::graph::NodeId;
use climate_rca::metagraph::MetaGraph;
use climate_rca::model::{generate, Experiment, ModelConfig, ModelSource};
use climate_rca::rca::{
    DegradedEnsemble, Diagnosis, ExperimentSetup, Oracle, OracleKind, RcaError, RcaSession,
};
use climate_rca::sim::RuntimeError;
use climate_rca::stats::Verdict;
use rca_campaign::{plan_campaign, CampaignOptions, CampaignRng, CampaignScenario};
use serde::{Json, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named benchmark workload: model scale, statistics setup, oracle, and
/// how far each subject runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale model, full diagnoses with the reachability oracle.
    PaperDiagnose,
    /// Paper-scale model, each subject stops at the UF-ECT verdict.
    PaperEct,
    /// Test-scale model, full diagnoses with the runtime sampling oracle.
    TestRuntime,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperDiagnose,
        Workload::PaperEct,
        Workload::TestRuntime,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDiagnose => "paper-diagnose",
            Workload::PaperEct => "paper-ect",
            Workload::TestRuntime => "test-runtime",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated model's scale.
    pub fn model_config(self) -> ModelConfig {
        match self {
            Workload::PaperDiagnose | Workload::PaperEct => ModelConfig::paper(),
            Workload::TestRuntime => ModelConfig::test(),
        }
    }

    /// The statistical setup (ensemble sizes, steps).
    pub fn setup(self) -> ExperimentSetup {
        match self {
            Workload::PaperDiagnose | Workload::PaperEct => ExperimentSetup::default(),
            Workload::TestRuntime => ExperimentSetup::quick(),
        }
    }

    /// The evidence source refinement consults.
    pub fn oracle(self) -> OracleKind {
        match self {
            Workload::PaperDiagnose | Workload::PaperEct => OracleKind::Reachability,
            Workload::TestRuntime => OracleKind::Runtime,
        }
    }

    /// Whether subjects run past the verdict to a full diagnosis.
    pub fn diagnoses(self) -> bool {
        self != Workload::PaperEct
    }

    /// Whether the run repeats the paper's seven experiments in whole
    /// rounds, each on fresh sessions, instead of walking one seeded plan.
    /// A seeded paper-scale diagnosis costs anywhere from 0.4 to 7 s, so
    /// the dozen a run affords would make `paper-diagnose`'s figures a
    /// draw of the seed; its rounds are fixed, and the seed orders them.
    pub fn rounds(self) -> bool {
        self == Workload::PaperDiagnose
    }

    /// Subjects per second a run is sized for: about this workload's rate
    /// on a busy 2-core host, so that a run of `seconds` seldom takes much
    /// longer. A run's work is fixed so that everything but time
    /// (verdicts, counts, peak memory) repeats exactly for a seed.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::PaperDiagnose => 0.45,
            Workload::PaperEct => 0.85,
            Workload::TestRuntime => 7.0,
        }
    }

    /// Subjects in a run of about `seconds` on a 2-core host: at least the
    /// paper's seven, and whole rounds where the workload has them.
    pub fn subjects(self, seconds: f64) -> usize {
        let paper = Experiment::ALL.len();
        let n = (seconds * self.nominal_rate()).round() as usize;
        if self.rounds() {
            n.div_ceil(paper).max(1) * paper
        } else {
            n.max(paper)
        }
    }

    /// Fresh set-ups before the loop; `setup_s` is the median over these
    /// and any round's set-up.
    pub fn setups(self) -> usize {
        match self {
            Workload::PaperDiagnose => 3,
            Workload::PaperEct => 4,
            Workload::TestRuntime => 15,
        }
    }

    /// Generates the workload's model (the fixed input every seed shares).
    pub fn model(self) -> Arc<ModelSource> {
        Arc::new(generate(&self.model_config()))
    }
}

/// Wall times of one fresh set-up, each measured around the public call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `RcaSessionBuilder::build` (parse, coverage, metagraph).
    pub build: Duration,
    /// `RcaSession::ensemble` (control ensemble + fitted ECT).
    pub ensemble: Duration,
    /// `RcaSession::analyze` (static analysis plane).
    pub analyze: Duration,
    /// `plan_campaign` (site enumeration + mutant generation).
    pub plan: Duration,
}

impl SetupTimes {
    /// Whole set-up time.
    pub fn total(&self) -> Duration {
        self.build + self.ensemble + self.analyze + self.plan
    }
}

/// A session with every lazy session-level cost paid, and its plan in
/// loop order.
#[derive(Debug)]
pub struct Prepared<'m> {
    /// The session the subjects run through.
    pub session: RcaSession<'m>,
    /// Subjects in the order the closed loop visits them.
    pub plan: Vec<CampaignScenario>,
    /// What the set-up cost.
    pub times: SetupTimes,
}

/// Builds a session for `workload` and plans `subjects` subjects from
/// `seed` (one round of the paper's seven for a workload with rounds),
/// timing each lazily paid session-level cost.
pub fn prepare(
    workload: Workload,
    model: &Arc<ModelSource>,
    seed: u64,
    subjects: usize,
) -> Result<Prepared<'_>, RcaError> {
    let t = Instant::now();
    let session = RcaSession::builder(model)
        .setup(workload.setup())
        .oracle(workload.oracle())
        .build()?;
    let build = t.elapsed();
    let t = Instant::now();
    session.ensemble()?;
    let ensemble = t.elapsed();
    let t = Instant::now();
    session.analyze()?;
    let analyze = t.elapsed();
    let t = Instant::now();
    let opts = CampaignOptions {
        scenarios: if workload.rounds() {
            0
        } else {
            subjects - Experiment::ALL.len()
        },
        seed,
        include_paper: true,
        ..CampaignOptions::default()
    };
    let mut plan = plan_campaign(model, &session, &opts);
    if workload.rounds() {
        // A round's subjects are fixed; the seed orders them.
        let mut rng = CampaignRng::new(seed);
        for i in (1..plan.len()).rev() {
            plan.swap(i, rng.below(i + 1));
        }
    }
    let plan_time = t.elapsed();
    Ok(Prepared {
        session,
        plan,
        times: SetupTimes {
            build,
            ensemble,
            analyze,
            plan: plan_time,
        },
    })
}

/// Per-subject stage times and work counts, recorded by a traced run.
/// Every span of one subject carries the subject's id.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Position of the subject in the run (the spans' shared id).
    pub id: usize,
    /// `program_for`: mutant parse + compile (a cache hit when the
    /// subject shares its source with an earlier one).
    pub compile: Duration,
    /// `compiled_programs()` delta across the subject.
    pub programs: usize,
    /// `statistics_scenario`: experimental ensemble fill + UF-ECT.
    pub statistics: Duration,
    /// `Statistics::slice`: backward slice.
    pub slice: Duration,
    /// Slice size entering refinement.
    pub slice_nodes: usize,
    /// Slice edges entering refinement.
    pub slice_edges: usize,
    /// `scenario_oracle` construction, every `differs` call, and the
    /// oracle's teardown.
    pub oracle: Duration,
    /// `differs` calls.
    pub queries: usize,
    /// Nodes asked about across all `differs` calls.
    pub nodes: usize,
    /// `refine_with` minus the oracle's share: betweenness, Girvan–Newman,
    /// centrality and the refinement loop itself.
    pub refine: Duration,
    /// Refinement iterations performed.
    pub iterations: usize,
    /// `into_diagnosis` and the client's own bookkeeping.
    pub finish: Duration,
    /// Full diagnoses only: the outside span around each of
    /// `statistics_scenario`, `slice` and `refine_with`, next to the
    /// program's own timer for the same phase.
    pub phases: Vec<PhaseCheck>,
}

/// One stage timed twice: from outside, around the public call, and by
/// the program's own phase profile inside it.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCheck {
    /// The program's phase name (`phase.slice`, ...).
    pub phase: &'static str,
    /// The span around the public call.
    pub outside: Duration,
    /// The program's timer; `None` when the diagnosis' profile does not
    /// hold exactly one run of the phase.
    pub inside: Option<Duration>,
}

impl Spans {
    /// The layer self times in report order, named as the metrics are.
    pub fn layers(&self) -> [(&'static str, Duration); 6] {
        [
            ("compile", self.compile),
            ("statistics", self.statistics),
            ("slice", self.slice),
            ("oracle", self.oracle),
            ("refine", self.refine),
            ("finish", self.finish),
        ]
    }

    /// Sum of every recorded span.
    pub fn accounted(&self) -> Duration {
        self.layers().iter().map(|(_, d)| *d).sum()
    }

    /// The subject's spans as JSON lines sharing its id.
    pub fn to_jsonl(&self, subject: &str, wall: Duration) -> String {
        let mut out = String::new();
        let mut line = |layer: &str, ms: f64, extra: Vec<(&str, Json)>| {
            let mut fields = vec![
                ("subject_id", self.id.to_json()),
                ("subject", subject.to_json()),
                ("layer", layer.to_json()),
                ("ms", ms.to_json()),
            ];
            fields.extend(extra);
            out.push_str(&serde_json::to_string(&Json::obj(fields)).expect("infallible"));
            out.push('\n');
        };
        for (layer, d) in self.layers() {
            let extra = match layer {
                "compile" => vec![("programs", self.programs.to_json())],
                "slice" => vec![
                    ("nodes", self.slice_nodes.to_json()),
                    ("edges", self.slice_edges.to_json()),
                ],
                "oracle" => vec![
                    ("queries", self.queries.to_json()),
                    ("nodes", self.nodes.to_json()),
                ],
                "refine" => vec![("iterations", self.iterations.to_json())],
                _ => Vec::new(),
            };
            line(layer, ms(d), extra);
        }
        line("subject", ms(wall), Vec::new());
        out
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Oracle decorator that times every `differs` call and counts queries
/// and nodes. `name` and `take_errors` forward to the wrapped oracle, so
/// the diagnosis it helps produce is the one the untimed oracle gives.
pub struct TimedOracle<'o> {
    inner: &'o mut dyn Oracle,
    /// Time spent inside the wrapped `differs`.
    pub time: Duration,
    /// `differs` calls.
    pub queries: usize,
    /// Nodes asked about.
    pub nodes: usize,
}

impl std::fmt::Debug for TimedOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedOracle")
            .field("inner", &self.inner.name())
            .field("time", &self.time)
            .field("queries", &self.queries)
            .field("nodes", &self.nodes)
            .finish()
    }
}

impl<'o> TimedOracle<'o> {
    /// Wraps `inner`.
    pub fn new(inner: &'o mut dyn Oracle) -> TimedOracle<'o> {
        TimedOracle {
            inner,
            time: Duration::ZERO,
            queries: 0,
            nodes: 0,
        }
    }
}

impl Oracle for TimedOracle<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn differs(&mut self, mg: &MetaGraph, nodes: &[NodeId]) -> Vec<bool> {
        let t = Instant::now();
        let answer = self.inner.differs(mg, nodes);
        self.time += t.elapsed();
        self.queries += 1;
        self.nodes += nodes.len();
        answer
    }

    fn take_errors(&mut self) -> Vec<RuntimeError> {
        self.inner.take_errors()
    }
}

/// What a subject whose verdict passed carries: `diagnose_scenario`
/// stops there too, and these are the only fields of its diagnosis that
/// the statistics decide.
#[derive(Debug, Clone, PartialEq)]
pub struct Passed {
    /// The UF-ECT verdict.
    pub verdict: Verdict,
    /// ECT failure rate over all experimental run-sets.
    pub failure_rate: f64,
    /// Affected outputs the statistics selected.
    pub affected: Vec<String>,
    /// Set when the statistics came from a degraded ensemble.
    pub degraded: Option<DegradedEnsemble>,
}

impl Passed {
    /// The same fields of a shipped [`Diagnosis`].
    pub fn of(d: &Diagnosis) -> Passed {
        Passed {
            verdict: d.verdict,
            failure_rate: d.failure_rate,
            affected: d.affected_outputs.clone(),
            degraded: d.degraded,
        }
    }
}

/// Where one subject's pipeline stopped.
#[derive(Debug)]
pub enum Finished {
    /// Stopped at the UF-ECT verdict (ECT-only workloads).
    Verdict(Verdict),
    /// The verdict passed, so there is nothing to slice on.
    Passed(Passed),
    /// A full diagnosis.
    Diagnosed(Box<Diagnosis>),
}

impl Finished {
    /// The UF-ECT verdict.
    pub fn verdict(&self) -> Verdict {
        match self {
            Finished::Verdict(v) => *v,
            Finished::Passed(p) => p.verdict,
            Finished::Diagnosed(d) => d.verdict,
        }
    }

    /// Whether a ground-truth bug node was instrumented or ended in the
    /// final suspect set.
    pub fn located(&self) -> bool {
        matches!(self, Finished::Diagnosed(d) if d.located())
    }

    /// The full diagnosis as `RcaSession::diagnose_scenario` serializes
    /// it (`None` when the subject stopped at or after the verdict).
    pub fn json(&self) -> Option<String> {
        match self {
            Finished::Diagnosed(d) => Some(serde_json::to_string(d.as_ref()).expect("infallible")),
            _ => None,
        }
    }

    /// Whether `self` and `other` are the same outcome: equal verdicts,
    /// equal pass fields, or byte-identical diagnoses.
    pub fn agrees(&self, other: &Finished) -> bool {
        match (self, other) {
            (Finished::Verdict(a), Finished::Verdict(b)) => a == b,
            (Finished::Passed(a), Finished::Passed(b)) => a == b,
            (Finished::Diagnosed(_), Finished::Diagnosed(_)) => self.json() == other.json(),
            _ => false,
        }
    }
}

/// Stopwatch that is only read when tracing: `lap` returns the time since
/// the previous lap, or zero when untraced.
#[derive(Debug)]
struct Laps(Option<Instant>);

impl Laps {
    fn new(on: bool) -> Laps {
        Laps(on.then(Instant::now))
    }

    fn lap(&mut self) -> Duration {
        match self.0 {
            Some(t) => {
                let now = Instant::now();
                self.0 = Some(now);
                now - t
            }
            None => Duration::ZERO,
        }
    }
}

/// Drives one subject through the staged API, stopping at the verdict
/// unless `diagnose`. With `spans`, each stage is timed around its public
/// call and the oracle goes through [`TimedOracle`]; without, the calls
/// are made bare.
pub fn run_subject(
    session: &RcaSession<'_>,
    cs: &CampaignScenario,
    diagnose: bool,
    mut spans: Option<&mut Spans>,
) -> Result<Finished, RcaError> {
    let scenario = &cs.scenario;
    let programs_before = spans.as_ref().map(|_| session.compiled_programs());
    let mut laps = Laps::new(spans.is_some());
    session.program_for(&scenario.model)?;
    let compile = laps.lap();
    let stats = session.statistics_scenario(scenario)?;
    let statistics = laps.lap();
    if let Some(s) = spans.as_deref_mut() {
        s.compile = compile;
        s.programs = session.compiled_programs() - programs_before.unwrap_or_default();
        s.statistics = statistics;
    }
    if !diagnose {
        let verdict = stats.verdict();
        drop(stats);
        if let Some(s) = spans {
            s.finish = laps.lap();
        }
        return Ok(Finished::Verdict(verdict));
    }
    if stats.verdict() == Verdict::Pass {
        return Ok(Finished::Passed(Passed {
            verdict: stats.verdict(),
            failure_rate: stats.data.failure_rate,
            affected: stats.affected,
            degraded: stats.data.degraded,
        }));
    }
    let sliced = stats.slice()?;
    let slice = laps.lap();
    let mut oracle = session.scenario_oracle(scenario);
    let oracle_build = laps.lap();
    let Some(s) = spans else {
        let diagnosis = sliced.refine_with(oracle.as_mut()).into_diagnosis();
        return Ok(Finished::Diagnosed(Box::new(diagnosis)));
    };
    s.slice = slice;
    s.slice_nodes = sliced.slice.graph.node_count();
    s.slice_edges = sliced.slice.graph.edge_count();
    let mut timed = TimedOracle::new(oracle.as_mut());
    let refined = sliced.refine_with(&mut timed);
    let refine = laps.lap();
    let (queried, queries, nodes) = (timed.time, timed.queries, timed.nodes);
    // Tearing the oracle down (its specialized-program caches) is oracle
    // work too, and the bare path pays it inside the subject as well.
    drop(oracle);
    let oracle_drop = laps.lap();
    let diagnosis = refined.into_diagnosis();
    s.finish = laps.lap();
    let profile = diagnosis.profile();
    s.phases = [
        ("phase.statistics", statistics),
        ("phase.slice", slice),
        ("phase.refine", refine),
    ]
    .into_iter()
    .map(|(phase, outside)| PhaseCheck {
        phase,
        outside,
        inside: profile
            .get(phase)
            .filter(|e| e.count == 1)
            .map(|e| Duration::from_nanos(e.nanos)),
    })
    .collect();
    s.oracle = oracle_build + queried + oracle_drop;
    s.queries = queries;
    s.nodes = nodes;
    s.refine = refine.saturating_sub(queried);
    s.iterations = diagnosis.iterations();
    Ok(Finished::Diagnosed(Box::new(diagnosis)))
}
