//! The traced pass: per-layer metrics.
//!
//! Three sources, all driven from outside the program:
//!
//! 1. **Replay.** Every grid point is prepared and every trial run twice,
//!    sequentially: once through the program's own `Workload::prepare` /
//!    `Prepared::run_trial_with` (the reference, timed per call), and once
//!    by calling the layer functions directly — `Family::generate`,
//!    `IdScheme::build`, the `DerandPipeline` stages, plan builds,
//!    `FaultPlan::schedule` → `RoundPlan::run_with_faults` →
//!    `DecisionScratch::decide_randomized`, `accept_once`,
//!    `run_randomized`, language `contains` — each timed on its own. Each
//!    replayed `TrialOutcome` must equal the reference outcome (replay
//!    parity), so the per-layer times measure the same program. The
//!    derand stages build their plans internally, so for pipeline points
//!    the replay also builds each candidate's plan once more, outside the
//!    replayed segments, to time plan builds from outside.
//! 2. **Traced runs.** Parallel sweeps (or serve request cycles) with
//!    `rlnc_obs` enabled, from which the existing counters and spans are
//!    read, alternated with untraced ones for the tracing overhead.
//! 3. **Serve session.** Request cycles of the `serve-repeat` mix on a
//!    resident server: protocol encode/decode timings, bytes on the wire,
//!    `run-end` plan-cache deltas, and round trips against in-process
//!    `stream_where`. Every traced pass has one, since the CLI sweeps never
//!    reach the serve layer.

use crate::reference::{check_against, SERVE_KINDS};
use crate::report::{median, ratio, timed, Report};
use crate::serve::{check, cycle, Reply, Served};
use crate::sweep::count_failures;
use crate::Bench;
use rand::Rng;
use rlnc_core::derand::hard_instances::HardInstance;
use rlnc_core::prelude::{
    DistributedLanguage, EpsilonSlack, FnAlgorithm, Instance, IoConfig, Label, Labeling,
    LocalAlgorithm, RandomizedDecider, ResilientDecider, Simulator, View,
};
use rlnc_derand::{CaseId, DerandPipeline, LanguageCase};
use rlnc_engine::{DecisionScratch, ExecutionPlan, PlanCache, RoundPlan};
use rlnc_graph::generators::Family;
use rlnc_langs::coloring::{improperly_colored_nodes, ProperColoring};
use rlnc_langs::random_coloring::RandomColoring;
use rlnc_obs::{MetricValue, TraceDocument};
use rlnc_par::rng::SeedSequence;
use rlnc_par::stats::Estimate;
use rlnc_par::trials::TrialOutcome;
use rlnc_par::Scale;
use rlnc_serve::{Request, Response};
use rlnc_sweep::emit::{record_json, to_json};
use rlnc_sweep::workload::{planted_cycle_configuration, Prepared};
use rlnc_sweep::{
    decode_fault_params, GridPoint, IdScheme, Registry, RunRecord, ScenarioSpec, SweepExecutor,
    SweepRun, Workload,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer calls the replay times individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    Generate,
    IdsBuild,
    PlanBuild,
    /// Plan builds the replay adds to time what the derand stages build
    /// internally; outside the replayed segments and the coverage.
    PlanBuildProbe,
    RamseyStage,
    HardInstanceStage,
    UnionStage,
    GluedStage,
    SimulatorRun,
    PlanRunRandomized,
    LanguageContains,
    FaultsSchedule,
    RoundRunWithFaults,
    Decide,
    AcceptOnce,
}

#[derive(Clone, Copy, Default)]
struct Acc {
    secs: f64,
    calls: u64,
    nodes: u64,
}

/// Everything the replay accumulates.
#[derive(Default)]
struct Replay {
    layers: BTreeMap<Layer, Acc>,
    /// Wall time of the replayed segments (the denominator of coverage).
    replay_secs: f64,
    prepare_secs: f64,
    points: u64,
    cached: Acc,
    regenerated: Acc,
    cases: BTreeMap<&'static str, Acc>,
    found: u64,
    probed: u64,
    plan_bytes: u64,
    parity_failed_points: u64,
    /// The reference outcomes folded into records, one run per scenario:
    /// a sequential computation of every point.
    runs: Vec<SweepRun>,
}

impl Replay {
    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        let acc = self.layers.entry(layer).or_default();
        acc.secs += secs;
        acc.calls += 1;
        out
    }

    fn nodes(&mut self, layer: Layer, nodes: usize) {
        self.layers.entry(layer).or_default().nodes += nodes as u64;
    }

    fn get(&self, layer: Layer) -> Acc {
        self.layers.get(&layer).copied().unwrap_or_default()
    }

    fn ns_per_node(&self, layer: Layer) -> f64 {
        let a = self.get(layer);
        ratio(a.secs * 1e9, a.nodes as f64)
    }

    fn ns_per_call(&self, layer: Layer) -> f64 {
        let a = self.get(layer);
        ratio(a.secs * 1e9, a.calls as f64)
    }

    /// Sequential time of prepare plus trials, as the program runs them.
    fn sequential_secs(&self) -> f64 {
        self.prepare_secs + self.cached.secs + self.regenerated.secs
    }

    /// Replays every grid point of `spec` at `scale` under `seed`.
    fn scenario(&mut self, spec: &ScenarioSpec, scale: Scale, seed: u64) {
        let exec = SweepExecutor::new(scale).with_seed(seed);
        let scenario = exec.scenario_sequence(&spec.name);
        let records = spec
            .grid(scale)
            .iter()
            .map(|p| self.point(spec, p, scenario.child(p.index)))
            .collect();
        self.runs.push(SweepRun {
            scenario: spec.name.clone(),
            description: spec.description.clone(),
            workload: spec.workload.name().to_string(),
            scale: scale.name().to_string(),
            master_seed: seed,
            records,
        });
    }

    fn point(&mut self, spec: &ScenarioSpec, p: &GridPoint, point_seq: SeedSequence) -> RunRecord {
        let (prepared, secs) = timed(|| spec.workload.prepare(p, point_seq));
        self.prepare_secs += secs;
        self.points += 1;
        let segment = Instant::now();
        let probes = self.get(Layer::PlanBuildProbe).secs;
        let replayed = self.prepare(&spec.workload, p, point_seq);
        let probes = self.get(Layer::PlanBuildProbe).secs - probes;
        self.replay_secs += segment.elapsed().as_secs_f64() - probes;
        self.plan_bytes += plan_bytes(&replayed);

        let mut scratch = prepared.scratch();
        let mut replay_scratch = ReplayScratch::for_prepared(&replayed);
        let root = point_seq.child(1);
        let mut successes = 0u64;
        let mut values = Vec::with_capacity(p.trials as usize);
        let mut parity = true;
        let mut trial_secs = 0.0;
        for trial in 0..p.trials {
            let seed = root.child(trial);
            let (expected, secs) = timed(|| prepared.run_trial_with(&mut scratch, seed));
            trial_secs += secs;
            let segment = Instant::now();
            let got = self.trial(&replayed, &mut replay_scratch, seed);
            self.replay_secs += segment.elapsed().as_secs_f64();
            parity &=
                expected.success == got.success && expected.value.to_bits() == got.value.to_bits();
            successes += u64::from(expected.success);
            values.push(expected.value);
        }
        self.parity_failed_points += u64::from(!parity);

        let kind = if matches!(prepared, Prepared::Slack { plan: None, .. }) {
            &mut self.regenerated
        } else {
            &mut self.cached
        };
        kind.secs += trial_secs;
        kind.calls += p.trials;
        if let Some(case) = case_of(&spec.workload, p) {
            let acc = self.cases.entry(case.name()).or_default();
            acc.secs += trial_secs;
            acc.calls += p.trials;
        }

        // The record the executor folds from the same outcomes.
        let est = Estimate::from_counts(successes, p.trials);
        let value_sum: f64 = values.iter().sum();
        RunRecord {
            scenario: spec.name.clone(),
            point: p.index,
            family: p.family.name().to_string(),
            n: p.n as u64,
            id_scheme: p.id_scheme.name(),
            workload: spec.workload.name().to_string(),
            param_a: p.params.a,
            param_b: p.params.b,
            trials: p.trials,
            seed: point_seq.seed(),
            successes,
            p_hat: est.p_hat,
            lower: est.lower,
            upper: est.upper,
            mean_value: value_sum / p.trials as f64,
        }
    }

    fn generate(&mut self, family: Family, n: usize, rng: &mut impl Rng) -> rlnc_graph::Graph {
        let graph = self.time(Layer::Generate, || family.generate(n, rng));
        self.nodes(Layer::Generate, graph.node_count());
        graph
    }

    fn ids(
        &mut self,
        scheme: IdScheme,
        graph: &rlnc_graph::Graph,
        rng: &mut impl Rng,
    ) -> rlnc_graph::IdAssignment {
        let ids = self.time(Layer::IdsBuild, || scheme.build(graph, rng));
        self.nodes(Layer::IdsBuild, graph.node_count());
        ids
    }

    /// `Workload::prepare`, through the layer functions.
    fn prepare(&mut self, workload: &Workload, p: &GridPoint, point_seq: SeedSequence) -> Prepared {
        let mut rng = point_seq.child(0).rng();
        match *workload {
            Workload::SlackColoring { colors, epsilon } => {
                let fixed = if p.family.is_randomized() {
                    None
                } else {
                    let graph = self.generate(p.family, p.n, &mut rng);
                    let input = Labeling::empty(graph.node_count());
                    let ids = (!p.id_scheme.is_randomized())
                        .then(|| self.ids(p.id_scheme, &graph, &mut rng));
                    Some((graph, input, ids))
                };
                let plan = match &fixed {
                    Some((graph, input, Some(ids))) => Some(self.time(Layer::PlanBuild, || {
                        ExecutionPlan::for_instance(&Instance::new(graph, input, ids), 0)
                    })),
                    _ => None,
                };
                Prepared::Slack {
                    colors,
                    epsilon,
                    family: p.family,
                    n: p.n,
                    id_scheme: p.id_scheme,
                    fixed,
                    plan,
                }
            }
            Workload::ResilientBoundary { colors } => {
                let f = p.params.a.max(1) as usize;
                let (graph, input, output) = planted_cycle_configuration(p.n, p.params.b);
                let ids = self.ids(p.id_scheme, &graph, &mut rng);
                let decider = ResilientDecider::new(ProperColoring::new(colors), f);
                let io = IoConfig::new(&graph, &input, &output);
                let plan = self.time(Layer::PlanBuild, || {
                    ExecutionPlan::for_io(&io, &ids, RandomizedDecider::radius(&decider))
                });
                Prepared::Resilient { decider, plan }
            }
            Workload::LanguagePipeline => {
                let case = CaseId::from_index(p.params.b).case();
                let nu = p.params.a.max(2) as usize;
                let family = case.candidate_family(p.family);
                let candidates = self.candidates(&case, family, p.n, &mut rng);
                let pipeline = DerandPipeline::new(
                    &*case.constructor,
                    &*case.decider,
                    &*case.language,
                    case.params.into(),
                );
                let universe: Vec<u64> = (1..=(4 * p.n as u64).max(48)).collect();
                let ramsey = self.time(Layer::RamseyStage, || {
                    pipeline.ramsey_stage(
                        &*case.det_family[0],
                        &[candidates[0].as_instance()],
                        &universe,
                        40,
                        point_seq.child(0).seed(),
                    )
                });
                let id_floor = ramsey.id_set.first().copied().unwrap_or(1);
                let algos: Vec<&dyn LocalAlgorithm> =
                    case.det_family.iter().map(|b| &**b).collect();
                let mut cache = PlanCache::new();
                let hard = self.time(Layer::HardInstanceStage, || {
                    pipeline.hard_instance_stage_cached(
                        &algos,
                        &candidates,
                        0,
                        id_floor,
                        &mut cache,
                    )
                });
                self.found += hard.pool.len() as u64;
                self.probed += algos.len() as u64;
                assert!(
                    !hard.pool.is_empty(),
                    "replay found no hard instance for '{}'",
                    case.name
                );
                let union = self.time(Layer::UnionStage, || pipeline.union_stage(&hard.pool, nu));
                let glued = self.time(Layer::GluedStage, || {
                    pipeline.glued_stage_auto(&hard.pool, nu)
                });
                for candidate in &candidates {
                    let plan = self.time(Layer::PlanBuildProbe, || {
                        ExecutionPlan::for_instance(
                            &candidate.as_instance(),
                            case.constructor_radius(),
                        )
                    });
                    std::hint::black_box(plan);
                }
                Prepared::Pipeline {
                    constructor: case.constructor,
                    decider: case.decider,
                    union: union.plan,
                    glued: glued.plan,
                }
            }
            Workload::FaultMatrix => {
                let (plan_kind, intensity) = decode_fault_params(p.params.a);
                let case = CaseId::from_index(p.params.b).case();
                let family = case.candidate_family(p.family);
                let graph = self.generate(family, p.n, &mut rng);
                let ids = self.ids(p.id_scheme, &graph, &mut rng);
                let input = case.build_input(&graph, &ids);
                let instance = Instance::new(&graph, &input, &ids);
                let round_plan = self.time(Layer::PlanBuild, || {
                    RoundPlan::for_instance(&instance, case.constructor_radius())
                });
                let decision_plan = self.time(Layer::PlanBuild, || {
                    ExecutionPlan::for_instance(&instance, case.checking_radius())
                });
                Prepared::FaultMatrix {
                    constructor: case.constructor,
                    decider: case.decider,
                    fault_plan: rlnc_core::FaultPlan::from_index(plan_kind, intensity),
                    round_plan,
                    decision_plan,
                }
            }
            Workload::Claim2Scan => {
                let mut case = CaseId::from_index(p.params.b).case();
                let k = p.params.a.max(1) as usize;
                let family = case.candidate_family(p.family);
                let candidates = self.candidates(&case, family, p.n, &mut rng);
                let algos = scan_family(std::mem::take(&mut case.det_family), k);
                let (found, target) = {
                    let refs: Vec<&dyn LocalAlgorithm> = algos.iter().map(|b| &**b).collect();
                    let pipeline = DerandPipeline::new(
                        &*case.constructor,
                        &*case.decider,
                        &*case.language,
                        case.params.into(),
                    );
                    let mut cache = PlanCache::new();
                    let mut hard = self.time(Layer::HardInstanceStage, || {
                        pipeline.hard_instance_stage_cached(&refs, &candidates, 0, 1, &mut cache)
                    });
                    self.found += hard.pool.len() as u64;
                    self.probed += refs.len() as u64;
                    let found = hard.pool.len();
                    let target = if hard.pool.is_empty() {
                        candidates[0].clone()
                    } else {
                        hard.pool.remove(0)
                    };
                    (found, target)
                };
                let plan = self.time(Layer::PlanBuild, || {
                    ExecutionPlan::for_instance(&target.as_instance(), case.constructor_radius())
                });
                Prepared::Claim2Scan {
                    constructor: case.constructor,
                    language: case.language,
                    target,
                    plan,
                    found,
                    k,
                }
            }
            other => unreachable!("the benchmark runs no '{}' workload", other.name()),
        }
    }

    /// Claim-2 candidates: three increasing members of the case's
    /// candidate family, consecutive identities, case-convention inputs.
    fn candidates(
        &mut self,
        case: &LanguageCase,
        family: Family,
        n: usize,
        rng: &mut impl Rng,
    ) -> Vec<HardInstance> {
        [n, n + 2, n + 4]
            .into_iter()
            .map(|size| {
                let graph = self.generate(family, size, rng);
                let ids = self.ids(IdScheme::Consecutive, &graph, rng);
                let input = case.build_input(&graph, &ids);
                HardInstance::new(graph, input, ids)
            })
            .collect()
    }

    /// `Prepared::run_trial_with`, through the layer functions.
    fn trial(
        &mut self,
        prepared: &Prepared,
        scratch: &mut ReplayScratch,
        seed: SeedSequence,
    ) -> TrialOutcome {
        match prepared {
            Prepared::Slack {
                colors,
                epsilon,
                family,
                n,
                id_scheme,
                fixed,
                plan,
            } => {
                let algo = RandomColoring::new(*colors);
                let generated: Option<(rlnc_graph::Graph, Labeling)>;
                let (graph, input) = match fixed {
                    Some((graph, input, _)) => (graph, input),
                    None => {
                        let graph = self.generate(*family, *n, &mut seed.child(0).rng());
                        let input = Labeling::empty(graph.node_count());
                        generated = Some((graph, input));
                        let (g, i) = generated.as_ref().expect("just generated");
                        (g, i)
                    }
                };
                let nodes = graph.node_count();
                let out = match plan {
                    Some(plan) => {
                        let out = self.time(Layer::PlanRunRandomized, || {
                            plan.run_randomized(&algo, seed.child(2))
                        });
                        self.nodes(Layer::PlanRunRandomized, nodes);
                        out
                    }
                    None => {
                        let generated_ids;
                        let ids = match fixed.as_ref().and_then(|(_, _, ids)| ids.as_ref()) {
                            Some(ids) => ids,
                            None => {
                                generated_ids =
                                    self.ids(*id_scheme, graph, &mut seed.child(1).rng());
                                &generated_ids
                            }
                        };
                        let instance = Instance::new(graph, input, ids);
                        let out = self.time(Layer::SimulatorRun, || {
                            Simulator::new().run_randomized(&algo, &instance, seed.child(2))
                        });
                        self.nodes(Layer::SimulatorRun, nodes);
                        out
                    }
                };
                let io = IoConfig::new(graph, input, &out);
                let (improper, success) = self.time(Layer::LanguageContains, || {
                    let improper = improperly_colored_nodes(&ProperColoring::new(*colors), &io);
                    let relaxed = EpsilonSlack::new(ProperColoring::new(*colors), *epsilon);
                    (improper as f64 / nodes as f64, relaxed.contains(&io))
                });
                self.nodes(Layer::LanguageContains, nodes);
                TrialOutcome {
                    success,
                    value: improper,
                }
            }
            Prepared::Resilient { decider, plan } => {
                let accept = self.time(Layer::Decide, || plan.decide_randomized(decider, seed));
                self.nodes(Layer::Decide, plan.node_count());
                TrialOutcome::from_bool(accept)
            }
            Prepared::FaultMatrix {
                constructor,
                decider,
                fault_plan,
                round_plan,
                ..
            } => {
                let nodes = round_plan.node_count();
                let schedule = self.time(Layer::FaultsSchedule, || {
                    fault_plan.schedule(round_plan.graph(), seed.child(0))
                });
                self.nodes(Layer::FaultsSchedule, nodes);
                let out = self.time(Layer::RoundRunWithFaults, || {
                    round_plan.run_with_faults(&**constructor, seed.child(1), &schedule)
                });
                self.nodes(Layer::RoundRunWithFaults, nodes);
                let decision = scratch
                    .decision
                    .as_mut()
                    .expect("fault-matrix replay scratch");
                let accept = self.time(Layer::Decide, || {
                    decision.decide_randomized(&**decider, &out, seed.child(2))
                });
                self.nodes(Layer::Decide, decision.node_count());
                TrialOutcome {
                    success: accept,
                    value: schedule.faulty_fraction(),
                }
            }
            Prepared::Pipeline {
                constructor,
                decider,
                union,
                glued,
            } => {
                let (union_scratch, union_out) =
                    scratch.union.as_mut().expect("pipeline replay scratch");
                let union_accept = self.time(Layer::AcceptOnce, || {
                    union.plan().accept_once(
                        union_scratch,
                        union_out,
                        &**constructor,
                        &**decider,
                        None,
                        seed.child(0),
                    )
                });
                self.nodes(Layer::AcceptOnce, union.node_count());
                let (glued_scratch, glued_out) =
                    scratch.glued.as_mut().expect("pipeline replay scratch");
                let glued_far = self.time(Layer::AcceptOnce, || {
                    glued.plan().accept_once(
                        glued_scratch,
                        glued_out,
                        &**constructor,
                        &**decider,
                        Some(glued.participants()),
                        seed.child(1),
                    )
                });
                self.nodes(Layer::AcceptOnce, glued.node_count());
                TrialOutcome {
                    success: glued_far,
                    value: f64::from(u8::from(union_accept)),
                }
            }
            Prepared::Claim2Scan {
                constructor,
                language,
                target,
                plan,
                found,
                k,
            } => {
                let out = self.time(Layer::PlanRunRandomized, || {
                    plan.run_randomized(&**constructor, seed.child(0))
                });
                self.nodes(Layer::PlanRunRandomized, plan.node_count());
                let instance = target.as_instance();
                let io = IoConfig::from_instance(&instance, &out);
                let contained = self.time(Layer::LanguageContains, || language.contains(&io));
                self.nodes(Layer::LanguageContains, plan.node_count());
                TrialOutcome {
                    success: !contained,
                    value: *found as f64 / (*k).max(1) as f64,
                }
            }
            _ => unreachable!("the benchmark replays only the workloads it runs"),
        }
    }
}

/// The replay's own per-point buffers (never shared with the reference).
struct ReplayScratch {
    decision: Option<DecisionScratch>,
    union: Option<(DecisionScratch, Labeling)>,
    glued: Option<(DecisionScratch, Labeling)>,
}

impl ReplayScratch {
    fn for_prepared(prepared: &Prepared) -> ReplayScratch {
        let mut scratch = ReplayScratch {
            decision: None,
            union: None,
            glued: None,
        };
        match prepared {
            Prepared::FaultMatrix { decision_plan, .. } => {
                scratch.decision = Some(decision_plan.decision_scratch())
            }
            Prepared::Pipeline { union, glued, .. } => {
                scratch.union = Some((
                    union.plan().decision_scratch(),
                    Labeling::empty(union.node_count()),
                ));
                scratch.glued = Some((
                    glued.plan().decision_scratch(),
                    Labeling::empty(glued.node_count()),
                ));
            }
            _ => {}
        }
        scratch
    }
}

/// Bytes of every engine plan a prepared point holds.
fn plan_bytes(prepared: &Prepared) -> u64 {
    match prepared {
        Prepared::Slack {
            plan: Some(plan), ..
        }
        | Prepared::Resilient { plan, .. }
        | Prepared::Claim2Scan { plan, .. } => plan.working_set_bytes(),
        Prepared::FaultMatrix { decision_plan, .. } => decision_plan.working_set_bytes(),
        Prepared::Pipeline { union, glued, .. } => {
            union.plan().working_set_bytes() + glued.plan().working_set_bytes()
        }
        _ => 0,
    }
}

/// The registry case a point of a per-case workload runs.
fn case_of(workload: &Workload, p: &GridPoint) -> Option<CaseId> {
    matches!(workload, Workload::LanguagePipeline | Workload::FaultMatrix)
        .then(|| CaseId::from_index(p.params.b))
}

/// The `claim2-scan` probe family: the case's deterministic algorithms
/// widened to `k` with same-radius identity-keyed variants. Mirrors the
/// sweep workload's private helper; replay parity fails if they diverge.
fn scan_family(mut algos: Vec<Box<dyn LocalAlgorithm>>, k: usize) -> Vec<Box<dyn LocalAlgorithm>> {
    let radius = algos.first().map_or(1, |a| a.radius());
    for i in algos.len()..k {
        let i = i as u64;
        algos.push(Box::new(FnAlgorithm::new(
            radius,
            "scan-probe",
            move |v: &View| Label::from_u64((v.center_id() + i) % (2 + i % 3)),
        )));
    }
    algos.truncate(k.max(1));
    algos
}

fn counter(doc: &TraceDocument, name: &str) -> u64 {
    match doc.deterministic.get(name).or_else(|| doc.timing.get(name)) {
        Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}

/// Total nanoseconds of a span.
fn span_ns(doc: &TraceDocument, name: &str) -> u64 {
    match doc.timing.get(name) {
        Some(MetricValue::Span { total_ns, .. }) => *total_ns,
        _ => 0,
    }
}

/// What one traced run or request cycle leaves behind.
#[derive(Default)]
struct Traced {
    doc: TraceDocument,
    pool_tasks: u64,
    pool_steals: u64,
    pool_parks: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Runs `f` with `rlnc_obs` enabled from a clean registry.
fn traced<T>(f: impl FnOnce() -> T) -> (T, f64, TraceDocument) {
    rlnc_obs::reset();
    rlnc_obs::set_enabled(true);
    let (out, secs) = timed(f);
    rlnc_obs::set_enabled(false);
    (out, secs, rlnc_obs::snapshot())
}

/// Mean ns per record of `record_json` over `records`.
fn emit_ns_per_record(records: &[&RunRecord]) -> f64 {
    let (bytes, secs) = timed(|| records.iter().map(|r| record_json(r).len()).sum::<usize>());
    std::hint::black_box(bytes);
    ratio(secs * 1e9, records.len() as f64)
}

/// The metrics every traced pass reports, from the replay and the traced
/// documents.
fn layer_metrics(report: &mut Report, replay: &Replay, t: &Traced) {
    let balls = counter(&t.doc, "graph.arena.balls");
    let extract_ns = span_ns(&t.doc, "graph.arena.extract_all");
    let builds = replay.get(Layer::PlanBuild);
    let probes = replay.get(Layer::PlanBuildProbe);
    report.metric(
        "graph.generate_ns_per_node",
        replay.ns_per_node(Layer::Generate),
        "ns",
    );
    report.metric(
        "graph.ids_build_ns_per_node",
        replay.ns_per_node(Layer::IdsBuild),
        "ns",
    );
    report.metric(
        "graph.arena.extract_ns_per_ball",
        ratio(extract_ns as f64, balls as f64),
        "ns",
    );
    report.metric("graph.arena.balls", balls as f64, "count");

    report.metric(
        "engine.plan_build_ns",
        ratio(
            (builds.secs + probes.secs) * 1e9,
            (builds.calls + probes.calls) as f64,
        ),
        "ns",
    );
    report.metric(
        "engine.plans_built",
        counter(&t.doc, "engine.plans_built") as f64,
        "count",
    );
    report.metric(
        "engine.run_randomized_ns_per_node",
        replay.ns_per_node(Layer::PlanRunRandomized),
        "ns",
    );
    report.metric(
        "engine.decide_ns_per_node",
        replay.ns_per_node(Layer::Decide),
        "ns",
    );
    report.metric(
        "engine.accept_once_ns_per_node",
        replay.ns_per_node(Layer::AcceptOnce),
        "ns",
    );
    report.metric(
        "engine.round.run_with_faults_ns_per_node",
        replay.ns_per_node(Layer::RoundRunWithFaults),
        "ns",
    );
    report.metric(
        "engine.plan_cache.hit_ratio",
        ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
        "ratio",
    );
    report.metric(
        "engine.working_set_bytes",
        replay.plan_bytes as f64,
        "bytes",
    );

    report.metric(
        "core.faults.schedule_ns_per_node",
        replay.ns_per_node(Layer::FaultsSchedule),
        "ns",
    );
    report.metric(
        "core.rounds.messages_delivered",
        counter(&t.doc, "core.rounds.messages_delivered") as f64,
        "count",
    );
    report.metric(
        "core.rounds.messages_dropped",
        counter(&t.doc, "core.rounds.messages_dropped") as f64,
        "count",
    );
    report.metric(
        "core.simulator.run_randomized_ns_per_node",
        replay.ns_per_node(Layer::SimulatorRun),
        "ns",
    );
    report.metric(
        "core.language.contains_ns_per_node",
        replay.ns_per_node(Layer::LanguageContains),
        "ns",
    );

    report.metric(
        "derand.ramsey_stage_ns",
        replay.ns_per_call(Layer::RamseyStage),
        "ns",
    );
    report.metric(
        "derand.hard_instance_stage_ns",
        replay.ns_per_call(Layer::HardInstanceStage),
        "ns",
    );
    report.metric(
        "derand.union_stage_ns",
        replay.ns_per_call(Layer::UnionStage),
        "ns",
    );
    report.metric(
        "derand.glued_stage_ns",
        replay.ns_per_call(Layer::GluedStage),
        "ns",
    );
    report.metric(
        "derand.hard_instance.found_ratio",
        ratio(replay.found as f64, replay.probed as f64),
        "ratio",
    );

    let trials = replay.cached.calls + replay.regenerated.calls;
    let trial_secs = replay.cached.secs + replay.regenerated.secs;
    report.metric(
        "sweep.prepare_ns_per_point",
        ratio(replay.prepare_secs * 1e9, replay.points as f64),
        "ns",
    );
    report.metric(
        "sweep.prepare_share",
        ratio(replay.prepare_secs, replay.sequential_secs()),
        "ratio",
    );
    report.metric(
        "sweep.trial_ns",
        ratio(trial_secs * 1e9, trials as f64),
        "ns",
    );
    report.metric(
        "sweep.trial_ns.cached",
        ratio(replay.cached.secs * 1e9, replay.cached.calls as f64),
        "ns",
    );
    report.metric(
        "sweep.trial_ns.regenerated",
        ratio(
            replay.regenerated.secs * 1e9,
            replay.regenerated.calls as f64,
        ),
        "ns",
    );

    report.metric("pool.tasks", t.pool_tasks as f64, "count");
    report.metric("pool.steals", t.pool_steals as f64, "count");
    report.metric("pool.parks", t.pool_parks as f64, "count");
    report.metric("par.width", rlnc_par::pool::thread_count() as f64, "count");

    for case in CaseId::ALL {
        let acc = replay.cases.get(case.name()).copied().unwrap_or_default();
        report.metric(
            format!("case.{}.trial_ns", case.name()),
            ratio(acc.secs * 1e9, acc.calls as f64),
            "ns",
        );
    }

    let leaves: f64 = replay
        .layers
        .iter()
        .filter(|(layer, _)| **layer != Layer::PlanBuildProbe)
        .map(|(_, a)| a.secs)
        .sum();
    report.metric(
        "bench.layer_coverage",
        ratio(leaves, replay.replay_secs),
        "ratio",
    );
    report.note(format!(
        "replay: {} points, {} trials, {:.3} s replayed, {:.3} s in layer calls; parity failures at {} points",
        replay.points, trials, replay.replay_secs, leaves, replay.parity_failed_points
    ));
}

pub fn run_sweep(bench: &Bench, spec: &ScenarioSpec) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let scale = bench.scale();
    let exec = SweepExecutor::new(scale).with_seed(bench.seed);
    let points = spec.grid(scale).len() as u64;
    report.note(format!(
        "traced pass of {} (scenario '{}', {} scale, seed {}), pool width {}",
        bench.workload.name(),
        spec.name,
        scale.name(),
        bench.seed,
        rlnc_par::pool::thread_count()
    ));

    let mut replay = Replay::default();
    replay.scenario(spec, scale, bench.seed);
    let sequential = replay.runs.pop().expect("one replayed scenario");
    report.count(points, replay.parity_failed_points);

    // Untraced and traced parallel sweeps, alternating.
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut first: Option<(Traced, SweepRun)> = None;
    while untraced.is_empty() || start.elapsed().as_secs_f64() < bench.seconds {
        let (plain, secs) = timed(|| exec.run(spec));
        untraced.push(secs);
        let pool0 = rlnc_par::pool::stats();
        let (run, secs, doc) = traced(|| exec.run(spec));
        let pool1 = rlnc_par::pool::stats();
        traced_walls.push(secs);
        for r in [&plain, &run] {
            count_failures(
                &mut report,
                r,
                &sequential,
                points,
                bench.seed == crate::DEFAULT_SEED,
            );
        }
        if first.is_none() {
            first = Some((
                Traced {
                    doc,
                    pool_tasks: pool1.tasks - pool0.tasks,
                    pool_steals: pool1.steals - pool0.steals,
                    pool_parks: pool1.parks - pool0.parks,
                    ..Traced::default()
                },
                run,
            ));
        }
    }
    let (mut t, run) = first.expect("at least one traced sweep");

    // The serve layer, which a CLI sweep does not reach: one untraced and
    // one traced cycle of the serve-repeat mix. The plan-cache hit ratio
    // comes from its `run-end` deltas, as the shared cache is off on the
    // CLI path; the pool deltas stay the sweep's.
    if let Some(session) = serve_session(bench, &mut report, None, || true) {
        let mut served = Traced::default();
        serve_metrics(&mut report, &session, &mut served);
        t.cache_hits = served.cache_hits;
        t.cache_misses = served.cache_misses;
    }
    layer_metrics(&mut report, &replay, &t);
    let records: Vec<&RunRecord> = run.records.iter().collect();
    report.metric(
        "sweep.emit_ns_per_record",
        emit_ns_per_record(&records),
        "ns",
    );
    report.metric("sweep.export_bytes", to_json(&run).len() as f64, "bytes");
    let width = rlnc_par::pool::thread_count() as f64;
    report.metric(
        "par.parallel_efficiency",
        ratio(replay.sequential_secs(), width * median(&untraced)),
        "ratio",
    );
    report.metric(
        "bench.trace_overhead_ratio",
        ratio(median(&traced_walls), median(&untraced)),
        "ratio",
    );
    report.metric(
        "fail_ratio",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    report.note(format!(
        "{} untraced and {} traced sweeps",
        untraced.len(),
        traced_walls.len()
    ));
    report
}

/// A serve session: request cycles of the serve-repeat mix on a fresh
/// resident server, untraced and traced alternately.
struct Session {
    requests: Vec<crate::serve::Request>,
    /// Indices of the first traced cycle's requests.
    traced_requests: Vec<usize>,
    untraced: Vec<f64>,
    traced_walls: Vec<f64>,
    doc: TraceDocument,
    /// Round trip over in-process `stream_where`, per checked request.
    overheads: Vec<f64>,
    /// In-process seconds of the first cycle's requests.
    first_cycle_local: f64,
}

/// Runs untraced and traced cycles, one pair at a time, until `done`
/// (at least one pair). Then it checks every request against an
/// in-process `stream_where` of the same run, and the first cycle
/// against `replayed` when given. Failures count toward the report.
fn serve_session(
    bench: &Bench,
    report: &mut Report,
    replayed: Option<&[SweepRun]>,
    done: impl Fn() -> bool,
) -> Option<Session> {
    let mut served = match Served::start() {
        Ok(s) => s,
        Err(e) => {
            report.problems.push(format!("server start failed: {e}"));
            return None;
        }
    };
    let mut session = Session {
        requests: Vec::new(),
        traced_requests: Vec::new(),
        untraced: Vec::new(),
        traced_walls: Vec::new(),
        doc: TraceDocument::default(),
        overheads: Vec::new(),
        first_cycle_local: 0.0,
    };
    let requests = &mut session.requests;
    while session.untraced.is_empty() || !done() {
        session
            .untraced
            .push(cycle(&mut served.conn, requests, bench.seed, true));
        let first = requests.len();
        let (secs, _, doc) = traced(|| cycle(&mut served.conn, requests, bench.seed, true));
        session.traced_walls.push(secs);
        if session.traced_requests.is_empty() {
            session.doc = doc;
            session.traced_requests.extend(first..requests.len());
        }
    }
    if let Err(e) = served.stop() {
        report.problems.push(e);
    }

    let mut failed = 0;
    for (i, req) in session.requests.iter().enumerate() {
        let (mut ok, secs) = check(req, i, bench.seed);
        if i < SERVE_KINDS.len() {
            session.first_cycle_local += secs;
            if let (
                Some(runs),
                Ok(Reply {
                    kept: Some(outcome),
                    ..
                }),
            ) = (replayed, &req.outcome)
            {
                let points = runs[i].records.len() as u64;
                ok &= check_against(&outcome.run, &runs[i], points)
                    .iter()
                    .all(|b| *b);
            }
        }
        if ok {
            session.overheads.push(req.secs / secs);
        }
        failed += u64::from(!ok);
    }
    report.count(session.requests.len() as u64, failed);
    Some(session)
}

/// The serve-layer metrics over the session's first traced cycle. Adds
/// that cycle's `run-end` cache and pool deltas to `t`, and returns its
/// records with their mean export bytes per request.
fn serve_metrics<'s>(
    report: &mut Report,
    session: &'s Session,
    t: &mut Traced,
) -> (Vec<&'s RunRecord>, f64) {
    let mut lines = Vec::new();
    let mut wire_bytes = 0usize;
    let mut records: Vec<&RunRecord> = Vec::new();
    let mut export_bytes = 0usize;
    for &i in &session.traced_requests {
        let req = &session.requests[i];
        let Ok(Reply {
            kept: Some(outcome),
            ..
        }) = &req.outcome
        else {
            continue;
        };
        t.cache_hits += outcome.plan_cache_hits_delta;
        t.cache_misses += outcome.plan_cache_misses_delta;
        t.pool_tasks += outcome.pool_tasks_delta;
        t.pool_steals += outcome.pool_steals_delta;
        t.pool_parks += outcome.pool_parks_delta;
        export_bytes += to_json(&outcome.run).len();
        let run = &outcome.run;
        let request_line = Request::Run {
            scenario: req.kind.to_string(),
            scale: Scale::Smoke,
            seed: req.seed,
            shard: None,
        }
        .to_json();
        let start_line = Response::RunStart {
            scenario: run.scenario.clone(),
            description: run.description.clone(),
            workload: run.workload.clone(),
            scale: run.scale.clone(),
            master_seed: run.master_seed,
            points: run.records.len() as u64,
        }
        .to_json();
        let end_line = Response::RunEnd {
            records: run.records.len() as u64,
            plan_cache_hits_delta: outcome.plan_cache_hits_delta,
            plan_cache_misses_delta: outcome.plan_cache_misses_delta,
            pool_tasks_delta: outcome.pool_tasks_delta,
            pool_steals_delta: outcome.pool_steals_delta,
            pool_parks_delta: outcome.pool_parks_delta,
        }
        .to_json();
        wire_bytes += request_line.len() + start_line.len() + end_line.len() + 3;
        for r in &run.records {
            records.push(r);
            lines.push(Response::Record { record: r.clone() });
        }
    }
    let (encoded, encode_secs) = timed(|| lines.iter().map(Response::to_json).collect::<Vec<_>>());
    wire_bytes += encoded.iter().map(|l| l.len() + 1).sum::<usize>();
    let (decoded, decode_secs) = timed(|| {
        encoded
            .iter()
            .map(|l| Response::from_json(l))
            .collect::<Vec<_>>()
    });
    if decoded.iter().zip(&lines).any(|(d, l)| d.as_ref() != Ok(l)) {
        report
            .problems
            .push("a record line does not decode to the record it encodes".into());
    }
    let n_records = lines.len() as f64;
    let n_requests = session.traced_requests.len() as f64;
    report.metric(
        "serve.encode_ns_per_record",
        ratio(encode_secs * 1e9, n_records),
        "ns",
    );
    report.metric(
        "serve.decode_ns_per_record",
        ratio(decode_secs * 1e9, n_records),
        "ns",
    );
    report.metric(
        "serve.wire_bytes_per_request",
        ratio(wire_bytes as f64, n_requests),
        "bytes",
    );
    report.metric("serve.overhead_ratio", median(&session.overheads), "ratio");
    report.note(format!(
        "serve session: {} untraced and {} traced request cycles; wire metrics over {n_requests} requests, {n_records} records",
        session.untraced.len(),
        session.traced_walls.len(),
    ));
    (records, ratio(export_bytes as f64, n_requests))
}

pub fn run_serve(bench: &Bench) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let registry = Registry::builtin();
    report.note(format!(
        "traced pass of serve-repeat (seed {}), pool width {}",
        bench.seed,
        rlnc_par::pool::thread_count()
    ));

    // Replay the first request cycle's (scenario, seed) pairs in-process.
    let mut replay = Replay::default();
    for (i, kind) in SERVE_KINDS.iter().enumerate() {
        let spec = registry.get(kind).expect("serve kind is registered");
        replay.scenario(spec, Scale::Smoke, bench.seed.wrapping_add(i as u64));
    }
    report.count(replay.points, replay.parity_failed_points);

    let Some(session) = serve_session(bench, &mut report, Some(&replay.runs), || {
        start.elapsed().as_secs_f64() >= bench.seconds
    }) else {
        return report;
    };
    let mut t = Traced {
        doc: session.doc.clone(),
        ..Traced::default()
    };
    let (records, export_bytes) = serve_metrics(&mut report, &session, &mut t);
    layer_metrics(&mut report, &replay, &t);
    report.metric(
        "sweep.emit_ns_per_record",
        emit_ns_per_record(&records),
        "ns",
    );
    report.metric("sweep.export_bytes", export_bytes, "bytes");
    let width = rlnc_par::pool::thread_count() as f64;
    report.metric(
        "par.parallel_efficiency",
        ratio(replay.sequential_secs(), width * session.first_cycle_local),
        "ratio",
    );
    report.metric(
        "bench.trace_overhead_ratio",
        ratio(median(&session.traced_walls), median(&session.untraced)),
        "ratio",
    );
    report.metric(
        "fail_ratio",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );
    report
}
