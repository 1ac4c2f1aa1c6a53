//! Campaign-plan engine cross-check: every run the fixed-seed CI campaign
//! makes is bit-identical on the reference interpreter and the bytecode
//! VM.
//!
//! Everything above the run store — ECT fitting, slicing, refinement,
//! scoring — is engine-independent, so two engines can only produce
//! different scorecards through different runs. This test therefore
//! checks the runs themselves. It builds the CI plan (test scale, N=16,
//! seed 51966, paper experiments, the CLI's test-scale setup) and its
//! chaos twin (`--runtime-faults 64206`). That plan's config-only
//! scenarios are the paper's RAND-MT (PRNG swap) and AVX2 (FMA in every
//! module) experiments; its 16 generated scenarios happen to hold no
//! config-only mutant, so the first PRNG-swap and the first per-module
//! FMA-toggle mutant of the same seed's longer plan are checked too
//! (plans are random-access per index, so the first 16 entries of the
//! longer plan are the CI plan). For every scenario it runs the
//! scenario's `(model, config)` through [`EnsembleRuns::run_resilient`]
//! (the VM, exactly as `evaluate_against_ensemble` fills the
//! experimental set) and on the interpreter, with the session's
//! experimental perturbations and retry policy. Member 0 and every
//! member the scenario's fault plan strikes must match: the same
//! histories, coverage and health, or the same quarantine error.

use rca_campaign::{plan_campaign, CampaignOptions, CampaignScenario, MutationKind, ScenarioClass};
use rca_core::{ExperimentSetup, RcaSession};
use rca_model::{generate, Experiment, ModelConfig};
use rca_sim::{
    retry_pert, run_loaded, EnsembleRuns, Interpreter, MemberHealth, RunOutput, RuntimeError,
};
use std::sync::Arc;

/// Asserts bit-identical written histories (NaN matches NaN) and
/// identical coverage.
fn assert_same_run(label: &str, a: &RunOutput, b: &RunOutput) {
    let names_a: Vec<_> = a.history_iter().map(|(n, _)| n.clone()).collect();
    let names_b: Vec<_> = b.history_iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names_a, names_b, "{label}: output sets differ");
    for (name, series) in a.history_iter() {
        let other = b.series(name).expect("written in both");
        assert_eq!(series.len(), other.len(), "{label}/{name}: lengths differ");
        for (i, (x, y)) in series.iter().zip(other).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{label}/{name}[{i}]: {x:e} != {y:e}"
            );
        }
    }
    assert_eq!(a.coverage, b.coverage, "{label}: coverage differs");
}

/// Checks one planned scenario; returns how many of the members it
/// compared needed a retry or were quarantined.
fn check_scenario(
    session: &RcaSession<'_>,
    setup: &ExperimentSetup,
    cs: &CampaignScenario,
) -> usize {
    let sc = &cs.scenario;
    let cfg = &sc.config;
    let perts = setup.experiment_perturbations();
    let retries = setup.retry.max_retries;
    let program = session.program_for(&sc.model).expect("compile");
    let store = EnsembleRuns::run_resilient(&program, cfg, &perts, retries);
    let (asts, errs) = sc.model.parse();
    assert!(errs.is_empty(), "{}: {errs:?}", sc.name);

    let mut members: Vec<u32> = cfg.faults.faults.iter().map(|f| f.member).collect();
    members.push(0);
    members.sort_unstable();
    members.dedup();
    for &m in &members {
        let label = format!("{}/member {m}", sc.name);
        // The interpreter walks the member's attempts the way
        // `run_resilient` does: retry perturbation, fault plan
        // re-resolved per attempt, stop at the first success.
        let mut attempt = 0;
        let outcome: Result<RunOutput, RuntimeError> = loop {
            let mut interp = Interpreter::load(&asts, cfg.clone()).expect("load");
            interp.begin_member(m, attempt);
            let res = run_loaded(&mut interp, cfg, retry_pert(perts[m as usize], attempt));
            if res.is_ok() || attempt == retries {
                break res;
            }
            attempt += 1;
        };
        let health = match &outcome {
            Ok(_) if attempt == 0 => MemberHealth::Healthy,
            Ok(_) => MemberHealth::Recovered { retries: attempt },
            Err(e) => MemberHealth::Quarantined { error: e.clone() },
        };
        assert_eq!(store.health()[m as usize], health, "{label}");
        if let Ok(run) = outcome {
            assert_same_run(&label, &run, &store.view(m as usize).materialize());
        }
    }
    members
        .iter()
        .filter(|&&m| store.health()[m as usize] != MemberHealth::Healthy)
        .count()
}

#[test]
fn ci_campaign_plans_run_identically_on_interpreter_and_vm() {
    let model = generate(&ModelConfig::test());
    let setup = ExperimentSetup::quick();
    let session = RcaSession::builder(&model)
        .setup(setup.clone())
        .build()
        .expect("session");
    let model = Arc::new(model.clone());
    let ci = CampaignOptions {
        scenarios: 16,
        seed: 51966,
        include_paper: true,
        ..Default::default()
    };
    let chaos = CampaignOptions {
        runtime_faults: 64206,
        ..ci.clone()
    };
    let mut plan = plan_campaign(&model, &session, &ci);
    let chaos_plan = plan_campaign(&model, &session, &chaos);
    assert!(chaos_plan
        .iter()
        .all(|cs| !cs.scenario.config.faults.is_empty()));
    for paper in [Experiment::RandMt, Experiment::Avx2] {
        assert!(plan
            .iter()
            .any(|cs| cs.class == ScenarioClass::Paper(paper)));
    }
    let longer = plan_campaign(
        &model,
        &session,
        &CampaignOptions {
            scenarios: 256,
            include_paper: false,
            ..ci.clone()
        },
    );
    assert_eq!(
        longer[..ci.scenarios]
            .iter()
            .map(|cs| &cs.scenario.name)
            .collect::<Vec<_>>(),
        plan[..ci.scenarios]
            .iter()
            .map(|cs| &cs.scenario.name)
            .collect::<Vec<_>>()
    );
    for kind in [MutationKind::PrngSwap, MutationKind::FmaToggle] {
        let cs = longer
            .iter()
            .find(|cs| cs.class == ScenarioClass::Mutant(kind))
            .unwrap_or_else(|| panic!("seed {} plans no {kind:?} mutant", ci.seed));
        plan.push(cs.clone());
    }

    let mut degraded = 0;
    for cs in plan.iter().chain(&chaos_plan) {
        degraded += check_scenario(&session, &setup, cs);
    }
    // The chaos plan's faults really struck: retries and quarantines
    // were compared, not only healthy runs.
    assert!(
        degraded > 0,
        "no compared member retried or was quarantined"
    );
}
