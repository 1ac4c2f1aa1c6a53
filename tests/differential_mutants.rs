//! Proptest sweep: the bytecode VM and the tree-walking reference
//! interpreter must be bit-identical on **seeded campaign mutants** and
//! under **seeded runtime fault plans**, not just the hand-written paper
//! experiments.
//!
//! The campaign's mutation operators (constant perturbation, operator
//! swap, comparison flip) produce arbitrary single-line source edits
//! across the CAM modules — exactly the inputs the compiled execution
//! engine will see in production fault-injection campaigns. Each case
//! derives a mutant from the sweep seed, runs it through both engines,
//! and requires bit-equal histories and identical coverage.

use climate_rca::{model, sim};
use proptest::prelude::*;
use rca_campaign::{campaign_sites, mutate_site, CampaignRng, MutationKind};
use rca_core::{ExperimentSetup, RcaSession};
use std::sync::OnceLock;

/// Model + mutation sites, built once for the whole sweep (session
/// construction is the expensive part).
fn fixture() -> &'static (model::ModelSource, Vec<model::PatchSite>) {
    static FIX: OnceLock<(model::ModelSource, Vec<model::PatchSite>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let m = model::generate(&model::ModelConfig::test());
        let session = RcaSession::builder(&m)
            .setup(ExperimentSetup::quick())
            .build()
            .expect("session");
        let sites = campaign_sites(&m, &session);
        assert!(!sites.is_empty());
        (m, sites)
    })
}

fn run_both(mutant: &model::ModelSource) -> (sim::RunOutput, sim::RunOutput) {
    let cfg = sim::RunConfig {
        steps: 3,
        ..Default::default()
    };
    let (asts, errs) = mutant.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let mut interp = sim::Interpreter::load(&asts, cfg.clone()).expect("load");
    let tree = sim::run_loaded(&mut interp, &cfg, 0.0).expect("tree-walk");
    let program = sim::compile_model(mutant).expect("compile");
    let compiled = sim::run_program(&program, &cfg, 0.0).expect("compiled");
    (tree, compiled)
}

/// One ensemble-member attempt of `cfg` on the reference interpreter.
fn interpret_member(
    asts: &[climate_rca::fortran::ast::SourceFile],
    cfg: &sim::RunConfig,
    pert: f64,
    member: u32,
    attempt: u32,
) -> Result<sim::RunOutput, sim::RuntimeError> {
    let mut interp = sim::Interpreter::load(asts, cfg.clone())?;
    interp.begin_member(member, attempt);
    sim::run_loaded(&mut interp, cfg, pert)
}

/// The same attempt on the bytecode VM.
fn vm_member(
    program: &std::sync::Arc<sim::Program>,
    cfg: &sim::RunConfig,
    pert: f64,
    member: u32,
    attempt: u32,
) -> Result<sim::RunOutput, sim::RuntimeError> {
    let mut ex = sim::Executor::new(program.clone(), cfg);
    ex.begin_member(member, attempt);
    ex.drive(pert)?;
    Ok(ex.into_run_output())
}

/// Asserts bit-identical written histories (NaN matches NaN) and
/// identical coverage.
fn assert_same_runs(label: &str, a: &sim::RunOutput, b: &sim::RunOutput) {
    assert_eq!(a.written_count(), b.written_count(), "{label}");
    for (name, series) in a.history_iter() {
        let other = b.series(name.as_ref()).expect("written in both");
        assert_eq!(series.len(), other.len(), "{label}/{name}");
        for (i, (x, y)) in series.iter().zip(other).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{label}/{name}[{i}]: {x:e} != {y:e}"
            );
        }
    }
    assert_eq!(&a.coverage, &b.coverage, "{label}: coverage differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mutated models execute bit-identically on both engines.
    #[test]
    fn seeded_mutants_run_bit_identical(seed in 0u64..1_000_000) {
        let (base, sites) = fixture();
        let mut rng = CampaignRng::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let kind = MutationKind::SOURCE_KINDS[seed as usize % MutationKind::SOURCE_KINDS.len()];
        let applicable: Vec<_> = sites.iter().filter(|s| kind.applies_to(s)).collect();
        prop_assert!(!applicable.is_empty());
        let site = applicable[rng.below(applicable.len())];
        let Some((mutant, _detail)) = mutate_site(base, site, kind, &mut rng) else {
            unreachable!("pre-filtered site applies");
        };
        let (tree, compiled) = run_both(&mutant);
        // Histories bit-equal (written outputs only — the compiled
        // engine's dense buffer spans the full OutputId table), coverage
        // identical as a set (id-keyed, compared through the rendered
        // string edge).
        let label = format!("{kind:?} at {}::{}", site.module, site.subprogram);
        assert_same_runs(&label, &tree, &compiled);

        // The columnar run store must reproduce the compiled run
        // bit-for-bit on the same mutant: one member through pooled
        // reset executors vs the standalone run.
        let cfg = sim::RunConfig {
            steps: 3,
            ..Default::default()
        };
        let program = sim::compile_model(&mutant).expect("compile");
        let store = sim::EnsembleRuns::run(&program, &cfg, &[0.0]).expect("store");
        let via_store = store.view(0).materialize();
        let bits = |h: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
            h.iter()
                .map(|s| s.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        prop_assert_eq!(bits(&via_store.history), bits(&compiled.history));
        prop_assert_eq!(&via_store.coverage, &compiled.coverage);
    }

    /// Seeded fault plans never panic either engine, and the reference
    /// interpreter and bytecode VM stay bit-identical *under* the faults
    /// (aborts, retries, quarantines, poisoned/stuck outputs): every
    /// member's attempts are walked the way `run_resilient` walks them,
    /// each attempt must agree on histories or error text, and the VM's
    /// resilient store must hold the interpreter's final outcome.
    #[test]
    fn seeded_fault_plans_run_bit_identical_across_engines(seed in 0u64..1_000_000) {
        let (base, _) = fixture();
        let (asts, errs) = base.parse();
        prop_assert!(errs.is_empty());
        let program = sim::compile_model(base).expect("compile");
        let perts = sim::perturbations(4, 1e-14, seed | 1);
        let steps = 5u32;
        let retries = 2u32;
        let cfg = sim::RunConfig {
            steps,
            faults: sim::FaultPlan::seeded(seed, perts.len(), steps, 1 + (seed % 6) as usize),
            ..Default::default()
        };
        let store = sim::EnsembleRuns::run_resilient(&program, &cfg, &perts, retries);
        for (m, &pert) in perts.iter().enumerate() {
            let mut attempt = 0;
            let last = loop {
                let p = sim::retry_pert(pert, attempt);
                let reference = interpret_member(&asts, &cfg, p, m as u32, attempt);
                let vm = vm_member(&program, &cfg, p, m as u32, attempt);
                let label = format!("seed {seed}/member {m}/attempt {attempt}");
                match (&reference, &vm) {
                    (Ok(a), Ok(b)) => assert_same_runs(&label, a, b),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", label),
                    (a, b) => panic!("{label}: interp={a:?} vm={b:?}"),
                }
                if reference.is_ok() || attempt == retries {
                    break reference;
                }
                attempt += 1;
            };
            let label = format!("seed {seed}/member {m}");
            let health = match &last {
                Ok(_) if attempt == 0 => sim::MemberHealth::Healthy,
                Ok(_) => sim::MemberHealth::Recovered { retries: attempt },
                Err(e) => sim::MemberHealth::Quarantined { error: e.clone() },
            };
            prop_assert_eq!(&store.health()[m], &health, "{}", label);
            if let Ok(run) = last {
                assert_same_runs(&label, &run, &store.view(m).materialize());
            }
        }
    }
}
