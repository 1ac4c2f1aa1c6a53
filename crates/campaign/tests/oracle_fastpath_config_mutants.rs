//! Pruned-vs-full oracle equivalence on the config-only mutant kinds.
//!
//! A per-module FMA toggle and a PRNG swap change no source line: they
//! change how the unchanged program runs. The PRNG stream is one of the
//! effects the slice specializer must preserve (a kept draw keeps every
//! draw), and an FMA toggle moves bits inside kept arithmetic. The fixed
//! CI campaign plan (N=16, seed 51966) holds neither kind, so this test
//! takes the first `FmaToggle` and the first `PrngSwap` mutant of the
//! same seed's 256-entry plan — planned the way `engine_crosscheck.rs`
//! plans it — and diagnoses each with the runtime oracle, fast path on
//! and off. The serialized diagnoses must be byte-identical, and the
//! PRNG-swap diagnosis must actually refine, so the comparison covers
//! specialized oracle queries rather than an early verdict.

use rca_campaign::{plan_campaign, CampaignOptions, MutationKind, ScenarioClass};
use rca_core::{ExperimentSetup, OracleKind, RcaSession};
use rca_model::{generate, ModelConfig};
use std::sync::Arc;

#[test]
fn fastpath_diagnoses_match_full_on_config_only_mutants() {
    let model = generate(&ModelConfig::test());
    let setup = ExperimentSetup::quick();
    let planner = RcaSession::builder(&model)
        .setup(setup.clone())
        .build()
        .expect("session");
    let plan = plan_campaign(
        &Arc::new(model.clone()),
        &planner,
        &CampaignOptions {
            scenarios: 256,
            seed: 51966,
            include_paper: false,
            ..Default::default()
        },
    );
    let session = |fastpath: bool| {
        RcaSession::builder(&model)
            .setup(setup.clone())
            .oracle(OracleKind::Runtime)
            .oracle_fastpath(fastpath)
            .build()
            .expect("session")
    };
    let (on, off) = (session(true), session(false));

    for (kind, name) in [
        (MutationKind::FmaToggle, "036-fma-micro_mg"),
        (MutationKind::PrngSwap, "037-prng"),
    ] {
        let cs = plan
            .iter()
            .find(|cs| cs.class == ScenarioClass::Mutant(kind))
            .unwrap_or_else(|| panic!("seed 51966 plans no {kind:?} mutant"));
        assert_eq!(cs.scenario.name, name, "first {kind:?} mutant moved");
        let d_on = on.diagnose_scenario(&cs.scenario).expect("diagnose on");
        let d_off = off.diagnose_scenario(&cs.scenario).expect("diagnose off");
        assert_eq!(
            serde_json::to_string_pretty(&d_on).expect("serialize"),
            serde_json::to_string_pretty(&d_off).expect("serialize"),
            "{name} ({}): fastpath changed the diagnosis artifact",
            cs.detail
        );
        if kind == MutationKind::PrngSwap {
            let iterations = d_on.refinement.as_ref().map_or(0, |r| r.iterations.len());
            assert!(
                iterations > 0,
                "{name}: no refinement iteration ran, the check is vacuous"
            );
        }
    }
}
