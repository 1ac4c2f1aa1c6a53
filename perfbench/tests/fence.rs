//! Fences for the benchmark's client: what it times must be the program
//! as shipped.
//!
//! - The staged client, bare and traced, serializes every diagnosed
//!   subject of a seeded test-scale plan byte-identically to
//!   `RcaSession::diagnose_scenario`, and gives the same verdict, failure
//!   rate, affected outputs and degradation for every passing one, under
//!   both oracles.
//! - Work counts and verdicts repeat exactly on a fresh session.
//! - The timing decorator forwards `name` and `take_errors`.

use climate_rca::graph::NodeId;
use climate_rca::metagraph::MetaGraph;
use climate_rca::model::{generate, ModelConfig};
use climate_rca::rca::{ExperimentSetup, Oracle, OracleKind, RcaSession};
use climate_rca::sim::RuntimeError;
use perfbench::{run_subject, Finished, Passed, Spans, TimedOracle};
use rca_campaign::{plan_campaign, CampaignOptions};
use std::sync::Arc;

fn fence(oracle: OracleKind) {
    let model = Arc::new(generate(&ModelConfig::test()));
    let session = RcaSession::builder(&model)
        .setup(ExperimentSetup::quick())
        .oracle(oracle)
        .build()
        .unwrap();
    let opts = CampaignOptions {
        scenarios: 10,
        seed: 0xBE7C,
        include_paper: true,
        ..CampaignOptions::default()
    };
    let plan = plan_campaign(&model, &session, &opts);
    let (mut passed, mut diagnosed) = (0, 0);
    for cs in &plan {
        let shipped = session.diagnose_scenario(&cs.scenario).unwrap();
        let bare = run_subject(&session, cs, true, None).unwrap();
        let mut spans = Spans::default();
        let traced = run_subject(&session, cs, true, Some(&mut spans)).unwrap();
        let name = &cs.scenario.name;
        for staged in [&bare, &traced] {
            match staged {
                Finished::Passed(p) => assert_eq!(p, &Passed::of(&shipped), "{name}"),
                Finished::Diagnosed(_) => assert_eq!(
                    staged.json(),
                    Some(serde_json::to_string(&shipped).unwrap()),
                    "{name}"
                ),
                Finished::Verdict(_) => unreachable!("full diagnoses were asked for"),
            }
        }
        assert!(traced.agrees(&bare), "{name}");
        match traced {
            Finished::Passed(_) => passed += 1,
            _ => {
                diagnosed += 1;
                assert!(spans.queries > 0, "{name}: the traced oracle saw no query");
                assert!(
                    spans.phases.iter().all(|c| c.inside.is_some()),
                    "{name}: a phase is missing from the profile"
                );
            }
        }
    }
    assert!(
        passed > 0 && diagnosed > 0,
        "plan covers both stopping points"
    );
}

#[test]
fn staged_client_matches_diagnose_scenario_reachability() {
    fence(OracleKind::Reachability);
}

#[test]
fn staged_client_matches_diagnose_scenario_runtime() {
    fence(OracleKind::Runtime);
}

#[test]
fn work_counts_repeat_on_a_fresh_session() {
    let model = Arc::new(generate(&ModelConfig::test()));
    let run = || {
        let session = RcaSession::builder(&model)
            .setup(ExperimentSetup::quick())
            .oracle(OracleKind::Runtime)
            .build()
            .unwrap();
        let opts = CampaignOptions {
            scenarios: 6,
            seed: 3,
            ..CampaignOptions::default()
        };
        plan_campaign(&model, &session, &opts)
            .iter()
            .map(|cs| {
                let mut s = Spans::default();
                let verdict = run_subject(&session, cs, true, Some(&mut s))
                    .unwrap()
                    .verdict();
                let counts = (s.programs, s.slice_nodes, s.slice_edges);
                (verdict, counts, s.iterations, s.queries, s.nodes)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// An oracle with a name and queued errors of its own.
struct Fake(Vec<RuntimeError>);

impl Oracle for Fake {
    fn name(&self) -> &'static str {
        "fake"
    }

    fn differs(&mut self, _: &MetaGraph, nodes: &[NodeId]) -> Vec<bool> {
        vec![true; nodes.len()]
    }

    fn take_errors(&mut self) -> Vec<RuntimeError> {
        std::mem::take(&mut self.0)
    }
}

#[test]
fn timed_oracle_forwards_name_and_errors() {
    let error = RuntimeError {
        message: "boom".into(),
        context: "m".into(),
        line: 1,
    };
    let mut fake = Fake(vec![error.clone()]);
    let mut timed = TimedOracle::new(&mut fake);
    assert_eq!(timed.name(), "fake");
    assert_eq!(timed.take_errors(), vec![error]);
    assert!(timed.take_errors().is_empty());
}
