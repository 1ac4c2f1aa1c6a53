//! Golden digests of the two IR-effects consumers whose outputs no other
//! fence pins byte for byte.
//!
//! - The `rca-lint` JSON artifact at test scale: the pristine model with
//!   every paper experiment (the CI clean gate's invocation) and the CI
//!   smoke's `--mutate-seed 51966` dead-store mutant. Lint findings come
//!   from reachability, dataflow and the absint write scans.
//! - The specializer's pruning statistics: `(stmts_total, stmts_kept)`
//!   of `specialize_for_samples` for every single-global module spec of
//!   the test model. Capture equality alone cannot see a specializer that
//!   keeps *more* statements than it needs; these counts can.
//!
//! Both are FNV-1a digests. A change that moves one changes what the
//! analysis plane or the oracle fast path computes, and must say why.

use rca_model::{generate, ModelConfig};
use rca_sim::{compile_model, specialize_with, SampleSpec, SpecIndex};
use std::process::Command;
use std::sync::Arc;

/// FNV-1a over a sequence of strings, each followed by a separator byte.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn eat(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Runs `rca-lint` with `args` and returns the FNV-1a digest of the JSON
/// report it writes.
fn lint_json_digest(tag: &str, args: &[&str]) -> u64 {
    let path =
        std::env::temp_dir().join(format!("rca-lint-golden-{tag}-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_rca-lint"))
        .args(["--scale", "test", "--quiet", "--json"])
        .arg(&path)
        .args(args)
        .status()
        .expect("rca-lint runs");
    assert!(status.success(), "rca-lint {args:?} failed: {status}");
    let text = std::fs::read_to_string(&path).expect("lint report written");
    std::fs::remove_file(&path).ok();
    let mut h = Fnv::new();
    h.eat(&text);
    h.0
}

#[test]
fn lint_json_matches_golden_digests() {
    let clean = lint_json_digest("clean", &["--all-experiments", "--assert-clean"]);
    let mutant = lint_json_digest("mutant", &["--mutate-seed", "51966"]);
    assert_eq!(
        (clean, mutant),
        (0xe519c1d73dd6feb3, 0x79c4407ca92b495e),
        "rca-lint JSON changed: clean {clean:#018x}, mutant {mutant:#018x}"
    );
}

#[test]
fn specializer_counts_match_golden_digest() {
    let program = compile_model(&generate(&ModelConfig::test())).expect("test model compiles");
    let index = SpecIndex::build(&program);
    let mut h = Fnv::new();
    let mut pruned = 0usize;
    for (module_id, name) in program.global_origins() {
        let module = &program.ir_module_names()[*module_id as usize];
        let spec = SampleSpec {
            module: Arc::clone(module),
            subprogram: None,
            name: Arc::clone(name),
        };
        let line = match specialize_with(&index, &program, &[spec]) {
            Some(s) => {
                pruned += usize::from(!s.identical);
                format!("{module}::{name} {} {}", s.stmts_total, s.stmts_kept)
            }
            None => format!("{module}::{name} none"),
        };
        h.eat(&line);
    }
    assert!(pruned > 0, "no single-global spec pruned anything");
    assert_eq!(
        h.0,
        0x4ac453909dd57fc4,
        "specializer statement counts changed: {:#018x} over {} globals ({pruned} pruned)",
        h.0,
        program.global_count()
    );
}
