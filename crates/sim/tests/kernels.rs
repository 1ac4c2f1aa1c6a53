//! Column step-kernel coverage: the compiler must extract kernels from
//! the generated model's elementwise loops, and every *edge* the runtime
//! validation guards — non-unit step, zero-trip bounds, fuel exhaustion
//! mid-loop — must leave the VM bit-identical (results *and* errors)
//! with the reference interpreter.
//!
//! The broad differential suite (`tests/differential.rs`)
//! proves parity on the generated model at scale; this file pins the
//! kernel-specific corners with a handwritten model whose loops hit
//! same-array read/write, write-then-read across statements, derived
//! fields, `min`/`max`/`sign` folds, `**`, and unary minus.

use rca_model::{generate, Component, ModelConfig, ModelFile, ModelSource};
use rca_sim::{compile_model, run_loaded, run_program, Interpreter, RunConfig, RunOutput};

const KEDGE: &str = r#"
module ktypes
  implicit none
  type cellfld
    real :: t(7)
  end type cellfld
end module ktypes

module kedge
  use ktypes, only: cellfld
  implicit none
  real :: acc(7)
  real :: aux(7)
  real :: w
  type(cellfld) :: state
contains
  subroutine cam_init(pert)
    real, intent(in) :: pert
    integer :: i
    do i = 1, 7
      acc(i) = 0.1 * i - 0.4 + pert
      aux(i) = 0.05 * i * i - 0.3
      state%t(i) = 250.0 + 2.5 * i
    end do
    w = 0.3 + pert
  end subroutine cam_init

  subroutine cam_run_step()
    integer :: i
    ! Kernelizable: same-array read/write, write-then-read across
    ! statements, derived field, min/max/sign folds, **, unary minus.
    do i = 1, 7
      acc(i) = acc(i) + w * (tanh(aux(i)) - acc(i))
      aux(i) = acc(i) * aux(i) + sign(w, aux(i) - 0.5)
      state%t(i) = max(min(acc(i), state%t(i) * 0.01), -1.2) + abs(aux(i)) ** 0.5
    end do
    ! Kernel-shaped but step 2: runtime validation rejects it and the
    ! generic loop must produce the identical strided result.
    do i = 1, 7, 2
      aux(i) = aux(i) * 0.99 + exp(-abs(acc(i)))
    end do
    ! Zero-trip bounds: validation rejects, DoCheck exits immediately.
    do i = 5, 4
      acc(i) = 1.0e9
    end do
    call outfld('KACC', acc, 7)
    call outfld('KAUX', aux, 7)
    call outfld('KST', state%t, 7)
  end subroutine cam_run_step
end module kedge
"#;

fn kedge_model() -> ModelSource {
    ModelSource {
        files: vec![ModelFile {
            name: "kedge.F90".to_string(),
            component: Component::Cam,
            source: KEDGE.to_string(),
        }],
        config: ModelConfig::test(),
    }
}

fn assert_series_identical(label: &str, a: &RunOutput, b: &RunOutput) {
    let names: Vec<_> = a.history_iter().map(|(n, _)| n.clone()).collect();
    let names_b: Vec<_> = b.history_iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, names_b, "{label}: output sets differ");
    for (name, series) in a.history_iter() {
        let other = b.series(name).expect("written in both");
        assert_eq!(series.len(), other.len(), "{label}/{name}: lengths");
        for (i, (x, y)) in series.iter().zip(other).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}/{name}[{i}]: {x:e} != {y:e}"
            );
        }
    }
}

/// The generated model's filler loops are the kernels' reason to exist:
/// the compiler must actually extract some.
#[test]
fn generated_model_compiles_kernels() {
    let model = generate(&ModelConfig::test());
    let program = compile_model(&model).expect("compile");
    assert!(
        program.kernel_count() > 0,
        "no loops kernelized in the generated model"
    );
    assert!(program.instr_count() > 0);
}

/// Handwritten kernel edge cases: interpreter-vs-VM bit-identity, and
/// the kernelizable loop really compiled to a kernel.
#[test]
fn kernel_edge_cases_are_identical_across_engines() {
    let model = kedge_model();
    let cfg = RunConfig {
        steps: 9,
        ..Default::default()
    };

    let program = compile_model(&model).expect("compile");
    assert!(
        program.kernel_count() >= 1,
        "the elementwise loop did not kernelize"
    );

    let reference = interpret(&model, &cfg, 1.0e-14).expect("tree-walk run");
    let vm = run_program(&program, &cfg, 1.0e-14).expect("vm run");
    assert_series_identical("interp-vs-vm", &reference, &vm);
}

/// Runs `model` on the reference interpreter.
fn interpret(
    model: &ModelSource,
    cfg: &RunConfig,
    pert: f64,
) -> Result<RunOutput, rca_sim::RuntimeError> {
    let (asts, errs) = model.parse();
    assert!(errs.is_empty(), "{errs:?}");
    let mut interp = Interpreter::load(&asts, cfg.clone())?;
    run_loaded(&mut interp, cfg, pert)
}

/// Fuel exhaustion *inside* a kernelized loop: the VM pre-checks the
/// budget and falls back, so the budget error must strike at the exact
/// statement — identical message, context, and line — as the reference
/// interpreter's per-statement accounting.
#[test]
fn kernel_fuel_exhaustion_matches_interpreter_exactly() {
    let model = kedge_model();
    let program = compile_model(&model).expect("compile");
    let cfg = |fuel: u64| RunConfig {
        steps: 9,
        fuel: Some(fuel),
        ..Default::default()
    };
    // Sweep budgets from "dies in cam_init" through "dies mid-kernel" to
    // "completes": every outcome must match the interpreter exactly.
    for fuel in [1, 5, 20, 23, 24, 25, 40, 60, 100, 100_000] {
        let reference = interpret(&model, &cfg(fuel), 0.0);
        let vm = run_program(&program, &cfg(fuel), 0.0);
        match (reference, vm) {
            (Ok(a), Ok(b)) => assert_series_identical(&format!("fuel={fuel}"), &a, &b),
            (Err(a), Err(b)) => {
                assert_eq!(a.message, b.message, "fuel={fuel}: messages differ");
                assert_eq!(a.context, b.context, "fuel={fuel}: contexts differ");
                assert_eq!(a.line, b.line, "fuel={fuel}: lines differ");
            }
            (a, b) => panic!("fuel={fuel}: one engine failed: interp={a:?} vm={b:?}"),
        }
    }
}
