//! Reachability must see calls wherever the IR evaluates them — also in
//! the subscripts of write targets.
//!
//! A function called only from an assignment target (`a(pick(1)) = ..`),
//! a `random_number` / `pbuf_get_field` target, or a subroutine's
//! copy-out actual argument runs on every step, so it is neither an
//! `unreachable-proc` nor are the outputs it records `unused-output`.

use rca_analysis::ModelAnalysis;
use rca_fortran::parse_source;
use rca_sim::compile_sources;
use std::sync::Arc;

const SRC: &str = "\
module m
  real(r8) :: a(4), b(4), c(4), d(4)
  integer :: tke_idx = 1
contains
  subroutine cam_init()
    a(pick_assign(1)) = 2.0_r8
    call random_number(b(pick_random(1)))
    call pbuf_get_field(tke_idx, c(pick_pbuf(1)))
    call fill(d(pick_copyout(1)))
  end subroutine cam_init
  subroutine cam_run_step()
    call outfld('A', a(1))
  end subroutine cam_run_step
  subroutine fill(x)
    real(r8), intent(out) :: x
    x = 1.0_r8
  end subroutine fill
  integer function pick_assign(i) result(k)
    integer :: i
    k = i
    call outfld('PICKED', 1.0_r8)
  end function pick_assign
  integer function pick_random(i) result(k)
    integer :: i
    k = i
  end function pick_random
  integer function pick_pbuf(i) result(k)
    integer :: i
    k = i
  end function pick_pbuf
  integer function pick_copyout(i) result(k)
    integer :: i
    k = i
  end function pick_copyout
end module m
";

#[test]
fn calls_in_place_subscripts_are_reachable() {
    let (file, errs) = parse_source("reach.F90", SRC);
    assert!(errs.is_empty(), "{errs:?}");
    let program = Arc::new(compile_sources(&[file]).expect("compiles"));
    let analysis = ModelAnalysis::build(Arc::clone(&program));
    let dead: Vec<_> = ["pick_assign", "pick_random", "pick_pbuf", "pick_copyout"]
        .into_iter()
        .filter(|pick| !analysis.proc_reachable(program.proc_index("m", pick).expect("proc")))
        .collect();
    assert!(dead.is_empty(), "reported dead: {dead:?}");
    let report = analysis.lint();
    let false_alarms: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "unreachable-proc" || f.lint == "unused-output")
        .map(|f| format!("{} {}::{} {}", f.lint, f.module, f.subprogram, f.variable))
        .collect();
    assert!(false_alarms.is_empty(), "{false_alarms:?}");
}
