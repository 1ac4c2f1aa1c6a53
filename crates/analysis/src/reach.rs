//! Interprocedural reachability over pre-resolved call targets.
//!
//! The host drives a run through exactly two entry points (`cam_init`,
//! then `cam_run_step` per step — see `rca_sim::runner`); everything a
//! campaign can observe hangs off that call tree. Procedures outside it
//! are dead code, and outputs recorded only there can never appear in a
//! history.
//!
//! Call edges are the [`Effect::Call`]s of [`effects::proc`], so a call
//! counts wherever the IR evaluates it — operands, init templates, and
//! the subscripts of assignment, `random_number` / `pbuf_get_field` and
//! copy-out targets alike.

use std::ops::ControlFlow;

use rca_sim::{effects, Effect, Program};

/// The subprogram names the host invokes directly.
pub const ENTRY_ROOTS: &[&str] = &["cam_init", "cam_run_step"];

/// Procedures a procedure calls anywhere: declaration templates, array
/// extents, statement operands, and write-target subscripts (every
/// [`Effect::Call`] its walk yields), sorted and deduplicated.
pub fn proc_callees(prog: &Program, proc_index: u32) -> Vec<u32> {
    let mut callees = Vec::new();
    let _ = effects::proc(prog, proc_index, &mut |eff| {
        if let Effect::Call(site) = eff {
            callees.push(prog.ir_sites()[site as usize].proc);
        }
        ControlFlow::Continue(())
    });
    callees.sort_unstable();
    callees.dedup();
    callees
}

/// Procedures reachable from the named entry points over resolved call
/// targets.
pub fn reachable_procs(prog: &Program, roots: &[&str]) -> Vec<bool> {
    let n = prog.ir_procs().len();
    let mut seen = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    for root in roots {
        if let Some(i) = prog.entry_proc_index(root) {
            if !seen[i as usize] {
                seen[i as usize] = true;
                stack.push(i);
            }
        }
    }
    while let Some(p) = stack.pop() {
        for c in proc_callees(prog, p) {
            if !seen[c as usize] {
                seen[c as usize] = true;
                stack.push(c);
            }
        }
    }
    seen
}
