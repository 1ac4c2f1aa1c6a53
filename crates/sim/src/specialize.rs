//! Slice-specialized programs: prune a compiled [`Program`] down to the
//! statements that can influence a sampling query's capture set.
//!
//! The refinement hot loop ([`crate::interp::RunConfig::samples`] +
//! `rca_core`'s runtime oracle) asks one narrow question per iteration:
//! *do these ~30 instrumented variables differ between a control and an
//! experimental run?* Answering it with a full model execution pays for
//! every history write, every module update, and every subprogram the
//! captures never observe. [`specialize_for_samples`] computes an
//! executable backward slice instead: starting from the locations a
//! [`SampleSpec`] set can read, it keeps exactly the statements whose
//! effects can reach those locations (plus everything needed to preserve
//! control flow, the PRNG stream, and error semantics) and drops the
//! rest. The pruned tree IR is re-lowered through the standard bytecode
//! pipeline, so the specialized program runs on the unmodified
//! [`crate::Executor`] VM tier with all of its kernels and pooling.
//!
//! # Soundness contract
//!
//! A specialized program must produce **bit-identical sample captures**
//! to the full program for the spec set it was built for, at any
//! `sample_step` within the truncated horizon. The pass guarantees this
//! with a closed-set fixpoint: the relevant-location set `R` (module
//! globals, per-proc frame slots, the physics buffer, the PRNG stream)
//! is closed so that every kept statement reads and writes only
//! locations in `R`, and every statement anywhere that writes a location
//! in `R` is kept. By induction, locations in `R` hold exactly the
//! full-program values at every point in time; locations outside `R`
//! are never read by kept code.
//!
//! Both halves of that rule read one enumeration: [`crate::effects`]
//! yields every statement's reads, writes (copy-outs included), calls,
//! draws, physics-buffer accesses and deferred errors — the same walk
//! `rca_analysis` derives reachability, use/def events and write sets
//! from. [`SpecIndex::build`] folds each proc's effects into transitive
//! summaries; the keep test stops the walk at the first relevant effect;
//! a kept statement's effects join `R`.
//!
//! The preserved-semantics rules beyond plain dataflow:
//!
//! - **control flow**: a kept `if`/`do`/`do while` evaluates all of its
//!   guards, so guard reads join `R` (which in turn keeps the statements
//!   defining them — loops iterate exactly as the full program does);
//!   `return`/`exit`/`cycle` are always kept.
//! - **the PRNG stream is one location**: if any kept statement draws,
//!   *every* draw in the program is kept, preserving sequence positions.
//! - **capture subprograms keep their invocation counts**: local-variable
//!   samples snapshot at the end of each invocation during the sample
//!   step (last invocation wins), so every call that can transitively
//!   reach a capture proc is kept.
//! - **deferred errors are kept**: compile-lowered `ErrorStmt` /
//!   `ErrorExpr` / invalid places and calls that may transitively reach
//!   one stay in the program, so a model that fails under full execution
//!   fails under specialized execution too.
//! - **live inits always run**: frame initialization of a live proc is
//!   never pruned, and its initializer/extent expression reads join `R`.
//!
//! Residual divergence (a runtime error — out-of-bounds subscript, fuel
//! exhaustion — arising only inside *dropped* statements or after the
//! truncated horizon) is owned by the caller's fallback rule: the
//! runtime oracle discards any specialized-run error and re-executes the
//! query through the generic full-program path, which owns all error
//! semantics — the same shape as the bytecode tier's kernel-validation
//! fallback. The differential equivalence suites and the fastpath-on/off
//! scorecard gate fence the contract end to end.
//!
//! Anything the pass cannot prove separable (missing driver entry
//! points, a fixpoint that fails to settle) returns `None`; callers then
//! use the full program.

use crate::bitset::BitSet;
use crate::bytecode;
use crate::effects::{self, Effect};
use crate::interp::SampleSpec;
use crate::program::{CPlace, CProc, CStmt, EId, LocalTemplate, Program, VarBind};
use crate::value::Value;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// A pruned proc body: the surviving statements plus the live-local
/// init templates `(slot, line, template)` the executor still runs.
type ProcBodyParts = (Box<[CStmt]>, Box<[(u32, u32, LocalTemplate)]>);

/// Pruned `if` arms: `(condition, pruned block)` per arm.
type PrunedArms = Box<[(Option<EId>, Box<[CStmt]>)]>;

/// A slice-specialized program plus its pruning statistics.
#[derive(Debug, Clone)]
pub struct Specialized {
    /// The pruned (re-lowered) program — or the original `Arc` when the
    /// pass proved every statement relevant.
    pub program: Arc<Program>,
    /// Tree-IR statements in the full program (all procs, nested).
    pub stmts_total: usize,
    /// Statements the specialized program kept.
    pub stmts_kept: usize,
    /// `true` when nothing could be pruned (`program` is the input).
    pub identical: bool,
}

impl Specialized {
    /// Fraction of tree-IR statements pruned away (0.0 when identical).
    pub fn pruned_fraction(&self) -> f64 {
        if self.stmts_total == 0 {
            return 0.0;
        }
        1.0 - (self.stmts_kept as f64 / self.stmts_total as f64)
    }
}

/// Specializes `program` for a sampling query capturing exactly `specs`.
///
/// Returns `None` when the pass cannot prove a pruned program
/// equivalent for this capture set (callers fall back to the full
/// program — the generic path owns all error semantics). Returns a
/// [`Specialized`] with `identical == true` (and the input `Arc`) when
/// the analysis keeps everything.
pub fn specialize_for_samples(program: &Arc<Program>, specs: &[SampleSpec]) -> Option<Specialized> {
    specialize_with(&SpecIndex::build(program), program, specs)
}

/// [`specialize_for_samples`] against a prebuilt [`SpecIndex`] — the
/// repeated-query form. The index must have been built from this exact
/// `program`.
pub fn specialize_with(
    index: &SpecIndex,
    program: &Arc<Program>,
    specs: &[SampleSpec],
) -> Option<Specialized> {
    let ctx = Ctx {
        p: program,
        ix: index,
    };
    let mut rel = Rel::new(program, index);

    // Driver entry points: the sampler only ever runs `drive`
    // (cam_init + cam_run_step). A program without them is not ours to
    // specialize.
    let root_init = program.entry_proc_index("cam_init")?;
    let root_step = program.entry_proc_index("cam_run_step")?;
    rel.live[root_init as usize] = true;
    rel.live[root_step as usize] = true;

    let mut capture_procs = vec![false; program.procs.len()];
    ctx.seed(&mut rel, specs, &mut capture_procs);
    let reaches_cap = ctx.reaches_capture(&capture_procs);

    // Monotone fixpoint: relevance, liveness, and keep decisions only
    // grow. Each settled round changes nothing; an unsettled analysis
    // (pathological nesting) falls back to the full program.
    let mut settled = false;
    for _ in 0..64 {
        rel.changed = false;
        for p in 0..program.procs.len() {
            if rel.live[p] {
                ctx.pass_proc(&mut rel, &reaches_cap, p as u32);
            }
        }
        if !rel.changed {
            settled = true;
            break;
        }
    }
    if !settled {
        return None;
    }

    // Materialize: prune live bodies to their stable keep sets, empty
    // dead procs (metadata stays — sample-plan resolution and
    // host lookups still need names and slot counts).
    let total: usize = index.stmts.iter().sum();
    let mut kept = 0usize;
    let mut procs = Vec::with_capacity(program.procs.len());
    for (i, proc) in program.procs.iter().enumerate() {
        let (body, inits): ProcBodyParts = if rel.live[i] {
            let body = prune_block(&rel.kept[i], &proc.body, &mut 0, &mut kept);
            (body, proc.inits.clone())
        } else {
            (Box::from([]), Box::from([]))
        };
        // Metadata only — never `..proc.clone()`, which would deep-copy
        // the body we are about to replace.
        procs.push(CProc {
            module: Arc::clone(&proc.module),
            name: Arc::clone(&proc.name),
            module_id: proc.module_id,
            arg_slots: proc.arg_slots.clone(),
            arg_flows: proc.arg_flows.clone(),
            n_locals: proc.n_locals,
            local_names: proc.local_names.clone(),
            inits,
            result_slot: proc.result_slot,
            body,
            declared_locals: proc.declared_locals.clone(),
        });
    }

    if kept == total {
        return Some(Specialized {
            program: Arc::clone(program),
            stmts_total: total,
            stmts_kept: kept,
            identical: true,
        });
    }

    let mut sp = Program {
        exprs: program.exprs.clone(),
        procs,
        sites: program.sites.clone(),
        globals: program.globals.clone(),
        globals_by_module: program.globals_by_module.clone(),
        module_names: program.module_names.clone(),
        entry_procs: program.entry_procs.clone(),
        procs_by_module: program.procs_by_module.clone(),
        module_vars: program.module_vars.clone(),
        output_names: Arc::clone(&program.output_names),
        global_init_deps: program.global_init_deps.clone(),
        global_origins: program.global_origins.clone(),
        syms: Arc::clone(&program.syms),
        bc: Default::default(),
    };
    sp.bc = bytecode::lower(&sp);
    Some(Specialized {
        program: Arc::new(sp),
        stmts_total: total,
        stmts_kept: kept,
        identical: false,
    })
}

// ----- relevance state ---------------------------------------------------

/// The growing relevant-location set `R`, proc liveness, and the
/// statements kept so far.
struct Rel {
    globals: BitSet,
    /// Per proc, by frame slot.
    locals: Vec<BitSet>,
    pbuf: bool,
    prng: bool,
    live: Vec<bool>,
    /// Per proc, by statement pre-order index ([`effects::block`]). The
    /// keep test is monotone in `R` and a statement's joins do not
    /// depend on `R`, so a kept statement stays kept and is joined once.
    kept: Vec<BitSet>,
    changed: bool,
}

impl Rel {
    fn new(p: &Program, ix: &SpecIndex) -> Rel {
        Rel {
            globals: BitSet::new(p.globals.len()),
            locals: p.procs.iter().map(|pr| BitSet::new(pr.n_locals)).collect(),
            pbuf: false,
            prng: false,
            live: vec![false; p.procs.len()],
            kept: ix.stmts.iter().map(|&n| BitSet::new(n)).collect(),
            changed: false,
        }
    }

    fn add_global(&mut self, g: u32) {
        self.changed |= self.globals.insert(g as usize);
    }

    fn add_local(&mut self, proc: u32, slot: u32) {
        self.changed |= self.locals[proc as usize].insert(slot as usize);
    }

    fn add_pbuf(&mut self) {
        self.changed |= !self.pbuf;
        self.pbuf = true;
    }

    fn add_prng(&mut self) {
        self.changed |= !self.prng;
        self.prng = true;
    }

    fn mark_live(&mut self, proc: u32) {
        self.changed |= !self.live[proc as usize];
        self.live[proc as usize] = true;
    }

    /// Does an access through `bind` in `proc` touch a location in `R`?
    fn hits(&self, proc: u32, bind: VarBind) -> bool {
        bind.local()
            .is_some_and(|s| self.locals[proc as usize].contains(s as usize))
            || bind
                .global()
                .is_some_and(|g| self.globals.contains(g as usize))
    }

    /// Binding read/write: `LocalOrGlobal` dispatches on slot liveness at
    /// runtime, so both locations join (definedness must match the full
    /// program for the dispatch — and therefore the access — to agree).
    fn add_bind(&mut self, proc: u32, bind: VarBind) {
        if let Some(s) = bind.local() {
            self.add_local(proc, s);
        }
        if let Some(g) = bind.global() {
            self.add_global(g);
        }
    }
}

// ----- per-proc transitive effect summaries ------------------------------

/// Full-body effect summary of one proc, transitively closed over the
/// static call graph. Computed once, independent of `R`: whether a call
/// must be kept is decided against what the callee *could* do, and every
/// relevant effect inside it is then kept by the callee's own pass.
#[derive(Clone, Debug)]
struct Summary {
    /// Module globals the proc (or any transitive callee) may write —
    /// direct places, caller-side copy-out targets, `LocalOrGlobal`
    /// fallbacks included.
    gwrites: BitSet,
    writes_pbuf: bool,
    draws: bool,
    /// May raise a deferred compile error (`ErrorStmt`/`ErrorExpr`,
    /// invalid places, unknown-function fallbacks, failing init
    /// templates) — calls to it must stay so failures still fire.
    may_error: bool,
}

/// The program-dependent half of the analysis — per-proc transitive
/// effect summaries, the static call graph, and the derived-field writer
/// map. Everything here is independent of any particular spec set, so a
/// caller issuing many queries against one program (the runtime sampler)
/// builds it once and amortizes it across every
/// [`specialize_with`] call.
#[derive(Debug)]
pub struct SpecIndex {
    summaries: Vec<Summary>,
    callees: Vec<Vec<u32>>,
    /// Statements per proc, nested blocks included.
    stmts: Vec<usize>,
    /// Module globals written through a `CPlace::Derived` with a given
    /// field name anywhere in the program — the module-level capture
    /// scan can observe these through any derived global, so a module
    /// spec seeds all of them.
    derived_writers: HashMap<Arc<str>, Vec<u32>>,
}

impl SpecIndex {
    /// Collects every proc's direct effects in one [`effects::proc`]
    /// walk, then closes the summaries over the call graph.
    pub fn build(p: &Program) -> SpecIndex {
        let mut summaries = Vec::with_capacity(p.procs.len());
        let mut callees = Vec::with_capacity(p.procs.len());
        let mut stmts = Vec::with_capacity(p.procs.len());
        let mut derived_writers: HashMap<Arc<str>, Vec<u32>> = HashMap::new();
        for i in 0..p.procs.len() {
            let mut sum = Summary {
                gwrites: BitSet::new(p.globals.len()),
                writes_pbuf: false,
                draws: false,
                may_error: false,
            };
            let mut calls = Vec::new();
            let _ = effects::proc(p, i as u32, &mut |eff| {
                match eff {
                    Effect::Write { place, .. } => {
                        if let Some(g) = place.bind().and_then(VarBind::global) {
                            sum.gwrites.insert(g as usize);
                            // The module-level capture scan can observe
                            // this field through any derived global:
                            // remember the write target.
                            if let CPlace::Derived { field, .. } = place {
                                let slots = derived_writers.entry(field.clone()).or_default();
                                if !slots.contains(&g) {
                                    slots.push(g);
                                }
                            }
                        }
                    }
                    Effect::Call(site) => calls.push(p.sites[site as usize].proc),
                    Effect::Draw => sum.draws = true,
                    Effect::PbufWrite => sum.writes_pbuf = true,
                    Effect::MayError => sum.may_error = true,
                    Effect::Read(..) | Effect::PbufRead | Effect::Output(_) => {}
                }
                ControlFlow::Continue(())
            });
            let mut n = 0;
            let _ = effects::block(&p.procs[i].body, &mut |_| {
                n += 1;
                ControlFlow::Continue(())
            });
            stmts.push(n);
            summaries.push(sum);
            calls.sort_unstable();
            calls.dedup();
            callees.push(calls);
        }
        // Transitive closure over the call graph (cycle-safe fixpoint).
        loop {
            let mut changed = false;
            for i in 0..summaries.len() {
                for &q in &callees[i] {
                    if q as usize == i {
                        continue;
                    }
                    let callee = summaries[q as usize].clone();
                    let s = &mut summaries[i];
                    changed |= s.gwrites.union_with(&callee.gwrites);
                    changed |= callee.writes_pbuf && !s.writes_pbuf;
                    s.writes_pbuf |= callee.writes_pbuf;
                    changed |= callee.draws && !s.draws;
                    s.draws |= callee.draws;
                    changed |= callee.may_error && !s.may_error;
                    s.may_error |= callee.may_error;
                }
            }
            if !changed {
                break;
            }
        }
        SpecIndex {
            summaries,
            callees,
            stmts,
            derived_writers,
        }
    }
}

struct Ctx<'p> {
    p: &'p Program,
    ix: &'p SpecIndex,
}

impl<'p> Ctx<'p> {
    /// Procs that are (or can transitively call) a capture proc —
    /// their invocation counts are observable, so calls to them stay.
    fn reaches_capture(&self, capture_procs: &[bool]) -> Vec<bool> {
        let mut reach = capture_procs.to_vec();
        loop {
            let mut changed = false;
            for i in 0..reach.len() {
                if !reach[i] && self.ix.callees[i].iter().any(|&q| reach[q as usize]) {
                    reach[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return reach;
            }
        }
    }

    /// Seeds `R` from the spec set, mirroring the executor's capture
    /// resolution exactly ([`crate::exec`]'s `build_sample_plans` +
    /// `capture_module_samples`): module specs read the resolved global
    /// slot *and* — through the derived-field scan fallback — any
    /// derived global carrying the field; local specs read one frame
    /// slot of one capture proc. Unresolvable specs capture nothing in
    /// both programs and seed nothing.
    fn seed(&self, rel: &mut Rel, specs: &[SampleSpec], capture_procs: &mut [bool]) {
        for spec in specs {
            match &spec.subprogram {
                None => {
                    if let Some(g) = self.p.global_slot(&spec.module, &spec.name) {
                        rel.add_global(g);
                    }
                    for (slot, val) in self.p.globals.iter().enumerate() {
                        if let Value::Derived(fields) = val {
                            if fields.contains_key(&*spec.name) {
                                rel.add_global(slot as u32);
                            }
                        }
                    }
                    if let Some(slots) = self.ix.derived_writers.get(&spec.name) {
                        for &g in slots {
                            rel.add_global(g);
                        }
                    }
                }
                Some(sub) => {
                    let Some(q) = self.p.proc_slot(&spec.module, sub) else {
                        continue;
                    };
                    let proc = &self.p.procs[q as usize];
                    let Some(slot) = proc.local_names.iter().position(|n| **n == *spec.name) else {
                        continue;
                    };
                    rel.add_local(q, slot as u32);
                    capture_procs[q as usize] = true;
                }
            }
        }
    }

    // ----- keep decisions + closure (one round over a live proc) ---------

    fn pass_proc(&self, rel: &mut Rel, reach: &[bool], proc: u32) {
        // Frame initialization always runs for a live proc; its extent
        // and initializer expressions are evaluated unconditionally, so
        // their reads must hold full-program values.
        let p = self.p;
        for (_, _, tpl) in &p.procs[proc as usize].inits {
            let _ = effects::template(p, tpl, &mut |eff| self.join(rel, proc, eff));
        }
        self.pass_block(rel, reach, proc, &p.procs[proc as usize].body, &mut 0);
    }

    /// Passes a block whose first statement has pre-order index `*next`.
    fn pass_block(
        &self,
        rel: &mut Rel,
        reach: &[bool],
        proc: u32,
        body: &[CStmt],
        next: &mut usize,
    ) -> bool {
        let mut any = false;
        for s in body {
            any |= self.pass_stmt(rel, reach, proc, s, next);
        }
        any
    }

    /// Decides whether `s` must stay and, the first time it does, joins
    /// everything its own operands read and write into `R` (the
    /// closed-set induction of the module docs). Monotone in `R`, so
    /// round order cannot change the fixpoint.
    fn pass_stmt(
        &self,
        rel: &mut Rel,
        reach: &[bool],
        proc: u32,
        s: &CStmt,
        next: &mut usize,
    ) -> bool {
        let id = *next;
        *next += 1;
        let known = rel.kept[proc as usize].contains(id);
        // Control-transfer statements shape which kept statements run:
        // always preserved (their containers may still drop). A loop
        // whose variable is relevant stays.
        let mut keep = known
            || matches!(s, CStmt::Return | CStmt::Exit | CStmt::Cycle)
            || matches!(s, CStmt::Do { var, .. }
                    if rel.locals[proc as usize].contains(*var as usize))
            || self.stmt_relevant(rel, reach, proc, s);
        // Nested blocks prune statement by statement; anything kept
        // inside keeps its container, whose guards then join `R`. A kept
        // `if` evaluates every guard on the path to the taken arm, and a
        // loop's guard reads keep every statement defining them — inside
        // its body too — so loops iterate exactly as in the full program.
        match s {
            CStmt::If { arms, .. } => {
                for (_, b) in arms {
                    keep |= self.pass_block(rel, reach, proc, b, next);
                }
            }
            CStmt::Do { body, .. } | CStmt::DoWhile { body, .. } => {
                keep |= self.pass_block(rel, reach, proc, body, next);
            }
            _ => {}
        }
        if keep && !known {
            rel.kept[proc as usize].insert(id);
            if let CStmt::Do { var, .. } = s {
                rel.add_local(proc, *var);
            }
            let _ = effects::stmt(self.p, s, &mut |eff| self.join(rel, proc, eff));
        }
        keep
    }

    /// Whether any effect of `s`'s own operands forces keeping it.
    fn stmt_relevant(&self, rel: &Rel, reach: &[bool], proc: u32, s: &CStmt) -> bool {
        effects::stmt(self.p, s, &mut |eff| {
            if self.relevant(rel, reach, proc, eff) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
    }

    /// The keep rule per effect: a write to a location in `R`, a call
    /// whose callee could touch `R` (or must keep its invocation count,
    /// or may fail), a deferred error, a draw once the PRNG stream is
    /// relevant, a physics-buffer write once the buffer is. Reads never
    /// force a statement; they join `R` once it is kept. Oracle runs
    /// never read histories, so an `outfld` record is no reason either.
    fn relevant(&self, rel: &Rel, reach: &[bool], proc: u32, eff: Effect<'_>) -> bool {
        match eff {
            Effect::Write { place, .. } => place.bind().is_some_and(|b| rel.hits(proc, b)),
            Effect::Call(site) => {
                let callee = self.p.sites[site as usize].proc as usize;
                let s = &self.ix.summaries[callee];
                s.may_error
                    || reach[callee]
                    || (s.writes_pbuf && rel.pbuf)
                    || (s.draws && rel.prng)
                    || s.gwrites.intersects(&rel.globals)
            }
            Effect::MayError => true,
            Effect::Draw => rel.prng,
            Effect::PbufWrite => rel.pbuf,
            Effect::Read(..) | Effect::PbufRead | Effect::Output(_) => false,
        }
    }

    /// Joins one effect of kept code into `R` (full read- and
    /// write-closure: kept code must never read a location outside `R`,
    /// or its value — and even its definedness — could diverge; partial
    /// updates `a(i) = v` read their container, and keeping every def of
    /// a written location is what makes `R` self-consistent). An
    /// executed call makes its callee live and reads the callee's result
    /// and copy-out source slots; the PRNG stream and the physics buffer
    /// join when drawn from or read.
    fn join(&self, rel: &mut Rel, proc: u32, eff: Effect<'_>) -> ControlFlow<()> {
        match eff {
            Effect::Read(bind, _) => rel.add_bind(proc, bind),
            Effect::Write { place, .. } => {
                if let Some(b) = place.bind() {
                    rel.add_bind(proc, b);
                }
            }
            Effect::Call(site) => {
                let cs = &self.p.sites[site as usize];
                rel.mark_live(cs.proc);
                if let Some(r) = self.p.procs[cs.proc as usize].result_slot {
                    rel.add_local(cs.proc, r);
                }
                for (dummy, _) in &cs.copyout {
                    rel.add_local(cs.proc, *dummy);
                }
            }
            Effect::Draw => rel.add_prng(),
            Effect::PbufRead => rel.add_pbuf(),
            Effect::PbufWrite | Effect::Output(_) | Effect::MayError => {}
        }
        ControlFlow::Continue(())
    }
}

/// Rebuilds a block keeping exactly the statements marked in `kept` (a
/// proc's keep set at the stable fixpoint, indexed in pre-order from
/// `*next`), counting them into `n_kept`.
fn prune_block(
    kept: &BitSet,
    body: &[CStmt],
    next: &mut usize,
    n_kept: &mut usize,
) -> Box<[CStmt]> {
    let mut out = Vec::new();
    for s in body {
        let keep = kept.contains(*next);
        *next += 1;
        let pruned = match s {
            CStmt::If { arms, line } => {
                let arms: PrunedArms = arms
                    .iter()
                    .map(|(c, b)| (*c, prune_block(kept, b, next, n_kept)))
                    .collect();
                CStmt::If { arms, line: *line }
            }
            CStmt::Do {
                var,
                start,
                end,
                step,
                body,
                line,
            } => CStmt::Do {
                var: *var,
                start: *start,
                end: *end,
                step: *step,
                body: prune_block(kept, body, next, n_kept),
                line: *line,
            },
            CStmt::DoWhile { cond, body, line } => CStmt::DoWhile {
                cond: *cond,
                body: prune_block(kept, body, next, n_kept),
                line: *line,
            },
            _ if keep => s.clone(),
            _ => continue,
        };
        if keep {
            *n_kept += 1;
            out.push(pruned);
        }
    }
    out.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RunConfig;
    use crate::runner::compile_model;
    use crate::Executor;
    use rca_model::{generate, ModelConfig};

    fn spec(module: &str, name: &str) -> SampleSpec {
        SampleSpec {
            module: module.into(),
            subprogram: None,
            name: name.into(),
        }
    }

    fn local_spec(module: &str, sub: &str, name: &str) -> SampleSpec {
        SampleSpec {
            module: module.into(),
            subprogram: Some(sub.into()),
            name: name.into(),
        }
    }

    fn program() -> Arc<Program> {
        compile_model(&generate(&ModelConfig::test())).unwrap()
    }

    fn samples_of(program: &Arc<Program>, cfg: &RunConfig) -> Vec<Option<Vec<f64>>> {
        let mut ex = Executor::new(Arc::clone(program), cfg);
        ex.drive(0.0).expect("drive");
        ex.samples.clone()
    }

    #[test]
    fn specialized_program_prunes_and_matches_captures() {
        let full = program();
        let specs = vec![spec("cloud_diagnostics", "cld")];
        let s = specialize_for_samples(&full, &specs).expect("separable");
        assert!(
            !s.identical && s.stmts_kept < s.stmts_total,
            "cld feeds only part of the model; kept {}/{}",
            s.stmts_kept,
            s.stmts_total
        );
        let cfg = RunConfig {
            steps: 3,
            sample_step: Some(2),
            samples: specs,
            ..Default::default()
        };
        let full_samples = samples_of(&full, &cfg);
        assert!(
            full_samples.iter().all(Option::is_some),
            "cld must actually capture (non-vacuous test)"
        );
        assert_eq!(full_samples, samples_of(&s.program, &cfg));
    }

    #[test]
    fn specialized_captures_match_on_many_spec_sets() {
        let full = program();
        // Module-level and local captures across several modules,
        // including names that resolve to nothing.
        let sets: Vec<Vec<SampleSpec>> = vec![
            vec![
                spec("cloud_diagnostics", "cld"),
                spec("microp_aero", "wsub"),
            ],
            vec![spec("micro_mg", "tlat")],
            vec![local_spec("wv_saturation", "qsat_water", "es")],
            vec![spec("nope", "nothing")],
            vec![
                spec("cloud_diagnostics", "cld"),
                spec("micro_mg", "tlat"),
                local_spec("wv_saturation", "qsat_water", "es"),
            ],
        ];
        for specs in sets {
            let s = specialize_for_samples(&full, &specs).expect("separable");
            for steps in [2u32, 3] {
                let cfg = RunConfig {
                    steps,
                    sample_step: Some(steps - 1),
                    samples: specs.clone(),
                    ..Default::default()
                };
                assert_eq!(
                    samples_of(&full, &cfg),
                    samples_of(&s.program, &cfg),
                    "specs {specs:?} steps {steps}",
                );
            }
        }
    }

    #[test]
    fn truncated_horizon_matches_full_run_at_sample_step() {
        let full = program();
        let specs = vec![spec("cloud_diagnostics", "cld"), spec("micro_mg", "tlat")];
        let s = specialize_for_samples(&full, &specs).expect("separable");
        // Early exit: running the specialized program only to the sample
        // step must capture the same values the full program captures at
        // that step of a longer run.
        let long = RunConfig {
            steps: 4,
            sample_step: Some(1),
            samples: specs.clone(),
            ..Default::default()
        };
        let short = RunConfig {
            steps: 2,
            sample_step: Some(1),
            samples: specs,
            ..Default::default()
        };
        assert_eq!(samples_of(&full, &long), samples_of(&s.program, &short));
    }

    #[test]
    fn pruned_fraction_reported() {
        let full = program();
        let s =
            specialize_for_samples(&full, &[spec("cloud_diagnostics", "cld")]).expect("separable");
        assert!(
            s.pruned_fraction() > 0.0 && s.pruned_fraction() < 1.0,
            "kept {}/{} identical={} instr {} vs {}",
            s.stmts_kept,
            s.stmts_total,
            s.identical,
            s.program.instr_count(),
            full.instr_count()
        );
        assert!(s.program.instr_count() < full.instr_count());
        // A spec nothing can host captures nothing — the slice collapses.
        let none = specialize_for_samples(&full, &[spec("nope", "nothing")]).expect("separable");
        assert_eq!(none.stmts_kept, 0);
    }
}
