//! The IR effects walker: what evaluating lowered code reads, writes,
//! calls and draws.
//!
//! Both halves of hybrid slicing need the same enumeration. The oracle
//! specializer ([`crate::specialize`]) keeps every statement whose
//! effects reach its relevance set; the static analysis plane
//! (`rca_analysis`: reachability, dataflow events, the abstract
//! interpreter's write scans, the output scan) derives call graphs,
//! use/def chains and write sets. This module is the one place that
//! knows which [`CExpr`] / [`CPlace`] / [`CStmt`] operands are evaluated
//! and what each does; every consumer matches on [`Effect`] instead of
//! on the IR.
//!
//! Effects come in evaluation order:
//!
//! - an expression yields its reads, nested calls and deferred errors,
//!   children left to right; an `Index` reads its base before its
//!   subscript, then (if lowered with one) its call fallback;
//! - a call yields its arguments, then [`Effect::Call`], then each
//!   copy-out target as a place (subscripts first, then the write);
//! - a place yields its subscripts, then [`Effect::Write`] — or
//!   [`Effect::MayError`] for an invalid target, which writes nothing;
//! - a statement yields only its *own* operands ([`stmt`]): an `if`
//!   its conditions, a `do` its bounds (the loop variable is a frame
//!   slot, not a place: consumers handle it), never the nested blocks,
//!   which [`block`] visits in pre-order.
//!
//! `MaybeFma`'s unfused operands `l` / `r` are `a*b` and `c` over the
//! same nodes, so the walk visits `a`, `b`, `c` once each.
//!
//! Visitors are generic `FnMut(Effect) -> ControlFlow<()>`: returning
//! `Break` stops the walk at once (the specializer's relevance test runs
//! inside the oracle's fixpoint and stops at the first relevant effect).

use crate::program::{CExpr, CPlace, CStmt, CallForm, EId, LocalTemplate, Program, VarBind};
use std::ops::ControlFlow;

/// How a variable is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// A plain variable read (`x`).
    Var,
    /// The base of an `Index` expression (`a(i)`, array or call).
    Index,
    /// The base of a derived-field access (`s%f`, `s%f(i)`).
    Derived,
}

/// One effect of evaluating IR code.
#[derive(Debug, Clone, Copy)]
pub enum Effect<'p> {
    /// A variable read through its binding.
    Read(VarBind, ReadKind),
    /// A write through a place. `copy_out` marks a call's writeback of
    /// a dummy argument into the caller's place.
    Write {
        /// The written place (never `CPlace::Invalid`).
        place: &'p CPlace,
        /// Whether this is a call's copy-out writeback.
        copy_out: bool,
    },
    /// A call through a resolved site ([`Program::ir_sites`] index),
    /// after its arguments and before its copy-outs.
    Call(u32),
    /// A `random_number` draw from the PRNG stream.
    Draw,
    /// A `pbuf_get_field` read of the physics buffer.
    PbufRead,
    /// A `pbuf_set_field` write of the physics buffer.
    PbufWrite,
    /// An `outfld` history record (dense output index).
    Output(u32),
    /// A deferred compile-lowered error that fires if evaluation reaches
    /// it: `ErrorExpr`, `ErrorStmt`, an invalid place, an unknown-name
    /// call fallback, a failing init template.
    MayError,
}

const GO: ControlFlow<()> = ControlFlow::Continue(());

/// Walks one expression.
pub fn expr<'p, F>(p: &'p Program, e: EId, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    match &p.exprs[e as usize] {
        CExpr::Real(_) | CExpr::Int(_) | CExpr::Str(_) | CExpr::Logical(_) => GO,
        CExpr::Var { bind, .. } => f(Effect::Read(*bind, ReadKind::Var)),
        CExpr::Index {
            bind,
            sub,
            fallback,
            ..
        } => {
            f(Effect::Read(*bind, ReadKind::Index))?;
            expr(p, *sub, f)?;
            match fallback.as_deref() {
                Some(CallForm::Function(site)) => call(p, *site, f),
                Some(CallForm::Intrinsic(_, args)) => exprs(p, args, f),
                Some(CallForm::Unknown) => f(Effect::MayError),
                None => GO,
            }
        }
        CExpr::CallFn { site } => call(p, *site, f),
        CExpr::Intrinsic { args, .. } => exprs(p, args, f),
        CExpr::DerivedVar { bind, sub, .. } => {
            f(Effect::Read(*bind, ReadKind::Derived))?;
            opt(p, *sub, f)
        }
        CExpr::DerivedExpr { base, sub, .. } => {
            expr(p, *base, f)?;
            opt(p, *sub, f)
        }
        CExpr::Unary { e, .. } => expr(p, *e, f),
        CExpr::Binary { l, r, .. } => {
            expr(p, *l, f)?;
            expr(p, *r, f)
        }
        CExpr::MaybeFma { a, b, c, .. } => {
            expr(p, *a, f)?;
            expr(p, *b, f)?;
            expr(p, *c, f)
        }
        CExpr::ErrorExpr { .. } => f(Effect::MayError),
    }
}

fn exprs<'p, F>(p: &'p Program, es: &[EId], f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    es.iter().try_for_each(|&e| expr(p, e, f))
}

fn opt<'p, F>(p: &'p Program, e: Option<EId>, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    e.map_or(GO, |e| expr(p, e, f))
}

/// Walks one call: arguments, the call, then copy-out writebacks.
fn call<'p, F>(p: &'p Program, site: u32, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    let cs = &p.sites[site as usize];
    exprs(p, &cs.args, f)?;
    f(Effect::Call(site))?;
    cs.copyout
        .iter()
        .try_for_each(|(_, pl)| write(p, pl, true, f))
}

/// Walks an assignment target: subscripts, then the write.
pub fn place<'p, F>(p: &'p Program, pl: &'p CPlace, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    write(p, pl, false, f)
}

fn write<'p, F>(p: &'p Program, pl: &'p CPlace, copy_out: bool, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    match pl {
        CPlace::Var { .. } => {}
        CPlace::Elem { sub, .. } => expr(p, *sub, f)?,
        CPlace::Derived { sub, .. } => opt(p, *sub, f)?,
        CPlace::Invalid { .. } => return f(Effect::MayError),
    }
    f(Effect::Write {
        place: pl,
        copy_out,
    })
}

/// Walks one statement's own operands (nested blocks excluded).
pub fn stmt<'p, F>(p: &'p Program, s: &'p CStmt, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    match s {
        CStmt::Assign {
            place: pl, value, ..
        } => {
            expr(p, *value, f)?;
            place(p, pl, f)
        }
        CStmt::Call { site, .. } => call(p, *site, f),
        CStmt::Outfld {
            out, data, ncol, ..
        } => {
            expr(p, *data, f)?;
            opt(p, *ncol, f)?;
            f(Effect::Output(*out))
        }
        CStmt::RandomNumber {
            current, place: pl, ..
        } => {
            expr(p, *current, f)?;
            f(Effect::Draw)?;
            place(p, pl, f)
        }
        CStmt::PbufSet { idx, data, .. } => {
            expr(p, *idx, f)?;
            expr(p, *data, f)?;
            f(Effect::PbufWrite)
        }
        CStmt::PbufGet {
            idx,
            current,
            place: pl,
            ..
        } => {
            expr(p, *idx, f)?;
            expr(p, *current, f)?;
            f(Effect::PbufRead)?;
            place(p, pl, f)
        }
        CStmt::If { arms, .. } => arms.iter().try_for_each(|(c, _)| opt(p, *c, f)),
        CStmt::Do {
            start, end, step, ..
        } => {
            expr(p, *start, f)?;
            expr(p, *end, f)?;
            opt(p, *step, f)
        }
        CStmt::DoWhile { cond, .. } => expr(p, *cond, f),
        CStmt::ErrorStmt { .. } => f(Effect::MayError),
        CStmt::Return | CStmt::Exit | CStmt::Cycle | CStmt::Nop => GO,
    }
}

/// Walks one local init template (extents or initializer).
pub fn template<'p, F>(p: &'p Program, tpl: &'p LocalTemplate, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    match tpl {
        LocalTemplate::Array(extents) => exprs(p, extents, f),
        LocalTemplate::Int(e)
        | LocalTemplate::Logic(e)
        | LocalTemplate::Char(e)
        | LocalTemplate::RealVal(e) => opt(p, *e, f),
        LocalTemplate::Error(..) => f(Effect::MayError),
        LocalTemplate::Derived(_) => GO,
    }
}

/// Visits every statement of `body` and of its nested blocks, each
/// statement before its blocks (`if` arms in order, loop bodies).
pub fn block<'p, F>(body: &'p [CStmt], f: &mut F) -> ControlFlow<()>
where
    F: FnMut(&'p CStmt) -> ControlFlow<()>,
{
    for s in body {
        f(s)?;
        match s {
            CStmt::If { arms, .. } => arms.iter().try_for_each(|(_, b)| block(b, f))?,
            CStmt::Do { body, .. } | CStmt::DoWhile { body, .. } => block(body, f)?,
            _ => {}
        }
    }
    GO
}

/// Walks everything one procedure can do: its init templates in order,
/// then every statement's own operands in [`block`] pre-order.
pub fn proc<'p, F>(p: &'p Program, index: u32, f: &mut F) -> ControlFlow<()>
where
    F: FnMut(Effect<'p>) -> ControlFlow<()>,
{
    let pr = &p.procs[index as usize];
    pr.inits
        .iter()
        .try_for_each(|(_, _, tpl)| template(p, tpl, f))?;
    block(&pr.body, &mut |s| stmt(p, s, f))
}
