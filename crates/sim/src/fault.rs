//! Runtime fault injection — the deterministic chaos axis of the
//! fault-tolerance plane.
//!
//! A [`FaultPlan`] is a seeded list of [`Fault`]s applied *mid-run*,
//! independent of source mutation: real ensemble members crash, hang,
//! and emit non-finite values without any bug in the model source, and
//! the RCA service has to degrade gracefully instead of erroring out.
//! Three fault kinds cover those failure modes:
//!
//! - **poisoning** ([`FaultKind::PoisonNan`] / [`FaultKind::PoisonInf`]):
//!   from the fault step on, one output field records a non-finite
//!   value — downstream the `finite_outputs_at` keep-set drops the
//!   output instead of poisoning the ECT statistics;
//! - **stuck-value** ([`FaultKind::Stuck`]): from the fault step on,
//!   one output freezes at its last written value — a silent data
//!   corruption the consistency test may legitimately flag;
//! - **member-abort** ([`FaultKind::Abort`]): the run dies at the fault
//!   step with a structured [`RuntimeError`] whose context is
//!   [`FAULT_CONTEXT`] — the ensemble layer retries and then
//!   quarantines the member.
//!
//! Faults target a `(member, step, output)` coordinate; the output index
//! is resolved modulo the program's output count at execution time, so a
//! plan is model-independent and can be generated before compilation.
//! Transient faults (`persistent == false`) strike only attempt 0 of a
//! member and vanish on retry; persistent faults strike every attempt.
//!
//! Both engines apply a plan through one `MemberFaults`: the bytecode
//! VM ([`Executor`](crate::Executor)) at its `outfld` store and the
//! start of each driver step, the reference
//! [`Interpreter`](crate::Interpreter) at `builtin_outfld` and in
//! [`run_loaded`](crate::run_loaded). Output indices are the same on
//! both sides: the interpreter numbers outputs with the compiler's
//! sorted `outfld` pre-scan. The statement-fuel budget error is shared
//! the same way (`fuel_exhausted`). With an empty plan every hook is a
//! guarded no-op, so zero-fault runs are unchanged.

use crate::interp::RuntimeError;
use serde::{Deserialize, Serialize};

/// `RuntimeError::context` marker for injected member-abort faults.
///
/// Errors carrying this context are *environmental*, not programmatic:
/// `RcaError::is_retryable` returns `true` for them and the ensemble
/// layer retries the member with a derived reseed.
pub const FAULT_CONTEXT: &str = "<fault>";

/// `RuntimeError::context` marker for exhausted run budgets (fuel).
///
/// Mapped to the retryable `RcaError::Budget` taxonomy at the core
/// boundary so runaway runs are killed, not hung, and the kill is
/// distinguishable from a genuine model error.
pub const BUDGET_CONTEXT: &str = "<budget>";

/// What an injected fault does when it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Output records NaN from the fault step on.
    PoisonNan,
    /// Output records +Inf from the fault step on.
    PoisonInf,
    /// Output freezes at its previous written value from the fault step
    /// on (first write at the fault step passes through unchanged).
    Stuck,
    /// The run aborts with a retryable [`RuntimeError`]
    /// when the fault step begins.
    Abort,
}

/// One injected fault at a `(member, step, output)` coordinate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    /// Ensemble member the fault strikes (single runs are member 0).
    pub member: u32,
    /// Time step at which the fault begins.
    pub step: u32,
    /// Output field index, resolved modulo the program's output count.
    /// Ignored by [`FaultKind::Abort`].
    pub output: u32,
    /// Fault behavior.
    pub kind: FaultKind,
    /// Persistent faults strike every retry attempt; transient faults
    /// strike only attempt 0 and vanish on retry.
    pub persistent: bool,
}

/// A deterministic, seeded set of runtime faults.
///
/// The default plan is empty and costs nothing: both engines guard every
/// fault hook on emptiness, keeping zero-fault runs byte-identical
/// ("degrade, never diverge").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The faults, in generation order.
    pub faults: Vec<Fault>,
}

/// splitmix64 — the plan's own generator, independent of the campaign
/// RNG so adding the fault axis never perturbs the legacy scenario
/// stream (the sign-flip precedent).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Whether the plan injects nothing (the zero-fault hot path).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generate `count` faults over `members` ensemble members and
    /// `steps` time steps, deterministically from `seed`.
    ///
    /// The kind mix leans toward transient aborts (exercising retry)
    /// with a minority of persistent aborts (exercising quarantine),
    /// non-finite poisoning (exercising the keep-set), and stuck values
    /// (exercising the consistency test itself). Faults never strike
    /// step 0, so every member's initialization is observable.
    pub fn seeded(seed: u64, members: usize, steps: u32, count: usize) -> FaultPlan {
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        let members = members.max(1) as u64;
        let fault_steps = u64::from(steps.max(2) - 1);
        let faults = (0..count)
            .map(|_| {
                let member = (splitmix64(&mut state) % members) as u32;
                let step = 1 + (splitmix64(&mut state) % fault_steps) as u32;
                let output = (splitmix64(&mut state) >> 32) as u32;
                let (kind, persistent) = match splitmix64(&mut state) % 10 {
                    0..=3 => (FaultKind::Abort, false),
                    4 => (FaultKind::Abort, true),
                    5..=6 => (FaultKind::PoisonNan, false),
                    7 => (FaultKind::PoisonInf, false),
                    _ => (FaultKind::Stuck, false),
                };
                Fault {
                    member,
                    step,
                    output,
                    kind,
                    persistent,
                }
            })
            .collect();
        FaultPlan { faults }
    }

    /// Faults striking `member` on retry `attempt` (0 = first run).
    pub fn active_for(&self, member: u32, attempt: u32) -> impl Iterator<Item = &Fault> {
        self.faults
            .iter()
            .filter(move |f| f.member == member && (attempt == 0 || f.persistent))
    }

    /// FNV-1a digest over the plan's coordinates, for checkpoint keying.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for f in &self.faults {
            mix(u64::from(f.member));
            mix(u64::from(f.step));
            mix(u64::from(f.output));
            mix(match f.kind {
                FaultKind::PoisonNan => 1,
                FaultKind::PoisonInf => 2,
                FaultKind::Stuck => 3,
                FaultKind::Abort => 4,
            } + if f.persistent { 16 } else { 0 });
        }
        h
    }
}

/// A [`FaultPlan`] resolved for one `(member, attempt)` run: the output
/// faults that strike it and its earliest abort step. Both engines hold
/// one and re-resolve it per ensemble member with
/// [`MemberFaults::begin`].
#[derive(Debug, Clone, Default)]
pub(crate) struct MemberFaults {
    plan: FaultPlan,
    /// The program's output count (fault output indices wrap modulo it).
    outputs: u32,
    /// Ensemble member identity (0 for single runs) — error context only.
    member: u32,
    /// Retry attempt (0 = first run); transient faults strike only 0.
    attempt: u32,
    /// Output faults striking this member/attempt, output index already
    /// resolved. Empty on the zero-fault path.
    active: Vec<Fault>,
    /// Earliest injected abort step for this member/attempt, if any.
    abort_at: Option<u32>,
}

impl MemberFaults {
    /// Resolves `plan` for member 0, attempt 0 over `outputs` outputs.
    pub(crate) fn new(plan: FaultPlan, outputs: usize) -> MemberFaults {
        let mut f = MemberFaults {
            plan,
            outputs: outputs as u32,
            ..MemberFaults::default()
        };
        f.begin(0, 0);
        f
    }

    /// Re-resolves the plan for `(member, attempt)`.
    pub(crate) fn begin(&mut self, member: u32, attempt: u32) {
        self.member = member;
        self.attempt = attempt;
        self.active.clear();
        self.abort_at = None;
        for f in self.plan.active_for(member, attempt) {
            if f.kind == FaultKind::Abort {
                self.abort_at = Some(self.abort_at.map_or(f.step, |s| s.min(f.step)));
            } else {
                let mut f = f.clone();
                if self.outputs > 0 {
                    f.output %= self.outputs;
                }
                self.active.push(f);
            }
        }
    }

    /// The member this run represents.
    pub(crate) fn member(&self) -> u32 {
        self.member
    }

    /// Whether any output fault strikes this run (callers skip
    /// [`MemberFaults::adjust`] otherwise).
    pub(crate) fn strikes_outputs(&self) -> bool {
        !self.active.is_empty()
    }

    /// Applies the output faults to an `outfld` mean of output `out` at
    /// `step`: poisoning substitutes a non-finite value, stuck freezes
    /// the output at `last`, its last written value this run (the first
    /// write passes through, then sticks).
    pub(crate) fn adjust(
        &self,
        out: u32,
        step: u32,
        mean: f64,
        last: impl FnOnce() -> Option<f64>,
    ) -> f64 {
        let Some(f) = self
            .active
            .iter()
            .find(|f| f.output == out && step >= f.step)
        else {
            return mean;
        };
        match f.kind {
            FaultKind::PoisonNan => f64::NAN,
            FaultKind::PoisonInf => f64::INFINITY,
            FaultKind::Stuck => last().unwrap_or(mean),
            // Aborts are resolved into `abort_at`, never `active`.
            FaultKind::Abort => mean,
        }
    }

    /// The injected member abort, if one strikes as driver step `step`
    /// begins.
    pub(crate) fn abort(&self, step: u32) -> Result<(), RuntimeError> {
        if self.abort_at != Some(step) {
            return Ok(());
        }
        Err(RuntimeError::new(
            format!(
                "injected member-abort fault at step {step} (member {}, attempt {})",
                self.member, self.attempt
            ),
            FAULT_CONTEXT,
            0,
        ))
    }
}

/// The budget error of a run whose statement fuel (`limit` statements)
/// ran out at `step`. Both engines check fuel before each statement and
/// raise this when it is zero.
pub(crate) fn fuel_exhausted(limit: u64, step: u32, member: u32) -> RuntimeError {
    rca_obs::counter_inc!("run.budget_exhausted", 1);
    RuntimeError::new(
        format!("statement fuel budget of {limit} exhausted at step {step} (member {member})"),
        BUDGET_CONTEXT,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 12, 9, 6);
        let b = FaultPlan::seeded(42, 12, 9, 6);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = FaultPlan::seeded(43, 12, 9, 6);
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn seeded_plans_stay_in_bounds() {
        for seed in 0..32u64 {
            let plan = FaultPlan::seeded(seed, 7, 9, 16);
            assert_eq!(plan.faults.len(), 16);
            for f in &plan.faults {
                assert!(f.member < 7);
                assert!(f.step >= 1 && f.step < 9, "step {} out of range", f.step);
            }
        }
    }

    #[test]
    fn transient_faults_vanish_on_retry() {
        let plan = FaultPlan {
            faults: vec![
                Fault {
                    member: 3,
                    step: 2,
                    output: 0,
                    kind: FaultKind::Abort,
                    persistent: false,
                },
                Fault {
                    member: 3,
                    step: 4,
                    output: 1,
                    kind: FaultKind::Stuck,
                    persistent: true,
                },
            ],
        };
        assert_eq!(plan.active_for(3, 0).count(), 2);
        assert_eq!(plan.active_for(3, 1).count(), 1);
        assert_eq!(plan.active_for(2, 0).count(), 0);
    }

    #[test]
    fn empty_plan_digest_is_stable() {
        assert_eq!(FaultPlan::default().digest(), FaultPlan::default().digest());
        assert!(FaultPlan::default().is_empty());
    }
}
