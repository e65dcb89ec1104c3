//! The one ISA-level run loop: every engine, every caller.
//!
//! `silver-stack` (with or without a rolling checkpoint file, with or
//! without observers) and the execution service (with tracing, stop
//! polling and migration) run programs the same way: in
//! checkpoint-sized slices over an [`ag32::Machine`], calling back at
//! each slice boundary, and classifying the end state with
//! [`basis::finished`]. [`run`] is that loop, and the only place that
//! turns an [`Engine`] choice into a machine — the reference
//! interpreter, the jet engine, or the [`Lockstep`] of both when the
//! run is shadowed. A shadowed run that diverges is replayed from the
//! lockstep's anchor, its last boundary, so every caller gets the
//! replay verdict in the forensics. A new engine is a new `Machine`
//! impl plus one match arm here; checkpointing, shadowing, migration
//! and serving come with it.
//!
//! An [`ag32::Tracer`] passed to [`run`] sees the run's reference
//! retires, so an observed run executes once: the reference
//! interpreter's own retires, or the lockstep's reference side when
//! shadowed. Jet retires translated blocks, not decoded events, so an
//! unshadowed jet run with an active tracer runs on the reference
//! interpreter instead — by theorem J the result is the same. Callers
//! without observers pass [`NoTrace`](ag32::NoTrace).
//!
//! Fuel is total retires from boot: a state restored from a checkpoint
//! taken at retire `C` runs `fuel − C` more, so a resumed run
//! classifies — `OutOfFuel` included — exactly like an uninterrupted
//! one. Slicing cannot change behaviour: every engine's `run` is
//! deterministic and stops pre-step on halt, so N slices of M retires
//! end exactly like one run of N·M.

use std::ops::ControlFlow;

use ag32::{Engine, Machine, State, Tracer};
use basis::{finished, Finished, TargetLayout};
use jet::{Jet, Lockstep};
use obs::Forensics;

/// Lockstep shadowing of a run against the reference interpreter,
/// which compares the architectural state after every retire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shadow {
    /// Jet fault injection for tests and drills; `0` in real use.
    pub fault_xor: u32,
}

/// What to run, and how.
#[derive(Clone, Copy, Debug)]
pub struct Plan<'a> {
    /// Memory layout, for exit classification.
    pub layout: &'a TargetLayout,
    /// The engine that executes the program.
    pub engine: Engine,
    /// `Some` runs the [`Lockstep`] of the reference interpreter and
    /// jet instead, and returns its result only once theorem J held.
    pub shadow: Option<Shadow>,
    /// Total retire budget from boot.
    pub fuel: u64,
    /// Slice length in retires: the hooks see a boundary after every
    /// full slice that did not halt.
    pub every: u64,
}

/// How a run ended.
#[derive(Debug)]
pub enum RunEnd<S> {
    /// Ran to its end.
    Done(Finished),
    /// A hook stopped the run at a boundary, with what it returned.
    Stopped(S),
    /// The lockstep caught jet diverging from the reference. The
    /// forensics name the last boundary as the replay anchor and note
    /// whether the divergence reproduced when replayed from there
    /// ([`Lockstep::replay`]) with the same [`Shadow`] settings.
    Diverged(Box<Forensics>),
}

/// The caller's side of a run.
pub trait Hooks {
    /// What a hook hands back when it stops the run.
    type Stop;

    /// After every slice, with the retire counts at its begin and end.
    fn slice(&mut self, _before: u64, _after: u64) {}

    /// At every boundary — a full slice that did not halt — with the
    /// machine there (`Snapshot::capture` it to checkpoint). `Break`
    /// stops the run.
    fn boundary<M: Machine>(&mut self, _m: &M) -> ControlFlow<Self::Stop> {
        ControlFlow::Continue(())
    }

    /// Wraps the lockstep's end-of-run verdict — the retires it checked,
    /// or the divergence with its anchored replay (shadowed runs only).
    ///
    /// # Errors
    ///
    /// Whatever `check` reports.
    fn shadow_check(
        &mut self,
        check: impl FnOnce() -> Result<u64, Box<Forensics>>,
    ) -> Result<u64, Box<Forensics>> {
        check()
    }
}

/// No hooks: the run cannot stop early.
impl Hooks for () {
    type Stop = std::convert::Infallible;
}

/// Runs `start` — a boot image or a restored checkpoint — as `plan`
/// says, with `tracer` seeing every reference retire.
pub fn run<H: Hooks, T: Tracer>(
    start: State,
    plan: &Plan<'_>,
    hooks: &mut H,
    tracer: &mut T,
) -> RunEnd<H::Stop> {
    match (plan.shadow, plan.engine) {
        (Some(sh), _) => {
            let mut ls = Lockstep::new(&start, sh.fault_xor);
            let sliced = drive(&mut ls, plan, hooks, |ls, n| ls.run_traced(n, tracer));
            if let ControlFlow::Break(stop) = sliced {
                return RunEnd::Stopped(stop);
            }
            let verdict = hooks.shadow_check(|| {
                ls.finish().map_err(|mut fx| {
                    ls.replay(&mut fx, |anchor| {
                        let mut jet = Jet::from_state(anchor);
                        jet.alu_fault_xor = sh.fault_xor;
                        jet
                    });
                    fx
                })
            });
            match verdict {
                Ok(_) => RunEnd::Done(finished(&ls, plan.layout, plan.fuel)),
                Err(fx) => RunEnd::Diverged(fx),
            }
        }
        (None, Engine::Jet) if !T::ACTIVE => {
            complete(Jet::from_state(&start), plan, hooks, Machine::run)
        }
        (None, _) => complete(start, plan, hooks, |s, n| s.run_traced(n, tracer)),
    }
}

fn complete<M: Machine, H: Hooks>(
    mut m: M,
    plan: &Plan<'_>,
    hooks: &mut H,
    step: impl FnMut(&mut M, u64) -> u64,
) -> RunEnd<H::Stop> {
    match drive(&mut m, plan, hooks, step) {
        ControlFlow::Break(stop) => RunEnd::Stopped(stop),
        ControlFlow::Continue(()) => RunEnd::Done(finished(&m, plan.layout, plan.fuel)),
    }
}

/// The slice loop; `step` runs one slice of `m`.
fn drive<M: Machine, H: Hooks>(
    m: &mut M,
    plan: &Plan<'_>,
    hooks: &mut H,
    mut step: impl FnMut(&mut M, u64) -> u64,
) -> ControlFlow<H::Stop> {
    let every = plan.every.max(1);
    loop {
        let remaining = plan.fuel.saturating_sub(m.retired());
        if remaining == 0 || m.is_halted() {
            return ControlFlow::Continue(());
        }
        let chunk = every.min(remaining);
        let before = m.retired();
        let n = step(m, chunk);
        hooks.slice(before, m.retired());
        if n < chunk || m.is_halted() {
            return ControlFlow::Continue(());
        }
        hooks.boundary(m)?;
    }
}
