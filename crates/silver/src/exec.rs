//! The one ISA-level run loop: every engine, every caller.
//!
//! `silver-stack` (with or without a rolling checkpoint file) and the
//! execution service (with tracing, stop polling and migration) run
//! programs the same way: in checkpoint-sized slices over an
//! [`ag32::Machine`], calling back at each slice boundary, and
//! classifying the end state with [`basis::classify_exit`]. [`run`] is
//! that loop, and the only place that turns an [`Engine`] choice into
//! a machine — the reference interpreter, the jet engine, or the
//! [`Lockstep`] of both when the run is shadowed. A new engine is a new
//! `Machine` impl plus one match arm here; checkpointing, shadowing,
//! migration and serving come with it.
//!
//! Fuel is total retires from boot: a state restored from a checkpoint
//! taken at retire `C` runs `fuel − C` more, so a resumed run
//! classifies — `OutOfFuel` included — exactly like an uninterrupted
//! one. Slicing cannot change behaviour: every engine's `run` is
//! deterministic and stops pre-step on halt, so N slices of M retires
//! end exactly like one run of N·M.

use std::ops::ControlFlow;

use ag32::{Engine, ExecStats, Machine, State};
use basis::{classify_exit, extract_streams, ExitStatus, TargetLayout};
use jet::{Jet, Lockstep, ShadowReport};
use obs::Forensics;

/// Lockstep shadowing of a run against the reference interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shadow {
    /// Full register-file comparison every `sample` retires (the PC is
    /// compared on every retire); see [`Lockstep::new`].
    pub sample: u64,
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

/// A run that reached its end: halt, wedge or fuel exhaustion.
#[derive(Clone, Debug)]
pub struct Finished {
    /// Exit classification.
    pub exit: ExitStatus,
    /// Standard output bytes.
    pub stdout: Vec<u8>,
    /// Standard error bytes.
    pub stderr: Vec<u8>,
    /// Instructions retired since boot.
    pub instructions: u64,
    /// Per-opcode retire counters.
    pub stats: ExecStats,
}

/// How a run ended.
#[derive(Debug)]
pub enum RunEnd<S> {
    /// Ran to its end.
    Done(Finished),
    /// A hook stopped the run at a boundary, with what it returned.
    Stopped(S),
    /// The lockstep caught jet diverging from the reference; the
    /// forensics name the last boundary as the replay anchor.
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

    /// Wraps the lockstep's end-of-run verdict (shadowed runs only).
    ///
    /// # Errors
    ///
    /// Whatever `check` reports.
    fn shadow_check(
        &mut self,
        check: impl FnOnce() -> Result<ShadowReport, Box<Forensics>>,
    ) -> Result<ShadowReport, Box<Forensics>> {
        check()
    }
}

/// Runs `start` — a boot image or a restored checkpoint — as `plan`
/// says.
pub fn run<H: Hooks>(start: State, plan: &Plan<'_>, hooks: &mut H) -> RunEnd<H::Stop> {
    match (plan.shadow, plan.engine) {
        (Some(sh), _) => {
            let mut ls = Lockstep::new(&start, sh.sample, sh.fault_xor);
            if let ControlFlow::Break(stop) = drive(&mut ls, plan, hooks) {
                return RunEnd::Stopped(stop);
            }
            match hooks.shadow_check(|| ls.finish()) {
                Ok(_) => RunEnd::Done(finished(&ls, plan.layout, plan.fuel)),
                Err(fx) => RunEnd::Diverged(fx),
            }
        }
        (None, Engine::Ref) => complete(start, plan, hooks),
        (None, Engine::Jet) => complete(Jet::from_state(&start), plan, hooks),
    }
}

fn complete<M: Machine, H: Hooks>(mut m: M, plan: &Plan<'_>, hooks: &mut H) -> RunEnd<H::Stop> {
    match drive(&mut m, plan, hooks) {
        ControlFlow::Break(stop) => RunEnd::Stopped(stop),
        ControlFlow::Continue(()) => RunEnd::Done(finished(&m, plan.layout, plan.fuel)),
    }
}

/// The slice loop.
fn drive<M: Machine, H: Hooks>(m: &mut M, plan: &Plan<'_>, hooks: &mut H) -> ControlFlow<H::Stop> {
    let every = plan.every.max(1);
    loop {
        let remaining = plan.fuel.saturating_sub(m.retired());
        if remaining == 0 || m.is_halted() {
            return ControlFlow::Continue(());
        }
        let chunk = every.min(remaining);
        let before = m.retired();
        let n = m.run(chunk);
        hooks.slice(before, m.retired());
        if n < chunk || m.is_halted() {
            return ControlFlow::Continue(());
        }
        hooks.boundary(m)?;
    }
}

/// The end of a run of `m` under a retire budget of `fuel` from boot:
/// the exit classification and output streams every machine shares —
/// ISA engines here, and the circuit backends of the stack.
pub fn finished<M: Machine>(m: &M, layout: &TargetLayout, fuel: u64) -> Finished {
    let (stdout, stderr) = extract_streams(m.io_events());
    Finished {
        exit: classify_exit(m, layout, m.retired() < fuel),
        stdout,
        stderr,
        instructions: m.retired(),
        stats: m.stats().clone(),
    }
}
