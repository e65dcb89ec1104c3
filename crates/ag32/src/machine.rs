//! The surface every ISA engine shares.
//!
//! The reference interpreter ([`State`]), the `jet` translation-cache
//! engine, the Silver CPU circuit (at retire granularity) and the
//! lockstep of any of them against the reference all implement the same
//! `Next` semantics, so everything built on top — the sliced,
//! checkpointed run loop, exit classification, snapshot capture,
//! serving, lockstep checking — is written once against [`Machine`] and
//! instantiated per machine by monomorphisation.

use crate::{ExecStats, IoEvent, State, NUM_REGS};

/// Which implementation of the ISA layer executes a program. Both
/// implement the same `Next` semantics; [`Engine::Jet`] trades the
/// step-at-a-time reference interpreter for a predecoded translation
/// cache (theorem J: jet ≡ Next, checkable at runtime by the lockstep
/// shadow).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The reference interpreter ([`State::next`]), one decoded
    /// instruction at a time. The specification-side engine.
    #[default]
    Ref,
    /// The `jet` translation-cache engine: decode once per basic block,
    /// execute lowered ops, invalidate on self-modifying stores.
    Jet,
}

impl Engine {
    /// Stable lower-case name used by `--engine` flags and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ref => "ref",
            Engine::Jet => "jet",
        }
    }

    /// The byte naming the engine in wire frames.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Engine::Ref => 0,
            Engine::Jet => 1,
        }
    }

    /// Inverse of [`Engine::code`]; `None` for an unknown byte.
    #[must_use]
    pub fn from_code(b: u8) -> Option<Engine> {
        match b {
            0 => Some(Engine::Ref),
            1 => Some(Engine::Jet),
            _ => None,
        }
    }
}

/// The architectural registers of a machine at an instruction boundary:
/// what a lockstep compares after every retire. Memory and the I/O
/// trace are compared only at the end of a run (via
/// [`Machine::capture`]); the event count stands in for the trace here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arch {
    /// Program counter.
    pub pc: u32,
    /// The general-purpose registers.
    pub regs: [u32; NUM_REGS],
    /// Carry flag.
    pub carry: bool,
    /// Overflow flag.
    pub overflow: bool,
    /// Output port.
    pub data_out: u32,
    /// Length of the I/O-event trace.
    pub io_events: usize,
}

/// An executable ISA machine: what a run loop, an exit classifier, a
/// checkpoint writer and a lockstep need to see of an engine. The trait
/// says nothing about which engine it is: by theorem J every engine is
/// the same machine, and [`Machine::capture`] is its state.
pub trait Machine {
    /// Runs up to `fuel` instructions, stopping early when halted or
    /// wedged. Returns instructions retired.
    fn run(&mut self, fuel: u64) -> u64;

    /// Instructions retired since boot.
    fn retired(&self) -> u64;

    /// The machine sits at a halt (or wedge) and will retire nothing more.
    fn is_halted(&self) -> bool;

    /// Program counter.
    fn pc(&self) -> u32;

    /// Reads the memory word at `addr`.
    fn read_word(&self, addr: u32) -> u32;

    /// The I/O-event trace so far.
    fn io_events(&self) -> &[IoEvent];

    /// Per-opcode retire counters.
    fn stats(&self) -> &ExecStats;

    /// The architectural registers (see [`Arch`]).
    fn arch(&self) -> Arch;

    /// The whole machine state in reference form — all a checkpoint
    /// holds. Machines at the same point of the same run capture equal
    /// states whichever engine ran them, so nothing records which one
    /// did.
    fn capture(&self) -> State;
}

impl Machine for State {
    fn run(&mut self, fuel: u64) -> u64 {
        State::run(self, fuel)
    }

    fn retired(&self) -> u64 {
        self.instructions_retired
    }

    fn is_halted(&self) -> bool {
        State::is_halted(self)
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.mem.read_word(addr)
    }

    fn io_events(&self) -> &[IoEvent] {
        &self.io_events
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn arch(&self) -> Arch {
        Arch {
            pc: self.pc,
            regs: self.regs,
            carry: self.carry,
            overflow: self.overflow,
            data_out: self.data_out,
            io_events: self.io_events.len(),
        }
    }

    fn capture(&self) -> State {
        self.clone()
    }
}
