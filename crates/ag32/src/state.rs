//! The Silver machine state and the `Next` function's outer shell.
//!
//! §4.1 of the paper: "The machine state contains memory (a function from
//! addresses to bytes), registers (a function from register indices to
//! words), the current program counter (PC), some flags, and a trace of
//! I/O events."

use crate::coverage::{ExecStats, Opcode};
use crate::exec;
use crate::insn::{Func, Instr, Ri};
use crate::mem::Memory;
use crate::trace::{MemOp, NoTrace, RetireEvent, Tracer};
use crate::NUM_REGS;

/// One entry in the machine's I/O-event trace.
///
/// In the paper's ISA semantics, `Interrupt` "silently records the current
/// state of memory by pushing it onto the trace of I/O events". Recording
/// all of memory per event is impractical in an executable model, so an
/// event records the bytes of the configured
/// [I/O window](State::io_window) — the output-buffer region that the
/// board-side interrupt handler actually reads (a documented substitution,
/// see `DESIGN.md`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoEvent {
    /// Value of the output port when the event was recorded.
    pub data_out: u32,
    /// Snapshot of the I/O window at the time of the interrupt.
    pub window: Vec<u8>,
}

/// What a single `Next` step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction was fetched, decoded and executed.
    Retired(Instr),
    /// The fetched instruction was `Reserved`; the machine is wedged and
    /// the state (including the PC) did not change.
    Wedged,
}

/// The complete ISA-level machine state.
///
/// Fields are public: this is a passive record, exactly like the HOL
/// record in the paper, and every simulation/equality relation in the
/// test-suite analogue of the paper's theorems inspects it freely.
/// Equality of whole states is expressed via
/// [`State::isa_visible_eq`], which ignores the accelerator function
/// pointer and retired-instruction bookkeeping.
#[derive(Clone, Debug)]
pub struct State {
    /// Program counter.
    pub pc: u32,
    /// The 64 general-purpose registers.
    pub regs: [u32; NUM_REGS],
    /// Carry flag, updated by `Add`, `AddWithCarry` and `Sub`.
    pub carry: bool,
    /// Overflow flag, updated by `Add`, `AddWithCarry` and `Sub`.
    pub overflow: bool,
    /// Memory.
    pub mem: Memory,
    /// Value presented on the input port, read by `In`.
    pub data_in: u32,
    /// Value last driven on the output port by `Out`.
    pub data_out: u32,
    /// Trace of I/O events recorded by `Interrupt`.
    pub io_events: Vec<IoEvent>,
    /// `(base, len)` of the region snapshotted into each [`IoEvent`].
    pub io_window: (u32, u32),
    /// The accelerator function backing [`Instr::Accelerator`].
    pub accel: fn(u32) -> u32,
    /// Count of retired instructions (not part of the ISA state proper;
    /// used by the benchmark harness).
    pub instructions_retired: u64,
    /// Per-opcode retire counters (not part of the ISA state proper;
    /// the basis of `silverc --stats` and campaign opcode coverage).
    pub stats: ExecStats,
}

fn identity_accel(x: u32) -> u32 {
    x
}

/// The halt predicate every engine shares: whether `instr`, fetched at
/// `pc` with operands read through `ri`, halts the machine. Halting
/// instructions are an absolute self-jump (`Jump Snd` whose target
/// equals the PC), a relative self-jump (`Jump Add` with a zero offset
/// — the canonical halt emitted by the assembler), and a wedging
/// `Reserved` instruction.
#[inline]
pub fn halts(instr: Instr, pc: u32, ri: impl Fn(Ri) -> u32) -> bool {
    match instr {
        Instr::Jump { func, a, .. } => jump_halts(func, ri(a), pc),
        Instr::Reserved => true,
        _ => false,
    }
}

/// The jump half of [`halts`]: whether `Jump func` with operand value
/// `target` at `pc` is a self-jump.
#[inline]
pub fn jump_halts(func: Func, target: u32, pc: u32) -> bool {
    match func {
        Func::Snd => target == pc,
        Func::Add => target == 0,
        _ => false,
    }
}

impl Default for State {
    fn default() -> Self {
        State::new()
    }
}

impl State {
    /// A machine with zeroed registers, PC 0 and empty memory.
    #[must_use]
    pub fn new() -> Self {
        State {
            pc: 0,
            regs: [0; NUM_REGS],
            carry: false,
            overflow: false,
            mem: Memory::new(),
            data_in: 0,
            data_out: 0,
            io_events: Vec::new(),
            io_window: (0, 0),
            accel: identity_accel,
            instructions_retired: 0,
            stats: ExecStats::new(),
        }
    }

    /// Reads an [`Ri`] operand against this state.
    #[must_use]
    pub fn ri(&self, ri: Ri) -> u32 {
        match ri {
            Ri::Reg(r) => self.regs[r.index()],
            Ri::Imm(v) => v as i32 as u32,
        }
    }

    /// The instruction the PC currently points at. Fetch is word-granular:
    /// the low two PC bits are ignored, exactly as the hardware bus
    /// fetches (the compiler always keeps the PC aligned).
    #[must_use]
    pub fn current_instr(&self) -> Instr {
        crate::decode(self.mem.read_word(self.pc & !3))
    }

    /// `Next`: fetch, decode and execute one instruction (§4.1).
    pub fn next(&mut self) -> StepOutcome {
        self.next_traced(&mut NoTrace)
    }

    /// The destination register and (for stores) the complete memory
    /// operation of `instr` against the pre-execution state. Loads get a
    /// placeholder value patched after execution, when the loaded word is
    /// sitting in the destination register.
    fn trace_capture(&self, instr: &Instr) -> (Option<u8>, Option<MemOp>) {
        match *instr {
            Instr::Normal { w, .. }
            | Instr::Shift { w, .. }
            | Instr::In { w }
            | Instr::Out { w, .. }
            | Instr::Accelerator { w, .. }
            | Instr::Jump { w, .. }
            | Instr::LoadConstant { w, .. }
            | Instr::LoadUpperConstant { w, .. } => (Some(w.index() as u8), None),
            Instr::LoadMem { w, a } => (
                Some(w.index() as u8),
                Some(MemOp { write: false, byte: false, addr: self.ri(a) & !3, value: 0 }),
            ),
            Instr::LoadMemByte { w, a } => (
                Some(w.index() as u8),
                Some(MemOp { write: false, byte: true, addr: self.ri(a), value: 0 }),
            ),
            Instr::StoreMem { a, b } => (
                None,
                Some(MemOp { write: true, byte: false, addr: self.ri(b) & !3, value: self.ri(a) }),
            ),
            Instr::StoreMemByte { a, b } => (
                None,
                Some(MemOp {
                    write: true,
                    byte: true,
                    addr: self.ri(b),
                    value: u32::from(self.ri(a) as u8),
                }),
            ),
            Instr::JumpIfZero { .. }
            | Instr::JumpIfNotZero { .. }
            | Instr::Interrupt
            | Instr::Reserved => (None, None),
        }
    }

    /// [`State::next`] with a [`Tracer`] observing the decoded retire
    /// event and the state it left behind.
    ///
    /// All event capture is guarded by [`Tracer::ACTIVE`], so with
    /// [`NoTrace`] this compiles to exactly the plain fetch–decode–execute
    /// step — the untraced hot path pays nothing (see the
    /// `trace_overhead` bench).
    pub fn next_traced<T: Tracer>(&mut self, tracer: &mut T) -> StepOutcome {
        let instr = self.current_instr();
        if instr == Instr::Reserved {
            return StepOutcome::Wedged;
        }
        let pc_before = self.pc;
        let (dst, mem_pre) = if T::ACTIVE { self.trace_capture(&instr) } else { (None, None) };
        exec::execute(self, instr);
        self.instructions_retired += 1;
        self.stats.opcode_retired[Opcode::of(&instr) as usize] += 1;
        if T::ACTIVE {
            let reg_write = dst.map(|r| (r, self.regs[usize::from(r)]));
            let mem = mem_pre.map(|mut m| {
                if !m.write {
                    // The loaded value is now in the destination register.
                    m.value = reg_write.map_or(0, |(_, v)| v);
                }
                m
            });
            let ev = RetireEvent {
                seq: self.instructions_retired - 1,
                pc: pc_before,
                next_pc: self.pc,
                instr,
                reg_write,
                mem,
            };
            tracer.retire(&ev, self);
        }
        StepOutcome::Retired(instr)
    }

    /// Runs up to `fuel` instructions, stopping early when
    /// [halted](State::is_halted) or wedged. Returns instructions retired.
    pub fn run(&mut self, fuel: u64) -> u64 {
        self.run_traced(fuel, &mut NoTrace)
    }

    /// [`State::run`] with a [`Tracer`] observing every retire.
    pub fn run_traced<T: Tracer>(&mut self, fuel: u64, tracer: &mut T) -> u64 {
        let mut n = 0;
        while n < fuel {
            if self.is_halted() {
                break;
            }
            match self.next_traced(tracer) {
                StepOutcome::Retired(_) => n += 1,
                StepOutcome::Wedged => break,
            }
        }
        n
    }

    /// `is_halted` (§2.4): the machine sits at "a program-specific location
    /// where the machine remains for any further steps" — see [`halts`].
    #[must_use]
    pub fn is_halted(&self) -> bool {
        halts(self.current_instr(), self.pc, |r| self.ri(r))
    }

    /// The ISA-visible components compared by the paper's family of
    /// state-equality relations (`ag32_eq_*`): PC, registers, flags,
    /// memory, ports and the I/O trace — everything except bookkeeping.
    #[must_use]
    pub fn isa_visible_eq(&self, other: &State) -> bool {
        self.pc == other.pc
            && self.regs == other.regs
            && self.carry == other.carry
            && self.overflow == other.overflow
            && self.data_out == other.data_out
            && self.io_events == other.io_events
            && self.mem == other.mem
    }
}
