//! # ag32 — the Silver instruction set architecture
//!
//! This crate is an executable rendition of the Silver ISA from
//! *Verified Compilation on a Verified Processor* (PLDI 2019, §4.1).
//! Silver (ag32) is a simple general-purpose 32-bit RISC ISA designed as a
//! compilation target for CakeML; it has its roots in Thacker's Tiny 3
//! computer.
//!
//! The crate provides, mirroring the paper's layer (2) of Figure 1:
//!
//! * [`Instr`] — the instruction set of §4.1.1 (constant loads, ALU
//!   operations, shifts/rotations, byte/word memory access, jumps, `In`/
//!   `Out` ports, `Interrupt`, `Accelerator`),
//! * [`encode`]/[`decode`] — a documented 32-bit binary encoding
//!   (the paper does not publish ag32's encoding; ours is described in
//!   the [`mod@encode`] module docs),
//! * [`State`] and [`State::next`] — the fetch–decode–execute next-state
//!   function `Next` used throughout the paper's theorems,
//! * [`Machine`] — the surface every ISA engine shares (run, halt
//!   probe, PC, memory word, I/O trace, stats, state capture), so run
//!   loops and checkpointing are written once over all engines,
//! * [`Memory`] — a sparse byte-addressed 4 GiB memory,
//! * [`asm`] — a small two-pass assembler with labels and pseudo-
//!   instructions, used by the compiler backend and the system-call code.
//!
//! # Example
//!
//! Count to ten and halt:
//!
//! ```
//! use ag32::{asm::Assembler, Func, Reg, Ri, State};
//!
//! let mut a = Assembler::new(0);
//! let r1 = Reg::new(1);
//! a.li(r1, 0);
//! a.label("loop");
//! a.normal(Func::Add, r1, Ri::Reg(r1), Ri::Imm(1));
//! a.li(Reg::new(2), 10);
//! a.branch_nonzero_sub(Ri::Reg(r1), Ri::Reg(Reg::new(2)), "loop", Reg::new(60));
//! a.halt(Reg::new(61));
//! let code = a.assemble().unwrap();
//!
//! let mut s = State::new();
//! s.mem.write_bytes(0, &code);
//! while !s.is_halted() { s.next(); }
//! assert_eq!(s.regs[1], 10);
//! ```

pub mod asm;
pub mod coverage;
pub mod disasm;
pub mod encode;
mod exec;
mod insn;
mod machine;
mod mem;
mod state;
pub mod trace;

pub use coverage::{EdgeSet, ExecStats, Opcode};
pub use disasm::{disassemble, dump};
pub use encode::{decode, encode};
pub use exec::{alu, shifter, AluOut};
pub use insn::{Func, Instr, Reg, Ri, Shift};
pub use machine::{Arch, Engine, Machine};
pub use mem::Memory;
pub use state::{halts, jump_halts, IoEvent, State, StepOutcome};
pub use trace::{MemOp, NoTrace, RetireEvent, RetireRing, Tracer};

/// Machine word size in bytes; every instruction is one word long.
pub const WORD_BYTES: u32 = 4;

/// Number of general-purpose registers (§4.1: register indices are 6 bits).
pub const NUM_REGS: usize = 64;
