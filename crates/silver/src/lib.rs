//! # silver — the verified-by-testing Silver processor
//!
//! §4 of *Verified Compilation on a Verified Processor* (PLDI 2019)
//! introduces Silver, "a verified proof-of-concept processor" that is the
//! CakeML compiler's hardware target. This crate contains the layers 3–4
//! of the paper's Figure 1 for that processor:
//!
//! * [`cpu`] — the Silver CPU as a circuit in the [`rtl`] EDSL: an
//!   unpipelined, in-order implementation of the [`ag32`] ISA with
//!   memory/interrupt wait states and a single shared ALU and next-PC
//!   unit (the §4.2 de-duplication);
//! * [`env`] — the lab environment (`is_lab_env`): external memory with
//!   configurable latency, the memory-start interface and the interrupt
//!   handler, standing in for the PYNQ board's DRAM and ARM core;
//! * [`machine`] — the CPU circuit (optionally mirrored by its
//!   generated Verilog) as an [`ag32::Machine`] at retire granularity:
//!   the one place the circuit is clocked, behind the RTL and Verilog
//!   backends and theorem (9)'s lockstep, with one per-cycle hook
//!   ([`machine::CycleObserver`]);
//! * [`lockstep`] — the ISA↔implementation simulation relation of
//!   theorem (9), run as a differential test on every retire
//!   ([`check_lockstep`]);
//! * [`trace`] — the cycle observers (waveforms, cycle profiles), the
//!   divergence forensics both circuit theorems report, and the
//!   implementation↔Verilog correspondence of theorem (10)
//!   ([`check_cpu_verilog_equiv`]).
//!
//! One layer down, it also hosts what every ISA engine shares:
//! [`snapshot`] — byte-stable run checkpoints — and [`exec`], the one
//! sliced, checkpointable run loop over [`ag32::Machine`] that the
//! stack and the execution service both drive (reference, jet, or the
//! two in lockstep).
//!
//! # Example
//!
//! Assemble a program, run it on the ISA and on the CPU implementation
//! under a random-latency memory, and check the simulation relation:
//!
//! ```
//! use ag32::{asm::Assembler, Func, NoTrace, Reg, Ri, State};
//! use silver::env::{Latency, MemEnvConfig};
//! use silver::{check_lockstep, silver_cpu};
//!
//! let mut a = Assembler::new(0);
//! a.li(Reg::new(1), 0x1234_5678);
//! a.normal(Func::Add, Reg::new(2), Ri::Reg(Reg::new(1)), Ri::Imm(1));
//! a.halt(Reg::new(3));
//! let mut s = State::new();
//! s.mem.write_bytes(0, &a.assemble()?);
//!
//! let cfg = MemEnvConfig { mem_latency: Latency::Random { max: 3 }, ..Default::default() };
//! let report = check_lockstep(silver_cpu(), &s, 100, cfg, 10_000, &mut NoTrace)
//!     .map_err(|fx| fx.render())?;
//! assert_eq!(report.instructions, 3);
//! assert!(report.cycles > report.instructions, "wait states cost cycles");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cpu;
pub mod env;
pub mod exec;
pub mod lockstep;
pub mod machine;
pub mod snapshot;
pub mod trace;

pub use cpu::silver_cpu;
pub use env::{Latency, MemEnv, MemEnvConfig};
pub use lockstep::{check_lockstep, LockstepError, LockstepReport};
pub use machine::CircuitMachine;
pub use snapshot::{Snapshot, SnapshotError};
pub use trace::{check_cpu_verilog_equiv, PcSampler, Vcd, VcdWindow};
