//! # jet — a translation-cache execution engine for the Silver ISA
//!
//! The reference interpreter ([`ag32::State::next`]) re-fetches,
//! re-decodes and re-resolves sparse memory pages on every single `Next`
//! step. That is the right shape for a *specification* — it mirrors the
//! paper's `Next` function line by line — but it caps the throughput of
//! everything built on top: the campaign engine's cases/sec, the
//! end-to-end batch checker, and the "compiler running on Silver"
//! measurements (the paper's §7 reports hours of simulated cycles for
//! exactly this reason).
//!
//! `jet` is a second, *untrusted* execution level for the same ISA:
//!
//! * **Translation cache** ([`block`]) — each basic block is decoded
//!   once into a dense array of pre-extracted operand structs
//!   ([`block::Op`]) and dispatched through a tight match loop, with
//!   monomorphic block chaining for fall-through and direct jumps.
//! * **Flat resident memory** ([`JetMemory`]) — the image region is
//!   mirrored into one contiguous allocation with single-lookup
//!   word-aligned fast paths; addresses outside the mirror fall back to
//!   the sparse reference [`ag32::Memory`] semantics byte for byte.
//! * **Self-modifying code** — per-page generation counters invalidate
//!   stale cached blocks (the CakeML GC and the image loader both write
//!   code-adjacent pages); stores into the *currently executing* block
//!   abort the block mid-flight and force a re-decode.
//! * **Shadow mode** ([`Lockstep`]) — runs the reference `Next` in
//!   lockstep, compares the architectural state after every retire,
//!   and reports the first divergence through [`obs::Forensics`]. The
//!   lockstep is itself an [`ag32::Machine`], so any run loop over the
//!   engines drives it, and it replays a divergence from its last run
//!   boundary ([`Lockstep::replay`]).
//!
//! Following *Sound Transpilation from Binary to Machine-Independent
//! Code* (Metere et al.) and the differential-testing methodology of
//! the source paper, the engine is admitted **only** alongside an
//! executable equivalence obligation against the reference semantics:
//!
//! > **Theorem J** (executable obligation): for every image and fuel,
//! > running `jet` and running `Next` retire the same instruction
//! > stream and agree on the final PC, registers, flags, memory,
//! > `data_out`, I/O events and exit status.
//!
//! Theorem J is exercised three ways: the `differential` property suite
//! in this crate (random programs, with shrinking), the `t-jet`
//! campaign target (coverage-guided), and full shadow mode in the
//! engine-equivalence integration tests. The benchmark suite
//! (`benches/engines.rs` in the `bench` crate) runs shadow-off and
//! records the speedup trajectory in `BENCH_engines.json`.
//!
//! # Example
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
//! let mut image = State::new();
//! image.mem.write_bytes(0, &code);
//!
//! // Fast path: the translation-cache engine.
//! let mut j = jet::Jet::from_state(&image);
//! j.run(1_000);
//! assert_eq!(j.regs[1], 10);
//!
//! // The same run as an executable theorem-J obligation.
//! let retired = jet::run_shadow(&image, 1_000, 0).unwrap();
//! assert!(retired > 0);
//! ```

pub mod block;
mod engine;
mod mem;
pub mod shadow;

pub use engine::{Jet, JetCounters};
pub use mem::JetMemory;
pub use shadow::{run_shadow, Lockstep};
