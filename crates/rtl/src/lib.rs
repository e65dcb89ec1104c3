//! # rtl — circuit descriptions and the proof-producing code generator
//!
//! §3 of *Verified Compilation on a Verified Processor* (PLDI 2019)
//! describes a proof-producing code generator that "translates HOL
//! functions modelling circuits to deeply embedded Verilog programs".
//! This crate is the executable counterpart:
//!
//! * [`ast`] — a circuit description language: registers, memories and
//!   clocked processes built from conditional non-blocking writes (the
//!   shape of the paper's "circuit functions");
//! * [`typecheck`] — the well-formedness conditions the code generator
//!   imposes (declared signals, consistent widths, non-escaping memory
//!   indices, no writes to inputs);
//! * [`interp`] — a reference interpreter over machine integers, playing
//!   the role of running the HOL circuit function (`AB env s n`);
//! * [`codegen`] — the structural translation into the [`verilog`]
//!   crate's deep embedding (layer 3 → 4 of the paper's Figure 1);
//! * [`equiv`] — the stand-in for the per-run correspondence theorem:
//!   a lockstep differential simulation of circuit vs generated Verilog
//!   over shared (optionally random) input traces.
//!
//! # Example
//!
//! The paper's `AB` pulse-counter, described once, translated to
//! Verilog, and checked equivalent under 1000 cycles of random input:
//!
//! ```
//! use rtl::ast::*;
//! use rtl::{codegen, equiv};
//!
//! let mut b = CircuitBuilder::new("AB");
//! b.input("pulse", RTy::Bit);
//! b.reg("count", RTy::Word(8));
//! b.reg("done", RTy::Bit);
//! b.process(vec![iff(
//!     read("pulse"),
//!     vec![set("count", read("count").add(word(8, 1)))],
//!     vec![],
//! )]);
//! b.process(vec![iff(
//!     word(8, 10).lt(read("count")),
//!     vec![set("done", bit(true))],
//!     vec![],
//! )]);
//! let ab = b.build();
//!
//! let module = codegen::generate(&ab)?;                  // layer 4
//! let text = verilog::pretty::print_module(&module);     // input to layer 5
//! assert!(text.contains("always_ff @(posedge clk)"));
//!
//! equiv::check_equiv_random(&ab, 1234, 1000)?;           // "theorem (10)"
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod codegen;
pub mod equiv;
pub mod interp;
pub mod typecheck;

pub use ast::{Circuit, CircuitBuilder, RExpr, RProcess, RStmt, RTy};
pub use codegen::generate;
pub use equiv::{check_equiv, check_equiv_observed, check_equiv_random, EquivError};
pub use interp::{RtlEnv, RtlState, RValue};
pub use typecheck::{check, RtlError};
