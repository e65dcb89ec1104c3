//! # silver-stack — verified compilation on a verified processor,
//! # reproduced as an executable system
//!
//! This crate is the top of the stack from *Verified Compilation on a
//! Verified Processor* (PLDI 2019): it composes the CakeML-style
//! compiler ([`cakeml`]), the bare-metal execution environment
//! ([`basis`]), the Silver ISA ([`ag32`]) and the Silver processor at
//! circuit and Verilog level ([`silver`], [`rtl`], [`verilog`]) into a
//! single API, mirroring the paper's workflow (§2):
//!
//! 1. write the application in the source language,
//! 2. [`Stack::compile`] it to Silver machine code (theorem (3)),
//! 3. [`Stack::load`] the Figure-2 memory image (`initAg`),
//! 4. [`Stack::run_image`] on any layer of Figure 1 — the ISA, the
//!    circuit-level CPU, or the generated Verilog,
//! 5. [`check::check_end_to_end`] asserts all layers exhibit the
//!    behaviour of the source semantics — the executable analogue of the
//!    paper's end-to-end theorem (8).
//!
//! The [`apps`] module carries the paper's application suite (§1, §7):
//! `wc`, `sort`, `cat`, a proof checker, and a compiler that itself runs
//! on the verified processor.
//!
//! # Example
//!
//! ```
//! use silver_stack::{apps, Backend, RunConfig, Stack};
//!
//! let stack = Stack::new();
//! let result = stack.run_source(
//!     apps::WC,
//!     &["wc"],
//!     b"hello brave new world\n",
//!     Backend::Isa,
//!     &RunConfig::default(),
//! )?;
//! assert_eq!(result.stdout_utf8(), "1 4 22\n");
//! # Ok::<(), silver_stack::StackError>(())
//! ```

pub mod apps;
pub mod check;
pub mod fuzz;
pub mod stack;

pub use basis::ExitStatus;
pub use check::{
    batch_reports, check_end_to_end, check_end_to_end_batch, CheckFailure, CheckOptions,
    EndToEndReport, Layer, Workload,
};
pub use fuzz::{full_registry, EndToEndTarget};
pub use silver::snapshot::{Snapshot, SnapshotError};
pub use stack::{
    Backend, Engine, Observations, Observe, RunConfig, Stack, StackError, StackResult,
    DEFAULT_CHECKPOINT_EVERY,
};
