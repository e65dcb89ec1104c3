//! # basis — CakeML's execution environment for bare-metal Silver
//!
//! §5 and §6 of *Verified Compilation on a Verified Processor* (PLDI
//! 2019): the assumptions the compiler correctness theorem makes about
//! its environment, and the code + proofs that discharge them. This
//! crate provides both sides, executable:
//!
//! * [`fs`] — the external-world model (`cl`, `fs`): command line,
//!   standard streams, named files;
//! * [`oracle`] — `basis_ffi`: the byte-protocol specification of every
//!   system call, usable directly as the interpreter's FFI host;
//! * [`syscalls`] — hand-written Silver machine code implementing the
//!   calls over the in-memory devices (standard streams + command line,
//!   exactly the scope of the paper's §2.4);
//! * [`image`] — the Figure-2 memory image builder (`initAg` made
//!   constructive);
//! * [`machine`] — `machine_sem` with the interference oracle, pure-`Next`
//!   execution, the I/O-event stream extraction the board-side handler
//!   performs, and the one run-result record ([`Finished`]);
//! * [`trace`] — system-call traces, recorded by an [`ag32::Tracer`]
//!   from a pure-`Next` run.
//!
//! The §6 obligation — that oracle-stepped and machine-code execution
//! agree — is checked differentially in `tests/ffi_equiv.rs`.
//!
//! # Example
//!
//! ```
//! use basis::{build_image, run_to_halt, ExitStatus};
//! use cakeml::{compile_source, CompilerConfig, TargetLayout};
//!
//! let compiled = compile_source(
//!     "val _ = print \"hello, silver\\n\";",
//!     TargetLayout::default(),
//!     &CompilerConfig::default(),
//! )?;
//! let image = build_image(&compiled, &["hello"], b"")?;
//! let result = run_to_halt(image, &compiled.layout, 50_000_000);
//! assert_eq!(result.exit, ExitStatus::Exited(0));
//! assert_eq!(result.stdout_utf8(), "hello, silver\n");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod fs;
pub mod image;
pub mod machine;
pub mod oracle;
pub mod syscalls;
pub mod trace;

pub use cakeml::TargetLayout;
pub use fs::FsState;
pub use image::{build_image, pure_image, ImageError};
pub use machine::{
    classify_exit, extract_streams, finished, run_to_halt, run_to_halt_observed, run_with_oracle,
    ExitStatus, Finished,
};
pub use oracle::{call_ffi, BasisHost, FfiOutcome};
pub use trace::{SyscallEvent, SyscallTrace, SyscallTracer};
