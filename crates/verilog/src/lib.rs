//! # verilog — a deeply-embedded synthesisable Verilog subset
//!
//! §3 of *Verified Compilation on a Verified Processor* (PLDI 2019)
//! introduces an operational semantics for a subset of Verilog, developed
//! alongside a proof-producing code generator. This crate is that subset:
//!
//! * a deep embedding of the abstract syntax ([`ast`]) — modules made of
//!   `always_ff @(posedge clk)` processes over `logic` variables,
//! * an operational [cycle semantics](eval) faithful to the paper's
//!   design: a flattened module hierarchy, processes waiting on a common
//!   clock edge, and *non-blocking* writes saved in a queue during cycle
//!   execution and merged into the program state at the end of every
//!   clock cycle,
//! * two-state values only — the paper's semantics gives Booleans the
//!   standard values true/false (no `Z`, with `X` handled by
//!   quantification in the logic; here, by randomised initial states in
//!   the test-suites),
//! * a [pretty-printer](pretty) producing synthesisable SystemVerilog
//!   text, the artefact handed to a synthesis toolchain (layer 4 → 5 of
//!   the paper's Figure 1).
//!
//! The `rtl` crate contains the code generator that targets this AST, and
//! the equivalence harness standing in for the paper's per-run
//! correspondence theorems.
//!
//! # Example
//!
//! The paper's `AB` pulse-counter, written directly as a Verilog module
//! and run for enough cycles to see `done` rise:
//!
//! ```
//! use verilog::ast::*;
//! use verilog::eval::{run, ConstEnv};
//! use verilog::value::Value;
//!
//! let module = Module {
//!     name: "AB".into(),
//!     ports: vec![Port { name: "pulse".into(), dir: Dir::Input, ty: Type::Logic }],
//!     vars: vec![
//!         VarDecl { name: "count".into(), ty: Type::Array(8) },
//!         VarDecl { name: "done".into(), ty: Type::Logic },
//!     ],
//!     processes: vec![
//!         // always_ff @(posedge clk) if (pulse) count <= count + 8'd1;
//!         Process { body: vec![Stmt::If(
//!             Expr::var("pulse"),
//!             vec![Stmt::NonBlocking(
//!                 Lhs::Var("count".into()),
//!                 Expr::var("count").add(Expr::word(8, 1)),
//!             )],
//!             vec![],
//!         )] },
//!         // always_ff @(posedge clk) if (8'd10 < count) done = 1;
//!         Process { body: vec![Stmt::If(
//!             Expr::word(8, 10).lt(Expr::var("count")),
//!             vec![Stmt::Blocking(Lhs::Var("done".into()), Expr::bit(true))],
//!             vec![],
//!         )] },
//!     ],
//! };
//!
//! let init = module.initial_state()?;
//! let env = ConstEnv::new(vec![("pulse".into(), Value::Bool(true))]);
//! let fin = run(&module, env, init, 20)?;
//! assert_eq!(fin.get("done")?, &Value::Bool(true));
//! # Ok::<(), verilog::eval::VError>(())
//! ```

pub mod ast;
pub mod eval;
pub mod pretty;
pub mod value;

pub use ast::{Dir, Expr, Lhs, Module, Port, Process, Stmt, Type, VarDecl};
pub use eval::{cycle, run, Env, VError, VarState};
pub use value::Value;
