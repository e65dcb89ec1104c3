//! Verilog-level correctness of the Silver CPU — theorems (7) and (10).
//!
//! Theorem (10) relates the circuit-level CPU (`silver_cpu`) to its
//! generated Verilog (`silver_cpu_verilog`); composing it with the
//! ISA↔circuit simulation (theorem (9), [`crate::lockstep`]) yields the
//! ISA↔Verilog theorem (7). Here both compositions are executable:
//!
//! * [`check_cpu_verilog_equiv`] drives the circuit interpreter and the
//!   Verilog semantics in lockstep under a real lab environment and
//!   compares every signal each clock cycle (theorem 10);
//! * a [`CircuitMachine`](crate::CircuitMachine) built
//!   [`with_verilog`](crate::CircuitMachine::with_verilog) runs a whole
//!   program under the Verilog semantics (theorem 7's `vstep m = Ok fin`
//!   runs), spot-checking the circuit's interface signals every cycle.

use ag32::State;
use obs::Forensics;

use crate::env::MemEnvConfig;
use crate::trace::{check_cpu_verilog_equiv_forensic, ForensicConfig};

/// Checks `cycles` cycles of circuit↔Verilog lockstep agreement for the
/// Silver CPU under a lab environment built from `initial`'s memory,
/// comparing every signal each cycle.
///
/// Both sides start from the all-zero state; pc and registers start at
/// zero, so `initial` must be based at pc 0 for this check (the tests
/// arrange that). The environment still serves the real memory image.
///
/// # Errors
///
/// The first signal divergence or simulator error, with the default
/// forensics (see [`check_cpu_verilog_equiv_forensic`]).
pub fn check_cpu_verilog_equiv(
    initial: &State,
    cfg: MemEnvConfig,
    cycles: u64,
) -> Result<(), Box<Forensics>> {
    check_cpu_verilog_equiv_forensic(initial, cfg, cycles, &ForensicConfig::default())
}
