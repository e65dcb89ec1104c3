//! The simulation relation between the Silver ISA and the Silver CPU —
//! the executable analogue of theorem (9), §4.3:
//!
//! > for any *n* instruction cycles the ISA can take, these steps can be
//! > simulated by running the implementation *m* clock cycles.
//!
//! [`check_lockstep`] runs the ISA and the [`CircuitMachine`] as one
//! [`jet::Lockstep`], a retire at a time, and checks the state-equality
//! relation (`ag32_eq_hol_isa`) for every *n*: PC, all 64 registers,
//! both flags, the output port and the I/O-event count after every
//! retire, and the full memory and I/O-event traces at the end. It runs
//! in 64-retire slices, so a divergence is replayed from the last slice
//! boundary before it on a fresh circuit ([`Lockstep::replay`]).
//!
//! Composed with theorem (10), the circuit↔Verilog correspondence
//! ([`check_cpu_verilog_equiv`](crate::trace::check_cpu_verilog_equiv)),
//! it yields the ISA↔Verilog theorem (7).

use std::fmt;

use ag32::{State, Tracer};
use jet::Lockstep;
use obs::Forensics;
use rtl::{Circuit, RtlError};

use crate::env::MemEnvConfig;
use crate::machine::{CircuitMachine, NoCycleObserver};
use crate::trace::{VcdWindow, VCD_WINDOW};

/// Slice length of [`check_lockstep`] in retires: the spacing of its
/// replay anchors.
const ANCHOR_EVERY: u64 = 64;

/// Successful lockstep outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockstepReport {
    /// Instructions the ISA retired.
    pub instructions: u64,
    /// Clock cycles the implementation needed (`m` of theorem (9)).
    pub cycles: u64,
}

/// A circuit-level run failure, latched by [`CircuitMachine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockstepError {
    /// The circuit simulator failed (never happens on the checked CPU).
    Rtl(RtlError),
    /// The implementation did not retire enough instructions in time.
    Timeout {
        /// The retire count the run was heading for.
        wanted: u64,
        /// Instructions the implementation managed.
        retired: u64,
        /// The cycle budget that was exhausted.
        max_cycles: u64,
    },
    /// The generated-Verilog mirror disagreed with the circuit.
    Mismatch {
        /// Which signal (e.g. `pc`, `retired`), or `verilog` for a
        /// Verilog simulator error.
        field: String,
        /// Circuit-side value.
        isa: String,
        /// Verilog-side value.
        rtl: String,
    },
}

impl fmt::Display for LockstepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockstepError::Rtl(e) => write!(f, "circuit error: {e}"),
            LockstepError::Timeout { wanted, retired, max_cycles } => write!(
                f,
                "implementation retired {retired}/{wanted} instructions within {max_cycles} cycles"
            ),
            LockstepError::Mismatch { field, isa, rtl } => {
                write!(f, "`{field}` diverged: ISA {isa}, implementation {rtl}")
            }
        }
    }
}

impl std::error::Error for LockstepError {}

impl From<RtlError> for LockstepError {
    fn from(e: RtlError) -> Self {
        LockstepError::Rtl(e)
    }
}

/// Theorem (9): runs the ISA and `circuit` — the Silver CPU,
/// [`silver_cpu`](crate::silver_cpu), or a fault-injected variant of it
/// — in lockstep for up to `max_instructions` retires within
/// `max_cycles` clock cycles, comparing the architectural state after
/// every retire and memory and the I/O trace at the end. The ISA-side
/// accelerator is forced to the identity function, matching the board
/// implementation. `tracer` observes every ISA-side retire (campaign
/// coverage; [`ag32::NoTrace`] otherwise).
///
/// On divergence the report names the divergent retire index and clock
/// cycle, every differing field, the last [`obs::FORENSIC_TAIL`]
/// retires on both sides and a VCD window of the last [`VCD_WINDOW`]
/// cycles; a timeout or simulator failure is a note on it. Past the
/// first 64 retires it also names the last slice boundary before the
/// divergence as its replay anchor, and notes whether the divergence
/// reproduced when replayed from there on a fresh circuit.
///
/// # Errors
///
/// A boxed [`Forensics`] report for any divergence, timeout or
/// simulator error.
pub fn check_lockstep<T: Tracer>(
    circuit: Circuit,
    initial: &State,
    max_instructions: u64,
    cfg: MemEnvConfig,
    max_cycles: u64,
    tracer: &mut T,
) -> Result<LockstepReport, Box<Forensics>> {
    let mut spec = initial.clone();
    spec.accel = |x| x;
    let window = VcdWindow::new(&circuit, VCD_WINDOW);
    let imp = CircuitMachine::with_circuit(circuit, initial, cfg.clone(), max_cycles, window);
    let mut ls = Lockstep::over(spec, imp, "t9 ISA\u{2194}RTL lockstep", "rtl");
    let mut left = max_instructions;
    while left > 0 {
        let chunk = left.min(ANCHOR_EVERY);
        if ls.run_traced(chunk, tracer) < chunk {
            break;
        }
        left -= chunk;
    }
    let verdict = ls.finish();
    let imp = ls.imp();
    match verdict {
        Ok(instructions) => Ok(LockstepReport { instructions, cycles: imp.cycles() }),
        Err(mut fx) => {
            fx.divergent_cycle = Some(imp.cycles());
            fx.vcd_window = imp.observer().render("silver_cpu");
            fx.notes.extend(imp.error().map(ToString::to_string));
            ls.replay(&mut fx, |anchor| {
                let circuit = imp.circuit().clone();
                CircuitMachine::with_circuit(circuit, anchor, cfg, max_cycles, NoCycleObserver)
            });
            Err(fx)
        }
    }
}
