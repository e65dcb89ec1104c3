//! The Silver CPU as an [`ag32::Machine`] at retire granularity: the
//! one place the circuit is clocked. The RTL and Verilog backends of the
//! stack, theorem (9)'s lockstep ([`crate::lockstep`]), waveform dumps
//! and cycle profiles all drive [`CircuitMachine`].
//!
//! [`CircuitMachine::with_verilog`] adds the generated Verilog as a
//! mirror fed the same inputs, with six interface signals spot-checked
//! every cycle (the full per-cycle correspondence is theorem (10),
//! [`check_cpu_verilog_equiv`](crate::trace::check_cpu_verilog_equiv)).
//! A simulator error, a mirror mismatch or an exhausted cycle budget is
//! latched as a [`LockstepError`]; the machine then reports itself
//! halted, so a run loop or lockstep stops there and the caller reads
//! [`CircuitMachine::error`].
//!
//! Every clock edge goes to the machine's [`CycleObserver`] — the
//! circuit's sibling of [`ag32::Tracer`] — as a [`Signals`] reader of
//! the circuit state, or of the Verilog state when a mirror runs.

use ag32::{Arch, ExecStats, IoEvent, Machine, Ri, State, NUM_REGS};
use rtl::interp::{self, RValue, RtlEnv, RtlState};
use rtl::Circuit;
use verilog::ast::{Module, ValueOrArray};
use verilog::eval::VarState;

use crate::cpu::{fsm, silver_cpu};
use crate::env::{MemEnv, MemEnvConfig};
use crate::lockstep::LockstepError;

/// Interface signals compared between the circuit and its Verilog
/// mirror on every cycle.
const SPOT_CHECKED: [&str; 6] = ["pc", "state", "mem_addr", "mem_valid", "data_out", "retired"];

/// A clocked state read signal by signal: the circuit's, or its
/// generated Verilog's.
pub trait Signals {
    /// The scalar signal `name` (`0` when absent).
    fn scalar(&self, name: &str) -> u64;
}

impl Signals for RtlState {
    fn scalar(&self, name: &str) -> u64 {
        self.get_scalar(name).unwrap_or(0)
    }
}

impl Signals for VarState {
    fn scalar(&self, name: &str) -> u64 {
        self.get(name).map(verilog::Value::as_u64).unwrap_or(0)
    }
}

/// Observes the settled state after every clock edge of a
/// [`CircuitMachine`] — the hook waveform dumps, cycle profiles and
/// divergence forensics attach to.
///
/// The default [`NoCycleObserver`] is a zero-sized no-op that
/// monomorphises away, so an unobserved machine costs exactly what
/// clocking the circuit does.
pub trait CycleObserver {
    /// Called after the clock edge of cycle `n`.
    fn on_cycle(&mut self, n: u64, state: &impl Signals);
}

/// The no-op observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCycleObserver;

impl CycleObserver for NoCycleObserver {
    #[inline(always)]
    fn on_cycle(&mut self, _n: u64, _state: &impl Signals) {}
}

/// An observer that may be absent (an optional VCD dump or profile).
impl<T: CycleObserver> CycleObserver for Option<T> {
    #[inline]
    fn on_cycle(&mut self, n: u64, state: &impl Signals) {
        if let Some(o) = self {
            o.on_cycle(n, state);
        }
    }
}

/// Fan-out: drive two observers from one run (a VCD dump plus a cycle
/// profile).
impl<A: CycleObserver, B: CycleObserver> CycleObserver for (A, B) {
    #[inline]
    fn on_cycle(&mut self, n: u64, state: &impl Signals) {
        self.0.on_cycle(n, state);
        self.1.on_cycle(n, state);
    }
}

/// The generated Verilog of the circuit and its variable state.
struct Mirror {
    module: Module,
    state: VarState,
}

/// The Silver CPU circuit in its lab environment, run as a [`Machine`]:
/// `run(n)` clocks it until `n` more retires, a halt, a wedge or the end
/// of the cycle budget.
pub struct CircuitMachine<O = NoCycleObserver> {
    circuit: Circuit,
    state: RtlState,
    env: MemEnv,
    mirror: Option<Mirror>,
    /// Instructions retired since boot.
    retired: u64,
    /// The circuit's own (32-bit, wrapping) `retired` register.
    counter: u64,
    cycles: u64,
    max_cycles: u64,
    observer: O,
    error: Option<LockstepError>,
    /// The circuit does not decode what it retires; per-opcode counters
    /// stay empty.
    stats: ExecStats,
}

impl CircuitMachine {
    /// The Silver CPU started from an ISA state (the
    /// `ag32_eq_init_hol_isa` relation: ISA-visible components equal,
    /// implementation registers in their start-up values), with at most
    /// `max_cycles` clock cycles.
    #[must_use]
    pub fn new(initial: &State, cfg: MemEnvConfig, max_cycles: u64) -> Self {
        CircuitMachine::with_circuit(silver_cpu(), initial, cfg, max_cycles, NoCycleObserver)
    }
}

impl<O> CircuitMachine<O> {
    /// [`CircuitMachine::new`] for an explicit circuit — the hook fault-
    /// injection tests use to check that a sabotaged CPU fails theorem
    /// (9) — with `observer` seeing every cycle.
    #[must_use]
    pub fn with_circuit(
        circuit: Circuit,
        initial: &State,
        cfg: MemEnvConfig,
        max_cycles: u64,
        observer: O,
    ) -> Self {
        let state = init_rtl_from_isa(&circuit, initial);
        CircuitMachine {
            circuit,
            state,
            env: env_from_isa(initial, cfg),
            mirror: None,
            retired: initial.instructions_retired,
            counter: 0,
            cycles: 0,
            max_cycles,
            observer,
            error: None,
            stats: ExecStats::new(),
        }
    }

    /// Runs the circuit's generated Verilog alongside (theorem (7)'s
    /// Verilog-level runs), starting from the circuit's current state.
    ///
    /// # Errors
    ///
    /// Code generation or Verilog state initialisation failed.
    pub fn with_verilog(mut self) -> Result<Self, LockstepError> {
        let module = rtl::generate(&self.circuit)?;
        let mut state = module.initial_state().map_err(verr)?;
        for (name, value) in self.state.iter() {
            match rtl::equiv::to_verilog_value(value) {
                ValueOrArray::Value(v) => state.set(name, v).map_err(verr)?,
                ValueOrArray::Unpacked(elems) => {
                    for (i, e) in elems.into_iter().enumerate() {
                        state.set_index(name, i as u64, e).map_err(verr)?;
                    }
                }
            }
        }
        self.mirror = Some(Mirror { module, state });
        Ok(self)
    }

    /// Clock cycles run so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The latched failure that stopped the machine, if any.
    #[must_use]
    pub fn error(&self) -> Option<&LockstepError> {
        self.error.as_ref()
    }

    /// The cycle observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Consumes the machine, returning the cycle observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The circuit being clocked.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The circuit's signal state.
    #[must_use]
    pub fn rtl_state(&self) -> &RtlState {
        &self.state
    }

    fn regs(&self) -> &[u64] {
        match self.state.get("regs") {
            Ok(RValue::Mem { data, .. }) => data,
            _ => &[],
        }
    }
}

impl<O: CycleObserver> CircuitMachine<O> {
    /// One clock cycle: the environment drives the inputs, the circuit
    /// (and its mirror) take the edge, and the observer sees the result.
    /// Clocks even a halted machine — the hook for checking that
    /// nothing changes after termination.
    ///
    /// # Errors
    ///
    /// Simulator failure, or the mirror disagreeing with the circuit.
    pub fn cycle(&mut self) -> Result<(), LockstepError> {
        let n = self.cycles;
        match &mut self.mirror {
            None => {
                interp::step(&self.circuit, &mut self.env, &mut self.state, n)?;
                self.observer.on_cycle(n, &self.state);
            }
            Some(m) => {
                for (name, value) in self.env.drive(n, &self.state) {
                    if let ValueOrArray::Value(v) = rtl::equiv::to_verilog_value(&value) {
                        m.state.set(&name, v).map_err(verr)?;
                    }
                    self.state.set(&name, value)?;
                }
                interp::cycle(&self.circuit, &mut self.state)?;
                verilog::eval::cycle(&m.module, &mut m.state).map_err(verr)?;
                self.observer.on_cycle(n, &m.state);
                for name in SPOT_CHECKED {
                    let r = self.state.get_scalar(name)?;
                    let v = m.state.get(name).map_err(verr)?.as_u64();
                    if r != v {
                        return Err(LockstepError::Mismatch {
                            field: name.into(),
                            isa: format!("circuit {r:#x}"),
                            rtl: format!("verilog {v:#x}"),
                        });
                    }
                }
            }
        }
        self.cycles += 1;
        Ok(())
    }

    /// Clocks until the circuit retires one instruction. `false` when it
    /// wedged instead, or a failure was latched (`wanted` is the retire
    /// count the caller was heading for, for the timeout report).
    fn retire(&mut self, wanted: u64) -> bool {
        loop {
            if self.cycles >= self.max_cycles {
                self.error = Some(LockstepError::Timeout {
                    wanted,
                    retired: self.retired,
                    max_cycles: self.max_cycles,
                });
                return false;
            }
            if let Err(e) = self.cycle() {
                self.error = Some(e);
                return false;
            }
            let counter = self.state.scalar("retired");
            if counter != self.counter {
                self.counter = counter;
                self.retired += 1;
                return true;
            }
            if self.state.scalar("state") == fsm::WEDGED {
                return false;
            }
        }
    }
}

impl<O: CycleObserver> Machine for CircuitMachine<O> {
    fn run(&mut self, fuel: u64) -> u64 {
        let wanted = self.retired.saturating_add(fuel);
        let mut n = 0;
        while n < fuel && !self.is_halted() && self.retire(wanted) {
            n += 1;
        }
        n
    }

    fn retired(&self) -> u64 {
        self.retired
    }

    /// Halted on a latched failure, a wedge, or — at an instruction
    /// boundary — a halting instruction at the PC ([`ag32::halts`],
    /// decoded against the environment's memory and the register file).
    fn is_halted(&self) -> bool {
        if self.error.is_some() || self.state.scalar("state") == fsm::WEDGED {
            return true;
        }
        let pc = self.pc();
        let regs = self.regs();
        let ri = |r: Ri| match r {
            Ri::Reg(reg) => regs.get(reg.index()).map_or(0, |&v| v as u32),
            Ri::Imm(v) => v as i32 as u32,
        };
        ag32::halts(ag32::decode(self.env.mem.read_word(pc & !3)), pc, ri)
    }

    fn pc(&self) -> u32 {
        self.state.scalar("pc") as u32
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.env.mem.read_word(addr)
    }

    fn io_events(&self) -> &[IoEvent] {
        &self.env.io_events
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn arch(&self) -> Arch {
        let mut regs = [0; NUM_REGS];
        for (r, &v) in regs.iter_mut().zip(self.regs()) {
            *r = v as u32;
        }
        Arch {
            pc: self.pc(),
            regs,
            carry: self.state.scalar("carry") != 0,
            overflow: self.state.scalar("overflow") != 0,
            data_out: self.state.scalar("data_out") as u32,
            io_events: self.env.io_events.len(),
        }
    }

    fn capture(&self) -> State {
        let arch = self.arch();
        let mut s = State::new();
        s.pc = arch.pc;
        s.regs = arch.regs;
        s.carry = arch.carry;
        s.overflow = arch.overflow;
        s.data_out = arch.data_out;
        s.mem = self.env.mem.clone();
        s.data_in = self.env.data_in;
        s.io_events = self.env.io_events.clone();
        s.io_window = self.env.io_window;
        s.instructions_retired = self.retired;
        s
    }
}

fn init_rtl_from_isa(circuit: &Circuit, isa: &State) -> RtlState {
    let mut st = RtlState::zeroed(circuit);
    st.set("pc", RValue::Word(32, u64::from(isa.pc))).expect("pc");
    st.set(
        "regs",
        RValue::Mem { elem: 32, data: isa.regs.iter().map(|&r| u64::from(r)).collect() },
    )
    .expect("regs");
    st.set("carry", RValue::Bit(isa.carry)).expect("carry");
    st.set("overflow", RValue::Bit(isa.overflow)).expect("overflow");
    st.set("data_out", RValue::Word(32, u64::from(isa.data_out))).expect("data_out");
    st
}

/// The lab environment for an ISA state's memory and I/O config.
pub(crate) fn env_from_isa(isa: &State, cfg: MemEnvConfig) -> MemEnv {
    let mut env = MemEnv::new(isa.mem.clone(), cfg);
    env.io_window = isa.io_window;
    env.data_in = isa.data_in;
    env.io_events = isa.io_events.clone();
    env
}

fn verr(e: verilog::eval::VError) -> LockstepError {
    LockstepError::Mismatch { field: "verilog".into(), isa: String::new(), rtl: e.to_string() }
}
