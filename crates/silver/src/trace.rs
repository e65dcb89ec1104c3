//! Cross-layer observability for the Silver CPU: waveform dumping,
//! cycle sampling and divergence forensics.
//!
//! All of it is opt-in: a [`CircuitMachine`](crate::CircuitMachine)
//! runs with the no-op observer unless one is attached.
//!
//! * **VCD dumping** — [`Vcd`] is a [`CycleObserver`] that streams every
//!   scalar signal of a circuit into an [`obs::VcdWriter`], from the
//!   circuit state or from the Verilog state; [`VcdWindow`] is the
//!   bounded in-memory variant that retains the last *N* cycles for
//!   forensic windows.
//! * **Forensics** — theorem (9)'s lockstep
//!   ([`check_lockstep`](crate::lockstep::check_lockstep)) reports, on
//!   divergence, an [`obs::Forensics`] naming the divergent retire index
//!   and clock cycle, every differing register, the last
//!   [`obs::FORENSIC_TAIL`] retired instructions on both sides and a VCD
//!   window of the last [`VCD_WINDOW`] cycles. [`check_cpu_verilog_equiv`]
//!   does the same for theorem (10)'s circuit↔Verilog equivalence.
//! * **Cycle sampling** — [`PcSampler`] feeds the `pc` signal of every
//!   clock cycle to an [`obs::CycleProfiler`], turning RTL/Verilog runs
//!   into true cycle-attribution profiles (memory wait states included).
//!
//! Theorem (10) relates the circuit-level CPU (`silver_cpu`) to its
//! generated Verilog (`silver_cpu_verilog`); composing it with the
//! ISA↔circuit simulation of theorem (9) yields the ISA↔Verilog
//! theorem (7). Both are executable here: [`check_cpu_verilog_equiv`]
//! compares every signal each clock cycle, and a
//! [`CircuitMachine`](crate::CircuitMachine) built
//! [`with_verilog`](crate::CircuitMachine::with_verilog) runs a whole
//! program under the Verilog semantics (theorem (7)'s `vstep m = Ok
//! fin` runs).

use std::collections::VecDeque;
use std::io::{self, Write};

use ag32::State;
use obs::{push_tail, CycleProfiler, Forensics, RegDelta, VcdWriter};
use rtl::ast::{Circuit, RTy};
use rtl::interp::RtlEnv as _;

use crate::cpu::silver_cpu;
use crate::env::MemEnvConfig;
use crate::machine::{env_from_isa, CycleObserver, Signals};

/// Cycles of waveform a forensics report keeps before the divergence.
pub const VCD_WINDOW: usize = 16;

/// The scalar (bit/word, non-memory) signals of a circuit, inputs first
/// then registers, in declaration order — the signal set dumped to VCD.
#[must_use]
pub fn scalar_signals(c: &Circuit) -> Vec<(String, u32)> {
    c.inputs
        .iter()
        .chain(&c.regs)
        .filter_map(|(name, ty)| match ty {
            RTy::Bit => Some((name.clone(), 1)),
            RTy::Word(w) => Some((name.clone(), *w as u32)),
            RTy::Mem { .. } => None,
        })
        .collect()
}

/// A cycle observer streaming every scalar signal of a circuit to a
/// [`VcdWriter`], at the circuit level or the Verilog level.
///
/// I/O errors are latched (the simulation is not interrupted) and
/// surfaced by [`Vcd::finish`].
#[derive(Debug)]
pub struct Vcd<W: Write> {
    signals: Vec<(String, u32)>,
    vcd: VcdWriter<W>,
    err: Option<io::Error>,
}

impl<W: Write> Vcd<W> {
    /// Declares `circuit`'s scalar signals and writes the VCD header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(sink: W, circuit: &Circuit, scope: &str) -> io::Result<Self> {
        let signals = scalar_signals(circuit);
        let mut vcd = VcdWriter::new(sink);
        for (name, width) in &signals {
            vcd.add_signal(name, *width);
        }
        vcd.begin(scope)?;
        Ok(Vcd { signals, vcd, err: None })
    }

    /// Flushes; returns the first latched I/O error, if any.
    ///
    /// # Errors
    ///
    /// The first error encountered while sampling or flushing.
    pub fn finish(self) -> io::Result<W> {
        if let Some(e) = self.err {
            return Err(e);
        }
        self.vcd.finish()
    }
}

impl<W: Write> CycleObserver for Vcd<W> {
    fn on_cycle(&mut self, n: u64, state: &impl Signals) {
        if self.err.is_some() {
            return;
        }
        let values: Vec<u64> = self.signals.iter().map(|(name, _)| state.scalar(name)).collect();
        if let Err(e) = self.vcd.sample(n, &values) {
            self.err = Some(e);
        }
    }
}

/// A bounded in-memory waveform: the last `capacity` cycles of a
/// circuit's scalar signals, renderable as VCD text — the "VCD window
/// around the divergent cycle" of a forensics report.
#[derive(Clone, Debug)]
pub struct VcdWindow {
    signals: Vec<(String, u32)>,
    capacity: usize,
    samples: VecDeque<(u64, Vec<u64>)>,
}

impl VcdWindow {
    /// A window over `circuit`'s scalar signals keeping `capacity`
    /// cycles.
    #[must_use]
    pub fn new(circuit: &Circuit, capacity: usize) -> Self {
        VcdWindow { signals: scalar_signals(circuit), capacity, samples: VecDeque::new() }
    }

    /// Renders the retained cycles as a complete standalone VCD text.
    #[must_use]
    pub fn render(&self, scope: &str) -> String {
        if self.samples.is_empty() {
            return String::new();
        }
        let mut vcd = VcdWriter::new(Vec::new());
        for (name, width) in &self.signals {
            vcd.add_signal(name, *width);
        }
        if vcd.begin(scope).is_err() {
            return String::new();
        }
        for (cycle, values) in &self.samples {
            if vcd.sample(*cycle, values).is_err() {
                return String::new();
            }
        }
        vcd.finish().map(|bytes| String::from_utf8_lossy(&bytes).into_owned()).unwrap_or_default()
    }
}

/// Records each cycle's values, evicting the oldest beyond capacity
/// (and reusing its buffer).
impl CycleObserver for VcdWindow {
    fn on_cycle(&mut self, n: u64, state: &impl Signals) {
        if self.capacity == 0 {
            return;
        }
        let mut values = match self.samples.len() == self.capacity {
            true => self.samples.pop_front().map(|(_, v)| v).unwrap_or_default(),
            false => Vec::with_capacity(self.signals.len()),
        };
        values.clear();
        values.extend(self.signals.iter().map(|(name, _)| state.scalar(name)));
        self.samples.push_back((n, values));
    }
}

/// A cycle observer feeding the `pc` signal of every clock cycle to an
/// [`obs::CycleProfiler`] — cycle-exact profile attribution on the
/// RTL/Verilog backends.
#[derive(Clone, Debug)]
pub struct PcSampler {
    /// The profiler accumulating per-symbol cycle counts.
    pub profiler: CycleProfiler,
}

impl PcSampler {
    /// A sampler over `profiler`.
    #[must_use]
    pub fn new(profiler: CycleProfiler) -> Self {
        PcSampler { profiler }
    }
}

impl CycleObserver for PcSampler {
    fn on_cycle(&mut self, _n: u64, state: &impl Signals) {
        self.profiler.record_pc(state.scalar("pc") as u32);
    }
}

/// A t10 forensics tail line: one side's `pc`/`state`/`retired`.
fn trail_line(cycle: u64, st: &impl Signals) -> String {
    let (pc, state, retired) = (st.scalar("pc"), st.scalar("state"), st.scalar("retired"));
    format!("cyc {cycle:<6} pc {pc:#010x} state {state} retired {retired}")
}

/// Theorem (10) for the Silver CPU: checks `cycles` cycles of
/// circuit↔Verilog agreement under a lab environment built from
/// `initial`'s memory, comparing every signal each clock cycle.
///
/// Both sides start from the all-zero state; pc and registers start at
/// zero, so `initial` must be based at pc 0 for this check (the tests
/// arrange that). The environment still serves the real memory image.
///
/// # Errors
///
/// A boxed [`Forensics`] report for the first signal divergence or
/// simulator error: the divergent cycle, the differing signal with both
/// values, the last [`obs::FORENSIC_TAIL`] cycles of
/// `pc`/`state`/`retired` on both sides and a [`VCD_WINDOW`]-cycle
/// waveform (sampled from the circuit side) leading into the
/// divergence.
pub fn check_cpu_verilog_equiv(
    initial: &State,
    cfg: MemEnvConfig,
    cycles: u64,
) -> Result<(), Box<Forensics>> {
    let circuit = silver_cpu();
    let mut env = env_from_isa(initial, cfg);
    let mut window = VcdWindow::new(&circuit, VCD_WINDOW);
    let (mut rtl_tail, mut verilog_tail) = (VecDeque::new(), VecDeque::new());
    let e = match rtl::check_equiv_observed(
        &circuit,
        |cycle, st| env.drive(cycle, st),
        cycles,
        |cycle, rtl_st, v_st| {
            window.on_cycle(cycle, rtl_st);
            push_tail(&mut rtl_tail, trail_line(cycle, rtl_st));
            push_tail(&mut verilog_tail, trail_line(cycle, v_st));
        },
    ) {
        Ok(()) => return Ok(()),
        Err(e) => e,
    };
    let mut fx = Forensics::new("t10 RTL\u{2194}Verilog equivalence", "rtl", "verilog");
    if let rtl::EquivError::Mismatch { cycle, name, rtl, verilog } = e {
        fx.divergent_cycle = Some(cycle);
        fx.deltas.push(RegDelta { field: name, spec: rtl, impl_: verilog });
    } else {
        fx.notes.push(e.to_string());
    }
    fx.spec_tail = rtl_tail.into();
    fx.impl_tail = verilog_tail.into();
    fx.vcd_window = window.render("silver_cpu");
    Err(Box::new(fx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnvConfig;
    use ag32::asm::Assembler;
    use ag32::{Func, Reg, Ri};
    use rtl::interp::RtlState;

    fn count_to_ten() -> State {
        let mut a = Assembler::new(0);
        let r1 = Reg::new(1);
        a.li(r1, 0);
        a.label("loop");
        a.normal(Func::Add, r1, Ri::Reg(r1), Ri::Imm(1));
        a.li(Reg::new(2), 10);
        a.branch_nonzero_sub(Ri::Reg(r1), Ri::Reg(Reg::new(2)), "loop", Reg::new(60));
        a.halt(Reg::new(61));
        let code = a.assemble().unwrap();
        let mut s = State::new();
        s.mem.write_bytes(0, &code);
        s
    }

    #[test]
    fn forensic_lockstep_passes_on_healthy_cpu() {
        let s = count_to_ten();
        let report = crate::lockstep::check_lockstep(
            silver_cpu(),
            &s,
            100,
            MemEnvConfig::default(),
            20_000,
            &mut ag32::NoTrace,
        )
        .expect("healthy CPU must pass forensic lockstep");
        assert!(report.instructions > 10);
        assert!(report.cycles >= report.instructions);
    }

    #[test]
    fn scalar_signals_skip_memories() {
        let c = silver_cpu();
        let signals = scalar_signals(&c);
        assert!(signals.iter().any(|(n, w)| n == "pc" && *w == 32));
        assert!(signals.iter().all(|(n, _)| n != "regs"), "regs memory excluded");
        assert!(signals.iter().any(|(n, w)| n == "carry" && *w == 1));
    }

    #[test]
    fn vcd_window_renders_bounded_standalone_vcd() {
        let c = silver_cpu();
        let mut w = VcdWindow::new(&c, 4);
        let st = RtlState::zeroed(&c);
        for cycle in 0..10 {
            w.on_cycle(cycle, &st);
        }
        let text = w.render("win");
        assert!(text.starts_with("$version"), "{text}");
        assert!(text.contains("#6"), "window starts at cycle 6: {text}");
        assert!(!text.contains("#5"), "older cycles evicted: {text}");
    }
}
