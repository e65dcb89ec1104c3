//! Cross-layer observability for the Silver CPU: waveform dumping,
//! cycle sampling and divergence forensics.
//!
//! All of it is opt-in: a [`CircuitMachine`](crate::CircuitMachine)
//! runs with the no-op observer unless one is attached.
//!
//! * **VCD dumping** — [`Vcd`] is a cycle observer that streams every
//!   scalar signal of a circuit into an [`obs::VcdWriter`], from the
//!   circuit state or from the Verilog state; [`VcdWindow`] is the
//!   bounded in-memory variant that retains the last *N* cycles for
//!   forensic windows.
//! * **Forensics** — theorem (9)'s lockstep
//!   ([`check_lockstep`](crate::lockstep::check_lockstep)) reports, on
//!   divergence, an [`obs::Forensics`] naming the divergent retire index
//!   and clock cycle, every differing register, the last-N retired
//!   instructions on both sides and a VCD window around the divergence.
//!   [`check_cpu_verilog_equiv_forensic`] does the same for theorem
//!   (10)'s RTL↔Verilog equivalence.
//! * **Cycle sampling** — [`PcSampler`] feeds the `pc` signal of every
//!   clock cycle to an [`obs::CycleProfiler`], turning RTL/Verilog runs
//!   into true cycle-attribution profiles (memory wait states included).

use std::collections::VecDeque;
use std::io::{self, Write};

use ag32::State;
use obs::{CycleProfiler, Forensics, RegDelta, VcdWriter};
use rtl::ast::{Circuit, RTy};
use rtl::interp::{self, RtlEnv as _, RtlState};
use verilog::eval::VarState;

use crate::cpu::silver_cpu;
use crate::env::MemEnvConfig;
use crate::machine::env_from_isa;

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

/// A circuit state or its Verilog counterpart, read signal by signal.
trait Signals {
    /// The scalar signal `name` (`0` when absent).
    fn scalar(&self, name: &str) -> u64;

    fn values(&self, signals: &[(String, u32)]) -> Vec<u64> {
        signals.iter().map(|(name, _)| self.scalar(name)).collect()
    }
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

/// Implements both levels' `CycleObserver` for types with an
/// `observe(&mut self, n, &impl Signals)` method.
macro_rules! observes_both_levels {
    ($([$($gen:tt)*] $ty:ty),* $(,)?) => {$(
        impl<$($gen)*> interp::CycleObserver for $ty {
            fn on_cycle(&mut self, n: u64, state: &RtlState) {
                self.observe(n, state);
            }
        }

        impl<$($gen)*> verilog::eval::CycleObserver for $ty {
            fn on_cycle(&mut self, n: u64, state: &VarState) {
                self.observe(n, state);
            }
        }
    )*};
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

    fn observe(&mut self, n: u64, state: &impl Signals) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.vcd.sample(n, &state.values(&self.signals)) {
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

    /// Records one cycle's values, evicting the oldest beyond capacity
    /// (and reusing its buffer).
    fn observe(&mut self, n: u64, state: &impl Signals) {
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

    fn observe(&mut self, _n: u64, state: &impl Signals) {
        self.profiler.record_pc(state.scalar("pc") as u32);
    }
}

observes_both_levels!([W: Write] Vcd<W>, [] VcdWindow, [] PcSampler);

/// How much context a forensic run retains.
#[derive(Clone, Copy, Debug)]
pub struct ForensicConfig {
    /// Last-N retired instructions kept on each side.
    pub tail: usize,
    /// Cycles of waveform kept around the divergence.
    pub vcd_window: usize,
}

impl Default for ForensicConfig {
    fn default() -> Self {
        ForensicConfig { tail: 32, vcd_window: 16 }
    }
}

fn push_capped(tail: &mut VecDeque<String>, cap: usize, line: String) {
    if cap == 0 {
        return;
    }
    if tail.len() == cap {
        tail.pop_front();
    }
    tail.push_back(line);
}

/// What a t10 forensic run keeps while the equivalence check runs: the
/// circuit-side waveform and both sides' recent `pc`/`state`/`retired`.
struct EquivTrail {
    window: VcdWindow,
    cap: usize,
    rtl: VecDeque<String>,
    verilog: VecDeque<String>,
}

impl EquivTrail {
    fn observe(&mut self, cycle: u64, rtl_st: &RtlState, v_st: &VarState) {
        self.window.observe(cycle, rtl_st);
        let line = |st: &dyn Signals| {
            let (pc, state, retired) = (st.scalar("pc"), st.scalar("state"), st.scalar("retired"));
            format!("cyc {cycle:<6} pc {pc:#010x} state {state} retired {retired}")
        };
        push_capped(&mut self.rtl, self.cap, line(rtl_st));
        push_capped(&mut self.verilog, self.cap, line(v_st));
    }
}

/// [`check_cpu_verilog_equiv`](crate::verilog_level::check_cpu_verilog_equiv)
/// with forensics: on the first signal divergence, reports the divergent
/// cycle, the differing signal with both values, the recent `pc`/
/// `state`/`retired` history on both sides and a VCD window (sampled
/// from the circuit side) leading into the divergence.
///
/// # Errors
///
/// A boxed [`Forensics`] report for any divergence or simulator error.
pub fn check_cpu_verilog_equiv_forensic(
    initial: &State,
    cfg: MemEnvConfig,
    cycles: u64,
    fcfg: &ForensicConfig,
) -> Result<(), Box<Forensics>> {
    let circuit = silver_cpu();
    let mut env = env_from_isa(initial, cfg);
    let mut trail = EquivTrail {
        window: VcdWindow::new(&circuit, fcfg.vcd_window),
        cap: fcfg.tail,
        rtl: VecDeque::new(),
        verilog: VecDeque::new(),
    };
    let e = match rtl::check_equiv_observed(
        &circuit,
        |cycle, st| env.drive(cycle, st),
        cycles,
        |cycle, rtl_st, v_st| trail.observe(cycle, rtl_st, v_st),
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
    fx.spec_tail = trail.rtl.into();
    fx.impl_tail = trail.verilog.into();
    fx.vcd_window = trail.window.render("silver_cpu");
    Err(Box::new(fx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemEnvConfig;
    use ag32::asm::Assembler;
    use ag32::{Func, Reg, Ri};

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
            &ForensicConfig::default(),
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
            interp::CycleObserver::on_cycle(&mut w, cycle, &st);
        }
        let text = w.render("win");
        assert!(text.starts_with("$version"), "{text}");
        assert!(text.contains("#6"), "window starts at cycle 6: {text}");
        assert!(!text.contains("#5"), "older cycles evicted: {text}");
    }
}
