//! Observability is trustworthy: VCD dumps of a fixed RTL run are
//! byte-stable (golden file), and an injected implementation bug is
//! caught by the per-retire lockstep with a report naming the divergent
//! retire, the differing register, both retire tails and, past the
//! first boundary, whether a replay from that anchor reproduces it.

use std::convert::Infallible;
use std::ops::ControlFlow;

use ag32::asm::Assembler;
use ag32::{Engine, Func, Machine, NoTrace, Reg, Ri, State};
use basis::TargetLayout;
use obs::FORENSIC_TAIL;
use rtl::ast::{word, Circuit, RExpr, RStmt};
use silver::env::{Latency, MemEnvConfig};
use silver::exec::{Hooks, Plan, RunEnd, Shadow};
use silver::lockstep::check_lockstep;
use silver::machine::NoCycleObserver;
use silver::trace::Vcd;
use silver::{silver_cpu, CircuitMachine};

fn state_with_code(base: u32, code: &[u8]) -> State {
    let mut s = State::new();
    s.pc = base;
    s.mem.write_bytes(base, code);
    s
}

fn cfg_fixed(lat: u32) -> MemEnvConfig {
    MemEnvConfig { mem_latency: Latency::Fixed(lat), ..MemEnvConfig::default() }
}

/// A small fixed program: three ALU ops and a halt.
fn fixed_program() -> State {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0x1234);
    a.li(r(2), 0x0FF0);
    a.normal(Func::Add, r(3), Ri::Reg(r(1)), Ri::Reg(r(2)));
    a.normal(Func::Xor, r(4), Ri::Reg(r(3)), Ri::Reg(r(1)));
    a.halt(r(5));
    state_with_code(0, &a.assemble().unwrap())
}

/// The VCD dump of [`fixed_program`] run to its halt on the circuit —
/// or, with `verilog`, on its generated Verilog, whose state the
/// observer then sees.
fn dump_fixed_run(verilog: bool) -> Vec<u8> {
    let vcd = Vcd::new(Vec::new(), &silver_cpu(), "silver_cpu").expect("vcd header writes");
    let s = fixed_program();
    let mut m = CircuitMachine::with_circuit(silver_cpu(), &s, cfg_fixed(0), 10_000, vcd);
    if verilog {
        m = m.with_verilog().expect("verilog mirror builds");
    }
    m.run(u64::MAX);
    assert!(m.error().is_none() && m.is_halted(), "fixed run completes");
    m.into_observer().finish().expect("vcd flushes")
}

/// The VCD dump of a fixed RTL run is byte-for-byte reproducible and
/// matches the checked-in golden file. The writer emits no timestamps
/// or tool versions, so the waveform is a function of the circuit and
/// the program alone. The same run on the generated Verilog, where the
/// observer reads the Verilog state, dumps the identical waveform.
/// Regenerate with `SILVER_BLESS=1 cargo test -p silver --test
/// observability`.
#[test]
fn vcd_golden_fixed_rtl_run() {
    let text = String::from_utf8(dump_fixed_run(false)).expect("vcd is ascii");

    // Structural sanity regardless of the golden file.
    for marker in ["$timescale", "$scope module silver_cpu $end", "$var wire 32", "$dumpvars"] {
        assert!(text.contains(marker), "missing {marker:?} in VCD output");
    }

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rtl_fixed.vcd");
    if std::env::var("SILVER_BLESS").as_deref() == Ok("1") {
        std::fs::write(golden_path, &text).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with SILVER_BLESS=1 to create it");
    assert_eq!(text, golden, "VCD dump of the fixed run changed; re-bless if intentional");
    let verilog = String::from_utf8(dump_fixed_run(true)).expect("vcd is ascii");
    assert_eq!(verilog, golden, "VCD dump of the Verilog-level run departs from the circuit's");
}

/// A second run of the same program produces the identical dump —
/// the writer holds no hidden state.
#[test]
fn vcd_dump_is_deterministic() {
    assert_eq!(dump_fixed_run(false), dump_fixed_run(false));
}

/// Rewrites every register-file write in the circuit to store
/// `value ^ 1` — a single-bit implementation bug of exactly the kind
/// theorem (9) rules out.
fn sabotage_reg_writes(stmts: &mut Vec<RStmt>, flipped: &mut usize) {
    for s in stmts {
        match s {
            RStmt::SetMem(name, _idx, val) if name == "regs" => {
                let old = val.clone();
                *val = old.xor_(word(32, 1));
                *flipped += 1;
            }
            RStmt::If(_, t, e) => {
                sabotage_reg_writes(t, flipped);
                sabotage_reg_writes(e, flipped);
            }
            RStmt::Case(_, arms, default) => {
                for (_, body) in arms {
                    sabotage_reg_writes(body, flipped);
                }
                if let Some(d) = default {
                    sabotage_reg_writes(d, flipped);
                }
            }
            _ => {}
        }
    }
}

fn sabotaged_cpu() -> Circuit {
    let mut c = silver_cpu();
    let mut flipped = 0;
    for p in &mut c.processes {
        sabotage_reg_writes(&mut p.body, &mut flipped);
    }
    assert!(flipped > 0, "expected at least one register-file write to sabotage");
    c
}

/// The healthy circuit passes the per-retire lockstep (forensics
/// never fire on agreement), so the report below is caused by the
/// injected bug alone.
#[test]
fn forensic_lockstep_passes_on_healthy_cpu() {
    let s = fixed_program();
    let rep = check_lockstep(silver_cpu(), &s, 100, cfg_fixed(0), 100_000, &mut NoTrace)
        .expect("healthy CPU stays in lockstep");
    assert_eq!(rep.instructions, 4, "two li, add, xor (the halt self-jump does not retire)");
}

/// An injected t9 bug — one flipped bit in every RTL register write —
/// produces a forensics report naming the divergent retire and cycle,
/// the differing register with both values, the last retired
/// instructions on both sides (≤ the configured tail), and a VCD window
/// around the divergence.
#[test]
fn injected_t9_bug_yields_forensics() {
    let s = fixed_program();
    let fx = check_lockstep(sabotaged_cpu(), &s, 100, cfg_fixed(0), 100_000, &mut NoTrace)
        .expect_err("sabotaged CPU must diverge");

    // The report names where it happened...
    assert_eq!(fx.kind, "t9 ISA\u{2194}RTL lockstep");
    assert_eq!(
        fx.divergent_step,
        Some(0),
        "the first retire (zero-based) writes a register: {}",
        fx.render()
    );
    assert!(fx.divergent_cycle.is_some(), "divergent cycle recorded: {}", fx.render());

    // ...which register differs, with both values: the first `li`
    // writes r1 = 0x1234, the sabotage stores 0x1235.
    let r1 = fx
        .deltas
        .iter()
        .find(|d| d.field == "r1")
        .unwrap_or_else(|| panic!("r1 delta present: {}", fx.render()));
    assert_eq!(r1.spec, "0x00001234");
    assert_eq!(r1.impl_, "0x00001235");

    // ...the last retired instructions on both sides, bounded by the
    // configured tail...
    assert!(!fx.spec_tail.is_empty() && fx.spec_tail.len() <= 32, "{}", fx.render());
    assert!(!fx.impl_tail.is_empty() && fx.impl_tail.len() <= 32, "{}", fx.render());
    assert!(
        fx.spec_tail.iter().any(|l| l.contains("LoadConstant")),
        "spec tail shows the li: {}",
        fx.render()
    );

    // ...and a waveform window around the divergent cycle.
    assert!(fx.vcd_window.contains("$dumpvars"), "VCD window rendered: {}", fx.render());

    // The human rendition carries all of the above.
    let text = fx.render();
    for needle in ["t9", "r1", "0x00001234", "0x00001235"] {
        assert!(text.contains(needle), "render mentions {needle:?}:\n{text}");
    }
}

/// The tail bound is honoured for longer programs: a loop retiring far
/// more than [`FORENSIC_TAIL`] instructions before its fault keeps
/// exactly the last `FORENSIC_TAIL` on each side.
#[test]
fn forensic_tails_are_bounded() {
    let (circuit, s) = late_magic_write(30);
    let fx = check_lockstep(circuit, &s, 1000, cfg_fixed(0), 1_000_000, &mut NoTrace)
        .expect_err("sabotaged CPU must diverge");
    assert!(fx.divergent_step.unwrap() as usize > FORENSIC_TAIL, "{}", fx.render());
    assert_eq!(fx.spec_tail.len(), FORENSIC_TAIL, "spec tail capped");
    assert_eq!(fx.impl_tail.len(), FORENSIC_TAIL, "impl tail capped");
}

/// A divergence past the first 64-retire slice is anchored at the last
/// slice boundary before it and replayed from there on a fresh circuit,
/// which reproduces a fault of the circuit itself.
#[test]
fn lockstep_replays_a_late_divergence_from_its_anchor() {
    let (circuit, s) = late_magic_write(15);
    let fx = check_lockstep(circuit, &s, 1000, cfg_fixed(0), 1_000_000, &mut NoTrace)
        .expect_err("sabotaged CPU must diverge");
    assert_eq!(fx.divergent_step, Some(77), "{}", fx.render());
    assert_eq!(fx.replay_anchor, Some(64), "{}", fx.render());
    let note = "anchored replay from retire 64: divergence reproduced within 22 retires \
                (saved 64 boot retires)";
    assert!(fx.notes.iter().any(|n| n == note), "{}", fx.render());
}

/// A circuit whose register file stores `0xBAD1` for `0xBAD0`, and a
/// program that writes `0xBAD0` at retire `2 + 5 * rounds`, after a
/// counted loop of five retires a round.
fn late_magic_write(rounds: u32) -> (Circuit, State) {
    let mut circuit = silver_cpu();
    let mut flipped = 0;
    for p in &mut circuit.processes {
        sabotage_magic_writes(&mut p.body, &mut flipped);
    }
    assert!(flipped > 0);
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0);
    a.li(r(2), rounds);
    a.label("loop");
    a.normal(Func::Add, r(1), Ri::Reg(r(1)), Ri::Imm(1));
    a.normal(Func::Dec, r(2), Ri::Imm(0), Ri::Reg(r(2)));
    a.branch_nonzero_sub(Ri::Reg(r(2)), Ri::Imm(0), "loop", r(60));
    a.li(r(3), 0xBAD0); // the faulty write
    a.halt(r(61));
    (circuit, state_with_code(0, &a.assemble().unwrap()))
}

/// A shadowed run through the shared run loop, sliced every 4 retires,
/// whose injected jet fault first bites at retire 10: the forensics
/// name the last boundary (8) as the replay anchor, and the replay from
/// there with the same [`Shadow`] settings reproduces the divergence.
#[test]
fn shadowed_run_replays_its_divergence_from_the_last_boundary() {
    struct Boundaries(Vec<u64>);
    impl Hooks for Boundaries {
        type Stop = Infallible;
        fn boundary<M: Machine>(&mut self, m: &M) -> ControlFlow<Infallible> {
            self.0.push(m.retired());
            ControlFlow::Continue(())
        }
    }

    let mut a = Assembler::new(0);
    for i in 1..=10 {
        a.li(Reg::new(i), u32::from(i)); // LoadConstant: unaffected by the ALU fault
    }
    a.normal(Func::Add, Reg::new(11), Ri::Reg(Reg::new(1)), Ri::Reg(Reg::new(2)));
    a.halt(Reg::new(61));
    let image = state_with_code(0, &a.assemble().unwrap());
    let plan = Plan {
        layout: &TargetLayout::default(),
        engine: Engine::Jet,
        shadow: Some(Shadow { fault_xor: 1 << 4 }),
        fuel: 10_000,
        every: 4,
    };
    let mut hooks = Boundaries(Vec::new());
    let RunEnd::Diverged(fx) = silver::exec::run(image, &plan, &mut hooks, &mut NoTrace) else {
        panic!("the jet ALU fault must be caught");
    };
    assert_eq!(hooks.0, [4, 8]);
    assert_eq!(fx.divergent_step, Some(10), "{}", fx.render());
    assert_eq!(fx.replay_anchor, Some(8), "{}", fx.render());
    let note = "anchored replay from retire 8: divergence reproduced within 11 retires \
                (saved 8 boot retires)";
    assert!(fx.notes.iter().any(|n| n == note), "{}", fx.render());
}

/// Rewrites only the register-file writes of `0xBAD0` to store `0xBAD1`
/// — a fault whose effect a later write can erase.
fn sabotage_magic_writes(stmts: &mut Vec<RStmt>, flipped: &mut usize) {
    for s in stmts {
        match s {
            RStmt::SetMem(name, _idx, val) if name == "regs" => {
                let old: RExpr = val.clone();
                *val = old.clone().eq_(word(32, 0xBAD0)).mux(old.clone().xor_(word(32, 1)), old);
                *flipped += 1;
            }
            RStmt::If(_, t, e) => {
                sabotage_magic_writes(t, flipped);
                sabotage_magic_writes(e, flipped);
            }
            RStmt::Case(_, arms, default) => {
                for (_, body) in arms {
                    sabotage_magic_writes(body, flipped);
                }
                if let Some(d) = default {
                    sabotage_magic_writes(d, flipped);
                }
            }
            _ => {}
        }
    }
}

/// A transient fault — a wrong register value that the program then
/// overwrites with the right one — leaves the end states equal, so only
/// a comparison on every retire (theorem (9) for every *n*) catches it,
/// and the report names the retire that wrote the wrong value.
#[test]
fn transient_register_fault_is_caught_at_its_retire() {
    let mut circuit = silver_cpu();
    let mut flipped = 0;
    for p in &mut circuit.processes {
        sabotage_magic_writes(&mut p.body, &mut flipped);
    }
    assert!(flipped > 0);
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(2), 7);
    a.li(r(1), 0xBAD0); // retire 1: the circuit writes 0xBAD1
    a.li(r(1), 0x1234); // retire 2: overwritten with the right value
    a.halt(r(5));
    let s = state_with_code(0, &a.assemble().unwrap());

    // The end states agree: a check only at the final *n* passes.
    let mut isa = s.clone();
    isa.run(100);
    let mut m =
        CircuitMachine::with_circuit(circuit.clone(), &s, cfg_fixed(0), 10_000, NoCycleObserver);
    m.run(u64::MAX);
    assert!(m.error().is_none() && m.is_halted());
    assert!(isa.isa_visible_eq(&m.capture()), "the fault leaves no trace at the end");

    let fx = check_lockstep(circuit, &s, 100, cfg_fixed(0), 10_000, &mut NoTrace)
        .expect_err("the per-retire lockstep catches the transient fault");
    assert_eq!(fx.divergent_step, Some(1), "{}", fx.render());
    let r1 = fx.deltas.iter().find(|d| d.field == "r1").expect("r1 delta");
    assert_eq!((r1.spec.as_str(), r1.impl_.as_str()), ("0x0000bad0", "0x0000bad1"));
}

/// `divergent_step` is the zero-based retire index under every
/// relation: a fault on the very first retire is step 0 under theorem J
/// (jet) and under theorem (9) (the circuit).
#[test]
fn a_fault_on_the_first_retire_is_step_zero_everywhere() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.normal(Func::Add, r(1), Ri::Imm(1), Ri::Imm(2));
    a.halt(r(5));
    let s = state_with_code(0, &a.assemble().unwrap());
    let jet = jet::run_shadow(&s, 100, 1).expect_err("the jet ALU fault is caught");
    assert_eq!(jet.divergent_step, Some(0), "{}", jet.render());
    let t9 = check_lockstep(sabotaged_cpu(), &s, 100, cfg_fixed(0), 10_000, &mut NoTrace)
        .expect_err("the circuit fault is caught");
    assert_eq!(t9.divergent_step, Some(0), "{}", t9.render());
}
