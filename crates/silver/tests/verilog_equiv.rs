//! Theorem-(10) analog for the real CPU: the circuit-level Silver
//! implementation and its generated Verilog stay in lockstep under a lab
//! environment, and whole programs run to completion purely under the
//! Verilog semantics (theorem (7)'s `vstep m = Ok fin`).

use ag32::asm::Assembler;
use ag32::{Func, Machine, Reg, Ri, State};
use silver::env::{Latency, MemEnvConfig};
use silver::{check_cpu_verilog_equiv, CircuitMachine};

fn demo_state() -> State {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0);
    a.li(r(2), 5);
    a.label("loop");
    a.normal(Func::Add, r(1), Ri::Reg(r(1)), Ri::Reg(r(2)));
    a.normal(Func::Dec, r(2), Ri::Imm(0), Ri::Reg(r(2)));
    a.branch_nonzero_sub(Ri::Reg(r(2)), Ri::Imm(0), "loop", r(60));
    a.li(r(3), 0x3000);
    a.instr(ag32::Instr::StoreMem { a: Ri::Reg(r(1)), b: Ri::Reg(r(3)) });
    a.instr(ag32::Instr::Interrupt);
    a.halt(r(61));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().unwrap());
    s.io_window = (0x3000, 4);
    s
}

#[test]
fn cpu_verilog_lockstep_under_random_latency() {
    let cfg = MemEnvConfig {
        mem_latency: Latency::Random { max: 2 },
        interrupt_latency: Latency::Fixed(1),
        seed: 77,
        ..MemEnvConfig::default()
    };
    // Every signal compared on every one of 600 cycles.
    check_cpu_verilog_equiv(&demo_state(), cfg, 600).unwrap();
}

#[test]
fn whole_program_runs_under_verilog_semantics() {
    let s = demo_state();
    let mut m = CircuitMachine::new(&s, MemEnvConfig::default(), 100_000).with_verilog().unwrap();
    let retired = m.run(u64::MAX);
    assert!(m.error().is_none(), "{:?}", m.error());
    // The program computed 5+4+3+2+1 = 15, stored it and interrupted.
    assert_eq!(m.read_word(0x3000), 15);
    assert_eq!(m.io_events().len(), 1);
    assert_eq!(m.io_events()[0].window, vec![15, 0, 0, 0]);
    assert!(m.cycles() > 0);
    // Cross-check against the ISA run (theorem (7) composition).
    let mut isa = s.clone();
    assert_eq!(isa.run(10_000), retired);
    assert!(isa.is_halted());
    assert_eq!(isa.pc, m.pc());
    assert_eq!(isa.io_events, m.io_events());
}

#[test]
fn verilog_text_for_cpu_is_emitted() {
    let module = rtl::generate(&silver::silver_cpu()).unwrap();
    let text = verilog::pretty::print_module(&module);
    // The artefact the paper feeds to Vivado: a single synthesisable
    // module with the documented interface.
    for needle in [
        "module silver_cpu(",
        "input logic clk",
        "input logic [31:0] mem_rdata",
        "output logic [31:0] mem_addr",
        "output logic interrupt_req",
        "always_ff @(posedge clk)",
        "endmodule",
    ] {
        assert!(text.contains(needle), "missing `{needle}`");
    }
}
