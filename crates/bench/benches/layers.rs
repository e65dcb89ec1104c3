//! B1 (ablation): simulator throughput at each layer of Figure 1 —
//! ISA (`Next`), circuit-level CPU, and deep-embedded Verilog. The cost
//! of each abstraction level is the practical reason the paper's lab
//! setup synthesises a bitstream instead of simulating.

use ag32::asm::Assembler;
use ag32::{Func, Machine, Reg, Ri, State};
use silver::env::MemEnvConfig;
use silver::CircuitMachine;
use testkit::bench::Bench;

/// A tight counted loop: 3 instructions per iteration plus setup.
fn loop_program(iterations: u32) -> State {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), iterations);
    a.label("loop");
    a.normal(Func::Add, r(2), Ri::Reg(r(2)), Ri::Imm(1));
    a.normal(Func::Dec, r(1), Ri::Imm(0), Ri::Reg(r(1)));
    a.branch_nonzero_sub(Ri::Reg(r(1)), Ri::Imm(0), "loop", r(60));
    a.halt(r(61));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("assembles"));
    s
}

fn main() {
    let mut b = Bench::new("layers").sample_size(10);

    // ISA: instructions per second.
    b.bench("layer2_isa_10k_instructions", || {
        let mut s = loop_program(2000);
        let n = s.run(100_000);
        assert!(s.is_halted());
        n
    });

    // Circuit level: clock cycles per second.
    b.bench("layer3_rtl_loop_2000", || {
        let mut m = CircuitMachine::new(&loop_program(2000), MemEnvConfig::default(), u64::MAX);
        m.run(u64::MAX);
        assert!(m.error().is_none() && m.is_halted());
        m.cycles()
    });

    // Verilog level: same machine, bit-vector semantics (much smaller
    // workload — this is the slowest layer).
    b.bench("layer4_verilog_loop_50", || {
        let mut m = CircuitMachine::new(&loop_program(50), MemEnvConfig::default(), u64::MAX)
            .with_verilog()
            .expect("codegen");
        m.run(u64::MAX);
        assert!(m.error().is_none() && m.is_halted());
        m.cycles()
    });

    b.finish();
}
