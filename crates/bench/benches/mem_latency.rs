//! B2 (ablation): sensitivity to memory latency — the wait states of
//! §4.2. The implementation stalls on every fetch, load and store, so
//! clock-cycles-per-instruction grows linearly with the DRAM response
//! latency; this bench prints the measured curve and times one point.
//! Every point is a theorem-(9) lockstep (`silver::check_lockstep` over
//! the Silver CPU), so the curve is measured on a re-verified circuit.

use ag32::asm::Assembler;
use ag32::{Func, Instr, NoTrace, Reg, Ri, State};
use silver::env::{Latency, MemEnvConfig};
use silver::{check_lockstep, silver_cpu};
use testkit::bench::Bench;

/// A memory-heavy loop: word store + load per iteration.
fn memory_program() -> State {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 200); // iterations
    a.li(r(2), 0x2000); // buffer
    a.label("loop");
    a.instr(Instr::StoreMem { a: Ri::Reg(r(1)), b: Ri::Reg(r(2)) });
    a.instr(Instr::LoadMem { w: r(3), a: Ri::Reg(r(2)) });
    a.normal(Func::Dec, r(1), Ri::Imm(0), Ri::Reg(r(1)));
    a.branch_nonzero_sub(Ri::Reg(r(1)), Ri::Imm(0), "loop", r(60));
    a.halt(r(61));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("assembles"));
    s
}

fn main() {
    eprintln!("--- B2: clock cycles vs memory latency (same program) ---");
    eprintln!("latency  cycles  instructions  CPI");
    for lat in [0u32, 1, 2, 4, 8] {
        let cfg = MemEnvConfig { mem_latency: Latency::Fixed(lat), ..MemEnvConfig::default() };
        let rep =
            check_lockstep(silver_cpu(), &memory_program(), 100_000, cfg, 50_000_000, &mut NoTrace)
                .expect("lockstep also re-verifies theorem 9 per latency");
        eprintln!(
            "{lat:>7}  {:>6}  {:>12}  {:.2}",
            rep.cycles,
            rep.instructions,
            rep.cycles as f64 / rep.instructions as f64
        );
    }

    let mut b = Bench::new("mem_latency").sample_size(10);
    b.bench("rtl_mem_program_latency2", || {
        let cfg = MemEnvConfig { mem_latency: Latency::Fixed(2), ..MemEnvConfig::default() };
        check_lockstep(silver_cpu(), &memory_program(), 100_000, cfg, 50_000_000, &mut NoTrace)
            .unwrap()
            .cycles
    });
    b.finish();
}
