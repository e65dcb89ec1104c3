//! Observability overhead: tracing must cost nothing unless asked for.
//!
//! The acceptance bar for the observability subsystem is that the
//! *untraced* ISA execution path regresses by less than 2%. That holds
//! by construction, not by measurement: `State::run` is
//! `run_traced(.., &mut NoTrace)`, the [`ag32::NoTrace`] sink is
//! monomorphised with `const ACTIVE: bool = false`, and
//! `scripts/ci.sh` pins both. So there is no separate no-op-sink row
//! (it would time the baseline's own code). This bench measures:
//!
//! * `isa_untraced` — the plain `State::run` baseline;
//! * `isa_retire_ring_32` — the last-32 retire ring switched on;
//! * `isa_profiler` — per-symbol retire attribution switched on;
//! * `isa_edge_set` — campaign PC-edge coverage ([`ag32::EdgeSet`]).
//!
//! The ring, profiler and edge-set rows document the *opt-in* cost, not
//! a regression: they run only under `silverc --trace`/`--profile` and
//! in fuzz campaigns.

use ag32::asm::Assembler;
use ag32::{EdgeSet, Func, Reg, Ri, RetireRing, State};
use obs::CycleProfiler;
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

const ITERS: u32 = 30_000;
const FUEL: u64 = 1_000_000;

fn main() {
    let mut b = Bench::new("trace_overhead").sample_size(10);

    b.bench("isa_untraced", || {
        let mut s = loop_program(ITERS);
        let n = s.run(FUEL);
        assert!(s.is_halted());
        n
    });

    b.bench("isa_retire_ring_32", || {
        let mut s = loop_program(ITERS);
        let mut ring = RetireRing::new(32);
        let n = s.run_traced(FUEL, &mut ring);
        assert!(s.is_halted());
        assert_eq!(ring.total(), n);
        n
    });

    b.bench("isa_profiler", || {
        let mut s = loop_program(ITERS);
        let mut prof = CycleProfiler::new(vec![(0, "loop".to_string())]);
        let n = s.run_traced(FUEL, &mut prof);
        assert!(s.is_halted());
        assert_eq!(prof.total(), n);
        n
    });

    b.bench("isa_edge_set", || {
        let mut s = loop_program(ITERS);
        let mut edges = EdgeSet::new();
        let n = s.run_traced(FUEL, &mut edges);
        assert!(s.is_halted());
        assert!(edges.count() > 0);
        n
    });

    b.finish();
}
