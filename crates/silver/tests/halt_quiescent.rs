//! The "does nothing after termination" lemma (§4.3): the ISA-visible
//! state is unchanged at any *clock cycle* after program termination,
//! not just at any instruction cycle — and every machine decides
//! termination with the one halt predicate, [`ag32::halts`].

use ag32::asm::Assembler;
use ag32::{encode, Func, Instr, Machine, Reg, Ri, State};
use silver::env::{Latency, MemEnvConfig};
use silver::CircuitMachine;

#[test]
fn visible_state_is_constant_after_halt() {
    let mut a = Assembler::new(0);
    a.li(Reg::new(1), 42);
    a.halt(Reg::new(2));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().unwrap());

    let cfg = MemEnvConfig {
        mem_latency: Latency::Random { max: 3 },
        seed: 9,
        ..MemEnvConfig::default()
    };
    let mut m = CircuitMachine::new(&s, cfg, u64::MAX);

    // Run until halted with at least one full lap of the self-jump
    // executed (so the idempotent link write has landed).
    let mut laps = 0;
    while laps < 2 {
        m.cycle().unwrap();
        assert!(m.cycles() < 10_000, "program should halt quickly");
        if m.is_halted() && m.rtl_state().get_scalar("retired").unwrap() >= 3 {
            laps += 1;
        }
    }

    // Snapshot the ISA-visible projection (pc, registers, flags, output
    // port, I/O-event count) and check it at EVERY subsequent clock
    // cycle — including mid-instruction wait states.
    let visible = m.arch();
    for extra in 0..200 {
        m.cycle().unwrap();
        assert_eq!(m.arch(), visible, "visible state changed {extra} cycles after halt");
    }
}

#[test]
fn wedged_machine_is_fully_frozen() {
    let mut s = State::new();
    s.mem.write_word(0, encode(Instr::Reserved));
    let mut m = CircuitMachine::new(&s, MemEnvConfig::default(), u64::MAX);
    assert!(m.is_halted(), "a Reserved instruction at the PC halts before any cycle");
    assert_eq!(m.run(10), 0);
    assert_eq!(m.cycles(), 0, "a halted machine is not clocked by `run`");
    for _ in 0..50 {
        m.cycle().unwrap();
    }
    assert_eq!(m.rtl_state().get_scalar("state").unwrap(), silver::cpu::fsm::WEDGED);
    let snap = m.rtl_state().clone();
    for _ in 50..100 {
        m.cycle().unwrap();
        assert_eq!(m.rtl_state(), &snap, "wedged machine must not change at all");
    }
    assert!(m.is_halted());
}

#[test]
fn snd_self_jump_idiom_also_quiesces() {
    // Halt via `Jump Snd r, Reg t` with R[t] = PC — the paper's
    // program-specific halt location.
    let mut s = State::new();
    s.regs[10] = 0x20;
    s.pc = 0x20;
    s.mem.write_word(
        0x20,
        encode(Instr::Jump { func: Func::Snd, w: Reg::new(11), a: Ri::Reg(Reg::new(10)) }),
    );
    assert!(s.is_halted());
    let mut m = CircuitMachine::new(&s, MemEnvConfig::default(), u64::MAX);
    while m.rtl_state().get_scalar("retired").unwrap() < 1 {
        m.cycle().unwrap();
    }
    assert!(m.is_halted());
    assert_eq!(m.pc(), 0x20);
}

/// The halt predicate, case by case: the reference interpreter, the jet
/// engine and the circuit machine all agree with [`ag32::halts`] on
/// every halting and non-halting jump form.
#[test]
fn every_machine_uses_the_one_halt_predicate() {
    let pc = 0x40;
    let jump = |func, a| Instr::Jump { func, w: Reg::new(11), a };
    let cases = [
        (jump(Func::Add, Ri::Imm(0)), true),
        (jump(Func::Add, Ri::Reg(Reg::new(12))), true), // r12 = 0
        (jump(Func::Add, Ri::Imm(4)), false),
        (jump(Func::Snd, Ri::Reg(Reg::new(10))), true), // r10 = pc
        (jump(Func::Snd, Ri::Imm(0)), false),
        (jump(Func::Sub, Ri::Imm(0)), false),
        (Instr::Reserved, true),
        (Instr::Normal { func: Func::Add, w: Reg::new(1), a: Ri::Imm(0), b: Ri::Imm(0) }, false),
    ];
    for (instr, halting) in cases {
        let mut s = State::new();
        s.regs[10] = pc;
        s.pc = pc;
        s.mem.write_word(pc, encode(instr));
        assert_eq!(ag32::halts(instr, pc, |r| s.ri(r)), halting, "{instr}");
        assert_eq!(s.is_halted(), halting, "reference: {instr}");
        assert_eq!(jet::Jet::from_state(&s).is_halted(), halting, "jet: {instr}");
        let m = CircuitMachine::new(&s, MemEnvConfig::default(), 1_000);
        assert_eq!(m.is_halted(), halting, "circuit: {instr}");
    }
}
