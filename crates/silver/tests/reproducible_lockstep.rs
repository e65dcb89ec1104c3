//! Determinism smoke test: the whole lockstep pipeline — random program
//! generation, the circuit interpreter, and the randomised-latency
//! environment model — is a pure function of its seeds.
//!
//! Three random programs are generated from seeds derived from
//! `TESTKIT_SEED` (so the suite still covers fresh programs when the
//! master seed changes), each is run through `check_lockstep` twice with
//! identical configuration, and the two [`LockstepReport`]s must be
//! bit-identical. This is the reproducibility contract the hermetic
//! `testkit` harness promises: same `TESTKIT_SEED`, same outcome.

use ag32::asm::Assembler;
use ag32::{Func, NoTrace, Reg, Ri, Shift, State};
use silver::env::{Latency, MemEnvConfig};
use silver::lockstep::{check_lockstep, LockstepReport};
use silver::silver_cpu;
use testkit::rng::{Rng as _, TestRng};

/// A small random structured program: a few blocks of ALU/shift work
/// wrapped in counted loops, ending in a halt.
fn random_program(seed: u64) -> State {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut a = Assembler::new(0);
    let r = Reg::new;
    let blocks = rng.gen_range(1u32..4);
    for b in 0..blocks {
        let counter = r(50 + b as u8);
        a.li(counter, rng.gen_range(1u32..5));
        a.label(&format!("block{b}"));
        for _ in 0..rng.gen_range(1u32..6) {
            let w = r(rng.gen_range(1u8..40));
            let x = Ri::Reg(r(rng.gen_range(1u8..40)));
            let y = if rng.gen_bool(0.5) {
                Ri::Reg(r(rng.gen_range(1u8..40)))
            } else {
                Ri::Imm(rng.gen_range(-32i8..=31))
            };
            if rng.gen_bool(0.25) {
                a.shift(Shift::from_bits(rng.next_u32() & 3), w, x, y);
            } else {
                a.normal(Func::from_bits(rng.next_u32() & 0xF), w, x, y);
            }
        }
        a.normal(Func::Dec, counter, Ri::Imm(0), Ri::Reg(counter));
        a.branch_nonzero_sub(Ri::Reg(counter), Ri::Imm(0), &format!("block{b}"), r(60));
    }
    a.halt(r(61));
    let code = a.assemble().unwrap();
    let mut s = State::new();
    s.mem.write_bytes(0, &code);
    s
}

fn run_once(s: &State, env_seed: u64) -> LockstepReport {
    let cfg = MemEnvConfig {
        mem_latency: Latency::Random { max: 3 },
        interrupt_latency: Latency::Random { max: 3 },
        start_delay: 2,
        seed: env_seed,
    };
    check_lockstep(silver_cpu(), s, 20_000, cfg, 2_000_000, &mut NoTrace).unwrap()
}

#[test]
fn lockstep_reports_are_reproducible() {
    let master = testkit::master_seed();
    for lane in 0u64..3 {
        let prog_seed = master ^ (0x0DD5_EED0 + lane);
        // Same seed twice: program generation itself must be deterministic.
        let s1 = random_program(prog_seed);
        let s2 = random_program(prog_seed);
        assert!(
            s1.isa_visible_eq(&s2),
            "program generation diverged for seed {prog_seed:#x}"
        );

        let env_seed = master.rotate_left(17) ^ lane;
        let r1 = run_once(&s1, env_seed);
        let r2 = run_once(&s2, env_seed);
        assert_eq!(
            r1, r2,
            "lockstep reports diverged for prog_seed={prog_seed:#x} env_seed={env_seed:#x}"
        );
        assert!(r1.instructions > 0, "program retired no instructions");
        assert!(r1.cycles >= r1.instructions, "impl cannot be faster than one cycle/instr");
    }
}
