//! Theorem-(9) analog: the Silver implementation simulates the Silver
//! ISA, checked by differential lockstep execution over hand-written
//! programs, every instruction class, and randomly generated programs,
//! under fixed and random memory latencies.

use ag32::asm::Assembler;
use ag32::{encode, Func, Instr, NoTrace, Reg, Ri, Shift, State};
use silver::env::{Latency, MemEnvConfig};
use silver::{check_lockstep, silver_cpu};
use testkit::prop::Ctx;
use testkit::rng::{Rng as _, TestRng};

fn state_with_code(base: u32, code: &[u8]) -> State {
    let mut s = State::new();
    s.pc = base;
    s.mem.write_bytes(base, code);
    s
}

fn cfg_fixed(lat: u32) -> MemEnvConfig {
    MemEnvConfig { mem_latency: Latency::Fixed(lat), ..MemEnvConfig::default() }
}

fn cfg_random(seed: u64) -> MemEnvConfig {
    MemEnvConfig {
        mem_latency: Latency::Random { max: 4 },
        interrupt_latency: Latency::Random { max: 4 },
        start_delay: 2,
        seed,
    }
}

#[test]
fn straightline_alu_program() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0xDEAD_BEEF);
    a.li(r(2), 0x0000_FFFF);
    for func in Func::ALL {
        a.normal(func, r(3), Ri::Reg(r(1)), Ri::Reg(r(2)));
        a.normal(Func::Add, r(4), Ri::Reg(r(4)), Ri::Reg(r(3)));
    }
    a.halt(r(5));
    let s = state_with_code(0, &a.assemble().unwrap());
    let rep = check_lockstep(silver_cpu(), &s, 1000, cfg_fixed(0), 100_000, &mut NoTrace).unwrap();
    assert_eq!(rep.instructions, 3 + 32);
}

#[test]
fn shifts_and_rotates() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0x8000_0001);
    for kind in Shift::ALL {
        for amt in [0i8, 1, 7, 31] {
            a.shift(kind, r(2), Ri::Reg(r(1)), Ri::Imm(amt));
            a.normal(Func::Xor, r(1), Ri::Reg(r(1)), Ri::Reg(r(2)));
        }
    }
    a.halt(r(3));
    let s = state_with_code(0, &a.assemble().unwrap());
    check_lockstep(silver_cpu(), &s, 1000, cfg_fixed(1), 100_000, &mut NoTrace).unwrap();
}

#[test]
fn memory_traffic_words_and_bytes() {
    let mut a = Assembler::new(0x100);
    let r = Reg::new;
    a.li(r(1), 0x2000);
    a.li(r(2), 0xA1B2_C3D4);
    a.instr(Instr::StoreMem { a: Ri::Reg(r(2)), b: Ri::Reg(r(1)) });
    a.instr(Instr::LoadMem { w: r(3), a: Ri::Reg(r(1)) });
    // Byte stores to each lane, byte loads back.
    for lane in 0..4i8 {
        a.normal(Func::Add, r(4), Ri::Reg(r(1)), Ri::Imm(lane));
        a.normal(Func::Add, r(5), Ri::Imm(lane), Ri::Imm(17));
        a.instr(Instr::StoreMemByte { a: Ri::Reg(r(5)), b: Ri::Reg(r(4)) });
        a.instr(Instr::LoadMemByte { w: r(6), a: Ri::Reg(r(4)) });
        a.normal(Func::Add, r(7), Ri::Reg(r(7)), Ri::Reg(r(6)));
    }
    a.halt(r(8));
    let s = state_with_code(0x100, &a.assemble().unwrap());
    for lat in [0, 1, 3] {
        check_lockstep(silver_cpu(), &s, 1000, cfg_fixed(lat), 100_000, &mut NoTrace).unwrap();
    }
}

#[test]
fn loops_and_branches() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    // Compute 10! mod 2^32 with a loop.
    a.li(r(1), 1); // acc
    a.li(r(2), 10); // i
    a.label("loop");
    a.normal(Func::Mul, r(1), Ri::Reg(r(1)), Ri::Reg(r(2)));
    a.normal(Func::Dec, r(2), Ri::Imm(0), Ri::Reg(r(2)));
    a.branch_nonzero_sub(Ri::Reg(r(2)), Ri::Imm(0), "loop", r(60));
    a.halt(r(61));
    let s = state_with_code(0, &a.assemble().unwrap());
    let rep =
        check_lockstep(silver_cpu(), &s, 10_000, cfg_random(3), 1_000_000, &mut NoTrace).unwrap();
    assert!(rep.instructions > 30);
}

#[test]
fn call_ret_and_computed_jumps() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.call("f", r(60), r(62));
    a.call("f", r(60), r(62));
    a.halt(r(61));
    a.label("f");
    a.normal(Func::Add, r(1), Ri::Reg(r(1)), Ri::Imm(5));
    a.ret(r(62), r(59));
    let s = state_with_code(0, &a.assemble().unwrap());
    check_lockstep(silver_cpu(), &s, 1000, cfg_random(11), 100_000, &mut NoTrace).unwrap();
}

#[test]
fn in_out_ports_and_accelerator() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.instr(Instr::In { w: r(1) });
    a.instr(Instr::Out { func: Func::Add, w: r(2), a: Ri::Reg(r(1)), b: Ri::Imm(1) });
    a.instr(Instr::Accelerator { w: r(3), a: Ri::Reg(r(2)) });
    a.halt(r(4));
    let mut s = state_with_code(0, &a.assemble().unwrap());
    s.data_in = 0x7F;
    check_lockstep(silver_cpu(), &s, 100, cfg_fixed(0), 10_000, &mut NoTrace).unwrap();
}

#[test]
fn interrupt_records_matching_io_events() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0x3000);
    a.li(r(2), 0xCAFE);
    a.instr(Instr::StoreMem { a: Ri::Reg(r(2)), b: Ri::Reg(r(1)) });
    a.instr(Instr::Interrupt);
    a.li(r(2), 0xD00D);
    a.instr(Instr::StoreMem { a: Ri::Reg(r(2)), b: Ri::Reg(r(1)) });
    a.instr(Instr::Interrupt);
    a.halt(r(3));
    let mut s = state_with_code(0, &a.assemble().unwrap());
    s.io_window = (0x3000, 8);
    let rep = check_lockstep(silver_cpu(), &s, 100, cfg_random(5), 100_000, &mut NoTrace).unwrap();
    assert_eq!(rep.instructions, 7);
}

#[test]
fn reserved_wedges_both_levels() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 7);
    a.instr(Instr::Reserved);
    a.li(r(1), 9); // must never execute
    let s = state_with_code(0, &a.assemble().unwrap());
    let rep = check_lockstep(silver_cpu(), &s, 100, cfg_fixed(0), 10_000, &mut NoTrace).unwrap();
    assert_eq!(rep.instructions, 1, "only the li retires");
}

#[test]
fn flags_across_instruction_boundaries() {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    // 64-bit addition using carry chaining.
    a.li(r(1), 0xFFFF_FFFF);
    a.li(r(2), 1);
    a.normal(Func::Add, r(3), Ri::Reg(r(1)), Ri::Reg(r(2)));
    a.normal(Func::AddWithCarry, r(4), Ri::Imm(0), Ri::Imm(0));
    a.normal(Func::Carry, r(5), Ri::Imm(0), Ri::Imm(0));
    a.normal(Func::Overflow, r(6), Ri::Imm(0), Ri::Imm(0));
    a.halt(r(7));
    let s = state_with_code(0, &a.assemble().unwrap());
    check_lockstep(silver_cpu(), &s, 100, cfg_fixed(2), 10_000, &mut NoTrace).unwrap();
}

#[test]
fn nonzero_initial_registers_and_pc() {
    let mut a = Assembler::new(0x4000);
    let r = Reg::new;
    a.normal(Func::Add, r(10), Ri::Reg(r(11)), Ri::Reg(r(12)));
    a.halt(r(1));
    let mut s = state_with_code(0x4000, &a.assemble().unwrap());
    for i in 0..64 {
        s.regs[i] = (i as u32).wrapping_mul(0x0101_0101);
    }
    s.carry = true;
    s.overflow = true;
    check_lockstep(silver_cpu(), &s, 10, cfg_fixed(0), 1_000, &mut NoTrace).unwrap();
}

/// Builds a random structured program: nested counted loops around
/// random ALU/memory instructions — exercising the branch/jump paths the
/// straight-line generator cannot.
fn random_structured_program(seed: u64, blocks: u32) -> State {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut a = Assembler::new(0);
    let r = Reg::new;
    for b in 0..blocks {
        let iters = rng.gen_range(1..6);
        let counter = r(50);
        a.li(counter, iters);
        a.label(format!("blk{b}"));
        for _ in 0..rng.gen_range(1..5) {
            let w = r(rng.gen_range(1..40));
            let x = Ri::Reg(r(rng.gen_range(1..40)));
            let y = if rng.gen_bool(0.5) {
                Ri::Imm(rng.gen_range(-32..32))
            } else {
                Ri::Reg(r(rng.gen_range(1..40)))
            };
            match rng.gen_range(0..6) {
                0 => a.normal(Func::from_bits(rng.gen_range(0..16)), w, x, y),
                1 => a.shift(Shift::from_bits(rng.gen_range(0..4)), w, x, y),
                2 => a.instr(Instr::StoreMem { a: x, b: y }),
                3 => a.instr(Instr::LoadMem { w, a: x }),
                4 => a.instr(Instr::StoreMemByte { a: x, b: y }),
                _ => a.instr(Instr::LoadMemByte { w, a: x }),
            }
        }
        a.normal(Func::Dec, counter, Ri::Imm(0), Ri::Reg(counter));
        a.branch_nonzero_sub(Ri::Reg(counter), Ri::Imm(0), format!("blk{b}"), r(60));
    }
    a.halt(r(61));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("assembles"));
    for i in 1..50 {
        s.regs[i] = rng.gen();
    }
    s
}

/// Random *structured* programs — loops, branches, memory traffic,
/// random initial registers — stay in lockstep under random latency.
/// The 24 seeds fan out across cores via `testkit::par`.
#[test]
fn random_structured_programs() {
    let mut seeder = TestRng::seed_from_u64(testkit::master_seed() ^ 0x57C0);
    let cases: Vec<(u64, u32)> =
        (0..24).map(|_| (seeder.next_u64(), seeder.gen_range(1u32..5))).collect();
    testkit::par::par_map(cases, |(seed, blocks)| {
        let s = random_structured_program(seed, blocks);
        check_lockstep(silver_cpu(), &s, 3000, cfg_random(seed ^ 0xABCD), 3_000_000, &mut NoTrace)
            .unwrap_or_else(|e| panic!("seed {seed:#x}, {blocks} blocks: {e}"));
    });
}

fn arb_straightline(ctx: &mut Ctx) -> (Vec<u32>, u64) {
    (ctx.vec_of(1usize..40, |c| c.any::<u32>()), ctx.any::<u64>())
}

testkit::props! {
    #![cases = 24]

    /// Random straight-line programs (arbitrary instruction words with
    /// jumps excluded) agree between ISA and implementation under random
    /// memory latencies.
    fn random_straightline_programs(ctx) {
        let (words, seed) = arb_straightline(ctx);
        let mut s = State::new();
        s.io_window = (0x8000, 4);
        let mut addr = 0u32;
        for w in &words {
            // Remap jump-class opcodes to Normal to keep the program
            // straight-line; everything else (including Reserved and
            // Interrupt) stays.
            let instr = ag32::decode(*w);
            let keep = !matches!(
                instr,
                Instr::Jump { .. } | Instr::JumpIfZero { .. } | Instr::JumpIfNotZero { .. }
            );
            let w2 = if keep { *w } else { *w & !(0x1F << 25) };
            s.mem.write_word(addr, w2);
            addr += 4;
        }
        // Halt terminator.
        s.mem.write_word(addr, encode(Instr::Jump {
            func: Func::Add, w: Reg::new(0), a: Ri::Imm(0),
        }));
        let n = words.len() as u64 + 1;
        let rep = check_lockstep(silver_cpu(), &s, n, cfg_random(seed), 2_000_000, &mut NoTrace)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.cycles >= rep.instructions);
    }

    /// Random register/flag initial states on a fixed ALU program.
    fn random_initial_state(ctx) {
        let mut a = Assembler::new(0);
        let r = Reg::new;
        for f in [Func::Add, Func::AddWithCarry, Func::Sub, Func::MulHi, Func::Less] {
            a.normal(f, r(1), Ri::Reg(r(2)), Ri::Reg(r(3)));
        }
        a.halt(r(4));
        let mut s = state_with_code(0, &a.assemble().unwrap());
        for i in 0..64 {
            s.regs[i] = ctx.any::<u32>();
        }
        s.carry = ctx.any_bool();
        s.overflow = ctx.any_bool();
        let seed = ctx.any::<u64>();
        check_lockstep(silver_cpu(), &s, 100, cfg_random(seed), 100_000, &mut NoTrace)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
