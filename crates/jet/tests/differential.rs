//! Theorem J as a property: jet ≡ Next over random programs, with
//! shrinking via the testkit choice-stream harness (replay failures
//! with the printed `TESTKIT_CASE_SEED` command).
//!
//! The generator deliberately includes stores aimed at the low pages —
//! i.e. *into the code region* — so self-modifying chaos, garbage
//! decoding after clobbered branches, misaligned jump targets and the
//! I/O instructions are all exercised under full (every-retire) shadow
//! comparison.

use ag32::asm::Assembler;
use ag32::{Func, Instr, Reg, Ri, Shift, State};
use testkit::prop::Ctx;

fn arb_image(c: &mut Ctx) -> State {
    let r = Reg::new;
    let mut a = Assembler::new(0);
    // Seed a few registers with small values (addresses land low).
    for i in 1..8u8 {
        a.li(r(i), c.any::<u32>() & 0x3FF);
    }
    let blocks = 1 + c.choose(3) as u32;
    for b in 0..blocks {
        let counter = r(50 + b as u8);
        a.li(counter, 1 + c.choose(3) as u32);
        a.label(format!("block{b}"));
        let body = 1 + c.choose(6);
        for _ in 0..body {
            let w = r(1 + c.choose(20) as u8);
            let x = Ri::Reg(r(1 + c.choose(20) as u8));
            let y = if c.any_bool() {
                Ri::Reg(r(1 + c.choose(20) as u8))
            } else {
                Ri::Imm(c.gen_range(-32i8..=31))
            };
            match c.choose(10) {
                0 => a.shift(Shift::from_bits(c.choose(4) as u32), w, x, y),
                1 => {
                    // Word store, word-aligned, low — often inside code.
                    a.li(r(40), c.choose(0x100) as u32 * 4);
                    a.instr(Instr::StoreMem { a: x, b: Ri::Reg(r(40)) });
                }
                2 => {
                    // Byte store at an arbitrary low address.
                    a.li(r(41), c.choose(0x400) as u32);
                    a.instr(Instr::StoreMemByte { a: x, b: Ri::Reg(r(41)) });
                }
                3 => {
                    a.li(r(42), c.choose(0x400) as u32);
                    a.instr(Instr::LoadMem { w, a: Ri::Reg(r(42)) });
                }
                4 => a.instr(Instr::LoadMemByte { w, a: x }),
                5 => a.instr(Instr::In { w }),
                6 => a.instr(Instr::Out {
                    func: Func::from_bits(c.choose(16) as u32),
                    w,
                    a: x,
                    b: y,
                }),
                7 => a.instr(Instr::Interrupt),
                8 => a.instr(Instr::Accelerator { w, a: x }),
                _ => a.normal(Func::from_bits(c.choose(16) as u32), w, x, y),
            }
        }
        a.normal(Func::Dec, counter, Ri::Imm(0), Ri::Reg(counter));
        a.branch_nonzero_sub(Ri::Reg(counter), Ri::Imm(0), format!("block{b}"), r(60));
    }
    a.halt(r(61));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("generated program assembles"));
    s.data_in = c.any::<u32>();
    s.io_window = (0x80, 16);
    s
}

testkit::props! {
    /// Theorem J over random (possibly self-modifying) programs under
    /// full shadow: every retire's architectural state, final memory
    /// and I/O traces.
    fn jet_equals_next_full_shadow(ctx) {
        let image = arb_image(ctx);
        let fuel = 1 + ctx.choose(300) as u64;
        if let Err(fx) = jet::run_shadow(&image, fuel, 0) {
            panic!("theorem J violated:\n{}", fx.render());
        }
    }

    /// The plain (shadow-off) engine reaches the same final state as
    /// the reference run — the configuration the benchmarks use.
    fn jet_final_state_equals_reference(ctx) {
        let image = arb_image(ctx);
        let fuel = 1 + ctx.choose(500) as u64;
        let mut spec = image.clone();
        let spec_n = spec.run(fuel);
        let mut j = jet::Jet::from_state(&image);
        let jet_n = j.run(fuel);
        assert_eq!(jet_n, spec_n, "retire counts");
        let js = j.to_state();
        assert!(js.isa_visible_eq(&spec), "final states differ (jet pc {:#x}, spec pc {:#x})", js.pc, spec.pc);
        assert_eq!(js.stats, spec.stats, "per-opcode retire counters");
    }
}
