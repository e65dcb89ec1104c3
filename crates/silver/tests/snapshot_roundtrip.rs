//! Crash-resume equivalence as a property: a run checkpointed at a
//! testkit-chosen retire count and resumed — under either engine, from
//! a checkpoint captured under either engine — is indistinguishable
//! from the uninterrupted run (final architectural state, retire count,
//! per-opcode stats, I/O-event trace). This is the paper's
//! layer-equivalence claim (theorem J) pushed through the serialised
//! snapshot format, so every case also exercises the wire encoding.
//!
//! Failures shrink to a minimal choice stream and print a one-line
//! `TESTKIT_CASE_SEED=… cargo test …` reproduction command.

use ag32::asm::Assembler;
use ag32::{Func, Instr, Reg, Ri, Shift, State};
use jet::Jet;
use silver::snapshot::Snapshot;
use testkit::prop::Ctx;

/// A random structured program: counted loops of ALU/shift work with
/// occasional memory stores, port I/O and interrupts, ending in a halt.
/// I/O ops matter here — they populate `io_events`, the part of the
/// observable state a lossy snapshot format would most plausibly drop.
fn arb_state(ctx: &mut Ctx) -> State {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    let blocks = ctx.gen_range(1u32..4);
    for b in 0..blocks {
        let counter = r(50 + b as u8);
        a.li(counter, ctx.gen_range(1u32..5));
        a.label(&format!("block{b}"));
        for _ in 0..ctx.gen_range(1u32..8) {
            let w = r(ctx.gen_range(1u8..40));
            let x = Ri::Reg(r(ctx.gen_range(1u8..40)));
            let y = if ctx.gen_bool(0.5) {
                Ri::Reg(r(ctx.gen_range(1u8..40)))
            } else {
                Ri::Imm(ctx.gen_range(-32i8..=31))
            };
            match ctx.choose(8) {
                0 => a.shift(Shift::from_bits(ctx.choose(4) as u32), w, x, y),
                1 => {
                    // Keep stores inside a fixed scratch page.
                    a.li(r(48), 0x2000 + 4 * ctx.gen_range(0u32..64));
                    a.instr(Instr::StoreMem { a: x, b: Ri::Reg(r(48)) });
                }
                2 => a.instr(Instr::Out { func: Func::Snd, w, a: x, b: y }),
                3 => a.instr(Instr::In { w }),
                4 => a.instr(Instr::Interrupt),
                _ => a.normal(Func::from_bits(ctx.choose(16) as u32), w, x, y),
            }
        }
        a.normal(Func::Dec, counter, Ri::Imm(0), Ri::Reg(counter));
        a.branch_nonzero_sub(Ri::Reg(counter), Ri::Imm(0), &format!("block{b}"), r(60));
    }
    a.halt(r(61));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("generated program assembles"));
    s.data_in = ctx.draw(u64::from(u32::MAX)) as u32;
    s.io_window = (0x2000, 16);
    s
}

testkit::props! {
    #![cases = 40]

    /// The full crash-resume matrix: checkpoint the run at retire `k`
    /// under ref and under jet, round-trip each checkpoint through the
    /// wire format, resume each on ref and on jet, and demand every
    /// path lands exactly where the uninterrupted run does.
    fn checkpointed_resume_equals_uninterrupted_run(ctx) {
        let state = arb_state(ctx);
        let fuel: u64 = ctx.gen_range(20u64..=1200);

        let mut base = state.clone();
        base.run(fuel);
        let total = base.instructions_retired;

        let k: u64 = ctx.gen_range(0..=total);
        let remaining = fuel - k;

        let mut pre = state.clone();
        pre.run(k);
        let ref_bytes = Snapshot::capture(&pre).to_bytes();
        let mut jet_pre = Jet::from_state(&state);
        jet_pre.run(k);
        let jet_bytes = Snapshot::capture(&jet_pre).to_bytes();

        for (origin, bytes) in [("ref", &ref_bytes), ("jet", &jet_bytes)] {
            let snap = Snapshot::from_bytes(bytes)
                .unwrap_or_else(|e| panic!("{origin} checkpoint rejected: {e}"));
            assert_eq!(snap.retired(), k, "{origin} checkpoint retire count");

            let mut s = snap.restore();
            s.run(remaining);
            assert!(
                s.isa_visible_eq(&base),
                "{origin}->ref resume diverged (k={k}, fuel={fuel})"
            );
            assert_eq!(s.instructions_retired, total, "{origin}->ref retire count");
            assert_eq!(s.stats, base.stats, "{origin}->ref stats");

            let mut j = Jet::from_state(&snap.restore());
            j.run(remaining);
            assert!(
                j.to_state().isa_visible_eq(&base),
                "{origin}->jet resume diverged (k={k}, fuel={fuel})"
            );
            assert_eq!(j.instructions_retired, total, "{origin}->jet retire count");
            assert_eq!(j.stats, base.stats, "{origin}->jet stats");
        }
    }

    /// Byte stability: equal observable states serialise to identical
    /// bytes regardless of which engine captured them and regardless of
    /// how often you re-encode.
    fn snapshot_bytes_are_engine_independent(ctx) {
        let state = arb_state(ctx);
        let fuel: u64 = ctx.gen_range(20u64..=800);

        let mut pre = state.clone();
        pre.run(fuel);
        let k = pre.instructions_retired;
        let mut jet_pre = Jet::from_state(&state);
        jet_pre.run(k);

        let ref_snap = Snapshot::capture(&pre);
        let ref_bytes = ref_snap.to_bytes();
        assert_eq!(ref_bytes, ref_snap.to_bytes(), "re-encode is deterministic");
        assert_eq!(
            ref_bytes,
            Snapshot::capture(&jet_pre).to_bytes(),
            "ref and jet captures of the same run serialise identically (k={k})"
        );
    }
}
