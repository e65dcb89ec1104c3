//! Golden fixture pinning snapshot format v2: a fixed program,
//! checkpointed at a fixed retire count, must serialise to the exact
//! bytes checked in at `tests/golden/format_v2.snap`. Any byte-level
//! drift — field order, padding, section layout, checksum — fails here
//! before it can break old checkpoints in the field. Re-bless
//! deliberately (with a version bump if the change is real) via
//! `SILVER_BLESS=1 cargo test -p silver --test snapshot_golden`.

use ag32::asm::Assembler;
use ag32::{Func, Instr, Reg, Ri, State};
use silver::snapshot::{Snapshot, MAGIC, VERSION};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/format_v2.snap");

/// A fixed program exercising every section: memory stores (MEM),
/// port output and interrupts (IOEV), flag-setting ALU work (CPU).
fn fixed_state() -> State {
    let mut a = Assembler::new(0);
    let r = Reg::new;
    a.li(r(1), 0x1234);
    a.li(r(2), 0x2000);
    a.instr(Instr::StoreMem { a: Ri::Reg(r(1)), b: Ri::Reg(r(2)) });
    a.normal(Func::Add, r(3), Ri::Reg(r(1)), Ri::Reg(r(1)));
    a.instr(Instr::Out { func: Func::Snd, w: r(3), a: Ri::Imm(0), b: Ri::Reg(r(3)) });
    a.instr(Instr::Interrupt);
    a.instr(Instr::In { w: r(4) });
    a.normal(Func::Xor, r(5), Ri::Reg(r(4)), Ri::Reg(r(3)));
    a.halt(r(6));
    let mut s = State::new();
    s.mem.write_bytes(0, &a.assemble().expect("fixed program assembles"));
    s.data_in = 0xBEEF;
    s.io_window = (0x2000, 8);
    s
}

fn fixed_snapshot() -> Snapshot {
    let mut s = fixed_state();
    // A mid-run retire count: the checkpoint is of an *interrupted*
    // run, which is the case the format exists for.
    s.run(6);
    assert!(!s.is_halted(), "checkpoint must be mid-run");
    Snapshot::capture(&s)
}

#[test]
fn format_v2_bytes_are_pinned() {
    let bytes = fixed_snapshot().to_bytes();

    // Structural sanity regardless of the golden file.
    assert_eq!(&bytes[..8], &MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), VERSION);
    assert_eq!(bytes, fixed_snapshot().to_bytes(), "encoding is deterministic");

    if std::env::var("SILVER_BLESS").as_deref() == Ok("1") {
        std::fs::write(GOLDEN, &bytes).expect("bless golden");
        return;
    }
    let golden = std::fs::read(GOLDEN)
        .expect("golden file missing; run with SILVER_BLESS=1 to create it");
    assert_eq!(
        bytes, golden,
        "snapshot byte format changed; if intentional, bump VERSION and re-bless"
    );
}

#[test]
fn golden_bytes_still_load_and_resume() {
    let Ok(golden) = std::fs::read(GOLDEN) else {
        return; // blessing run creates it first
    };
    let snap = Snapshot::from_bytes(&golden).expect("golden snapshot loads");
    assert_eq!(snap.retired(), 6);

    // The resumed run finishes exactly like the uninterrupted one.
    let mut full = fixed_state();
    full.run(1_000);
    assert!(full.is_halted());
    let mut resumed = snap.restore();
    resumed.run(1_000 - snap.retired());
    assert!(resumed.isa_visible_eq(&full), "golden checkpoint resumes to the full run's state");
}
