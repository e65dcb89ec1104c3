//! Shadow mode: theorem J — and theorem (9) — as an executable
//! obligation.
//!
//! [`Lockstep`] runs the reference interpreter (`ag32::State::next`) and
//! an implementation [`Machine`] — the [`Jet`] engine (theorem J) or the
//! Silver CPU circuit (theorem (9), built by the `silver` crate) — a
//! retire at a time over the same image. It is itself a [`Machine`], so
//! any run loop drives, checkpoints and resumes it. The architectural
//! state ([`Arch`], PC included) is compared after every retire, and
//! memory and the I/O-event traces at the end of the run. The first
//! divergence yields an [`obs::Forensics`] report: the divergent retire
//! index (zero-based), every differing field with both values, and the
//! last [`obs::FORENSIC_TAIL`] retires on each side. [`Lockstep::replay`]
//! re-runs it from the last run boundary and notes whether it
//! reproduced there.

use std::collections::VecDeque;

use ag32::{decode, Arch, ExecStats, IoEvent, Machine, NoTrace, State, Tracer};
use obs::{push_tail, Forensics, RegDelta};

use crate::engine::Jet;

/// Retires a replay may run past the divergent one.
const REPLAY_SLACK: u64 = 8;

fn hex(v: u32) -> String {
    format!("{v:#010x}")
}

/// The forensics-tail line for the instruction `m` is about to retire.
fn tail_line<M: Machine>(m: &M) -> String {
    let pc = m.pc();
    format!("#{} {} {}", m.retired(), hex(pc), decode(m.read_word(pc & !3)))
}

/// Every architectural field that differs, with both values.
fn arch_deltas(spec: &Arch, imp: &Arch) -> Vec<RegDelta> {
    let mut deltas = Vec::new();
    let mut push = |field: &str, s: String, i: String| {
        deltas.push(RegDelta { field: field.to_string(), spec: s, impl_: i });
    };
    if spec.pc != imp.pc {
        push("pc", hex(spec.pc), hex(imp.pc));
    }
    for r in 0..ag32::NUM_REGS {
        if spec.regs[r] != imp.regs[r] {
            push(&format!("r{r}"), hex(spec.regs[r]), hex(imp.regs[r]));
        }
    }
    if spec.carry != imp.carry {
        push("carry", spec.carry.to_string(), imp.carry.to_string());
    }
    if spec.overflow != imp.overflow {
        push("overflow", spec.overflow.to_string(), imp.overflow.to_string());
    }
    if spec.data_out != imp.data_out {
        push("data_out", hex(spec.data_out), hex(imp.data_out));
    }
    if spec.io_events != imp.io_events {
        push("io_events.len", spec.io_events.to_string(), imp.io_events.to_string());
    }
    deltas
}

/// First differing memory byte between two reference memories, if any.
fn first_mem_delta(spec: &ag32::Memory, imp: &ag32::Memory) -> Option<RegDelta> {
    let mut ids: Vec<u32> = spec.resident_page_ids();
    for id in imp.resident_page_ids() {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    let page = ag32::Memory::PAGE_SIZE as u32;
    for id in ids {
        let base = id << ag32::Memory::PAGE_SHIFT;
        for off in 0..page {
            let addr = base.wrapping_add(off);
            let (s, i) = (spec.read_byte(addr), imp.read_byte(addr));
            if s != i {
                return Some(RegDelta {
                    field: format!("mem[{:#010x}]", addr),
                    spec: format!("{s:#04x}"),
                    impl_: format!("{i:#04x}"),
                });
            }
        }
    }
    None
}

/// The reference interpreter and an implementation machine stepped
/// together — a [`Machine`] whose every retire is a check of the
/// relation between them (theorem J for [`Jet`], the default).
///
/// The lockstep reports the reference side's state (PC, memory, I/O
/// trace, stats, capture), which is correct by definition; the
/// implementation only has to agree with it. On the first divergence it
/// records the forensics and reports itself halted, so any run loop
/// stops there; [`Lockstep::finish`] then hands the report back, or —
/// for a run that reached its end cleanly — performs the end-of-run
/// memory and I/O-trace comparison. An implementation that stops
/// retiring early (a halted or failed circuit) is a divergence too.
///
/// Run boundaries are where a sliced run loop checkpoints: the end of
/// every [`run`](Machine::run) call that retired its whole budget
/// without halting or diverging, and the resume point of a lockstep
/// built from a checkpoint. Every retire up to a boundary was compared,
/// so each boundary is a verified-good state. The lockstep keeps the
/// reference state at the last boundary past boot as the divergence's
/// replay anchor, and [`Lockstep::replay`] re-runs the divergence from
/// there, in `divergent_step + 1 − anchor` retires instead of
/// `divergent_step + 1` from boot.
pub struct Lockstep<B: Machine = Jet> {
    spec: State,
    imp: B,
    /// Retire count the lockstep was built at.
    start: u64,
    /// The reference state at the last boundary past boot.
    anchor: Option<State>,
    /// The relation's name and the implementation side's, for reports.
    kind: &'static str,
    side: &'static str,
    spec_tail: VecDeque<String>,
    imp_tail: VecDeque<String>,
    divergence: Option<Box<Forensics>>,
}

impl Lockstep<Jet> {
    /// A theorem-J lockstep of the reference interpreter and [`Jet`]
    /// over `state` (a boot image or a restored checkpoint).
    ///
    /// `alu_fault_xor` is forwarded to [`Jet::alu_fault_xor`] — `0` for
    /// a real check; tests pass a single bit to prove the oracle catches
    /// injected executor bugs.
    #[must_use]
    pub fn new(state: &State, alu_fault_xor: u32) -> Lockstep {
        let mut jet = Jet::from_state(state);
        jet.alu_fault_xor = alu_fault_xor;
        Lockstep::over(state.clone(), jet, "theorem J: jet \u{2261} Next", "jet")
    }
}

impl<B: Machine> Lockstep<B> {
    /// A lockstep of the reference interpreter, started from `spec`,
    /// against `imp`, which must start in the same state. `kind` names
    /// the relation and `side` the implementation in forensics reports.
    #[must_use]
    pub fn over(spec: State, imp: B, kind: &'static str, side: &'static str) -> Self {
        let start = spec.instructions_retired;
        Lockstep {
            anchor: (start > 0).then(|| spec.clone()),
            spec,
            imp,
            start,
            kind,
            side,
            spec_tail: VecDeque::new(),
            imp_tail: VecDeque::new(),
            divergence: None,
        }
    }

    /// The implementation side.
    pub fn imp(&self) -> &B {
        &self.imp
    }

    fn forensics(&self, step: u64, deltas: Vec<RegDelta>, note: Option<String>) -> Box<Forensics> {
        let mut fx = Forensics::new(self.kind, "isa", self.side);
        fx.divergent_step = Some(step);
        fx.deltas = deltas;
        fx.spec_tail = self.spec_tail.iter().cloned().collect();
        fx.impl_tail = self.imp_tail.iter().cloned().collect();
        fx.notes.extend(note);
        fx.replay_anchor = self.anchor.as_ref().map(|a| a.instructions_retired);
        Box::new(fx)
    }

    /// Replays `fx`, this lockstep's divergence, from its anchor and
    /// notes on `fx` whether the divergence reproduced there; does
    /// nothing without an anchor. `build` makes a fresh implementation
    /// machine from the anchor state. The replay runs the same relation
    /// for `divergent_step + 1 − anchor` retires plus [`REPLAY_SLACK`].
    /// A divergence that does not reproduce depends on history before
    /// the anchor (jet's translation cache, the circuit's environment
    /// schedule), so only a replay from boot shows it.
    pub fn replay<R: Machine>(&self, fx: &mut Forensics, build: impl FnOnce(&State) -> R) {
        let Some(anchor) = &self.anchor else { return };
        let at = anchor.instructions_retired;
        let step = fx.divergent_step.unwrap_or(at);
        let fuel = (step + 1).saturating_sub(at).saturating_add(REPLAY_SLACK);
        let imp = build(anchor);
        let mut replay = Lockstep::over(anchor.clone(), imp, self.kind, self.side);
        replay.run(fuel);
        let verdict = if replay.finish().is_err() {
            format!("divergence reproduced within {fuel} retires (saved {at} boot retires)")
        } else {
            format!(
                "not reproduced within {fuel} retires (depends on history before the anchor; \
                 replay from boot)"
            )
        };
        fx.notes.push(format!("anchored replay from retire {at}: {verdict}"));
    }

    /// One lockstep retire, with `tracer` observing the reference side;
    /// `false` once a divergence is recorded.
    fn step<T: Tracer>(&mut self, tracer: &mut T) -> bool {
        push_tail(&mut self.spec_tail, tail_line(&self.spec));
        push_tail(&mut self.imp_tail, tail_line(&self.imp));
        self.spec.next_traced(tracer);
        let note = if self.imp.run(1) == 0 {
            Some(format!("{} halted at pc {} but isa retired", self.side, hex(self.imp.pc())))
        } else if self.spec.arch() == self.imp.arch() {
            return true;
        } else {
            None
        };
        let deltas = arch_deltas(&self.spec.arch(), &self.imp.arch());
        self.divergence = Some(self.forensics(self.spec.instructions_retired - 1, deltas, note));
        false
    }

    /// [`Machine::run`] with `tracer` observing every reference-side
    /// retire — the retires of the run the lockstep reports.
    pub fn run_traced<T: Tracer>(&mut self, fuel: u64, tracer: &mut T) -> u64 {
        let mut n = 0;
        while n < fuel && !self.is_halted() && self.step(tracer) {
            n += 1;
        }
        if n > 0 && n == fuel && !self.is_halted() {
            self.anchor = Some(self.spec.clone());
        }
        n
    }

    /// The end-of-run verdict: the divergence the run stopped at, if
    /// any; otherwise the final comparison of the complete states —
    /// architectural state, memory and the I/O-event traces — after
    /// checking that the implementation, too, retires nothing past the
    /// reference halt.
    ///
    /// Returns the instructions retired since the lockstep was built
    /// (identically on both sides).
    ///
    /// # Errors
    ///
    /// The first divergence, as a rendered-ready [`Forensics`] report.
    pub fn finish(&mut self) -> Result<u64, Box<Forensics>> {
        if let Some(fx) = self.divergence.take() {
            return Err(fx);
        }
        let at = self.spec.instructions_retired;
        if self.spec.is_halted() && self.imp.run(1) != 0 {
            let note = format!(
                "isa halted at pc {} but {} retired an instruction",
                hex(self.spec.pc),
                self.side
            );
            let deltas = arch_deltas(&self.spec.arch(), &self.imp.arch());
            return Err(self.forensics(at, deltas, Some(note)));
        }
        let imp = self.imp.capture();
        let mut deltas = arch_deltas(&self.spec.arch(), &imp.arch());
        if self.spec.io_events != imp.io_events {
            deltas.push(RegDelta {
                field: "io_events".to_string(),
                spec: format!("{} events", self.spec.io_events.len()),
                impl_: format!("{} events", imp.io_events.len()),
            });
        }
        if self.spec.mem != imp.mem {
            deltas.push(first_mem_delta(&self.spec.mem, &imp.mem).unwrap_or(RegDelta {
                field: "mem".to_string(),
                spec: "(differs)".to_string(),
                impl_: "(differs)".to_string(),
            }));
        }
        if !deltas.is_empty() {
            let note = Some("final-state comparison".to_string());
            return Err(self.forensics(at.saturating_sub(1), deltas, note));
        }
        Ok(at - self.start)
    }
}

impl<B: Machine> Machine for Lockstep<B> {
    /// A call that retires its whole budget without halting or
    /// diverging ends on a boundary, which becomes the replay anchor.
    fn run(&mut self, fuel: u64) -> u64 {
        self.run_traced(fuel, &mut NoTrace)
    }

    fn retired(&self) -> u64 {
        self.spec.instructions_retired
    }

    fn is_halted(&self) -> bool {
        self.divergence.is_some() || self.spec.is_halted()
    }

    fn pc(&self) -> u32 {
        self.spec.pc
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.spec.mem.read_word(addr)
    }

    fn io_events(&self) -> &[IoEvent] {
        &self.spec.io_events
    }

    fn stats(&self) -> &ExecStats {
        &self.spec.stats
    }

    fn arch(&self) -> Arch {
        self.spec.arch()
    }

    fn capture(&self) -> State {
        self.spec.clone()
    }
}

/// Runs theorem J over `image` for up to `fuel` instructions in one
/// lockstep slice — see [`Lockstep::new`] for `alu_fault_xor` — and
/// returns the instructions retired.
///
/// # Errors
///
/// The first divergence, as a rendered-ready [`Forensics`] report.
pub fn run_shadow(image: &State, fuel: u64, alu_fault_xor: u32) -> Result<u64, Box<Forensics>> {
    let mut ls = Lockstep::new(image, alu_fault_xor);
    ls.run(fuel);
    ls.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag32::asm::Assembler;
    use ag32::{Func, Reg, Ri};

    fn looped_image() -> State {
        let mut a = Assembler::new(0);
        let r1 = Reg::new(1);
        a.li(r1, 0);
        a.label("loop");
        a.normal(Func::Add, r1, Ri::Reg(r1), Ri::Imm(1));
        a.li(Reg::new(2), 25);
        a.branch_nonzero_sub(Ri::Reg(r1), Ri::Reg(Reg::new(2)), "loop", Reg::new(60));
        a.halt(Reg::new(61));
        let mut s = State::new();
        s.mem.write_bytes(0, &a.assemble().expect("assembles"));
        s
    }

    #[test]
    fn clean_program_passes_full_shadow() {
        let retired = run_shadow(&looped_image(), 10_000, 0).expect("theorem J holds");
        assert!(retired > 50);
    }

    #[test]
    fn injected_fault_is_caught_with_divergent_retire_named() {
        let fx = run_shadow(&looped_image(), 10_000, 1 << 7)
            .expect_err("a one-bit ALU fault must be caught");
        assert!(fx.divergent_step.is_some(), "forensics names the divergent retire");
        assert!(!fx.deltas.is_empty());
        let text = fx.render();
        assert!(text.contains("divergent step"), "{text}");
        assert!(text.contains("jet"), "{text}");
    }

    /// Drives `ls` in slices of `every` retires the way the stack's run
    /// loop does, keeping each boundary's capture (the checkpoint the
    /// loop would write there).
    fn sliced(mut ls: Lockstep, fuel: u64, every: u64) -> (Vec<State>, Lockstep) {
        let mut boundaries = Vec::new();
        while ls.retired() < fuel && !ls.is_halted() {
            let chunk = every.min(fuel - ls.retired());
            if ls.run(chunk) < chunk || ls.is_halted() {
                break;
            }
            boundaries.push(ls.capture());
        }
        (boundaries, ls)
    }

    /// Retire index of the one ALU op in [`li_then_add`].
    const ADD_RETIRE: u64 = 10;

    /// The ALU fault the tests inject.
    const FAULT: u32 = 1 << 4;

    /// Ten `li`s (`LoadConstant`, which the injected ALU fault leaves
    /// alone), then one `Add` at retire [`ADD_RETIRE`], then a halt.
    fn li_then_add() -> State {
        let mut a = Assembler::new(0);
        for i in 1..=10 {
            a.li(Reg::new(i), u32::from(i));
        }
        a.normal(Func::Add, Reg::new(11), Ri::Reg(Reg::new(1)), Ri::Reg(Reg::new(2)));
        a.halt(Reg::new(61));
        let mut image = State::new();
        image.mem.write_bytes(0, &a.assemble().expect("assembles"));
        image
    }

    /// A jet with [`FAULT`] injected, for replays.
    fn faulty(s: &State) -> Jet {
        let mut jet = Jet::from_state(s);
        jet.alu_fault_xor = FAULT;
        jet
    }

    fn same_end(a: &State, b: &State) -> bool {
        a.isa_visible_eq(b) && a.instructions_retired == b.instructions_retired && a.stats == b.stats
    }

    /// A late divergence (the injected fault only bites `Normal` ALU
    /// ops, and the program's first ALU op sits behind a prefix of
    /// `li`s spanning two slice boundaries) names the last boundary as
    /// its replay anchor, and the reference state captured there
    /// replays the divergence in far fewer retires than from boot.
    ///
    /// The second half holds the lockstep to the run-loop contract:
    /// slicing changes nothing, a fresh lockstep resumed from any
    /// boundary capture ends exactly like the uninterrupted run, and a
    /// fault present only after the resume point is still caught, with
    /// the last boundary as its anchor.
    #[test]
    fn anchored_divergence_carries_a_replayable_checkpoint() {
        let (boundaries, mut ls) = sliced(Lockstep::new(&li_then_add(), FAULT), 10_000, 4);
        let fx = ls.finish().expect_err("the ALU fault must be caught");
        let step = fx.divergent_step.expect("divergent retire named");
        let anchor = boundaries.last().expect("divergence is past the first boundary");
        assert_eq!(fx.replay_anchor, Some(anchor.instructions_retired));
        assert!(anchor.instructions_retired > 0 && anchor.instructions_retired <= step);

        // Replaying from the anchor with the same fault reproduces the
        // divergence within the remaining fuel — and without the fault
        // the anchor is a clean state (theorem J holds from there).
        let remaining = step - anchor.instructions_retired + 8;
        run_shadow(anchor, remaining, FAULT)
            .expect_err("replay from the anchor reproduces the divergence");
        run_shadow(anchor, 10_000, 0).expect("anchor itself is a good state");

        let image = looped_image();
        let mut whole = Lockstep::new(&image, 0);
        whole.run(10_000);
        let end = whole.capture();
        let report = whole.finish().expect("theorem J holds");
        let alu = |s: &State| s.stats.opcode_retired[ag32::Opcode::Normal as usize];
        for every in [1, 7, 16] {
            let (boundaries, mut ls) = sliced(Lockstep::new(&image, 0), 10_000, every);
            assert!(same_end(&ls.capture(), &end), "slices of {every} end like one run");
            assert_eq!(ls.finish().expect("theorem J holds"), report);
            assert!(!boundaries.is_empty());
            for b in &boundaries {
                let (_, mut resumed) = sliced(Lockstep::new(b, 0), 10_000, every);
                assert!(same_end(&resumed.capture(), &end), "resume from {}", b.instructions_retired);
                let resumed_retired = resumed.finish().expect("theorem J holds after resume");
                assert_eq!(resumed_retired, report - b.instructions_retired);

                if alu(b) == alu(&end) {
                    continue; // no ALU op left for the fault to bite
                }
                let (later, mut faulty) = sliced(Lockstep::new(b, 1 << 3), 10_000, every);
                let fx = faulty.finish().expect_err("a fault after the resume point is caught");
                let last = later.last().unwrap_or(b).instructions_retired;
                assert_eq!(fx.replay_anchor, Some(last), "anchored at the last boundary");
            }
        }
    }

    /// The replay verdict depends only on the implementation rebuilt at
    /// the anchor: the same faulty jet reproduces the divergence and a
    /// correct one does not.
    #[test]
    fn replay_notes_whether_the_divergence_reproduces() {
        let (_, mut ls) = sliced(Lockstep::new(&li_then_add(), FAULT), 10_000, 4);
        let fx = ls.finish().expect_err("the ALU fault must be caught");
        let mut same = fx.clone();
        ls.replay(&mut same, faulty);
        let note = "anchored replay from retire 8: divergence reproduced within 11 retires \
                    (saved 8 boot retires)";
        assert_eq!(same.notes.last().map(String::as_str), Some(note));
        let mut clean = fx.clone();
        ls.replay(&mut clean, Jet::from_state);
        assert!(
            clean.notes.last().is_some_and(|n| n.contains(": not reproduced within 11")),
            "{:?}",
            clean.notes
        );
    }

    /// Every retire up to a boundary was compared, so every anchor is a
    /// verified-good state: at any slice length the divergence is named
    /// at the faulted `Add` itself, the anchor is the last positive
    /// boundary at or before it, and replaying the same fault from
    /// there reproduces the divergence.
    #[test]
    fn every_anchor_is_verified_good() {
        let image = li_then_add();
        for every in [1, 3, 8, 64] {
            let (_, mut ls) = sliced(Lockstep::new(&image, FAULT), 10_000, every);
            let mut fx = ls.finish().expect_err("the ALU fault must be caught");
            assert_eq!(fx.divergent_step, Some(ADD_RETIRE), "slices of {every}");
            let anchor = Some(ADD_RETIRE / every * every).filter(|&a| a > 0);
            assert_eq!(fx.replay_anchor, anchor, "slices of {every}");
            ls.replay(&mut fx, faulty);
            match anchor {
                Some(at) => {
                    let verdict = format!("anchored replay from retire {at}: divergence reproduced");
                    assert!(
                        fx.notes.last().is_some_and(|n| n.starts_with(&verdict)),
                        "slices of {every}: {:?}",
                        fx.notes
                    );
                }
                None => assert!(fx.notes.is_empty(), "slices of {every}: no anchor, no replay"),
            }
        }
    }

    /// An early divergence (before the first boundary) reports no
    /// anchor rather than a stale one.
    #[test]
    fn divergence_before_first_boundary_has_no_anchor() {
        let (boundaries, mut ls) = sliced(Lockstep::new(&looped_image(), 1), 10_000, 1_000);
        assert!(boundaries.is_empty());
        let fx = ls.finish().expect_err("an always-on ALU fault diverges immediately");
        assert_eq!(fx.replay_anchor, None);
    }
}
