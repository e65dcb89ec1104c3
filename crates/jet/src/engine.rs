//! The translation-cache engine proper.
//!
//! Execution walks a cache of decoded [`Block`]s keyed by fetch
//! address. Entering a block costs one `HashMap` probe (or nothing,
//! when the previous block's monomorphic successor cache hits) plus a
//! two-compare generation check; executing an instruction is one match
//! on a pre-extracted [`Op`] with operands already sign-extended,
//! negated and shifted. The arithmetic itself is [`ag32::alu`] /
//! [`ag32::shifter`] — the *same* functions `Next` uses, so the engine
//! cannot diverge from the reference on flag or ALU semantics by
//! construction; what remains to check differentially is everything
//! else (dispatch, memory routing, invalidation, halt/fuel accounting),
//! which is exactly what shadow mode and the `t-jet` campaign target do.
//!
//! ## Self-modifying code
//!
//! Pages that blocks decode from are flagged in the [`JetMemory`];
//! every store into a flagged page bumps that page's generation and a
//! global tick. Blocks snapshot their pages' generations at decode
//! time; block *entry* re-validates the snapshots (stale → re-decode in
//! place, so successor caches keep pointing at the right arena slot),
//! and block *execution* watches the global tick after every retired
//! instruction so a store into the currently-running block aborts it
//! before a stale op can execute.

use std::collections::HashMap;

use ag32::{alu, decode, shifter, Arch, ExecStats, IoEvent, Machine, Opcode, State, NUM_REGS};

use crate::block::{lower, Block, Op, Src, BLOCK_CAP};
use crate::mem::JetMemory;

/// What one lowered op did to control flow. Retiring arms bump the
/// retire counters inside [`Jet::exec_op`] itself (the opcode index is
/// a constant in each arm, so the accounting costs two increments, not
/// a second dispatch).
enum OpExit {
    /// Fell through to the next op (`pc += 4`).
    Fall,
    /// Fell through, and the op was a store — the block loop must check
    /// the code-write tick before executing another cached op.
    FallStore,
    /// Transferred control (`pc` set to the target); retires.
    Branch,
    /// The op is a halt instruction; nothing executed, nothing retired.
    Halted,
    /// The op is `Reserved`; the machine is wedged, nothing retired.
    Wedged,
}

/// Why a block execution stopped.
enum BlockExit {
    /// The terminator executed and set the PC.
    Branch,
    /// The block ended without a terminator (cap or mirror boundary);
    /// the PC fell through past the last op.
    Fallthrough,
    /// The next op is a halt instruction.
    Halted,
    /// The next op is `Reserved`.
    Wedged,
    /// The fuel budget ran out mid-block.
    Budget,
    /// A store hit a code page; cached ops may be stale.
    SelfModified,
}

/// Execution counters, for tests and engine diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JetCounters {
    /// Blocks decoded for the first time.
    pub blocks_decoded: u64,
    /// Blocks re-decoded after invalidation.
    pub redecodes: u64,
    /// Stale generation snapshots observed on block entry.
    pub code_invalidations: u64,
    /// Block transitions served by the successor cache.
    pub chain_hits: u64,
    /// Instructions executed outside the block path (misaligned PC or
    /// PC outside the flat mirror).
    pub slow_steps: u64,
}

/// The translation-cache Silver engine. Architectural fields mirror
/// [`ag32::State`]; [`Jet::to_state`] converts back for comparison.
pub struct Jet {
    /// Program counter.
    pub pc: u32,
    /// The 64 general-purpose registers.
    pub regs: [u32; NUM_REGS],
    /// Carry flag.
    pub carry: bool,
    /// Overflow flag.
    pub overflow: bool,
    /// Input port.
    pub data_in: u32,
    /// Output port.
    pub data_out: u32,
    /// I/O-event trace.
    pub io_events: Vec<IoEvent>,
    /// `(base, len)` of the `Interrupt` snapshot window.
    pub io_window: (u32, u32),
    /// The accelerator function.
    pub accel: fn(u32) -> u32,
    /// Instructions retired.
    pub instructions_retired: u64,
    /// Per-opcode retire counters (same meaning as on `State`).
    pub stats: ExecStats,
    /// Fault injection: XORed into every `Normal` ALU result. `0` in
    /// real use; the engine-equivalence tests set a single bit to
    /// verify the shadow oracle actually catches executor bugs.
    pub alu_fault_xor: u32,
    mem: JetMemory,
    map: HashMap<u32, u32>,
    arena: Vec<Block>,
    counters: JetCounters,
}

impl Jet {
    /// Builds an engine over a loaded image.
    #[must_use]
    pub fn from_state(s: &State) -> Self {
        Jet {
            pc: s.pc,
            regs: s.regs,
            carry: s.carry,
            overflow: s.overflow,
            data_in: s.data_in,
            data_out: s.data_out,
            io_events: s.io_events.clone(),
            io_window: s.io_window,
            accel: s.accel,
            instructions_retired: s.instructions_retired,
            stats: s.stats.clone(),
            alu_fault_xor: 0,
            mem: JetMemory::new(&s.mem),
            map: HashMap::new(),
            arena: Vec::new(),
            counters: JetCounters::default(),
        }
    }

    /// The architectural state as a reference [`State`] (memory written
    /// back). This is the view theorem J compares.
    #[must_use]
    pub fn to_state(&self) -> State {
        State {
            pc: self.pc,
            regs: self.regs,
            carry: self.carry,
            overflow: self.overflow,
            mem: self.mem.to_memory(),
            data_in: self.data_in,
            data_out: self.data_out,
            io_events: self.io_events.clone(),
            io_window: self.io_window,
            accel: self.accel,
            instructions_retired: self.instructions_retired,
            stats: self.stats.clone(),
        }
    }

    /// The hybrid memory (tests observe generation counters through it).
    #[must_use]
    pub fn mem(&self) -> &JetMemory {
        &self.mem
    }

    /// Execution counters.
    #[must_use]
    pub fn counters(&self) -> JetCounters {
        self.counters
    }

    /// [`ag32::halts`] over the jet memory, as [`ag32::State::is_halted`].
    #[must_use]
    pub fn is_halted(&self) -> bool {
        ag32::halts(decode(self.mem.read_word(self.pc & !3)), self.pc, |r| self.ri(r))
    }

    fn ri(&self, ri: ag32::Ri) -> u32 {
        match ri {
            ag32::Ri::Reg(r) => self.regs[r.index()],
            ag32::Ri::Imm(v) => v as i32 as u32,
        }
    }

    #[inline]
    fn src(&self, s: Src) -> u32 {
        match s {
            Src::R(r) => self.regs[r as usize],
            Src::I(v) => v,
        }
    }

    #[inline]
    fn flags(&mut self, carry: Option<bool>, overflow: Option<bool>) {
        if let Some(c) = carry {
            self.carry = c;
        }
        if let Some(v) = overflow {
            self.overflow = v;
        }
    }

    /// Per-opcode stat bump for one retired op. `opc` is a constant at
    /// every call site, so the stats index needs no dispatch and no
    /// bounds check. `instructions_retired` is batched by the callers
    /// ([`Jet::exec_block`] adds its loop count once per block exit).
    #[inline]
    fn retired(&mut self, opc: Opcode) {
        self.stats.opcode_retired[opc as usize] += 1;
    }

    /// Executes one lowered op at `pc`, returning the next PC. Mirrors
    /// `ag32::exec::execute` arm for arm, with the reference run loop's
    /// pre-step halt check folded into the `Jump`/`Reserved` arms and
    /// the retire counters bumped inline (see [`OpExit`]). The PC is
    /// threaded through by value so the block loop keeps it in a
    /// register — stores through the mirror would otherwise force the
    /// compiler to conservatively reload it from `self` every op.
    ///
    /// `inline(always)`: this is the interpreter's inner dispatch; left
    /// to its own devices the compiler outlines it (it is large once
    /// [`alu`] is inlined into five arms), which costs an extra call,
    /// an `Op` copy and an `OpExit` round-trip per retired instruction.
    #[inline(always)]
    fn exec_op(&mut self, op: Op, pc: u32) -> (u32, OpExit) {
        match op {
            Op::Normal { func, w, a, b } => {
                let out = alu(func, self.src(a), self.src(b), self.carry, self.overflow);
                self.flags(out.carry, out.overflow);
                self.regs[w as usize] = out.value ^ self.alu_fault_xor;
                self.retired(Opcode::Normal);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::Shift { kind, w, a, b } => {
                self.regs[w as usize] = shifter(kind, self.src(a), self.src(b));
                self.retired(Opcode::Shift);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::StoreMem { a, b } => {
                let addr = self.src(b) & !3;
                let value = self.src(a);
                self.mem.write_word(addr, value);
                self.retired(Opcode::StoreMem);
                (pc.wrapping_add(4), OpExit::FallStore)
            }
            Op::StoreMemByte { a, b } => {
                let addr = self.src(b);
                let value = self.src(a) as u8;
                self.mem.write_byte(addr, value);
                self.retired(Opcode::StoreMemByte);
                (pc.wrapping_add(4), OpExit::FallStore)
            }
            Op::LoadMem { w, a } => {
                let addr = self.src(a) & !3;
                self.regs[w as usize] = self.mem.read_word(addr);
                self.retired(Opcode::LoadMem);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::LoadMemByte { w, a } => {
                let addr = self.src(a);
                self.regs[w as usize] = u32::from(self.mem.read_byte(addr));
                self.retired(Opcode::LoadMemByte);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::In { w } => {
                self.regs[w as usize] = self.data_in;
                self.retired(Opcode::In);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::Out { func, w, a, b } => {
                let out = alu(func, self.src(a), self.src(b), self.carry, self.overflow);
                self.flags(out.carry, out.overflow);
                self.regs[w as usize] = out.value;
                self.data_out = out.value;
                self.retired(Opcode::Out);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::Accel { w, a } => {
                self.regs[w as usize] = (self.accel)(self.src(a));
                self.retired(Opcode::Accelerator);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::Jump { func, w, a } => {
                let av = self.src(a);
                if ag32::jump_halts(func, av, pc) {
                    return (pc, OpExit::Halted);
                }
                let out = alu(func, pc, av, self.carry, self.overflow);
                self.flags(out.carry, out.overflow);
                self.regs[w as usize] = pc.wrapping_add(4);
                self.retired(Opcode::Jump);
                (out.value, OpExit::Branch)
            }
            Op::JumpIfZero { func, off, a, b } => {
                let out = alu(func, self.src(a), self.src(b), self.carry, self.overflow);
                self.flags(out.carry, out.overflow);
                let o = if out.value == 0 { self.src(off) } else { 4 };
                self.retired(Opcode::JumpIfZero);
                (pc.wrapping_add(o), OpExit::Branch)
            }
            Op::JumpIfNotZero { func, off, a, b } => {
                let out = alu(func, self.src(a), self.src(b), self.carry, self.overflow);
                self.flags(out.carry, out.overflow);
                let o = if out.value != 0 { self.src(off) } else { 4 };
                self.retired(Opcode::JumpIfNotZero);
                (pc.wrapping_add(o), OpExit::Branch)
            }
            Op::LoadConst { w, value } => {
                self.regs[w as usize] = value;
                self.retired(Opcode::LoadConstant);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::LoadUpper { w, mask } => {
                let old = self.regs[w as usize];
                self.regs[w as usize] = mask | (old & 0x7F_FFFF);
                self.retired(Opcode::LoadUpperConstant);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::Interrupt => {
                let (base, len) = self.io_window;
                let window = self.mem.read_bytes(base, len);
                self.io_events.push(IoEvent { data_out: self.data_out, window });
                self.retired(Opcode::Interrupt);
                (pc.wrapping_add(4), OpExit::Fall)
            }
            Op::Reserved => (pc, OpExit::Wedged),
        }
    }

    /// Decodes the block starting at `start` (which must be a
    /// word-aligned mirrored address) and flags its pages as code.
    fn decode_block(&mut self, start: u32) -> Block {
        debug_assert!(start & 3 == 0 && self.mem.flat_contains_word(start));
        let mut ops = Vec::with_capacity(8);
        let mut pc = start;
        while ops.len() < BLOCK_CAP && self.mem.flat_contains_word(pc) {
            let op = lower(decode(self.mem.read_word(pc)));
            let term = op.is_terminator();
            ops.push(op);
            pc = pc.wrapping_add(4);
            if term {
                break;
            }
        }
        let first = self.mem.flat_page_of(start).expect("block start is mirrored");
        let last_addr = start.wrapping_add(ops.len() as u32 * 4).wrapping_sub(1);
        let last = self.mem.flat_page_of(last_addr).unwrap_or(first);
        self.mem.flag_code_pages(first, last);
        Block {
            start,
            ops,
            pages: [
                (first as u32, self.mem.page_gen(first)),
                (last as u32, self.mem.page_gen(last)),
            ],
            succ: None,
        }
    }

    #[inline]
    fn block_valid(&self, idx: u32) -> bool {
        self.arena[idx as usize].valid(|p| self.mem.page_gen(p))
    }

    /// Looks up (or decodes) the block at `pc`, re-validating generation
    /// snapshots and re-decoding *in place* when stale, so arena indices
    /// cached in successor slots stay meaningful.
    fn lookup_or_decode(&mut self, pc: u32) -> u32 {
        if let Some(&idx) = self.map.get(&pc) {
            if !self.block_valid(idx) {
                self.counters.code_invalidations += 1;
                self.counters.redecodes += 1;
                let b = self.decode_block(pc);
                self.arena[idx as usize] = b;
            }
            idx
        } else {
            let b = self.decode_block(pc);
            let idx = u32::try_from(self.arena.len()).expect("arena fits u32");
            self.arena.push(b);
            self.map.insert(pc, idx);
            self.counters.blocks_decoded += 1;
            idx
        }
    }

    /// Executes (a prefix of) block `idx` against the current state.
    /// The caller reads the retire count off `instructions_retired`
    /// (which [`Jet::exec_op`] maintains); only stores pay the
    /// self-modification tick check.
    fn exec_block(&mut self, idx: u32, budget: u64) -> BlockExit {
        let ops = std::mem::take(&mut self.arena[idx as usize].ops);
        let limit = usize::try_from(budget.min(ops.len() as u64)).expect("fits");
        let mut exit = if limit < ops.len() { BlockExit::Budget } else { BlockExit::Fallthrough };
        let tick0 = self.mem.code_write_tick();
        let mut pc = self.pc;
        let mut done = 0u64;
        for &op in &ops[..limit] {
            let (next_pc, oe) = self.exec_op(op, pc);
            pc = next_pc;
            match oe {
                OpExit::Fall => done += 1,
                OpExit::FallStore => {
                    done += 1;
                    if self.mem.code_write_tick() != tick0 {
                        exit = BlockExit::SelfModified;
                        break;
                    }
                }
                OpExit::Branch => {
                    done += 1;
                    exit = BlockExit::Branch;
                    break;
                }
                OpExit::Halted => {
                    exit = BlockExit::Halted;
                    break;
                }
                OpExit::Wedged => {
                    exit = BlockExit::Wedged;
                    break;
                }
            }
        }
        self.pc = pc;
        self.instructions_retired += done;
        self.arena[idx as usize].ops = ops;
        exit
    }

    /// After a block transfers control, resolves the next block —
    /// through the predecessor's monomorphic successor cache when it
    /// hits and is still valid, else the full lookup (updating the
    /// cache). Returns `None` when the new PC leaves the block path.
    fn chain_from(&mut self, from: u32) -> Option<u32> {
        let pc = self.pc;
        if pc & 3 != 0 || !self.mem.flat_contains_word(pc) {
            return None;
        }
        if let Some((expected, sidx)) = self.arena[from as usize].succ {
            if expected == pc && self.block_valid(sidx) {
                self.counters.chain_hits += 1;
                return Some(sidx);
            }
        }
        let sidx = self.lookup_or_decode(pc);
        self.arena[from as usize].succ = Some((pc, sidx));
        Some(sidx)
    }

    /// One fetch–decode–execute step outside the block path (misaligned
    /// PC or PC outside the mirror). Returns `true` when an instruction
    /// retired, `false` on halt/wedge.
    fn step_slow(&mut self) -> bool {
        self.counters.slow_steps += 1;
        let op = lower(decode(self.mem.read_word(self.pc & !3)));
        let (pc, oe) = self.exec_op(op, self.pc);
        self.pc = pc;
        let retired = matches!(oe, OpExit::Fall | OpExit::FallStore | OpExit::Branch);
        self.instructions_retired += u64::from(retired);
        retired
    }

    /// Runs up to `fuel` instructions, stopping early on halt or wedge —
    /// the jet analogue of [`ag32::State::run`]. Returns instructions
    /// retired.
    pub fn run(&mut self, fuel: u64) -> u64 {
        let mut n = 0u64;
        while n < fuel {
            let pc = self.pc;
            if pc & 3 == 0 && self.mem.flat_contains_word(pc) {
                let mut idx = self.lookup_or_decode(pc);
                // Chained inner loop: a `Some` from `chain_from` means
                // the successor's PC is already validated (aligned,
                // mirrored, generation-checked), so block-to-block
                // transfers pay no re-checks until the chain breaks.
                loop {
                    let r0 = self.instructions_retired;
                    let exit = self.exec_block(idx, fuel - n);
                    n += self.instructions_retired - r0;
                    match exit {
                        BlockExit::Branch | BlockExit::Fallthrough => {
                            match self.chain_from(idx) {
                                Some(next) => {
                                    if n >= fuel {
                                        return n;
                                    }
                                    idx = next;
                                }
                                None => break, // PC left the block path.
                            }
                        }
                        BlockExit::Halted | BlockExit::Wedged => return n,
                        // Budget: outer `n < fuel` terminates the run.
                        // SelfModified: re-enter through the validating
                        // lookup so stale ops are re-decoded.
                        BlockExit::Budget | BlockExit::SelfModified => break,
                    }
                }
            } else if self.step_slow() {
                n += 1;
            } else {
                break;
            }
        }
        n
    }
}

impl Machine for Jet {
    fn run(&mut self, fuel: u64) -> u64 {
        Jet::run(self, fuel)
    }

    fn retired(&self) -> u64 {
        self.instructions_retired
    }

    fn is_halted(&self) -> bool {
        Jet::is_halted(self)
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn read_word(&self, addr: u32) -> u32 {
        self.mem.read_word(addr)
    }

    fn io_events(&self) -> &[IoEvent] {
        &self.io_events
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn arch(&self) -> Arch {
        Arch {
            pc: self.pc,
            regs: self.regs,
            carry: self.carry,
            overflow: self.overflow,
            data_out: self.data_out,
            io_events: self.io_events.len(),
        }
    }

    /// Writes the resident mirror back into sparse memory, so a jet
    /// capture of a state serialises to exactly the bytes a reference
    /// capture of the same state does.
    fn capture(&self) -> State {
        self.to_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag32::asm::Assembler;
    use ag32::{Func, Instr, Reg, Ri};

    fn count_to_ten() -> State {
        let mut a = Assembler::new(0);
        let r1 = Reg::new(1);
        a.li(r1, 0);
        a.label("loop");
        a.normal(Func::Add, r1, Ri::Reg(r1), Ri::Imm(1));
        a.li(Reg::new(2), 10);
        a.branch_nonzero_sub(Ri::Reg(r1), Ri::Reg(Reg::new(2)), "loop", Reg::new(60));
        a.halt(Reg::new(61));
        let code = a.assemble().expect("assembles");
        let mut s = State::new();
        s.mem.write_bytes(0, &code);
        s
    }

    #[test]
    fn matches_reference_on_a_loop() {
        let image = count_to_ten();
        let mut spec = image.clone();
        let spec_n = spec.run(10_000);
        let mut j = Jet::from_state(&image);
        let jet_n = j.run(10_000);
        assert_eq!(jet_n, spec_n);
        let js = j.to_state();
        assert!(js.isa_visible_eq(&spec), "jet {:?} vs spec pc {:#x}", js.pc, spec.pc);
        assert_eq!(js.stats, spec.stats);
        assert!(j.counters().chain_hits > 0, "loop should chain: {:?}", j.counters());
    }

    #[test]
    fn fuel_is_exact_even_mid_block() {
        let image = count_to_ten();
        for fuel in 0..40 {
            let mut spec = image.clone();
            let spec_n = spec.run(fuel);
            let mut j = Jet::from_state(&image);
            let jet_n = j.run(fuel);
            assert_eq!(jet_n, spec_n, "fuel {fuel}");
            assert!(j.to_state().isa_visible_eq(&spec), "fuel {fuel}");
        }
    }

    #[test]
    fn halt_before_execute_writes_nothing() {
        // The canonical halt: the reference run loop stops *before*
        // executing it, so the link register must stay untouched.
        let image = count_to_ten();
        let mut spec = image.clone();
        spec.run(10_000);
        let mut j = Jet::from_state(&image);
        j.run(10_000);
        assert_eq!(j.regs[61], spec.regs[61], "halt link register untouched on both");
        // Running again retires nothing more.
        assert_eq!(j.run(100), 0);
        assert!(j.is_halted());
    }

    #[test]
    fn wedges_on_reserved_like_reference() {
        let mut image = State::new();
        image.mem.write_word(0, ag32::encode(Instr::Reserved));
        let mut j = Jet::from_state(&image);
        assert_eq!(j.run(100), 0);
        assert_eq!(j.pc, 0);
        assert!(j.is_halted());
    }

    #[test]
    fn slow_path_covers_misaligned_and_unmapped_pc() {
        // A jump to a misaligned target: fetch is word-granular.
        let mut image = State::new();
        let mut a = Assembler::new(0);
        a.li(Reg::new(1), 0x102); // misaligned target
        a.ret(Reg::new(1), Reg::new(2)); // computed jump to r1
        let code = a.assemble().expect("assembles");
        image.mem.write_bytes(0, &code);
        image.mem.write_word(
            0x100,
            ag32::encode(Instr::Normal {
                func: Func::Add,
                w: Reg::new(3),
                a: Ri::Imm(1),
                b: Ri::Imm(2),
            }),
        );
        let mut spec = image.clone();
        let mut j = Jet::from_state(&image);
        let fuel = 4;
        spec.run(fuel);
        j.run(fuel);
        assert!(j.to_state().isa_visible_eq(&spec));
        assert!(j.counters().slow_steps > 0);
    }
}
