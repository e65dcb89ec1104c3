//! A small two-pass assembler for Silver machine code.
//!
//! The compiler backend (`cakeml` crate) and the hand-written system-call
//! code (`basis` crate) both emit code through this assembler. It supports
//! labels, data emission and a few fixed-size pseudo-instructions
//! (full-word constant loads, absolute jumps/calls and label-relative
//! conditional branches) so that label addresses can be resolved in a
//! second pass without iterating to a fixpoint.
//!
//! # Example
//!
//! ```
//! use ag32::asm::Assembler;
//! use ag32::{Func, Reg, Ri, State};
//!
//! let mut a = Assembler::new(0x100);
//! a.li(Reg::new(1), 0xDEAD_BEEF);
//! a.halt(Reg::new(2));
//! let bytes = a.assemble()?;
//!
//! let mut s = State::new();
//! s.pc = 0x100;
//! s.mem.write_bytes(0x100, &bytes);
//! s.run(10);
//! assert!(s.is_halted());
//! assert_eq!(s.regs[1], 0xDEAD_BEEF);
//! # Ok::<(), ag32::asm::AsmError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::insn::{Func, Instr, Reg, Ri};
use crate::{encode, WORD_BYTES};

/// Errors produced by [`Assembler::assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A label was referenced but never defined.
    UndefinedLabel(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
            AsmError::UndefinedLabel(l) => write!(f, "label `{l}` referenced but never defined"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Clone, Debug)]
enum Item {
    Instr(Instr),
    Word(u32),
    Bytes(Vec<u8>),
    Align(u32),
    /// `R[w] := address_of(label)` — always two words.
    LaAbs { w: Reg, label: String },
    /// Label-relative conditional branch — always three words
    /// (constant load pair into `scratch`, then `JumpIf(Not)Zero`).
    BranchRel { on_nonzero: bool, func: Func, a: Ri, b: Ri, label: String, scratch: Reg },
    /// Absolute jump-and-link to a label — always three words.
    JmpAbs { label: String, scratch: Reg, link: Reg },
    /// A data word holding the absolute address of a label.
    WordLabel(String),
}

impl Item {
    fn size(&self, addr: u32) -> u32 {
        match self {
            Item::Instr(_) | Item::Word(_) | Item::WordLabel(_) => WORD_BYTES,
            Item::Bytes(b) => b.len() as u32,
            Item::Align(n) => (n - (addr % n)) % n,
            Item::LaAbs { .. } => 2 * WORD_BYTES,
            Item::BranchRel { .. } | Item::JmpAbs { .. } => 3 * WORD_BYTES,
        }
    }
}

/// Two-pass assembler producing a flat byte image based at a fixed address.
#[derive(Clone, Debug, Default)]
pub struct Assembler {
    base: u32,
    items: Vec<Item>,
    labels: HashMap<String, usize>,
    duplicate: Option<String>,
}

/// Emits the two-instruction sequence loading an arbitrary 32-bit value.
fn load_full_word(w: Reg, value: u32) -> [Instr; 2] {
    [
        Instr::LoadConstant { w, negate: false, imm: value & 0x7F_FFFF },
        Instr::LoadUpperConstant { w, imm: (value >> 23) as u16 },
    ]
}

impl Assembler {
    /// A fresh assembler whose first byte will land at address `base`.
    #[must_use]
    pub fn new(base: u32) -> Self {
        Assembler { base, items: Vec::new(), labels: HashMap::new(), duplicate: None }
    }

    /// The base address given to [`Assembler::new`].
    #[must_use]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The address of the next emitted item (all items are fixed-size, so
    /// this is exact even before assembly).
    #[must_use]
    pub fn here(&self) -> u32 {
        let mut addr = self.base;
        for item in &self.items {
            addr += item.size(addr);
        }
        addr
    }

    /// Defines `name` at the current position.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        if self.labels.insert(name.clone(), self.items.len()).is_some() {
            self.duplicate.get_or_insert(name);
        }
    }

    /// Emits a raw instruction.
    pub fn instr(&mut self, i: Instr) {
        self.items.push(Item::Instr(i));
    }

    /// Emits `Normal { func, w, a, b }`.
    pub fn normal(&mut self, func: Func, w: Reg, a: Ri, b: Ri) {
        self.instr(Instr::Normal { func, w, a, b });
    }

    /// Emits a shift instruction.
    pub fn shift(&mut self, kind: crate::Shift, w: Reg, a: Ri, b: Ri) {
        self.instr(Instr::Shift { kind, w, a, b });
    }

    /// Emits a data word.
    pub fn word(&mut self, value: u32) {
        self.items.push(Item::Word(value));
    }

    /// Emits a data word that will hold the absolute address of `label`.
    pub fn word_label(&mut self, label: impl Into<String>) {
        self.items.push(Item::WordLabel(label.into()));
    }

    /// Emits raw data bytes.
    pub fn bytes(&mut self, data: impl Into<Vec<u8>>) {
        self.items.push(Item::Bytes(data.into()));
    }

    /// Pads with zero bytes to the next multiple of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn align(&mut self, n: u32) {
        assert!(n > 0, "alignment must be positive");
        self.items.push(Item::Align(n));
    }

    /// Loads a full 32-bit constant into `w`, using the shortest sequence:
    /// one `LoadConstant` (possibly negated) when the value fits 23 bits,
    /// otherwise a `LoadConstant`/`LoadUpperConstant` pair.
    pub fn li(&mut self, w: Reg, value: u32) {
        if value < (1 << 23) {
            self.instr(Instr::LoadConstant { w, negate: false, imm: value });
        } else if value.wrapping_neg() < (1 << 23) {
            self.instr(Instr::LoadConstant { w, negate: true, imm: value.wrapping_neg() });
        } else {
            for i in load_full_word(w, value) {
                self.instr(i);
            }
        }
    }

    /// Loads the absolute address of `label` into `w` (two words).
    pub fn la(&mut self, w: Reg, label: impl Into<String>) {
        self.items.push(Item::LaAbs { w, label: label.into() });
    }

    /// Unconditional jump to `label`, clobbering `scratch` with the target
    /// address and `link` with the return address (three words).
    pub fn jmp(&mut self, label: impl Into<String>, scratch: Reg, link: Reg) {
        self.items.push(Item::JmpAbs { label: label.into(), scratch, link });
    }

    /// Call `label`: as [`Assembler::jmp`], but named for intent — `link`
    /// receives the return address.
    pub fn call(&mut self, label: impl Into<String>, scratch: Reg, link: Reg) {
        self.jmp(label, scratch, link);
    }

    /// Returns through the address in `target` (one word):
    /// `Jump Snd` with a computed target, the paper's function-return idiom.
    pub fn ret(&mut self, target: Reg, link_clobber: Reg) {
        self.instr(Instr::Jump { func: Func::Snd, w: link_clobber, a: Ri::Reg(target) });
    }

    /// Branch to `label` when `alu(func, a, b) == 0` (three words,
    /// clobbers `scratch` with the PC offset).
    pub fn branch_zero(&mut self, func: Func, a: Ri, b: Ri, label: impl Into<String>, scratch: Reg) {
        self.items.push(Item::BranchRel {
            on_nonzero: false,
            func,
            a,
            b,
            label: label.into(),
            scratch,
        });
    }

    /// Branch to `label` when `alu(func, a, b) != 0`.
    pub fn branch_nonzero(
        &mut self,
        func: Func,
        a: Ri,
        b: Ri,
        label: impl Into<String>,
        scratch: Reg,
    ) {
        self.items.push(Item::BranchRel {
            on_nonzero: true,
            func,
            a,
            b,
            label: label.into(),
            scratch,
        });
    }

    /// Branch to `label` when `a == b` (compares by subtraction, so the
    /// carry/overflow flags are updated, as on the real machine).
    pub fn branch_zero_sub(&mut self, a: Ri, b: Ri, label: impl Into<String>, scratch: Reg) {
        self.branch_zero(Func::Sub, a, b, label, scratch);
    }

    /// Branch to `label` when `a != b` (flag-updating subtraction compare).
    pub fn branch_nonzero_sub(&mut self, a: Ri, b: Ri, label: impl Into<String>, scratch: Reg) {
        self.branch_nonzero(Func::Sub, a, b, label, scratch);
    }

    /// The canonical halt: a PC-relative self-jump (`Jump Add, Imm 0`).
    /// `link_clobber` receives `PC + 4` on every (idempotent) lap.
    pub fn halt(&mut self, link_clobber: Reg) {
        self.instr(Instr::Jump { func: Func::Add, w: link_clobber, a: Ri::Imm(0) });
    }

    /// Pass 1 of assembly: the address of every item, plus the end
    /// address.
    fn item_addresses(&self) -> (Vec<u32>, u32) {
        let mut addrs = Vec::with_capacity(self.items.len());
        let mut addr = self.base;
        for item in &self.items {
            addrs.push(addr);
            addr += item.size(addr);
        }
        (addrs, addr)
    }

    /// Every defined label with its resolved absolute address, sorted by
    /// address (ties by name). This is the raw material for symbol
    /// tables: profilers attribute PCs to the enclosing label.
    #[must_use]
    pub fn label_addresses(&self) -> Vec<(String, u32)> {
        let (addrs, end) = self.item_addresses();
        let mut out: Vec<(String, u32)> = self
            .labels
            .iter()
            .map(|(name, &idx)| {
                (name.clone(), if idx == self.items.len() { end } else { addrs[idx] })
            })
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Resolves labels and produces the byte image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] on duplicate or undefined labels.
    pub fn assemble(&self) -> Result<Vec<u8>, AsmError> {
        if let Some(l) = &self.duplicate {
            return Err(AsmError::DuplicateLabel(l.clone()));
        }
        // Pass 1: addresses of every item, then label addresses.
        let (addrs, end) = self.item_addresses();
        let lookup = |label: &str| -> Result<u32, AsmError> {
            match self.labels.get(label) {
                Some(&idx) => Ok(if idx == self.items.len() { end } else { addrs[idx] }),
                None => Err(AsmError::UndefinedLabel(label.to_string())),
            }
        };
        // Pass 2: emit.
        let mut out = Vec::new();
        let push_instr = |out: &mut Vec<u8>, i: Instr| {
            out.extend_from_slice(&encode(i).to_le_bytes());
        };
        for (item, &at) in self.items.iter().zip(&addrs) {
            match item {
                Item::Instr(i) => push_instr(&mut out, *i),
                Item::Word(w) => out.extend_from_slice(&w.to_le_bytes()),
                Item::WordLabel(l) => out.extend_from_slice(&lookup(l)?.to_le_bytes()),
                Item::Bytes(b) => out.extend_from_slice(b),
                Item::Align(_) => out.resize(out.len() + item.size(at) as usize, 0),
                Item::LaAbs { w, label } => {
                    let value = lookup(label)?;
                    for i in load_full_word(*w, value) {
                        push_instr(&mut out, i);
                    }
                }
                Item::BranchRel { on_nonzero, func, a, b, label, scratch } => {
                    // Offset is relative to the branch instruction itself,
                    // which is the third word of the sequence.
                    let branch_at = at + 2 * WORD_BYTES;
                    let off = lookup(label)?.wrapping_sub(branch_at);
                    for i in load_full_word(*scratch, off) {
                        push_instr(&mut out, i);
                    }
                    let w = Ri::Reg(*scratch);
                    let i = if *on_nonzero {
                        Instr::JumpIfNotZero { func: *func, w, a: *a, b: *b }
                    } else {
                        Instr::JumpIfZero { func: *func, w, a: *a, b: *b }
                    };
                    push_instr(&mut out, i);
                }
                Item::JmpAbs { label, scratch, link } => {
                    for i in load_full_word(*scratch, lookup(label)?) {
                        push_instr(&mut out, i);
                    }
                    push_instr(
                        &mut out,
                        Instr::Jump { func: Func::Snd, w: *link, a: Ri::Reg(*scratch) },
                    );
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::State;

    fn run_at(base: u32, a: &Assembler, fuel: u64) -> State {
        let bytes = a.assemble().expect("assembles");
        let mut s = State::new();
        s.pc = base;
        s.mem.write_bytes(base, &bytes);
        s.run(fuel);
        s
    }

    #[test]
    fn li_picks_shortest_form() {
        for (v, words) in [(5u32, 1usize), ((-5i32) as u32, 1), (0x7F_FFFF, 1), (0x80_0000, 2)] {
            let mut a = Assembler::new(0);
            a.li(Reg::new(1), v);
            assert_eq!(a.assemble().unwrap().len(), words * 4, "value {v:#x}");
            let mut a2 = Assembler::new(0);
            a2.li(Reg::new(1), v);
            a2.halt(Reg::new(2));
            let s = run_at(0, &a2, 10);
            assert_eq!(s.regs[1], v, "value {v:#x}");
        }
    }

    #[test]
    fn forward_and_backward_branches() {
        // Sum 1..=5 with a backward branch, then skip over a trap with a
        // forward branch.
        let mut a = Assembler::new(0x40);
        let sum = Reg::new(1);
        let i = Reg::new(2);
        let scratch = Reg::new(60);
        a.li(sum, 0);
        a.li(i, 5);
        a.label("loop");
        a.normal(Func::Add, sum, Ri::Reg(sum), Ri::Reg(i));
        a.normal(Func::Dec, i, Ri::Imm(0), Ri::Reg(i));
        a.branch_nonzero_sub(Ri::Reg(i), Ri::Imm(0), "loop", scratch);
        a.branch_zero_sub(Ri::Imm(0), Ri::Imm(0), "done", scratch);
        a.li(sum, 999); // must be skipped
        a.label("done");
        a.halt(Reg::new(61));
        let s = run_at(0x40, &a, 1000);
        assert!(s.is_halted());
        assert_eq!(s.regs[1], 15);
    }

    #[test]
    fn call_and_ret() {
        let link = Reg::new(62);
        let scratch = Reg::new(60);
        let mut a = Assembler::new(0);
        a.call("double", scratch, link);
        a.halt(Reg::new(61));
        a.label("double");
        a.normal(Func::Add, Reg::new(1), Ri::Reg(Reg::new(1)), Ri::Reg(Reg::new(1)));
        a.ret(link, Reg::new(59));
        let bytes = a.assemble().unwrap();
        let mut s = State::new();
        s.regs[1] = 21;
        s.mem.write_bytes(0, &bytes);
        s.run(100);
        assert!(s.is_halted());
        assert_eq!(s.regs[1], 42);
    }

    #[test]
    fn la_and_data_words() {
        let mut a = Assembler::new(0x1000);
        a.la(Reg::new(1), "data");
        a.instr(Instr::LoadMem { w: Reg::new(2), a: Ri::Reg(Reg::new(1)) });
        a.halt(Reg::new(3));
        a.align(4);
        a.label("data");
        a.word(0xCAFE_F00D);
        a.word_label("data");
        let s = run_at(0x1000, &a, 10);
        assert_eq!(s.regs[2], 0xCAFE_F00D);
        let data_addr = s.regs[1];
        assert_eq!(s.mem.read_word(data_addr + 4), data_addr);
    }

    #[test]
    fn align_pads_to_boundary() {
        let mut a = Assembler::new(0);
        a.bytes(vec![1, 2, 3]);
        a.align(8);
        a.label("aligned");
        a.word(7);
        let bytes = a.assemble().unwrap();
        assert_eq!(bytes.len(), 12);
        assert_eq!(&bytes[8..12], &7u32.to_le_bytes());
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut a = Assembler::new(0);
        a.label("x");
        a.label("x");
        assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn undefined_label_rejected() {
        let mut a = Assembler::new(0);
        a.jmp("nowhere", Reg::new(1), Reg::new(2));
        assert_eq!(a.assemble(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn label_at_end_resolves_to_end_address() {
        let mut a = Assembler::new(0);
        a.word(0);
        a.label("end");
        let mut b = a.clone();
        b.word_label("end");
        // "end" is at offset 4.
        let bytes = b.assemble().unwrap();
        assert_eq!(&bytes[4..8], &4u32.to_le_bytes());
    }

    #[test]
    fn here_tracks_addresses() {
        let mut a = Assembler::new(0x100);
        assert_eq!(a.here(), 0x100);
        a.li(Reg::new(1), 0x1234_5678); // two words
        assert_eq!(a.here(), 0x108);
        a.bytes(vec![0; 3]);
        a.align(4);
        assert_eq!(a.here(), 0x10C, "3 bytes padded to 4");
    }
}
