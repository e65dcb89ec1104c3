//! Execution coverage instrumentation for the Silver ISA.
//!
//! The differential-testing campaigns (the `campaign` crate) steer
//! random program generation toward *unexplored machine behaviour*. The
//! signal they steer on comes from here:
//!
//! * [`ExecStats`] — per-opcode retire counters, carried on every
//!   [`State`](crate::State) and updated unconditionally (one array add
//!   per retired instruction — cheap enough to leave always-on, and the
//!   basis of `silverc --stats` and the exhaustive encode↔exec coverage
//!   closure test);
//! * [`EdgeSet`] — an AFL-style fixed-size edge bitmap: each retired
//!   `(pc, pc')` pair hashes to one bit, and a case is "interesting"
//!   when it sets a bit no earlier case set. It is a
//!   [`Tracer`](crate::Tracer), so campaigns collect edges from the run
//!   they check by handing it to `State::run_traced` or the shared run
//!   loop; plain runs pass [`NoTrace`](crate::NoTrace) and pay nothing.

use crate::insn::Instr;
use crate::trace::{RetireEvent, Tracer};
use crate::State;

/// The instruction classes of §4.1.1, as dense indices for counters.
///
/// One variant per [`Instr`] constructor, in declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// ALU register/immediate operation.
    Normal = 0,
    /// Shift or rotation.
    Shift = 1,
    /// Word store.
    StoreMem = 2,
    /// Byte store.
    StoreMemByte = 3,
    /// Word load.
    LoadMem = 4,
    /// Byte load.
    LoadMemByte = 5,
    /// Input port read.
    In = 6,
    /// ALU operation driving the output port.
    Out = 7,
    /// Accelerator call.
    Accelerator = 8,
    /// Unconditional (computed) jump.
    Jump = 9,
    /// Conditional jump on zero.
    JumpIfZero = 10,
    /// Conditional jump on nonzero.
    JumpIfNotZero = 11,
    /// 23-bit constant load.
    LoadConstant = 12,
    /// Upper-bits constant load.
    LoadUpperConstant = 13,
    /// I/O-event interrupt.
    Interrupt = 14,
    /// Illegal instruction (never retires; counts stay zero).
    Reserved = 15,
}

impl Opcode {
    /// Number of instruction classes.
    pub const COUNT: usize = 16;

    /// All opcodes, in index order.
    pub const ALL: [Opcode; Opcode::COUNT] = [
        Opcode::Normal,
        Opcode::Shift,
        Opcode::StoreMem,
        Opcode::StoreMemByte,
        Opcode::LoadMem,
        Opcode::LoadMemByte,
        Opcode::In,
        Opcode::Out,
        Opcode::Accelerator,
        Opcode::Jump,
        Opcode::JumpIfZero,
        Opcode::JumpIfNotZero,
        Opcode::LoadConstant,
        Opcode::LoadUpperConstant,
        Opcode::Interrupt,
        Opcode::Reserved,
    ];

    /// The class of an instruction.
    #[must_use]
    pub fn of(instr: &Instr) -> Opcode {
        match instr {
            Instr::Normal { .. } => Opcode::Normal,
            Instr::Shift { .. } => Opcode::Shift,
            Instr::StoreMem { .. } => Opcode::StoreMem,
            Instr::StoreMemByte { .. } => Opcode::StoreMemByte,
            Instr::LoadMem { .. } => Opcode::LoadMem,
            Instr::LoadMemByte { .. } => Opcode::LoadMemByte,
            Instr::In { .. } => Opcode::In,
            Instr::Out { .. } => Opcode::Out,
            Instr::Accelerator { .. } => Opcode::Accelerator,
            Instr::Jump { .. } => Opcode::Jump,
            Instr::JumpIfZero { .. } => Opcode::JumpIfZero,
            Instr::JumpIfNotZero { .. } => Opcode::JumpIfNotZero,
            Instr::LoadConstant { .. } => Opcode::LoadConstant,
            Instr::LoadUpperConstant { .. } => Opcode::LoadUpperConstant,
            Instr::Interrupt => Opcode::Interrupt,
            Instr::Reserved => Opcode::Reserved,
        }
    }

    /// A short stable name (used by `silverc --stats` and campaign
    /// reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Normal => "Normal",
            Opcode::Shift => "Shift",
            Opcode::StoreMem => "StoreMEM",
            Opcode::StoreMemByte => "StoreMEMByte",
            Opcode::LoadMem => "LoadMEM",
            Opcode::LoadMemByte => "LoadMEMByte",
            Opcode::In => "In",
            Opcode::Out => "Out",
            Opcode::Accelerator => "Accelerator",
            Opcode::Jump => "Jump",
            Opcode::JumpIfZero => "JumpIfZero",
            Opcode::JumpIfNotZero => "JumpIfNotZero",
            Opcode::LoadConstant => "LoadConstant",
            Opcode::LoadUpperConstant => "LoadUpperConstant",
            Opcode::Interrupt => "Interrupt",
            Opcode::Reserved => "Reserved",
        }
    }
}

/// Per-opcode retire counters, carried on every [`State`](crate::State).
///
/// Not part of the ISA-visible state (ignored by
/// [`State::isa_visible_eq`](crate::State::isa_visible_eq), like
/// `instructions_retired`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired, indexed by `Opcode as usize`.
    pub opcode_retired: [u64; Opcode::COUNT],
}

impl ExecStats {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Retired count for one opcode.
    #[must_use]
    pub fn count(&self, op: Opcode) -> u64 {
        self.opcode_retired[op as usize]
    }

    /// Total instructions retired.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.opcode_retired.iter().sum()
    }

    /// How many distinct opcodes have retired at least once.
    #[must_use]
    pub fn opcodes_exercised(&self) -> usize {
        self.opcode_retired.iter().filter(|&&c| c > 0).count()
    }

    /// Nonzero `(opcode, count)` pairs, most-retired first (count ties
    /// broken by opcode index, so the ordering is deterministic).
    #[must_use]
    pub fn histogram(&self) -> Vec<(Opcode, u64)> {
        let mut rows: Vec<(Opcode, u64)> = Opcode::ALL
            .iter()
            .map(|&op| (op, self.count(op)))
            .filter(|&(_, c)| c > 0)
            .collect();
        rows.sort_by_key(|&(op, c)| (std::cmp::Reverse(c), op as u8));
        rows
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        for (a, b) in self.opcode_retired.iter_mut().zip(other.opcode_retired.iter()) {
            *a += b;
        }
    }
}

/// Number of bits in an [`EdgeSet`] bitmap (2 KiB of backing store —
/// small enough to allocate per fuzz case, large enough that the Silver
/// programs the campaigns generate collide rarely).
pub const EDGE_BITS: usize = 1 << 14;

/// AFL-style PC-edge bitmap: each retired `(pc, pc')` pair hashes to one
/// of [`EDGE_BITS`] bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeSet {
    bits: Box<[u64; EDGE_BITS / 64]>,
}

impl Default for EdgeSet {
    fn default() -> Self {
        EdgeSet::new()
    }
}

impl EdgeSet {
    /// An empty edge set.
    #[must_use]
    pub fn new() -> Self {
        EdgeSet { bits: Box::new([0u64; EDGE_BITS / 64]) }
    }

    #[inline]
    fn slot(pc: u32, next_pc: u32) -> usize {
        // SplitMix-style avalanche over the packed edge; cheap and well
        // mixed for word-aligned PCs.
        let mut z = (u64::from(pc) << 32) | u64::from(next_pc);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % EDGE_BITS
    }

    /// Records an edge; returns `true` if its bit was not set before.
    pub fn insert(&mut self, pc: u32, next_pc: u32) -> bool {
        let slot = Self::slot(pc, next_pc);
        let (word, bit) = (slot / 64, slot % 64);
        let fresh = self.bits[word] & (1 << bit) == 0;
        self.bits[word] |= 1 << bit;
        fresh
    }

    /// Number of distinct edge bits set.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `other` has any bit this set does not.
    #[must_use]
    pub fn has_new_bits(&self, other: &EdgeSet) -> bool {
        self.bits.iter().zip(other.bits.iter()).any(|(mine, theirs)| theirs & !mine != 0)
    }

    /// ORs `other` into this set; returns how many bits were new.
    pub fn merge(&mut self, other: &EdgeSet) -> usize {
        let mut new = 0;
        for (mine, theirs) in self.bits.iter_mut().zip(other.bits.iter()) {
            new += (theirs & !*mine).count_ones() as usize;
            *mine |= theirs;
        }
        new
    }
}

impl Tracer for EdgeSet {
    #[inline]
    fn retire(&mut self, ev: &RetireEvent, _state: &State) {
        self.insert(ev.pc, ev.next_pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Func, Reg, Ri};

    #[test]
    fn opcode_of_covers_every_class() {
        let r = Reg::new(1);
        let cases = [
            (Instr::Normal { func: Func::Add, w: r, a: Ri::Imm(0), b: Ri::Imm(0) }, Opcode::Normal),
            (Instr::Interrupt, Opcode::Interrupt),
            (Instr::Reserved, Opcode::Reserved),
            (Instr::In { w: r }, Opcode::In),
        ];
        for (i, op) in cases {
            assert_eq!(Opcode::of(&i), op);
        }
        // Indices are dense and in declaration order.
        for (idx, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(*op as usize, idx);
        }
    }

    #[test]
    fn stats_histogram_sorts_and_filters() {
        let mut st = ExecStats::new();
        st.opcode_retired[Opcode::Normal as usize] = 5;
        st.opcode_retired[Opcode::Jump as usize] = 9;
        st.opcode_retired[Opcode::In as usize] = 5;
        let h = st.histogram();
        assert_eq!(h[0], (Opcode::Jump, 9));
        // Tie between Normal and In broken by opcode index.
        assert_eq!(h[1], (Opcode::Normal, 5));
        assert_eq!(h[2], (Opcode::In, 5));
        assert_eq!(st.total(), 19);
        assert_eq!(st.opcodes_exercised(), 3);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats::new();
        let mut b = ExecStats::new();
        a.opcode_retired[0] = 1;
        b.opcode_retired[0] = 2;
        b.opcode_retired[3] = 7;
        a.merge(&b);
        assert_eq!(a.opcode_retired[0], 3);
        assert_eq!(a.opcode_retired[3], 7);
    }

    #[test]
    fn edge_set_insert_merge_new_bits() {
        let mut a = EdgeSet::new();
        assert!(a.insert(0, 4));
        assert!(!a.insert(0, 4), "second insert of same edge is stale");
        assert!(a.insert(4, 8));
        assert_eq!(a.count(), 2);

        let mut b = EdgeSet::new();
        b.insert(0, 4);
        assert!(!a.has_new_bits(&b), "subset adds nothing");
        b.insert(100, 104);
        assert!(a.has_new_bits(&b));
        let added = a.merge(&b);
        assert_eq!(added, 1);
        assert!(!a.has_new_bits(&b));
    }

    #[test]
    fn edge_slots_spread() {
        // Distinct word-aligned edges should not all collide.
        let mut set = EdgeSet::new();
        for pc in 0..200u32 {
            set.insert(pc * 4, pc * 4 + 4);
        }
        assert!(set.count() > 190, "edge hash collapsed: {}", set.count());
    }
}
