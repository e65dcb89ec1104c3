//! Instruction set data types (§4.1.1 of the paper).

use std::fmt;

/// A register index. Silver has 64 general-purpose registers, so indices
/// occupy six bits in the encoding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!(index < 64, "register index out of range (0..64)");
        Reg(index)
    }

    /// The numeric index of the register.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The raw 6-bit field value.
    #[must_use]
    pub fn bits(self) -> u32 {
        u32::from(self.0)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A register-or-immediate operand.
///
/// Immediates are six-bit *signed* values (−32..=31), sign-extended to a
/// full word when the instruction executes. Larger constants are built with
/// [`Instr::LoadConstant`] / [`Instr::LoadUpperConstant`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ri {
    /// Read the operand from a register.
    Reg(Reg),
    /// A small signed immediate in −32..=31.
    Imm(i8),
}

impl From<Reg> for Ri {
    fn from(r: Reg) -> Self {
        Ri::Reg(r)
    }
}

/// ALU functions (§4.1.1 "ALU operations").
///
/// The paper lists: add, add-with-carry, subtract, increment, decrement,
/// multiplication *with 64-bit output*, and, or, xor, equality, unsigned
/// less-than, signed less-than, read-carry, read-overflow, and
/// return-second-operand. The 64-bit product is exposed as the pair
/// [`Func::Mul`] (low word) / [`Func::MulHi`] (high word), which rounds the
/// function count to sixteen — exactly a four-bit field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Func {
    /// `a + b`; updates carry and overflow.
    Add = 0,
    /// `a + b + carry`; updates carry and overflow.
    AddWithCarry = 1,
    /// `a - b`; updates carry (no-borrow) and overflow.
    Sub = 2,
    /// The current carry flag as `0` or `1`.
    Carry = 3,
    /// The current overflow flag as `0` or `1`.
    Overflow = 4,
    /// `b + 1`.
    Inc = 5,
    /// `b - 1`.
    Dec = 6,
    /// Low word of the unsigned 64-bit product `a * b`.
    Mul = 7,
    /// High word of the unsigned 64-bit product `a * b`.
    MulHi = 8,
    /// Bitwise `a & b`.
    And = 9,
    /// Bitwise `a | b`.
    Or = 10,
    /// Bitwise `a ^ b`.
    Xor = 11,
    /// `1` if `a == b` else `0`.
    Equal = 12,
    /// Signed `a < b` as `0`/`1`.
    Less = 13,
    /// Unsigned `a < b` as `0`/`1`.
    Lower = 14,
    /// The second operand `b`, unchanged.
    Snd = 15,
}

impl Func {
    /// All sixteen ALU functions, in encoding order.
    pub const ALL: [Func; 16] = [
        Func::Add,
        Func::AddWithCarry,
        Func::Sub,
        Func::Carry,
        Func::Overflow,
        Func::Inc,
        Func::Dec,
        Func::Mul,
        Func::MulHi,
        Func::And,
        Func::Or,
        Func::Xor,
        Func::Equal,
        Func::Less,
        Func::Lower,
        Func::Snd,
    ];

    /// Decode a four-bit field.
    #[must_use]
    pub fn from_bits(bits: u32) -> Func {
        Func::ALL[(bits & 0xF) as usize]
    }

    /// The four-bit field value.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }
}

/// Shift and rotation kinds (§4.1.1 "Shifts and rotations").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Shift {
    /// Logical shift left.
    Ll = 0,
    /// Logical shift right.
    Lr = 1,
    /// Arithmetic shift right.
    Ar = 2,
    /// Rotate right.
    Ror = 3,
}

impl Shift {
    /// All four shift kinds, in encoding order.
    pub const ALL: [Shift; 4] = [Shift::Ll, Shift::Lr, Shift::Ar, Shift::Ror];

    /// Decode a two-bit field.
    #[must_use]
    pub fn from_bits(bits: u32) -> Shift {
        Shift::ALL[(bits & 3) as usize]
    }

    /// The two-bit field value.
    #[must_use]
    pub fn bits(self) -> u32 {
        self as u32
    }
}

/// A Silver instruction (§4.1.1).
///
/// Every instruction is 32 bits long and operates over 32-bit words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `R[w] := alu(func, a, b)`.
    Normal { func: Func, w: Reg, a: Ri, b: Ri },
    /// `R[w] := shift(kind, a, b mod 32)`.
    Shift { kind: Shift, w: Reg, a: Ri, b: Ri },
    /// `mem[align4(b)] := a` (whole word, little-endian).
    StoreMem { a: Ri, b: Ri },
    /// `mem[b] := low byte of a`.
    StoreMemByte { a: Ri, b: Ri },
    /// `R[w] := mem[align4(a)]` (whole word).
    LoadMem { w: Reg, a: Ri },
    /// `R[w] := zero-extended mem[a]` (single byte).
    LoadMemByte { w: Reg, a: Ri },
    /// `R[w] := data_in` (input port).
    In { w: Reg },
    /// `v := alu(func, a, b); R[w] := v; data_out := v` (output port).
    Out { func: Func, w: Reg, a: Ri, b: Ri },
    /// `R[w] := accel(a)` — the configurable accelerator function.
    Accelerator { w: Reg, a: Ri },
    /// `R[w] := PC + 4; PC := alu(func, PC, a)`.
    ///
    /// With `func = Snd` this is an absolute jump; with `func = Add` a
    /// PC-relative one; with a register operand the target is computed,
    /// which is how closures are tail-called and functions return.
    Jump { func: Func, w: Reg, a: Ri },
    /// `if alu(func, a, b) == 0 { PC += w } else { PC += 4 }`.
    JumpIfZero { func: Func, w: Ri, a: Ri, b: Ri },
    /// `if alu(func, a, b) != 0 { PC += w } else { PC += 4 }`.
    JumpIfNotZero { func: Func, w: Ri, a: Ri, b: Ri },
    /// Load a 23-bit immediate (or its negation) into a register:
    /// `R[w] := if negate { -imm } else { imm }`.
    LoadConstant { w: Reg, negate: bool, imm: u32 },
    /// Load a 9-bit immediate into the upper bits of a register:
    /// `R[w] := (imm << 23) | (R[w] & 0x7F_FFFF)`.
    LoadUpperConstant { w: Reg, imm: u16 },
    /// Notify external hardware of an observable event. In the ISA
    /// semantics this pushes a snapshot of the I/O window onto the trace of
    /// I/O events (§4.1.1 "Interrupt").
    Interrupt,
    /// An illegal instruction; executing it wedges the machine
    /// (the PC no longer advances).
    Reserved,
}

impl Instr {
    /// Whether this instruction is well-formed for encoding: immediate
    /// fields within range. [`encode`](crate::encode) panics otherwise.
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        match *self {
            Instr::LoadConstant { imm, .. } => imm < (1 << 23),
            Instr::LoadUpperConstant { imm, .. } => imm < (1 << 9),
            _ => true,
        }
    }
}

impl fmt::Display for Ri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ri::Reg(r) => write!(f, "{r}"),
            Ri::Imm(v) => write!(f, "#{v}"),
        }
    }
}

impl fmt::Display for Instr {
    /// Disassembly in the L3-flavoured syntax the paper uses
    /// (`LoadConstant`, `Normal fAdd`, …).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Normal { func, w, a, b } => write!(f, "Normal f{func:?} {w}, {a}, {b}"),
            Instr::Shift { kind, w, a, b } => write!(f, "Shift {kind:?} {w}, {a}, {b}"),
            Instr::StoreMem { a, b } => write!(f, "StoreMEM {a}, [{b}]"),
            Instr::StoreMemByte { a, b } => write!(f, "StoreMEMByte {a}, [{b}]"),
            Instr::LoadMem { w, a } => write!(f, "LoadMEM {w}, [{a}]"),
            Instr::LoadMemByte { w, a } => write!(f, "LoadMEMByte {w}, [{a}]"),
            Instr::In { w } => write!(f, "In {w}"),
            Instr::Out { func, w, a, b } => write!(f, "Out f{func:?} {w}, {a}, {b}"),
            Instr::Accelerator { w, a } => write!(f, "Accelerator {w}, {a}"),
            Instr::Jump { func, w, a } => write!(f, "Jump f{func:?} {w}, {a}"),
            Instr::JumpIfZero { func, w, a, b } => {
                write!(f, "JumpIfZero f{func:?} {w}, {a}, {b}")
            }
            Instr::JumpIfNotZero { func, w, a, b } => {
                write!(f, "JumpIfNotZero f{func:?} {w}, {a}, {b}")
            }
            Instr::LoadConstant { w, negate, imm } => {
                write!(f, "LoadConstant {w}, {}{imm}", if *negate { "-" } else { "" })
            }
            Instr::LoadUpperConstant { w, imm } => write!(f, "LoadUpperConstant {w}, {imm}"),
            Instr::Interrupt => write!(f, "Interrupt"),
            Instr::Reserved => write!(f, "ReservedInstr"),
        }
    }
}
