//! Reference interpreter for circuits — the analogue of running the
//! paper's HOL circuit functions (`AB env s n` in §3).
//!
//! Values are machine integers here, while the Verilog semantics uses bit
//! vectors; the two independent representations are what makes the
//! lockstep equivalence check in [`crate::equiv`] meaningful.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Circuit, RBin, RExpr, RProcess, RStmt, RTy, RUn};
use crate::typecheck::RtlError;

/// A runtime value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RValue {
    /// A single bit.
    Bit(bool),
    /// A word: `(width, value)` with the value masked to the width.
    Word(usize, u64),
    /// A memory of words.
    Mem { elem: usize, data: Vec<u64> },
}

impl RValue {
    /// The zero value of a type.
    #[must_use]
    pub fn zero_of(ty: RTy) -> RValue {
        match ty {
            RTy::Bit => RValue::Bit(false),
            RTy::Word(w) => RValue::Word(w, 0),
            RTy::Mem { elem, len } => RValue::Mem { elem, data: vec![0; len] },
        }
    }

    fn as_scalar(&self) -> Option<(usize, u64)> {
        match self {
            RValue::Bit(b) => Some((1, u64::from(*b))),
            RValue::Word(w, v) => Some((*w, *v)),
            RValue::Mem { .. } => None,
        }
    }
}

fn mask(width: usize, v: u64) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1 << width) - 1)
    }
}

fn to_signed(width: usize, v: u64) -> i64 {
    if width == 0 || width == 64 {
        return v as i64;
    }
    if v >> (width - 1) & 1 == 1 {
        (v as i64) - (1i64 << width)
    } else {
        v as i64
    }
}

/// The state of every signal in a circuit.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RtlState {
    vars: HashMap<String, RValue>,
}

impl RtlState {
    /// The all-zero state of a circuit's signals.
    #[must_use]
    pub fn zeroed(c: &Circuit) -> RtlState {
        let vars = c
            .inputs
            .iter()
            .chain(&c.regs)
            .map(|(n, ty)| (n.clone(), RValue::zero_of(*ty)))
            .collect();
        RtlState { vars }
    }

    /// Reads a signal.
    ///
    /// # Errors
    ///
    /// Unknown signal name.
    pub fn get(&self, name: &str) -> Result<&RValue, RtlError> {
        self.vars.get(name).ok_or_else(|| RtlError::Unknown(name.to_string()))
    }

    /// Reads a word or bit signal as an integer.
    ///
    /// # Errors
    ///
    /// Unknown name or memory-shaped signal.
    pub fn get_scalar(&self, name: &str) -> Result<u64, RtlError> {
        self.get(name)?
            .as_scalar()
            .map(|(_, v)| v)
            .ok_or_else(|| RtlError::ShapeMismatch(name.to_string()))
    }

    /// Writes a signal, preserving its shape.
    ///
    /// # Errors
    ///
    /// Unknown name or shape change.
    pub fn set(&mut self, name: &str, value: RValue) -> Result<(), RtlError> {
        match self.vars.get_mut(name) {
            Some(slot) => {
                let compatible = matches!(
                    (&slot, &value),
                    (RValue::Bit(_), RValue::Bit(_))
                ) || matches!((&slot, &value),
                    (RValue::Word(a, _), RValue::Word(b, _)) if a == b)
                    || matches!((&slot, &value),
                    (RValue::Mem { elem: a, data: d1 }, RValue::Mem { elem: b, data: d2 })
                        if a == b && d1.len() == d2.len());
                if !compatible {
                    return Err(RtlError::ShapeMismatch(name.to_string()));
                }
                *slot = value;
                Ok(())
            }
            None => Err(RtlError::Unknown(name.to_string())),
        }
    }

    /// Iterates over `(name, value)` pairs (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &RValue)> {
        self.vars.iter()
    }
}

/// Evaluates an expression against a state.
///
/// # Errors
///
/// Any dynamic shape error; checked circuits never fail.
pub fn eval(state: &RtlState, e: &RExpr) -> Result<RValue, RtlError> {
    match e {
        RExpr::ConstBit(b) => Ok(RValue::Bit(*b)),
        RExpr::ConstWord(w, v) => Ok(RValue::Word(*w, mask(*w, *v))),
        RExpr::Read(name) => Ok(state.get(name)?.clone()),
        RExpr::ReadMem(name, idx) => {
            let i = scalar(state, idx)?.1;
            match state.get(name)? {
                RValue::Mem { elem, data } => {
                    let v = data.get(i as usize).copied().ok_or_else(|| {
                        RtlError::IndexMayEscape {
                            name: name.clone(),
                            index_width: 64,
                            len: data.len(),
                        }
                    })?;
                    Ok(RValue::Word(*elem, v))
                }
                _ => Err(RtlError::ShapeMismatch(name.clone())),
            }
        }
        RExpr::Bin(op, a, b) => {
            let va = eval(state, a)?;
            let vb = eval(state, b)?;
            bin(*op, &va, &vb)
        }
        RExpr::Un(RUn::Not, a) => match eval(state, a)? {
            RValue::Bit(b) => Ok(RValue::Bit(!b)),
            RValue::Word(w, v) => Ok(RValue::Word(w, mask(w, !v))),
            RValue::Mem { .. } => Err(RtlError::ShapeMismatch("Not".into())),
        },
        RExpr::Mux(c, t, f) => {
            let cond = match eval(state, c)? {
                RValue::Bit(b) => b,
                _ => return Err(RtlError::TypeMismatch("Mux condition".into())),
            };
            if cond {
                eval(state, t)
            } else {
                eval(state, f)
            }
        }
        RExpr::Slice(a, hi, lo) => {
            let (w, v) = scalar(state, a)?;
            if *hi >= w || lo > hi {
                return Err(RtlError::BadSlice { width: w, hi: *hi, lo: *lo });
            }
            Ok(RValue::Word(hi - lo + 1, mask(hi - lo + 1, v >> lo)))
        }
        RExpr::Concat(parts) => {
            let mut acc: u64 = 0;
            let mut total = 0;
            for p in parts.iter().rev() {
                let (w, v) = scalar(state, p)?;
                acc |= v << total;
                total += w;
                if total > 64 {
                    return Err(RtlError::ConcatTooWide(total));
                }
            }
            Ok(RValue::Word(total, acc))
        }
        RExpr::ZExt(w, a) => {
            let (_, v) = scalar(state, a)?;
            Ok(RValue::Word(*w, v))
        }
        RExpr::SExt(w, a) => {
            let (fw, v) = scalar(state, a)?;
            Ok(RValue::Word(*w, mask(*w, to_signed(fw, v) as u64)))
        }
    }
}

fn scalar(state: &RtlState, e: &RExpr) -> Result<(usize, u64), RtlError> {
    eval(state, e)?
        .as_scalar()
        .ok_or_else(|| RtlError::ShapeMismatch("scalar expected".into()))
}

fn bin(op: RBin, a: &RValue, b: &RValue) -> Result<RValue, RtlError> {
    let (wa, va) = a.as_scalar().ok_or_else(|| RtlError::ShapeMismatch(format!("{op:?}")))?;
    let (wb, vb) = b.as_scalar().ok_or_else(|| RtlError::ShapeMismatch(format!("{op:?}")))?;
    let same = || -> Result<(), RtlError> {
        if wa == wb {
            Ok(())
        } else {
            Err(RtlError::TypeMismatch(format!("{op:?}")))
        }
    };
    let keep_shape = |v: u64| -> RValue {
        match (a, b) {
            (RValue::Bit(_), RValue::Bit(_)) => RValue::Bit(v & 1 == 1),
            _ => RValue::Word(wa, mask(wa, v)),
        }
    };
    Ok(match op {
        RBin::Add => {
            same()?;
            RValue::Word(wa, mask(wa, va.wrapping_add(vb)))
        }
        RBin::Sub => {
            same()?;
            RValue::Word(wa, mask(wa, va.wrapping_sub(vb)))
        }
        RBin::Mul => {
            same()?;
            RValue::Word(wa, mask(wa, va.wrapping_mul(vb)))
        }
        RBin::And => {
            same()?;
            keep_shape(va & vb)
        }
        RBin::Or => {
            same()?;
            keep_shape(va | vb)
        }
        RBin::Xor => {
            same()?;
            keep_shape(va ^ vb)
        }
        RBin::Eq => {
            same()?;
            RValue::Bit(va == vb)
        }
        RBin::Lt => {
            same()?;
            RValue::Bit(va < vb)
        }
        RBin::Slt => {
            same()?;
            RValue::Bit(to_signed(wa, va) < to_signed(wb, vb))
        }
        RBin::Shl => RValue::Word(wa, mask(wa, if vb as usize >= wa { 0 } else { va << vb })),
        RBin::Shr => RValue::Word(wa, if vb as usize >= wa { 0 } else { va >> vb }),
        RBin::Sra => {
            let sh = (vb as usize).min(63);
            RValue::Word(wa, mask(wa, (to_signed(wa, va) >> sh) as u64))
        }
    })
}

/// Drives circuit inputs each cycle — the `env` of the paper's theorems,
/// at the circuit level (`is_lab_env acc_env cstep env` instantiates one
/// of these for the Silver processor).
pub trait RtlEnv {
    /// Produces `(input_name, value)` pairs for the given cycle, after
    /// observing the state left by the previous cycle.
    fn drive(&mut self, cycle: u64, state: &RtlState) -> Vec<(String, RValue)>;
}

/// An environment holding every input constant.
#[derive(Clone, Debug)]
pub struct FixedEnv(pub Vec<(String, RValue)>);

impl RtlEnv for FixedEnv {
    fn drive(&mut self, _cycle: u64, _state: &RtlState) -> Vec<(String, RValue)> {
        self.0.clone()
    }
}

enum Queued {
    Var(String, RValue),
    Mem(String, u64, u64),
}

fn exec(state: &mut RtlState, queue: &mut Vec<Queued>, stmts: &[RStmt]) -> Result<(), RtlError> {
    for s in stmts {
        match s {
            RStmt::If(c, t, f) => {
                let cond = match eval(state, c)? {
                    RValue::Bit(b) => b,
                    _ => return Err(RtlError::TypeMismatch("If condition".into())),
                };
                exec(state, queue, if cond { t } else { f })?;
            }
            RStmt::Case(scrut, arms, default) => {
                let (_, v) = scalar(state, scrut)?;
                let mut taken = false;
                for (labels, body) in arms {
                    if labels.contains(&v) {
                        exec(state, queue, body)?;
                        taken = true;
                        break;
                    }
                }
                if !taken {
                    if let Some(body) = default {
                        exec(state, queue, body)?;
                    }
                }
            }
            RStmt::Set(name, e) => {
                let v = eval(state, e)?;
                queue.push(Queued::Var(name.clone(), v));
            }
            RStmt::SetMem(name, idx, val) => {
                let (_, i) = scalar(state, idx)?;
                let (_, v) = scalar(state, val)?;
                queue.push(Queued::Mem(name.clone(), i, v));
            }
            RStmt::Let(name, e) => {
                let v = eval(state, e)?;
                state.set(name, v)?;
            }
        }
    }
    Ok(())
}

fn run_process(
    state: &mut RtlState,
    queue: &mut Vec<Queued>,
    p: &RProcess,
) -> Result<(), RtlError> {
    exec(state, queue, &p.body)
}

/// Executes one clock cycle: all processes read the pre-edge state; the
/// queued writes are merged afterwards (later writes win).
///
/// # Errors
///
/// Any dynamic error; checked circuits only fail on out-of-range memory
/// indices, which the checker rules out.
pub fn cycle(c: &Circuit, state: &mut RtlState) -> Result<(), RtlError> {
    let mut queue = Vec::new();
    for p in &c.processes {
        run_process(state, &mut queue, p)?;
    }
    for q in queue {
        match q {
            Queued::Var(name, v) => state.set(&name, v)?,
            Queued::Mem(name, i, v) => {
                // Clone-free in-place update of the memory word.
                match state.vars.get_mut(&name) {
                    Some(RValue::Mem { data, elem }) => {
                        let len = data.len();
                        let slot = data.get_mut(i as usize).ok_or(RtlError::IndexMayEscape {
                            name: name.clone(),
                            index_width: 64,
                            len,
                        })?;
                        *slot = mask(*elem, v);
                    }
                    _ => return Err(RtlError::ShapeMismatch(name)),
                }
            }
        }
    }
    Ok(())
}

/// Runs `c` for `cycles` cycles from `state`, driving inputs from `env`.
///
/// # Errors
///
/// Propagates any dynamic error.
pub fn run(
    c: &Circuit,
    env: &mut impl RtlEnv,
    state: &mut RtlState,
    cycles: u64,
) -> Result<(), RtlError> {
    for n in 0..cycles {
        step(c, env, state, n)?;
    }
    Ok(())
}

/// One externally-driven step: drive inputs for cycle `n`, then clock.
///
/// # Errors
///
/// Propagates any dynamic error.
pub fn step(
    c: &Circuit,
    env: &mut impl RtlEnv,
    state: &mut RtlState,
    n: u64,
) -> Result<(), RtlError> {
    for (name, v) in env.drive(n, state) {
        state.set(&name, v)?;
    }
    cycle(c, state)
}

impl fmt::Display for RValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RValue::Bit(b) => write!(f, "1'b{}", u8::from(*b)),
            RValue::Word(w, v) => write!(f, "{w}'d{v}"),
            RValue::Mem { elem, data } => write!(f, "mem[{elem}] x {}", data.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn counter() -> Circuit {
        let mut b = CircuitBuilder::new("counter");
        b.input("en", RTy::Bit);
        b.reg("n", RTy::Word(8));
        b.output("n");
        b.process(vec![iff(read("en"), vec![set("n", read("n").add(word(8, 1)))], vec![])]);
        b.build()
    }

    #[test]
    fn counter_counts() {
        let c = counter();
        let mut st = RtlState::zeroed(&c);
        let mut env = FixedEnv(vec![("en".into(), RValue::Bit(true))]);
        run(&c, &mut env, &mut st, 300).unwrap();
        assert_eq!(st.get_scalar("n").unwrap(), 300 % 256, "wraps at 8 bits");
    }

    #[test]
    fn paper_ab_example() {
        // Two processes: A counts pulses, B raises done when count > 10.
        let mut b = CircuitBuilder::new("AB");
        b.input("pulse", RTy::Bit);
        b.reg("count", RTy::Word(8));
        b.reg("done", RTy::Bit);
        b.process(vec![iff(
            read("pulse"),
            vec![set("count", read("count").add(word(8, 1)))],
            vec![],
        )]);
        b.process(vec![iff(
            word(8, 10).lt(read("count")),
            vec![set("done", bit(true))],
            vec![],
        )]);
        let c = b.build();
        crate::typecheck::check(&c).unwrap();
        let mut st = RtlState::zeroed(&c);
        let mut env = FixedEnv(vec![("pulse".into(), RValue::Bit(true))]);
        // pulse_spec holds (pulse always high), so done eventually rises.
        run(&c, &mut env, &mut st, 12).unwrap();
        assert_eq!(st.get("done").unwrap(), &RValue::Bit(true));
    }

    #[test]
    fn nonblocking_swap() {
        let mut b = CircuitBuilder::new("swap");
        b.reg("a", RTy::Word(4));
        b.reg("b", RTy::Word(4));
        b.process(vec![set("a", read("b"))]);
        b.process(vec![set("b", read("a"))]);
        let c = b.build();
        let mut st = RtlState::zeroed(&c);
        st.set("a", RValue::Word(4, 3)).unwrap();
        st.set("b", RValue::Word(4, 9)).unwrap();
        cycle(&c, &mut st).unwrap();
        assert_eq!(st.get_scalar("a").unwrap(), 9);
        assert_eq!(st.get_scalar("b").unwrap(), 3);
    }

    #[test]
    fn memory_read_write() {
        let mut b = CircuitBuilder::new("rf");
        b.input("widx", RTy::Word(2));
        b.input("wdata", RTy::Word(8));
        b.reg("out", RTy::Word(8));
        b.mem("m", 8, 4);
        b.process(vec![
            set_mem("m", read("widx"), read("wdata")),
            set("out", read_mem("m", read("widx"))),
        ]);
        let c = b.build();
        crate::typecheck::check(&c).unwrap();
        let mut st = RtlState::zeroed(&c);
        let mut env = FixedEnv(vec![
            ("widx".into(), RValue::Word(2, 3)),
            ("wdata".into(), RValue::Word(8, 0x5C)),
        ]);
        step(&c, &mut env, &mut st, 0).unwrap();
        assert_eq!(st.get_scalar("out").unwrap(), 0, "read saw pre-edge memory");
        step(&c, &mut env, &mut st, 1).unwrap();
        assert_eq!(st.get_scalar("out").unwrap(), 0x5C);
    }

    #[test]
    fn expression_arithmetic_masks() {
        let st = RtlState::default();
        let v = eval(&st, &word(8, 0xFF).add(word(8, 2))).unwrap();
        assert_eq!(v, RValue::Word(8, 1));
        let v = eval(&st, &word(8, 0x80).sra(word(8, 4))).unwrap();
        assert_eq!(v, RValue::Word(8, 0xF8));
        let v = eval(&st, &word(8, 0x80).slt(word(8, 1))).unwrap();
        assert_eq!(v, RValue::Bit(true));
        let v = eval(&st, &word(4, 0b1010).slice(3, 1)).unwrap();
        assert_eq!(v, RValue::Word(3, 0b101));
        let v = eval(&st, &concat(vec![word(4, 0xA), word(4, 0x5)])).unwrap();
        assert_eq!(v, RValue::Word(8, 0xA5));
        let v = eval(&st, &word(4, 0b1000).sext(8)).unwrap();
        assert_eq!(v, RValue::Word(8, 0xF8));
    }

    #[test]
    fn case_dispatch() {
        let mut b = CircuitBuilder::new("case");
        b.input("sel", RTy::Word(2));
        b.reg("out", RTy::Word(8));
        b.process(vec![RStmt::Case(
            read("sel"),
            vec![
                (vec![0], vec![set("out", word(8, 10))]),
                (vec![1, 2], vec![set("out", word(8, 20))]),
            ],
            Some(vec![set("out", word(8, 99))]),
        )]);
        let c = b.build();
        for (sel, expect) in [(0u64, 10u64), (1, 20), (2, 20), (3, 99)] {
            let mut st = RtlState::zeroed(&c);
            let mut env = FixedEnv(vec![("sel".into(), RValue::Word(2, sel))]);
            step(&c, &mut env, &mut st, 0).unwrap();
            assert_eq!(st.get_scalar("out").unwrap(), expect, "sel={sel}");
        }
    }
}
